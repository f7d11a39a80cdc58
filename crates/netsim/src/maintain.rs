//! Incremental table maintenance under overlay churn.
//!
//! The metric space is immutable; churn mutates the *active overlay set*
//! `A ⊆ V` a scheme serves. Every scheme that can self-heal implements
//! [`Maintainable`]: an incremental [`Maintainable::repair`] that patches
//! only the structures a [`ChurnBatch`] touches, and a from-scratch
//! [`Maintainable::rebuild`] fallback. The [`Maintainer`] drives the
//! degradation ladder the robustness contract demands:
//!
//! 1. **Dirty-set repair** — the scheme re-seats affected net points,
//!    rings and subtrees locally (per-level eval budgets inside
//!    [`NetRepairBudget`] already degrade single levels to scoped greedy
//!    rebuilds).
//! 2. **Whole-scheme rebuild** — if the batch's blast radius exceeds the
//!    configured fraction, or the post-repair conform spot-audit fails,
//!    the maintainer discards the repair and rebuilds from scratch.
//!
//! Each committed batch is *epoch-stamped*: [`Maintainer::epoch`] advances
//! only after the repair (or fallback rebuild) has passed its audit, so
//! readers keyed on the epoch never observe a half-repaired table.

use doubling_metric::graph::NodeId;
use doubling_metric::nets::{ChurnBatch, ChurnBatchError, NetRepair, NetRepairBudget};
use doubling_metric::space::MetricSpace;

/// Counters for search-tree repair work: how many trees were rebuilt
/// (their metric ball touched the change set) vs pair-refreshed over an
/// untouched skeleton.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeRepair {
    /// Trees rebuilt from scratch over the new active ball.
    pub rebuilt: u64,
    /// Trees whose skeleton was provably untouched (pairs redistributed).
    pub refreshed: u64,
}

impl TreeRepair {
    /// Merges another pass's counters into this one.
    pub fn merge(&mut self, other: TreeRepair) {
        self.rebuilt += other.rebuilt;
        self.refreshed += other.refreshed;
    }
}

/// What one [`Maintainable::repair`] call did, structure by structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// The net-hierarchy repair report (level deltas, scoped rebuilds,
    /// distance evaluations).
    pub net: NetRepair,
    /// Rings within the ring radius of a churned net member, patched by
    /// the level delta (the ring part of the blast zone).
    pub rings_rebuilt: u64,
    /// Rings with provably unchanged membership (ranges refreshed).
    pub rings_refreshed: u64,
    /// Search trees rebuilt over a changed ball.
    pub trees_rebuilt: u64,
    /// Search trees pair-refreshed over an untouched skeleton.
    pub trees_refreshed: u64,
}

impl RepairStats {
    /// Fraction of per-structure work that required a full rebuild of the
    /// structure (rings + trees), in `[0, 1]`. This is the repair's *blast
    /// radius*: 0 means pure refresh, 1 means everything was rebuilt.
    pub fn blast_fraction(&self) -> f64 {
        let rebuilt = self.rings_rebuilt + self.trees_rebuilt;
        let total = rebuilt + self.rings_refreshed + self.trees_refreshed;
        if total == 0 {
            0.0
        } else {
            rebuilt as f64 / total as f64
        }
    }

    /// Number of net levels that degraded to a scoped greedy rebuild.
    pub fn scoped_rebuilds(&self) -> usize {
        self.net.scoped_rebuilds.len()
    }
}

/// Why a maintenance batch was rejected outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainError {
    /// The batch is inconsistent with the maintainer's active set.
    InvalidBatch(ChurnBatchError),
    /// The conform spot-audit failed even after the whole-scheme rebuild —
    /// the scheme or the audit itself is broken; the epoch did not advance.
    AuditFailedAfterRebuild,
    /// A compiled forwarding plane is older than the maintainer's last
    /// committed batch: serving from it would forward on pre-churn tables.
    /// The downstream consumer must recompile the plane from the repaired
    /// scheme (see [`Maintainer::check_plane`]).
    StalePlane {
        /// Epoch the plane was compiled at.
        plane_epoch: u64,
        /// The maintainer's current epoch.
        current_epoch: u64,
    },
}

impl std::fmt::Display for MaintainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintainError::InvalidBatch(e) => write!(f, "invalid churn batch: {e}"),
            MaintainError::AuditFailedAfterRebuild => {
                write!(f, "spot-audit failed after whole-scheme rebuild")
            }
            MaintainError::StalePlane { plane_epoch, current_epoch } => write!(
                f,
                "forwarding plane compiled at epoch {plane_epoch} is stale \
                 (maintainer is at epoch {current_epoch}); recompile before serving"
            ),
        }
    }
}

impl std::error::Error for MaintainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaintainError::InvalidBatch(e) => Some(e),
            MaintainError::AuditFailedAfterRebuild | MaintainError::StalePlane { .. } => None,
        }
    }
}

impl From<ChurnBatchError> for MaintainError {
    fn from(e: ChurnBatchError) -> Self {
        MaintainError::InvalidBatch(e)
    }
}

/// A routing scheme whose tables can heal incrementally under overlay
/// churn.
///
/// The contract every implementation upholds (and the repair-vs-rebuild
/// proptests verify): after `repair(batch)`, the scheme is **identical**
/// — byte for byte under `PartialEq` — to a from-scratch build over the
/// post-batch active set. `repair` may panic on a batch that fails
/// [`ChurnBatch::validate`]; drive it through a [`Maintainer`], which
/// validates first.
pub trait Maintainable {
    /// Scheme name for reports (matches the scheme-trait name).
    fn maintain_name(&self) -> &'static str;

    /// The current active overlay set, sorted by id.
    fn active_nodes(&self) -> Vec<NodeId>;

    /// Incrementally repairs the tables for `batch`, re-seating only
    /// affected net points, rings and subtrees.
    fn repair(
        &mut self,
        m: &MetricSpace,
        batch: &ChurnBatch,
        budget: &NetRepairBudget,
    ) -> RepairStats;

    /// From-scratch rebuild over `active` — the graceful-degradation
    /// fallback.
    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]);

    /// Total routing-table bits across all physical nodes (the per-batch
    /// re-price).
    fn total_table_bits(&self) -> u64;
}

/// Fallback thresholds for the [`Maintainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintainerConfig {
    /// Per-level eval budget handed to the scheme's net repair.
    pub budget: NetRepairBudget,
    /// If a repair's [`RepairStats::blast_fraction`] exceeds this, the
    /// repair result is discarded and the scheme rebuilt from scratch
    /// (`1.0` disables the ladder rung).
    pub max_blast_fraction: f64,
    /// If more than this many net levels degraded to scoped rebuilds, the
    /// whole scheme is rebuilt.
    pub max_scoped_rebuilds: usize,
}

impl Default for MaintainerConfig {
    fn default() -> Self {
        MaintainerConfig {
            budget: NetRepairBudget::unbounded(),
            max_blast_fraction: 1.0,
            max_scoped_rebuilds: usize::MAX,
        }
    }
}

/// How a batch was ultimately absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAction {
    /// Incremental repair, no fallback.
    Repaired,
    /// Incremental repair, with one or more scoped net-level rebuilds.
    RepairedScoped,
    /// Blast radius exceeded the budget — whole-scheme rebuild.
    RebuiltBlast,
    /// Too many scoped level rebuilds — whole-scheme rebuild.
    RebuiltScoped,
    /// Post-repair audit failed — whole-scheme rebuild recovered.
    RebuiltAudit,
}

impl BatchAction {
    /// Whether the batch fell back to a whole-scheme rebuild.
    pub fn is_fallback(&self) -> bool {
        matches!(
            self,
            BatchAction::RebuiltBlast | BatchAction::RebuiltScoped | BatchAction::RebuiltAudit
        )
    }

    /// Stable lowercase tag for JSON reports.
    pub fn tag(&self) -> &'static str {
        match self {
            BatchAction::Repaired => "repaired",
            BatchAction::RepairedScoped => "repaired-scoped",
            BatchAction::RebuiltBlast => "rebuilt-blast",
            BatchAction::RebuiltScoped => "rebuilt-scoped",
            BatchAction::RebuiltAudit => "rebuilt-audit",
        }
    }
}

/// The certified outcome of one committed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Epoch stamped on the committed tables (strictly increasing).
    pub epoch: u64,
    /// How the batch was absorbed.
    pub action: BatchAction,
    /// Stats of the incremental repair attempt (kept even when the result
    /// was discarded for a rebuild, for blast-radius accounting).
    pub stats: RepairStats,
    /// Whether the committed tables passed the conform spot-audit.
    pub audit_ok: bool,
    /// Total table bits after the batch (the re-price).
    pub table_bits: u64,
    /// Active node count after the batch.
    pub active: usize,
}

/// Drives [`Maintainable`] schemes through churn batches with validation,
/// certification and the rebuild ladder. See the module docs.
#[derive(Debug)]
pub struct Maintainer<S> {
    scheme: S,
    active: Vec<bool>,
    epoch: u64,
    fallbacks: u64,
    config: MaintainerConfig,
}

impl<S: Maintainable> Maintainer<S> {
    /// Wraps `scheme` (serving `n` physical nodes) for maintenance.
    pub fn new(n: usize, scheme: S, config: MaintainerConfig) -> Self {
        let mut active = vec![false; n];
        for v in scheme.active_nodes() {
            active[v as usize] = true;
        }
        Maintainer { scheme, active, epoch: 0, fallbacks: 0, config }
    }

    /// The maintained scheme (read-only — mutate only through batches).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Epoch of the last committed batch (0 before any batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whole-scheme rebuild fallbacks so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Current number of active nodes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Certifies that a compiled forwarding plane is current: its stamped
    /// epoch must equal the maintainer's. Epoch-stamped batches invalidate
    /// every previously compiled plane — a serving layer must call this
    /// (or recompile) after each committed batch, otherwise it would
    /// silently forward on pre-churn tables.
    ///
    /// # Errors
    ///
    /// [`MaintainError::StalePlane`] when the plane predates (or, equally
    /// suspicious, postdates) the last committed batch.
    pub fn check_plane(
        &self,
        plane: &dyn crate::plane::ForwardingPlane,
    ) -> Result<(), MaintainError> {
        self.check_plane_epoch(plane.epoch())
    }

    /// [`Self::check_plane`] for a bare epoch stamp, for consumers that
    /// track epochs without holding the plane itself.
    ///
    /// # Errors
    ///
    /// [`MaintainError::StalePlane`] on any epoch mismatch.
    pub fn check_plane_epoch(&self, plane_epoch: u64) -> Result<(), MaintainError> {
        if plane_epoch != self.epoch {
            return Err(MaintainError::StalePlane { plane_epoch, current_epoch: self.epoch });
        }
        Ok(())
    }

    /// Applies one churn batch end to end: validate → incremental repair →
    /// blast-radius check → conform spot-audit (`audit` must sample-check
    /// the scheme, e.g. via `conform::audit` oracles) → epoch stamp.
    /// Degrades to a whole-scheme rebuild when a ladder rung fails.
    ///
    /// # Errors
    ///
    /// [`MaintainError::InvalidBatch`] if the batch does not fit the
    /// current active set (nothing is modified), or
    /// [`MaintainError::AuditFailedAfterRebuild`] if even the rebuilt
    /// scheme fails the audit (the epoch does not advance).
    pub fn apply_batch(
        &mut self,
        m: &MetricSpace,
        batch: &ChurnBatch,
        audit: impl Fn(&S) -> bool,
    ) -> Result<BatchReport, MaintainError> {
        batch.validate(&self.active)?;
        let mut new_active = self.active.clone();
        for &v in &batch.leaves {
            new_active[v as usize] = false;
        }
        for &v in &batch.joins {
            new_active[v as usize] = true;
        }
        let ids: Vec<NodeId> =
            (0..new_active.len() as NodeId).filter(|&v| new_active[v as usize]).collect();

        let stats = self.scheme.repair(m, batch, &self.config.budget);
        let mut action = if stats.net.scoped_rebuilds.is_empty() {
            BatchAction::Repaired
        } else {
            BatchAction::RepairedScoped
        };
        if stats.blast_fraction() > self.config.max_blast_fraction {
            self.scheme.rebuild(m, &ids);
            self.fallbacks += 1;
            action = BatchAction::RebuiltBlast;
        } else if stats.scoped_rebuilds() > self.config.max_scoped_rebuilds {
            self.scheme.rebuild(m, &ids);
            self.fallbacks += 1;
            action = BatchAction::RebuiltScoped;
        }

        let mut audit_ok = audit(&self.scheme);
        if !audit_ok && !action.is_fallback() {
            self.scheme.rebuild(m, &ids);
            self.fallbacks += 1;
            action = BatchAction::RebuiltAudit;
            audit_ok = audit(&self.scheme);
        }
        if !audit_ok {
            return Err(MaintainError::AuditFailedAfterRebuild);
        }

        self.active = new_active;
        self.epoch += 1;
        Ok(BatchReport {
            epoch: self.epoch,
            action,
            stats,
            audit_ok,
            table_bits: self.scheme.total_table_bits(),
            active: ids.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_stats_blast_fraction() {
        let mut s = RepairStats::default();
        assert_eq!(s.blast_fraction(), 0.0);
        s.rings_rebuilt = 1;
        s.rings_refreshed = 3;
        assert!((s.blast_fraction() - 0.25).abs() < 1e-12);
        s.trees_rebuilt = 4;
        s.trees_refreshed = 0;
        assert!((s.blast_fraction() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn batch_action_tags_are_stable() {
        assert_eq!(BatchAction::Repaired.tag(), "repaired");
        assert!(BatchAction::RebuiltAudit.is_fallback());
        assert!(!BatchAction::RepairedScoped.is_fallback());
    }

    #[test]
    fn maintain_error_display_chains_batch_error() {
        let e = MaintainError::from(ChurnBatchError::NotActive(3));
        assert!(e.to_string().contains("leave target 3"));
    }
}

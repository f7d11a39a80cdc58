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
//!    rings and subtrees locally; the net hierarchy's dirty-set sweep
//!    reproduces the greedy nets exactly.
//! 2. **Whole-scheme rebuild** — if the repair's blast radius exceeds
//!    [`MaintainerConfig::max_blast_fraction`], or the post-repair conform
//!    spot-audit fails, the maintainer discards the repair and rebuilds
//!    from scratch.
//!
//! Each committed batch is *epoch-stamped*: [`Maintainer::epoch`] advances
//! only after the repair (or fallback rebuild) has passed its audit, and a
//! batch that fails its audit even after the rebuild is rolled back, so
//! readers keyed on the epoch never observe a half-repaired table.

use doubling_metric::graph::NodeId;
use doubling_metric::nets::{ChurnBatch, ChurnBatchError};
use doubling_metric::space::MetricSpace;

/// What one [`Maintainable::repair`] call did, structure by structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairStats {
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
}

/// Why a maintenance batch was rejected outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainError {
    /// The batch is inconsistent with the scheme's active set.
    InvalidBatch(ChurnBatchError),
    /// The conform spot-audit failed even after the whole-scheme rebuild —
    /// the scheme or the audit itself is broken; the epoch did not advance
    /// (see [`Maintainer::apply_batch`]).
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
    fn repair(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> RepairStats;

    /// From-scratch rebuild over `active` — the graceful-degradation
    /// fallback.
    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]);

    /// Total routing-table bits across all physical nodes (the per-batch
    /// re-price).
    fn total_table_bits(&self) -> u64;
}

/// Fallback threshold for the [`Maintainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintainerConfig {
    /// If a repair's [`RepairStats::blast_fraction`] exceeds this, the
    /// repair result is discarded and the scheme rebuilt from scratch
    /// (`1.0` disables the ladder rung).
    pub max_blast_fraction: f64,
}

impl Default for MaintainerConfig {
    fn default() -> Self {
        MaintainerConfig { max_blast_fraction: 1.0 }
    }
}

/// How a batch was ultimately absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAction {
    /// Incremental repair, no fallback.
    Repaired,
    /// Blast radius exceeded the configured fraction — whole-scheme
    /// rebuild.
    RebuiltBlast,
    /// Post-repair audit failed — whole-scheme rebuild recovered. The
    /// only committed batch whose first audit failed.
    RebuiltAudit,
}

impl BatchAction {
    /// Whether the batch fell back to a whole-scheme rebuild.
    pub fn is_fallback(&self) -> bool {
        matches!(self, BatchAction::RebuiltBlast | BatchAction::RebuiltAudit)
    }

    /// Stable lowercase tag for JSON reports.
    pub fn tag(&self) -> &'static str {
        match self {
            BatchAction::Repaired => "repaired",
            BatchAction::RebuiltBlast => "rebuilt-blast",
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
    n: usize,
    epoch: u64,
    config: MaintainerConfig,
}

impl<S: Maintainable> Maintainer<S> {
    /// Wraps `scheme` (serving `n` physical nodes) for maintenance.
    pub fn new(n: usize, scheme: S, config: MaintainerConfig) -> Self {
        Maintainer { scheme, n, epoch: 0, config }
    }

    /// The maintained scheme (read-only — mutate only through batches).
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Epoch of the last committed batch (0 before any batch).
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Applies one churn batch end to end: validate against the scheme's
    /// active set → incremental repair → blast-radius check → conform
    /// spot-audit (`audit` must sample-check the scheme, e.g. via
    /// `conform::audit` oracles) → epoch stamp. Degrades to a whole-scheme
    /// rebuild when a ladder rung fails.
    ///
    /// # Errors
    ///
    /// [`MaintainError::InvalidBatch`] if the batch does not fit the
    /// scheme's current active set (nothing is modified), or
    /// [`MaintainError::AuditFailedAfterRebuild`] if even the rebuilt
    /// scheme fails the audit. In that case the scheme is rebuilt over the
    /// pre-batch active set — by the repair ≡ rebuild contract, the tables
    /// committed at the unchanged epoch — so a plane compiled from it
    /// matches the planes already serving that epoch.
    pub fn apply_batch(
        &mut self,
        m: &MetricSpace,
        batch: &ChurnBatch,
        audit: impl Fn(&S) -> bool,
    ) -> Result<BatchReport, MaintainError> {
        let before = self.scheme.active_nodes();
        let mut active = vec![false; self.n];
        for &v in &before {
            active[v as usize] = true;
        }
        batch.validate(&active)?;
        batch.apply(&mut active);
        let ids: Vec<NodeId> = (0..self.n as NodeId).filter(|&v| active[v as usize]).collect();

        let stats = self.scheme.repair(m, batch);
        let mut action = BatchAction::Repaired;
        if stats.blast_fraction() > self.config.max_blast_fraction {
            self.scheme.rebuild(m, &ids);
            action = BatchAction::RebuiltBlast;
        }

        let mut audit_ok = audit(&self.scheme);
        if !audit_ok && !action.is_fallback() {
            self.scheme.rebuild(m, &ids);
            action = BatchAction::RebuiltAudit;
            audit_ok = audit(&self.scheme);
        }
        if !audit_ok {
            self.scheme.rebuild(m, &before);
            return Err(MaintainError::AuditFailedAfterRebuild);
        }

        self.epoch += 1;
        Ok(BatchReport {
            epoch: self.epoch,
            action,
            stats,
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
        assert!(!BatchAction::Repaired.is_fallback());
    }

    /// A scheme that only tracks its active set and counts the calls the
    /// maintainer makes.
    #[derive(Debug, Default)]
    struct Stub {
        active: Vec<NodeId>,
        repairs: u32,
        rebuilds: u32,
    }

    impl Maintainable for Stub {
        fn maintain_name(&self) -> &'static str {
            "stub"
        }

        fn active_nodes(&self) -> Vec<NodeId> {
            self.active.clone()
        }

        fn repair(&mut self, _m: &MetricSpace, batch: &ChurnBatch) -> RepairStats {
            self.repairs += 1;
            self.active.retain(|v| !batch.leaves.contains(v));
            self.active.extend(&batch.joins);
            self.active.sort_unstable();
            RepairStats::default()
        }

        fn rebuild(&mut self, _m: &MetricSpace, active: &[NodeId]) {
            self.rebuilds += 1;
            self.active = active.to_vec();
        }

        fn total_table_bits(&self) -> u64 {
            self.active.len() as u64
        }
    }

    fn stub_maintainer() -> (MetricSpace, Maintainer<Stub>) {
        let m = MetricSpace::new(&doubling_metric::gen::grid(6, 6));
        let stub = Stub { active: (0..36).collect(), ..Stub::default() };
        (m, Maintainer::new(36, stub, MaintainerConfig::default()))
    }

    #[test]
    fn audit_failing_once_is_recovered_by_a_rebuild() {
        let (m, mut mt) = stub_maintainer();
        let audits = std::cell::Cell::new(0);
        let report = mt
            .apply_batch(&m, &ChurnBatch::new(vec![], vec![5]), |_| {
                audits.set(audits.get() + 1);
                audits.get() > 1
            })
            .unwrap();
        assert_eq!(report.action, BatchAction::RebuiltAudit);
        assert_eq!((report.epoch, mt.epoch()), (1, 1));
        assert_eq!((audits.get(), mt.scheme().repairs, mt.scheme().rebuilds), (2, 1, 1));
        assert_eq!(report.active, 35);
        assert!(!mt.scheme().active_nodes().contains(&5));
        // A clean batch after it: one of the two reports failed an audit.
        let next = mt.apply_batch(&m, &ChurnBatch::new(vec![5], vec![]), |_| true).unwrap();
        let failed = [&report, &next].into_iter().filter(|r| r.action == BatchAction::RebuiltAudit);
        assert_eq!((next.action, next.epoch, failed.count()), (BatchAction::Repaired, 2, 1));
    }

    #[test]
    fn audit_failing_after_rebuild_keeps_the_epoch_and_the_schemes_set() {
        let (m, mut mt) = stub_maintainer();
        let err = mt.apply_batch(&m, &ChurnBatch::new(vec![], vec![5]), |_| false);
        assert_eq!(err, Err(MaintainError::AuditFailedAfterRebuild));
        assert_eq!(mt.epoch(), 0);
        // The fallback rebuild, then the rollback to the pre-batch set.
        assert_eq!((mt.scheme().repairs, mt.scheme().rebuilds), (1, 2));
        assert_eq!(mt.scheme().active_nodes(), (0..36).collect::<Vec<NodeId>>());
        // The next batch is validated against the set the epoch committed.
        assert_eq!(
            mt.apply_batch(&m, &ChurnBatch::new(vec![5], vec![]), |_| true),
            Err(MaintainError::InvalidBatch(ChurnBatchError::AlreadyActive(5)))
        );
        let report = mt.apply_batch(&m, &ChurnBatch::new(vec![], vec![5]), |_| true).unwrap();
        assert_eq!((report.action, report.epoch, report.active), (BatchAction::Repaired, 1, 35));
    }

    #[test]
    fn invalid_batch_modifies_nothing() {
        let (m, mut mt) = stub_maintainer();
        let err = mt.apply_batch(&m, &ChurnBatch::new(vec![3], vec![]), |_| unreachable!());
        assert_eq!(err, Err(MaintainError::InvalidBatch(ChurnBatchError::AlreadyActive(3))));
        assert_eq!(mt.epoch(), 0);
        assert_eq!((mt.scheme().repairs, mt.scheme().rebuilds), (0, 0));
        assert_eq!(mt.scheme().active_nodes(), (0..36).collect::<Vec<NodeId>>());
    }

    #[test]
    fn maintain_error_display_chains_batch_error() {
        let e = MaintainError::from(ChurnBatchError::NotActive(3));
        assert!(e.to_string().contains("leave target 3"));
    }
}

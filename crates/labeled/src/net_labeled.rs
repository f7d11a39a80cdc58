//! The non-scale-free labeled scheme (the workspace's Lemma 3.1).
//!
//! Every node stores its ring `X_i(u) = B_u(2^i/ε) ∩ Y_i` for **all**
//! levels `i ∈ [log Δ]`. Routing is the pure greedy ring walk:
//!
//! 1. At `u`, find the minimal level `i` such that some `x ∈ X_i(u)` has
//!    `l(v) ∈ Range(x, i)`; that `x` is `v(i)`.
//! 2. Step one hop along the shortest path toward `x`; repeat from the new
//!    node.
//!
//! A hit always exists at the top level (`Y_L` is a singleton whose range
//! covers every label and is within `2^L/ε ≥ Δ` of everyone). Progress: the
//! minimal hit level never increases along the walk (moving toward `x`
//! keeps `x` in the ring), the target at a fixed level is the unique
//! `v(i)`, and upon reaching `v(i)` the level strictly drops (for
//! `ε ≤ 1/2`, `v(i−1)` is inside `X_{i−1}(v(i))`), so the walk reaches
//! `v(0) = v`. The stretch analysis is the paper's Eqns. (19)–(21)
//! specialized to `t = final`, giving `1 + O(ε)`.
//!
//! Storage: `O(log Δ)` rings of `(4/ε)^α` entries of `O(log n)` bits —
//! `(1/ε)^{O(α)}·log Δ·log n` bits per node, matching Lemma 3.1. Labels are
//! `⌈log n⌉` bits and headers carry just the destination label.

use doubling_metric::graph::NodeId;
use doubling_metric::nets::{ChurnBatch, NetHierarchy};
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

use netsim::bits::{BitTally, FieldWidths, TableComponent};
use netsim::maintain::{Maintainable, RepairStats};
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Certifiable, Label, LabeledScheme};
use obs::Tracer;

use crate::error::SchemeError;
use crate::rings::{
    affected_nodes, build_ring, level_ranges, patch_ring, refresh_ring_ranges, ring_lookup,
    RingEntry,
};
use crate::view::{LabeledView, NetLabeledView, RingHit};

/// The non-scale-free `(1+O(ε))`-stretch labeled scheme.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use labeled_routing::NetLabeled;
/// use netsim::LabeledScheme;
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let s = NetLabeled::new(&m, Eps::one_over(8))?;
/// let route = s.route(&m, 0, s.label_of(24))?;
/// assert_eq!(route.dst, 24);
/// assert!(route.stretch(&m) <= 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLabeled {
    nets: NetHierarchy,
    eps: Eps,
    widths: FieldWidths,
    /// `rings[u][i]` = `X_i(u)`, all levels. Every physical node keeps
    /// forwarding state; only active nodes are destinations.
    rings: Vec<Vec<Box<[RingEntry]>>>,
    num_levels: usize,
}

impl NetLabeled {
    /// Preprocesses the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::EpsTooLarge`] if `ε > 1/2` (the level-descent
    /// progress argument needs `2^i ≤ 2^{i−1}/ε`).
    pub fn new(m: &MetricSpace, eps: Eps) -> Result<Self, SchemeError> {
        Self::new_traced(m, eps, &Tracer::noop())
    }

    /// [`Self::new`] restricted to an active overlay subset: the hierarchy,
    /// labels and rings cover only `active` (every physical node still
    /// stores rings — inactive nodes simply never appear in them). With all
    /// nodes active this equals `new` exactly.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics if `active` is empty, has duplicates, or is out of range.
    pub fn new_over(m: &MetricSpace, eps: Eps, active: &[NodeId]) -> Result<Self, SchemeError> {
        if !eps.mul_le(2, 1) {
            return Err(SchemeError::EpsTooLarge { got: eps, bound: "1/2" });
        }
        let nets = NetHierarchy::new_over(m, active);
        Ok(Self::from_nets(m, eps, nets))
    }

    /// [`Self::new`] with preprocessing phases recorded into `tracer`:
    /// `"net-hierarchy"` (net-tree construction) and `"ring-build"` (all
    /// `X_i(u)` rings). With [`Tracer::noop`] this is exactly `new`.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn new_traced(m: &MetricSpace, eps: Eps, tracer: &Tracer) -> Result<Self, SchemeError> {
        if !eps.mul_le(2, 1) {
            // 2 ≤ 1/ε  ⟺  ε ≤ 1/2
            return Err(SchemeError::EpsTooLarge { got: eps, bound: "1/2" });
        }
        let nets = {
            let _s = tracer.span("net-hierarchy");
            NetHierarchy::new(m)
        };
        let _s = tracer.span("ring-build");
        Ok(Self::from_nets(m, eps, nets))
    }

    /// Shared tail of every constructor: rings for all physical nodes over
    /// whatever (full or overlay) hierarchy was built.
    fn from_nets(m: &MetricSpace, eps: Eps, nets: NetHierarchy) -> Self {
        let num_levels = m.num_scales();
        let rings: Vec<Vec<Box<[RingEntry]>>> = (0..m.n() as NodeId)
            .map(|u| (0..num_levels).map(|i| build_ring(m, &nets, eps, u, i)).collect())
            .collect();
        NetLabeled { nets, eps, widths: FieldWidths::new(m), rings, num_levels }
    }

    /// The `ε` the scheme was built with.
    pub fn eps(&self) -> Eps {
        self.eps
    }

    /// The net hierarchy the labels come from (shared with upper layers).
    pub fn nets(&self) -> &NetHierarchy {
        &self.nets
    }

    /// Number of ring levels stored per node (`Θ(log Δ)` — the
    /// non-scale-free factor).
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The ring `X_i(u)` — the per-node table a plane compiler packs.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    pub fn ring(&self, u: NodeId, i: usize) -> &[RingEntry] {
        &self.rings[u as usize][i]
    }
}

/// The greedy ring walk over any [`NetLabeledView`] — the scheme's one
/// routing procedure, run by [`NetLabeled`] and by
/// [`crate::NetLabeledPlane`] alike: at each node take the minimal-level
/// ring hit for the target and step toward it, opening a `"ring-walk"`
/// segment whenever the level changes. The header is the destination
/// label.
pub(crate) fn walk<V: NetLabeledView + ?Sized>(
    view: &V,
    rec: &mut RouteRecorder<'_>,
    target: Label,
) -> Result<(), RouteError> {
    rec.note_header_bits(view.widths().node);
    let mut seg_level: Option<u32> = None;
    loop {
        let u = rec.current();
        if view.label_at(u) == target {
            return Ok(());
        }
        let hit = view.min_hit(u, target).ok_or_else(|| RouteError::LookupFailed {
            at: u,
            detail: "no ring hit at any level (broken hierarchy)".into(),
        })?;
        if seg_level != Some(hit.level) {
            rec.begin_segment("ring-walk", Some(hit.level));
            seg_level = Some(hit.level);
        }
        rec.hop(hit.next)?;
    }
}

impl LabeledView for NetLabeled {
    fn widths(&self) -> FieldWidths {
        self.widths
    }

    fn label_at(&self, u: NodeId) -> Label {
        self.nets.label(u)
    }

    fn walk_label(&self, rec: &mut RouteRecorder<'_>, target: Label) -> Result<(), RouteError> {
        walk(self, rec, target)
    }
}

impl NetLabeledView for NetLabeled {
    fn min_hit(&self, u: NodeId, label: Label) -> Option<RingHit> {
        self.rings[u as usize].iter().enumerate().find_map(|(i, ring)| {
            ring_lookup(ring, label).map(|e| RingHit { level: i as u32, x: e.x, next: e.next })
        })
    }
}

impl LabeledScheme for NetLabeled {
    fn scheme_name(&self) -> &'static str {
        "net-labeled"
    }

    fn label_of(&self, v: NodeId) -> Label {
        self.nets.label(v)
    }

    fn label_bits(&self) -> u64 {
        self.widths.node
    }

    fn table_bits(&self, u: NodeId) -> u64 {
        // Per entry: net point id + range (2 labels) + next hop.
        let mut t = BitTally::new();
        for ring in &self.rings[u as usize] {
            t.nodes(&self.widths, 4 * ring.len() as u64);
        }
        t.total()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        self.route_label(m, src, target)
    }
}

impl Certifiable for NetLabeled {
    fn field_widths(&self) -> FieldWidths {
        self.widths
    }

    /// One `"ring"` component per level `i`: `X_i(u)` stores, per entry,
    /// a net point id, the label range `[lo, hi]`, and a next hop — four
    /// node-sized fields. Enumerated independently of
    /// [`LabeledScheme::table_bits`] so a conformance audit can
    /// cross-check the two totals.
    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        self.rings[u as usize]
            .iter()
            .enumerate()
            .map(|(i, ring)| TableComponent {
                nodes: 4 * ring.len() as u64,
                ..TableComponent::new("ring", i as u32)
            })
            .collect()
    }
}

impl Maintainable for NetLabeled {
    fn maintain_name(&self) -> &'static str {
        "net-labeled"
    }

    fn active_nodes(&self) -> Vec<NodeId> {
        self.nets.active_nodes().to_vec()
    }

    /// Repairs the net hierarchy via [`NetHierarchy::apply_churn`], then
    /// patches the rings within the ring radius of a changed net member by
    /// their level delta ([`patch_ring`]) and range-refreshes the rest. The
    /// repaired scheme is **identical** to [`NetLabeled::new_over`] on the
    /// post-churn active set.
    ///
    /// # Panics
    ///
    /// Panics if the batch is invalid against the current active set.
    fn repair(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> RepairStats {
        let deltas = self.nets.apply_churn(m, batch);
        let mut stats = RepairStats::default();
        for (i, delta) in deltas.iter().enumerate() {
            let changed = delta.changed();
            let affected = (!changed.is_empty()).then(|| affected_nodes(m, self.eps, i, &changed));
            let ranges = level_ranges(&self.nets, m.n(), i);
            for u in 0..m.n() {
                let ring = &mut self.rings[u][i];
                if affected.as_ref().is_some_and(|a| a[u]) {
                    *ring = patch_ring(ring, m, &ranges, self.eps, u as NodeId, i, delta);
                    stats.rings_rebuilt += 1;
                } else {
                    refresh_ring_ranges(ring, &ranges);
                    stats.rings_refreshed += 1;
                }
            }
        }
        stats
    }

    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]) {
        *self = NetLabeled::new_over(m, self.eps, active).expect("eps validated at construction");
    }

    fn total_table_bits(&self) -> u64 {
        (0..self.rings.len() as NodeId).map(|u| self.table_bits(u)).sum()
    }
}

impl netsim::recovery::FallbackHierarchy for NetLabeled {
    /// The scheme's own net hierarchy: `LevelFallback` climbs the zooming
    /// sequence these routing tables are built on, so a fallback landmark
    /// is always a node the scheme can re-plan from.
    fn fallback_hierarchy(&self) -> &NetHierarchy {
        self.nets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::gen;
    use netsim::scheme::Labeled;
    use netsim::stats::{all_pairs, eval, sample_pairs};

    fn check_graph(g: &doubling_metric::Graph, eps: Eps, max_allowed: f64) {
        let m = MetricSpace::new(g);
        let s = NetLabeled::new(&m, eps).unwrap();
        let pairs = if m.n() <= 40 { all_pairs(m.n()) } else { sample_pairs(m.n(), 400, 7) };
        let res = eval(&Labeled(&s), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0, "all routes must deliver");
        assert!(
            res.max_stretch <= max_allowed,
            "stretch {} exceeds {} (eps {})",
            res.max_stretch,
            max_allowed,
            eps
        );
    }

    #[test]
    fn delivers_on_grid() {
        check_graph(&gen::grid(6, 6), Eps::one_over(8), 1.0 + 20.0 / 8.0);
    }

    #[test]
    fn stretch_shrinks_with_eps_on_grid() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let pairs = sample_pairs(m.n(), 500, 3);
        let s8 = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        let s16 = NetLabeled::new(&m, Eps::one_over(16)).unwrap();
        let r8 = eval(&Labeled(&s8), &m, &pairs, 1, |_, _, _| {});
        let r16 = eval(&Labeled(&s16), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r8.failures + r16.failures, 0);
        assert!(r16.max_stretch <= r8.max_stretch + 1e-9);
        // 1 + O(ε): comfortably small at ε = 1/16.
        assert!(r16.max_stretch <= 1.6, "max stretch {}", r16.max_stretch);
    }

    #[test]
    fn delivers_on_all_families() {
        for f in gen::Family::all() {
            let g = f.build(60, 11);
            check_graph(&g, Eps::one_over(8), 4.0);
        }
    }

    #[test]
    fn exp_path_works_but_tables_grow_with_log_delta() {
        let m_small = MetricSpace::new(&gen::exp_weight_path(8));
        let m_big = MetricSpace::new(&gen::exp_weight_path(32));
        let eps = Eps::one_over(4);
        let s_small = NetLabeled::new(&m_small, eps).unwrap();
        let s_big = NetLabeled::new(&m_big, eps).unwrap();
        // More levels (log Δ grows linearly in n here).
        assert!(s_big.num_levels() > 3 * s_small.num_levels());
        let res = eval(&Labeled(&s_big), &m_big, &all_pairs(m_big.n()), 1, |_, _, _| {});
        assert_eq!(res.failures, 0);
    }

    #[test]
    fn rejects_large_eps() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        assert!(matches!(
            NetLabeled::new(&m, Eps::new(3, 4).unwrap()),
            Err(SchemeError::EpsTooLarge { .. })
        ));
        assert!(NetLabeled::new(&m, Eps::one_over(2)).is_ok());
    }

    #[test]
    fn labels_are_compact() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        assert_eq!(s.label_bits(), 6); // ⌈log₂ 64⌉
        let mut seen = [false; 64];
        for v in 0..64 {
            let l = s.label_of(v);
            assert!(!seen[l as usize]);
            seen[l as usize] = true;
        }
    }

    #[test]
    fn header_is_one_label() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = NetLabeled::new(&m, Eps::one_over(4)).unwrap();
        let r = s.route(&m, 0, s.label_of(24)).unwrap();
        assert_eq!(r.max_header_bits, 5);
    }

    #[test]
    fn new_over_all_equals_new_and_repair_matches_rebuild() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let eps = Eps::one_over(8);
        let all: Vec<NodeId> = (0..36).collect();
        let mut s = NetLabeled::new_over(&m, eps, &all).unwrap();
        assert_eq!(s, NetLabeled::new(&m, eps).unwrap());

        let mut active: Vec<NodeId> = all.clone();
        for batch in [
            doubling_metric::nets::ChurnBatch::new(vec![], vec![7, 20]),
            doubling_metric::nets::ChurnBatch::new(vec![7], vec![0, 35]),
            doubling_metric::nets::ChurnBatch::new(vec![0, 20], vec![1]),
        ] {
            let stats = s.repair(&m, &batch);
            assert!(stats.rings_rebuilt + stats.rings_refreshed > 0);
            active.retain(|v| batch.leaves.binary_search(v).is_err());
            active.extend(&batch.joins);
            active.sort_unstable();
            let fresh = NetLabeled::new_over(&m, eps, &active).unwrap();
            assert_eq!(s, fresh, "repair diverged from rebuild");
            // Routes between active nodes still deliver.
            for (u, v) in sample_pairs(36, 40, 9) {
                if active.binary_search(&u).is_ok() && active.binary_search(&v).is_ok() && u != v {
                    let r = s.route(&m, u, s.label_of(v)).unwrap();
                    assert_eq!(r.dst, v);
                }
            }
        }
    }

    #[test]
    fn route_segments_have_nonincreasing_levels() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let s = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
        for (u, v) in sample_pairs(64, 60, 5) {
            let r = s.route(&m, u, s.label_of(v)).unwrap();
            let levels: Vec<u32> = r.segments.iter().filter_map(|s| s.level).collect();
            for w in levels.windows(2) {
                assert!(w[0] >= w[1], "levels must not increase: {levels:?}");
            }
        }
    }
}

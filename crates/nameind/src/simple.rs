//! The simpler (non-scale-free) name-independent scheme — **Theorem 1.4**,
//! Sections 3.1–3.2 of the paper.
//!
//! For every search round `k` (see [`crate::rounds::Rounds`]) and every net
//! point `y` of the hosting level there is a search tree `T(y, ρ_k)` over
//! the ball `B_y(ρ_k)`, storing the pair `(name(v), label(v))` for every
//! node `v` in the ball — the paper's `T(u, 2^i/ε)` family, with the radii
//! anchored at the minimum-distance scale so that the first successful
//! round always costs `O(d)` (Lemma 3.4's envelope; see the rounds module
//! for why the literal `2^i/ε` start breaks adjacent pairs).
//!
//! Routing (**Algorithm 3**): the source walks its zooming sequence; at
//! the round-`k` host `u(i_k)` it runs Algorithm 2 on `T(u(i_k), ρ_k)`;
//! the first successful round yields the destination's label, and the
//! underlying labeled scheme finishes the job. Every movement —
//! zooming-hop, search-tree virtual edge, final leg — is executed as a
//! real route of the underlying labeled scheme and charged its true cost.
//!
//! Storage (Lemma 3.3): each node appears in `(1/ε)^{O(α)}` search trees
//! per round and `O(log Δ + log 1/ε)` rounds —
//! `(1/ε)^{O(α)}·log Δ·log n` bits.

use doubling_metric::graph::NodeId;
use doubling_metric::nets::ChurnBatch;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

use labeled_routing::{NetLabeled, SchemeError};
use netsim::bits::{BitTally, FieldWidths, TableComponent};
use netsim::maintain::{Maintainable, RepairStats};
use netsim::naming::Naming;
use netsim::route::{Route, RouteError};
use netsim::scheme::{Certifiable, Label, LabeledScheme, Name, NameIndependentScheme};
use obs::Tracer;
use searchtree::{SearchTree, SearchTreeConfig};

use crate::rounds::Rounds;
use crate::view::{route_named, Facility, NameIndependentView};

/// The `(name, label)` pairs a search tree stores for the given (active)
/// ball nodes. Keys are names, so the store order is irrelevant.
fn tree_pairs(naming: &Naming, underlying: &NetLabeled, ball: &[NodeId]) -> Vec<(Name, Label)> {
    ball.iter().map(|&v| (naming.name_of(v), underlying.label_of(v))).collect()
}

/// Builds the round search tree `T(y, radius)` over the *active* part of
/// `B_y(radius)`.
fn build_tree(
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    underlying: &NetLabeled,
    y: NodeId,
    radius: doubling_metric::graph::Dist,
) -> SearchTree<Label> {
    let ball: Vec<NodeId> =
        m.ball(y, radius).iter().copied().filter(|&x| underlying.nets().is_active(x)).collect();
    let pairs = tree_pairs(naming, underlying, &ball);
    SearchTree::new(
        m,
        y,
        &ball,
        SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: None },
        pairs,
    )
}

/// Per-node search-tree storage shares (bits), recomputed wholesale after
/// any tree change.
fn compute_search_bits(
    n: usize,
    widths: FieldWidths,
    trees: &[Vec<SearchTree<Label>>],
) -> Vec<u64> {
    let mut search_bits = vec![0u64; n];
    for level in trees {
        for tree in level {
            tree.add_storage_bits(&mut search_bits, widths.node, widths.node, |_| widths.node);
        }
    }
    search_bits
}

/// The `(9+O(ε))`-stretch non-scale-free name-independent scheme.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use name_independent::SimpleNameIndependent;
/// use netsim::{NameIndependentScheme, Naming};
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let naming = Naming::random(25, 7);
/// let s = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone())?;
/// // Route by *name*: the scheme discovers where the name lives.
/// let route = s.route(&m, 0, 17)?;
/// assert_eq!(route.dst, naming.node_of(17));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleNameIndependent {
    underlying: NetLabeled,
    naming: Naming,
    eps: Eps,
    widths: FieldWidths,
    rounds: Rounds,
    /// `trees[k][j]` = search tree of the `j`-th member of the round-`k`
    /// hosting net level.
    trees: Vec<Vec<SearchTree<Label>>>,
    /// Per-node search-tree storage share (bits), precomputed.
    search_bits: Vec<u64>,
}

impl SimpleNameIndependent {
    /// Preprocesses the scheme over `m` with the adversarial `naming`.
    ///
    /// # Errors
    ///
    /// Propagates [`SchemeError::EpsTooLarge`] from the underlying labeled
    /// scheme (`ε ≤ 1/2`).
    ///
    /// # Panics
    ///
    /// Panics if `naming.n() != m.n()`.
    pub fn new(m: &MetricSpace, eps: Eps, naming: Naming) -> Result<Self, SchemeError> {
        Self::new_traced(m, eps, naming, &Tracer::noop())
    }

    /// [`Self::new`] with preprocessing phases recorded into `tracer`:
    /// `"underlying-labeled"` (the [`NetLabeled`] build, with its own
    /// sub-phases nested inside), `"round-schedule"`,
    /// `"search-tree-build"` (all `T(y, ρ_k)`), and `"table-assembly"`
    /// (per-node bit shares). With [`Tracer::noop`] this is exactly `new`.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics if `naming.n() != m.n()`.
    pub fn new_traced(
        m: &MetricSpace,
        eps: Eps,
        naming: Naming,
        tracer: &Tracer,
    ) -> Result<Self, SchemeError> {
        assert_eq!(naming.n(), m.n(), "naming must cover the graph");
        let underlying = {
            let _s = tracer.span("underlying-labeled");
            NetLabeled::new_traced(m, eps, tracer)?
        };
        Ok(Self::from_underlying(m, eps, naming, underlying, tracer))
    }

    /// As [`Self::new`], but over the *active overlay* `active` only: trees
    /// are hosted by active net points and index active nodes only, and
    /// routes may only target active names. Physical forwarding state (the
    /// underlying rings) still spans every node, so inactive nodes forward
    /// but are invisible to name lookups.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics on an empty, duplicated, or out-of-range `active` set, or if
    /// `naming.n() != m.n()`.
    pub fn new_over(
        m: &MetricSpace,
        eps: Eps,
        naming: Naming,
        active: &[NodeId],
    ) -> Result<Self, SchemeError> {
        assert_eq!(naming.n(), m.n(), "naming must cover the graph");
        let underlying = NetLabeled::new_over(m, eps, active)?;
        Ok(Self::from_underlying(m, eps, naming, underlying, &Tracer::noop()))
    }

    /// Builds the round schedule, search trees, and per-node bit shares on
    /// top of an already-built underlying scheme. Shared by every
    /// construction path and by whole-scheme rebuilds, so repairs are
    /// byte-comparable to from-scratch builds.
    fn from_underlying(
        m: &MetricSpace,
        eps: Eps,
        naming: Naming,
        underlying: NetLabeled,
        tracer: &Tracer,
    ) -> Self {
        let widths = FieldWidths::new(m);
        let rounds = {
            let _s = tracer.span("round-schedule");
            Rounds::new(m, eps)
        };

        let trees: Vec<Vec<SearchTree<Label>>> = {
            let _s = tracer.span("search-tree-build");
            (0..rounds.count())
                .map(|k| {
                    let radius = rounds.radius(k);
                    underlying
                        .nets()
                        .level(rounds.host_level(k))
                        .iter()
                        .map(|&y| build_tree(m, eps, &naming, &underlying, y, radius))
                        .collect()
                })
                .collect()
        };

        let search_bits = {
            let _s = tracer.span("table-assembly");
            compute_search_bits(m.n(), widths, &trees)
        };

        SimpleNameIndependent { underlying, naming, eps, widths, rounds, trees, search_bits }
    }

    /// The underlying labeled scheme.
    pub fn underlying(&self) -> &NetLabeled {
        &self.underlying
    }

    /// The naming this scheme resolves.
    pub fn naming(&self) -> &Naming {
        &self.naming
    }

    /// The round schedule.
    pub fn rounds(&self) -> &Rounds {
        &self.rounds
    }

    /// The `ε` this scheme was built with.
    pub fn eps(&self) -> Eps {
        self.eps
    }
}

impl NameIndependentView for SimpleNameIndependent {
    type Labeled = NetLabeled;
    type Tree<'a> = &'a SearchTree<Label>;

    fn underlying(&self) -> &NetLabeled {
        &self.underlying
    }

    fn name_at(&self, u: NodeId) -> Name {
        self.naming.name_of(u)
    }

    fn round_count(&self) -> usize {
        self.rounds.count()
    }

    fn hosts(&self, k: usize) -> usize {
        self.underlying.nets().level(self.rounds.host_level(k)).len()
    }

    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize) {
        self.rounds.zoom_row(self.underlying.nets(), u, k)
    }

    fn facility(&self, k: usize, j: usize) -> Facility<&SearchTree<Label>> {
        Facility::Own(&self.trees[k][j])
    }
}

impl NameIndependentScheme for SimpleNameIndependent {
    fn scheme_name(&self) -> &'static str {
        "simple-name-independent"
    }

    fn table_bits(&self, u: NodeId) -> u64 {
        let mut t = BitTally::new();
        // Underlying labeled tables.
        t.raw(self.underlying.table_bits(u));
        // One netting-tree parent label.
        t.nodes(&self.widths, 1);
        // Search-tree shares.
        t.raw(self.search_bits[u as usize]);
        t.total()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        route_named(self, m, src, name)
    }
}

impl Certifiable for SimpleNameIndependent {
    fn field_widths(&self) -> FieldWidths {
        self.widths
    }

    /// Splices in the underlying [`NetLabeled`] enumeration, then adds the
    /// one netting-tree parent label (`"net-parent"`) and the node's
    /// search-tree shares (`"search-share"`). Independent of
    /// [`NameIndependentScheme::table_bits`] by construction.
    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        let mut out = self.underlying.table_components(u);
        out.push(TableComponent { nodes: 1, ..TableComponent::new("net-parent", 0) });
        out.push(TableComponent {
            raw: self.search_bits[u as usize],
            ..TableComponent::new("search-share", 0)
        });
        out
    }
}

impl Maintainable for SimpleNameIndependent {
    fn maintain_name(&self) -> &'static str {
        "simple-name-independent"
    }

    fn active_nodes(&self) -> Vec<NodeId> {
        self.underlying.nets().active_nodes().to_vec()
    }

    /// Incrementally repairs the scheme after `batch` joins and leaves.
    ///
    /// The underlying labeled scheme repairs first; then, per round, a
    /// host's search tree is fully rebuilt only when its ball was touched —
    /// some churned node sits within the round radius — or when the host
    /// itself is new to the level. Untouched trees keep their skeleton and
    /// only re-store the `(name, label)` pairs (labels are renumbered by
    /// every hierarchy repair). Search-bit shares are recomputed wholesale.
    /// The result is byte-identical to [`SimpleNameIndependent::new_over`]
    /// on the post-churn active set.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is invalid against the current active set.
    fn repair(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> RepairStats {
        let old_hosts: Vec<Vec<NodeId>> = (0..self.rounds.count())
            .map(|k| self.underlying.nets().level(self.rounds.host_level(k)).to_vec())
            .collect();
        let mut stats = self.underlying.repair(m, batch);

        let changed = batch.changed();
        #[allow(clippy::needless_range_loop)] // k also indexes self.trees
        for k in 0..self.rounds.count() {
            let radius = self.rounds.radius(k);
            let hosts = self.underlying.nets().level(self.rounds.host_level(k)).to_vec();
            let mut old: Vec<Option<SearchTree<Label>>> =
                std::mem::take(&mut self.trees[k]).into_iter().map(Some).collect();
            self.trees[k] = hosts
                .iter()
                .map(|&y| {
                    let kept = old_hosts[k]
                        .binary_search(&y)
                        .ok()
                        .and_then(|j| old[j].take())
                        .filter(|_| !changed.iter().any(|&c| m.dist(y, c) <= radius));
                    match kept {
                        Some(mut tree) => {
                            // Ball ∩ active is unchanged: keep the skeleton,
                            // re-store the renumbered labels.
                            tree.refresh_pairs(tree_pairs(
                                &self.naming,
                                &self.underlying,
                                tree.tree().nodes(),
                            ));
                            stats.trees_refreshed += 1;
                            tree
                        }
                        None => {
                            stats.trees_rebuilt += 1;
                            build_tree(m, self.eps, &self.naming, &self.underlying, y, radius)
                        }
                    }
                })
                .collect();
        }
        self.search_bits = compute_search_bits(m.n(), self.widths, &self.trees);
        stats
    }

    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]) {
        *self = SimpleNameIndependent::new_over(m, self.eps, self.naming.clone(), active)
            .expect("eps validated at construction");
    }

    fn total_table_bits(&self) -> u64 {
        (0..self.naming.n() as NodeId).map(|u| self.table_bits(u)).sum()
    }
}

impl netsim::recovery::FallbackHierarchy for SimpleNameIndependent {
    /// The underlying labeled scheme's net hierarchy: a fallback re-issues
    /// the name lookup from a coarser net center, whose ball tables cover
    /// a larger name range.
    fn fallback_hierarchy(&self) -> &doubling_metric::nets::NetHierarchy {
        self.underlying.nets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch_envelope;
    use doubling_metric::gen;
    use netsim::scheme::Named;
    use netsim::stats::{all_pairs, eval, sample_pairs};

    fn check(g: &doubling_metric::Graph, eps: Eps, seed: u64) -> netsim::stats::EvalResult {
        let m = MetricSpace::new(g);
        let naming = Naming::random(m.n(), seed);
        let s = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let pairs = if m.n() <= 36 { all_pairs(m.n()) } else { sample_pairs(m.n(), 300, 7) };
        let res = eval(&Named(&s, &naming), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0, "all routes must deliver");
        assert!(
            res.max_stretch <= stretch_envelope(eps),
            "stretch {} exceeds envelope {} on eps {}",
            res.max_stretch,
            stretch_envelope(eps),
            eps
        );
        res
    }

    #[test]
    fn delivers_on_grid_within_envelope() {
        check(&gen::grid(6, 6), Eps::one_over(8), 3);
    }

    #[test]
    fn delivers_on_all_families() {
        for f in gen::Family::all() {
            let g = f.build(50, 11);
            check(&g, Eps::one_over(8), 5);
        }
    }

    #[test]
    fn adjacent_pairs_have_bounded_stretch() {
        // The round-schedule fix: nearest-neighbour routes must not pay the
        // Θ(1/ε) of a radius-2⁰/ε search, even for tiny ε.
        let m = MetricSpace::new(&gen::grid(7, 7));
        let naming = Naming::random(49, 2);
        for k in [8u64, 16, 32] {
            let s = SimpleNameIndependent::new(&m, Eps::one_over(k), naming.clone()).unwrap();
            for (u, v, _) in m.graph().edges() {
                let r = s.route(&m, u, naming.name_of(v)).unwrap();
                assert!(r.stretch(&m) <= 6.0, "adjacent stretch {} at eps 1/{k}", r.stretch(&m));
            }
        }
    }

    #[test]
    fn max_stretch_does_not_blow_up_as_eps_shrinks() {
        let m = MetricSpace::new(&gen::grid(7, 7));
        let naming = Naming::random(49, 2);
        let pairs = all_pairs(49);
        let mut maxes = Vec::new();
        for k in [4u64, 8, 16, 32] {
            let s = SimpleNameIndependent::new(&m, Eps::one_over(k), naming.clone()).unwrap();
            let r = eval(&Named(&s, &naming), &m, &pairs, 1, |_, _, _| {});
            assert_eq!(r.failures, 0);
            maxes.push(r.max_stretch);
        }
        // The 9+O(ε) envelope: every measured max must stay below ~13 and
        // must not grow as ε shrinks beyond noise.
        for &mx in &maxes {
            assert!(mx <= 13.0, "max stretch {mx} out of envelope: {maxes:?}");
        }
        assert!(
            *maxes.last().unwrap() <= maxes[0] + 1.0,
            "stretch should not degrade as eps shrinks: {maxes:?}"
        );
    }

    #[test]
    fn naming_is_respected() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let naming = Naming::random(16, 9);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(4), naming.clone()).unwrap();
        for v in 0..16u32 {
            let r = s.route(&m, 3, naming.name_of(v)).unwrap();
            assert_eq!(r.dst, v, "route must end at the named node");
        }
    }

    #[test]
    fn self_route_is_free() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let naming = Naming::identity(9);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(4), naming).unwrap();
        let r = s.route(&m, 5, 5).unwrap();
        assert_eq!(r.cost, 0);
        assert_eq!(r.dst, 5);
    }

    #[test]
    fn segments_follow_zoom_search_final_pattern() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let naming = Naming::random(36, 4);
        let s = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone()).unwrap();
        for (u, v) in sample_pairs(36, 40, 1) {
            let r = s.route(&m, u, naming.name_of(v)).unwrap();
            let labels: Vec<&str> = r.segments.iter().map(|sg| sg.label).collect();
            assert_eq!(*labels.last().unwrap(), "final", "route must end with the final leg");
            for l in &labels {
                assert!(["zoom", "search", "final"].contains(l));
            }
        }
    }

    #[test]
    fn new_over_all_equals_new_and_repair_matches_rebuild() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let eps = Eps::one_over(8);
        let naming = Naming::random(36, 5);
        let all: Vec<NodeId> = (0..36).collect();
        let mut s = SimpleNameIndependent::new_over(&m, eps, naming.clone(), &all).unwrap();
        assert_eq!(s, SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap());

        use doubling_metric::nets::ChurnBatch;
        let mut active = [true; 36];
        for (joins, leaves) in
            [(vec![], vec![7u32, 21, 0]), (vec![7u32, 0], vec![30, 31]), (vec![31u32], vec![2, 3])]
        {
            let batch = ChurnBatch::new(joins, leaves);
            s.repair(&m, &batch);
            batch.apply(&mut active);
            let ids: Vec<NodeId> = (0..36u32).filter(|&v| active[v as usize]).collect();
            let fresh = SimpleNameIndependent::new_over(&m, eps, naming.clone(), &ids).unwrap();
            assert_eq!(s, fresh, "repair must be byte-identical to rebuild");
            // Active-pair routes still deliver with the repaired tables.
            for (a, b) in [(0usize, ids.len() - 1), (1, ids.len() / 2), (2, ids.len() - 2)] {
                let (u, v) = (ids[a], ids[b]);
                let r = s.route(&m, u, naming.name_of(v)).unwrap();
                assert_eq!(r.dst, v);
            }
        }
    }

    #[test]
    fn table_bits_scale_with_log_delta() {
        // Same n, exponentially larger Δ → more rounds → bigger tables.
        let m_small = MetricSpace::new(&gen::path(32));
        let m_big = MetricSpace::new(&gen::exp_weight_path(32));
        let eps = Eps::one_over(4);
        let s_small = SimpleNameIndependent::new(&m_small, eps, Naming::identity(32)).unwrap();
        let s_big = SimpleNameIndependent::new(&m_big, eps, Naming::identity(32)).unwrap();
        let max_small = (0..32).map(|u| s_small.table_bits(u)).max().unwrap();
        let max_big = (0..32).map(|u| s_big.table_bits(u)).max().unwrap();
        assert!(
            max_big > 2 * max_small,
            "exp-Δ tables ({max_big}) should dwarf poly-Δ tables ({max_small})"
        );
    }
}

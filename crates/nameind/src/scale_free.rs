//! The scale-free name-independent scheme — **Theorem 1.1**, Section 3.3
//! of the paper.
//!
//! The simpler scheme's `log Δ` factor comes from keeping a search tree for
//! *every* ball `B_u(2^i/ε)`, `u ∈ Y_i`, `i ∈ [log Δ]`. The scale-free
//! scheme keeps two families instead:
//!
//! * **ℬ-type** (one per packed ball `B ∈ ℬ_j`, all `j ∈ [log n]`): a
//!   search tree over `B`'s own `2^j` nodes storing the `(name, label)`
//!   pairs of the *larger* ball `B_c(r_c(j+2))` — `2^{j+2}` pairs, i.e. 4
//!   pairs per node.
//! * **𝒜-type** (the surviving per-round balls): the round-`k` ball
//!   `B_y(ρ_k)` keeps its own search tree **unless** some packed ball
//!   `B ∈ ℬ_j` satisfies `B ⊆ B_y(ρ_k + 2^{i_k})` and
//!   `B_y(ρ_k) ⊆ B_c(r_c(j+2))` — then the ℬ-type tree of `B` already
//!   indexes everything `B_y(ρ_k)` would, and `y` stores only the link
//!   `H(y, k)` (the underlying label of `B`'s center). Claim 3.7 shows a
//!   surviving round must roughly double the ball size, so by Claim 3.6
//!   each node carries `O(log n · log(1/ε))` surviving rounds; Claim 3.9
//!   bounds the links per node by `O(log n)` distinct balls.
//!
//! Routing is Algorithm 3 with `Search()` (**Algorithm 4**) in place of
//! the direct lookup: at the round-`k` host, either search the own 𝒜-tree,
//! or detour to the linked ball's center, search its ℬ-tree, and return.
//! Either way the search covers `B_{u(i_k)}(ρ_k)` at cost `≈ 2ρ_k(1+O(ε))`,
//! so Lemma 3.4's `(9+O(ε))` stretch argument applies unchanged.

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::nets::ChurnBatch;
use doubling_metric::packing::PackedBall;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

use labeled_routing::{ScaleFreeLabeled, SchemeError};
use netsim::bits::{BitTally, FieldWidths, TableComponent};
use netsim::maintain::{Maintainable, RepairStats};
use netsim::naming::Naming;
use netsim::route::{Route, RouteError};
use netsim::scheme::{Certifiable, Label, LabeledScheme, Name, NameIndependentScheme};
use obs::Tracer;
use searchtree::{SearchTree, SearchTreeConfig};

use crate::rounds::Rounds;
use crate::view::{self, route_named, NameIndependentView};

/// The `(name, label)` pairs for the given (active) nodes. Keys are names,
/// so the store order is irrelevant.
fn pairs_for(
    naming: &Naming,
    underlying: &ScaleFreeLabeled,
    nodes: &[NodeId],
) -> Vec<(Name, Label)> {
    nodes.iter().map(|&v| (naming.name_of(v), underlying.label_of(v))).collect()
}

/// The pairs a ℬ-type tree stores: the active part of `B_c(r_big)` — empty
/// when the ball's center itself is inactive (the tree is a stub that no
/// `H(y, k)` link may target).
fn btree_pairs(
    m: &MetricSpace,
    naming: &Naming,
    underlying: &ScaleFreeLabeled,
    c: NodeId,
    r_big: Dist,
) -> Vec<(Name, Label)> {
    if !underlying.nets().is_active(c) {
        return Vec::new();
    }
    let nodes: Vec<NodeId> =
        m.ball(c, r_big).iter().copied().filter(|&v| underlying.nets().is_active(v)).collect();
    pairs_for(naming, underlying, &nodes)
}

/// Builds the ℬ-type tree of one packed ball. An inactive center yields a
/// single-node stub (kept so `btrees[j]` indices track the physical
/// packing); an active center gets the active part of the ball's nodes as
/// skeleton and the active part of `B_c(r_big)` as pairs.
fn build_btree(
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    underlying: &ScaleFreeLabeled,
    ball: &PackedBall,
    r_big: Dist,
) -> SearchTree<Label> {
    let c = ball.center;
    let config = SearchTreeConfig { eps_r: eps.mul_floor(ball.radius).max(1), max_levels: None };
    if !underlying.nets().is_active(c) {
        return SearchTree::new(m, c, &[c], config, Vec::new());
    }
    let skeleton: Vec<NodeId> =
        ball.nodes.iter().copied().filter(|&v| underlying.nets().is_active(v)).collect();
    let pairs = btree_pairs(m, naming, underlying, c, r_big);
    SearchTree::new(m, c, &skeleton, config, pairs)
}

/// Builds the own 𝒜-type tree of a round host over the active part of
/// `B_y(rho)`.
fn build_own_tree(
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    underlying: &ScaleFreeLabeled,
    y: NodeId,
    rho: Dist,
) -> SearchTree<Label> {
    let ball: Vec<NodeId> =
        m.ball(y, rho).iter().copied().filter(|&x| underlying.nets().is_active(x)).collect();
    let pairs = pairs_for(naming, underlying, &ball);
    SearchTree::new(
        m,
        y,
        &ball,
        SearchTreeConfig { eps_r: eps.mul_floor(rho).max(1), max_levels: None },
        pairs,
    )
}

/// Conditions (1) and (2) of `H(y, k)` for ball `b ∈ ℬ_j`, as exact
/// integer comparisons:
///   (1) d(y,c) + r_c(j) ≤ ρ_k + 2^{i_k}
///       [B inside the slightly enlarged search ball around y]
///   (2) d(y,c) + ρ_k ≤ r_c(j+2)
///       [y's search ball inside the indexed ball]
/// Returns `d(y, c)` when both hold. Activity of the center is the
/// caller's check.
fn link_distance(
    m: &MetricSpace,
    y: NodeId,
    rho: Dist,
    s_host: Dist,
    b: &PackedBall,
    j: u32,
    log2_n: u32,
) -> Option<Dist> {
    let d = m.dist(y, b.center);
    if d.saturating_add(b.radius) > rho.saturating_add(s_host) {
        return None;
    }
    let r_big = m.r_small(b.center, (j + 2).min(log2_n));
    (d.saturating_add(rho) <= r_big).then_some(d)
}

/// Decides the facility of round host `y`: the qualifying packed ball
/// with an *active* center and the least `(j, d(y, c), c)`, or an own
/// 𝒜-type tree when none qualifies.
#[allow(clippy::too_many_arguments)]
fn compute_facility(
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    underlying: &ScaleFreeLabeled,
    y: NodeId,
    rho: Dist,
    s_host: Dist,
    log2_n: u32,
) -> Facility {
    for j in 0..=log2_n {
        let packing = underlying.packings().at(j);
        let mut best: Option<(u64, NodeId, u32)> = None;
        for (bk, b) in packing.balls().iter().enumerate() {
            if !underlying.nets().is_active(b.center) {
                continue;
            }
            let Some(d) = link_distance(m, y, rho, s_host, b, j, log2_n) else {
                continue;
            };
            if best.is_none_or(|(bd, bc, _)| (d, b.center) < (bd, bc)) {
                best = Some((d, b.center, bk as u32));
            }
        }
        if let Some((_, _, bk)) = best {
            return Facility::Link { j, ball: bk };
        }
    }
    Facility::Own(Box::new(build_own_tree(m, eps, naming, underlying, y, rho)))
}

/// Per-node search-tree storage shares (ℬ-type + own 𝒜-type), recomputed
/// wholesale after any tree change.
fn compute_search_bits(
    n: usize,
    widths: FieldWidths,
    btrees: &[Vec<SearchTree<Label>>],
    facility: &[Vec<Facility>],
) -> Vec<u64> {
    let mut search_bits = vec![0u64; n];
    let mut tally = |tree: &SearchTree<Label>| {
        tree.add_storage_bits(&mut search_bits, widths.node, widths.node, |_| widths.node)
    };
    for level in btrees {
        for tree in level {
            tally(tree);
        }
    }
    for level in facility {
        for f in level {
            if let Facility::Own(tree) = f {
                tally(tree);
            }
        }
    }
    search_bits
}

/// Per-(round, net point) search facility: own 𝒜-type tree, or a link to a
/// ℬ-type tree.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Facility {
    /// The ball keeps its own search tree (member of 𝒜).
    Own(Box<SearchTree<Label>>),
    /// `H(y, k)`: redirect to the ℬ-type tree of ball `ball` in `ℬ_j`.
    Link { j: u32, ball: u32 },
}

/// The `(9+O(ε))`-stretch scale-free name-independent scheme.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use name_independent::ScaleFreeNameIndependent;
/// use netsim::{NameIndependentScheme, Naming};
///
/// let m = MetricSpace::new(&gen::grid(5, 5));
/// let naming = Naming::random(25, 7);
/// let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(8), naming.clone())?;
/// let route = s.route(&m, 3, 11)?;
/// assert_eq!(route.dst, naming.node_of(11));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleFreeNameIndependent {
    underlying: ScaleFreeLabeled,
    naming: Naming,
    widths: FieldWidths,
    rounds: Rounds,
    /// `btrees[j][k]` = ℬ-type search tree of ball `k` in `ℬ_j`.
    btrees: Vec<Vec<SearchTree<Label>>>,
    /// `facility[k][j]` for the `j`-th member of round `k`'s hosting level.
    facility: Vec<Vec<Facility>>,
    /// Per-node search-tree storage share (bits).
    search_bits: Vec<u64>,
}

impl ScaleFreeNameIndependent {
    /// Preprocesses the scheme.
    ///
    /// # Errors
    ///
    /// Propagates [`SchemeError::EpsTooLarge`] (`ε ≤ 1/4`) and
    /// [`SchemeError::Disconnected`] from the underlying scale-free labeled
    /// scheme.
    ///
    /// # Panics
    ///
    /// Panics if `naming.n() != m.n()`.
    pub fn new(m: &MetricSpace, eps: Eps, naming: Naming) -> Result<Self, SchemeError> {
        Self::new_traced(m, eps, naming, &Tracer::noop())
    }

    /// [`Self::new`] with preprocessing phases recorded into `tracer`:
    /// `"underlying-labeled"` (the [`ScaleFreeLabeled`] build, sub-phases
    /// nested inside), `"round-schedule"`, `"btree-build"` (the ℬ-type
    /// trees), `"facility-build"` (the 𝒜-type trees and `H(y, k)` links),
    /// and `"table-assembly"` (per-node bit shares). With
    /// [`Tracer::noop`] this is exactly `new`.
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
            ScaleFreeLabeled::new_traced(m, eps, tracer)?
        };
        Ok(Self::from_underlying(m, eps, naming, underlying, tracer))
    }

    /// As [`Self::new`], but over the *active overlay* `active` only: ℬ-type
    /// skeletons and pairs, link eligibility, and 𝒜-type balls are all
    /// restricted to active nodes, and only active names are routable.
    /// Physical forwarding state (rings, port routers) still spans every
    /// node.
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
        let underlying = ScaleFreeLabeled::new_over(m, eps, active)?;
        Ok(Self::from_underlying(m, eps, naming, underlying, &Tracer::noop()))
    }

    /// Builds the round schedule, ℬ/𝒜 trees, links, and per-node bit shares
    /// on top of an already-built underlying scheme. Shared by every
    /// construction path and by whole-scheme rebuilds, so repairs are
    /// byte-comparable to from-scratch builds.
    fn from_underlying(
        m: &MetricSpace,
        eps: Eps,
        naming: Naming,
        underlying: ScaleFreeLabeled,
        tracer: &Tracer,
    ) -> Self {
        let widths = FieldWidths::new(m);
        let rounds = {
            let _s = tracer.span("round-schedule");
            Rounds::new(m, eps)
        };
        let log2_n = m.log2_n();

        // --- ℬ-type trees: one per packed ball, storing the pairs of the
        // 4×-larger ball. ---
        let btrees: Vec<Vec<SearchTree<Label>>> = {
            let _s = tracer.span("btree-build");
            (0..=log2_n)
                .map(|j| {
                    let packing = underlying.packings().at(j);
                    packing
                        .balls()
                        .iter()
                        .map(|ball| {
                            let r_big = m.r_small(ball.center, (j + 2).min(log2_n));
                            build_btree(m, eps, &naming, &underlying, ball, r_big)
                        })
                        .collect()
                })
                .collect()
        };

        // --- 𝒜-type trees or H(y, k) links, per round. ---
        let facility: Vec<Vec<Facility>> = {
            let _s = tracer.span("facility-build");
            (0..rounds.count())
                .map(|k| {
                    let rho = rounds.radius(k);
                    let host = rounds.host_level(k);
                    let s_host = m.scale(host);
                    underlying
                        .nets()
                        .level(host)
                        .iter()
                        .map(|&y| {
                            compute_facility(m, eps, &naming, &underlying, y, rho, s_host, log2_n)
                        })
                        .collect()
                })
                .collect()
        };

        let search_bits = {
            let _s = tracer.span("table-assembly");
            compute_search_bits(m.n(), widths, &btrees, &facility)
        };

        ScaleFreeNameIndependent {
            underlying,
            naming,
            widths,
            rounds,
            btrees,
            facility,
            search_bits,
        }
    }

    /// The underlying scale-free labeled scheme.
    pub fn underlying(&self) -> &ScaleFreeLabeled {
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

    /// How many rounds hosted by `y` use a link rather than their own tree
    /// (`|S(y)|` in the paper's notation, bounded by Claim 3.9).
    pub fn link_count(&self, y: NodeId) -> usize {
        (0..self.facility.len()).filter(|&k| self.link(k, y).is_some()).count()
    }

    /// The link `H(y, k)` as `(j, c)`: round `k`'s host `y` searches the
    /// ℬ-type tree of the packed ball centered at `c` in `ℬ_j`. `None` when
    /// `y` keeps its own 𝒜-type tree for round `k` or does not host it.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a round.
    pub fn link(&self, k: usize, y: NodeId) -> Option<(u32, NodeId)> {
        let hosts = self.underlying.nets().level(self.rounds.host_level(k));
        match self.facility[k][hosts.binary_search(&y).ok()?] {
            Facility::Link { j, ball } => {
                Some((j, self.underlying.packings().at(j).balls()[ball as usize].center))
            }
            Facility::Own(_) => None,
        }
    }

    /// Fraction of (round, net point) facilities that are links — the
    /// storage the packing machinery saves (ablation A2).
    pub fn link_fraction(&self) -> f64 {
        let mut links = 0usize;
        let mut total = 0usize;
        for level in &self.facility {
            for f in level {
                total += 1;
                if matches!(f, Facility::Link { .. }) {
                    links += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            links as f64 / total as f64
        }
    }

    /// The ℬ-type search trees of the balls in `ℬ_j` (stub trees for
    /// never-linked balls included, so indices track `packings().at(j)`).
    pub fn btrees_at(&self, j: u32) -> &[SearchTree<Label>] {
        &self.btrees[j as usize]
    }
}

impl NameIndependentView for ScaleFreeNameIndependent {
    type Labeled = ScaleFreeLabeled;
    type Tree<'a> = &'a SearchTree<Label>;

    fn underlying(&self) -> &ScaleFreeLabeled {
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

    fn facility(&self, k: usize, j: usize) -> view::Facility<&SearchTree<Label>> {
        match &self.facility[k][j] {
            Facility::Own(tree) => view::Facility::Own(tree),
            &Facility::Link { j, ball } => {
                view::Facility::Link { j, ball, tree: &self.btrees[j as usize][ball as usize] }
            }
        }
    }
}

impl NameIndependentScheme for ScaleFreeNameIndependent {
    fn scheme_name(&self) -> &'static str {
        "scale-free-name-independent"
    }

    fn table_bits(&self, u: NodeId) -> u64 {
        let mut t = BitTally::new();
        t.raw(self.underlying.table_bits(u));
        // One netting-tree parent label.
        t.nodes(&self.widths, 1);
        // H(u, k) links: round tag + center label, for each linked round
        // that u hosts.
        let nets = self.underlying.nets();
        for k in 0..self.facility.len() {
            if let Ok(j) = nets.level(self.rounds.host_level(k)).binary_search(&u) {
                if matches!(self.facility[k][j], Facility::Link { .. }) {
                    t.levels(&self.widths, 1);
                    t.nodes(&self.widths, 1);
                }
            }
        }
        // Search-tree shares (both ℬ- and 𝒜-type).
        t.raw(self.search_bits[u as usize]);
        t.total()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, name: Name) -> Result<Route, RouteError> {
        route_named(self, m, src, name)
    }
}

impl Certifiable for ScaleFreeNameIndependent {
    fn field_widths(&self) -> FieldWidths {
        self.widths
    }

    /// Splices in the underlying [`ScaleFreeLabeled`] enumeration, then
    /// adds the netting-tree parent label (`"net-parent"`), one
    /// `"round-link"` (round tag + center label) per linked round `u`
    /// hosts, and the node's ℬ/𝒜 search-tree shares (`"search-share"`).
    /// Independent of [`NameIndependentScheme::table_bits`] by
    /// construction.
    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        let mut out = self.underlying.table_components(u);
        out.push(TableComponent { nodes: 1, ..TableComponent::new("net-parent", 0) });
        let nets = self.underlying.nets();
        for k in 0..self.facility.len() {
            if let Ok(j) = nets.level(self.rounds.host_level(k)).binary_search(&u) {
                if matches!(self.facility[k][j], Facility::Link { .. }) {
                    out.push(TableComponent {
                        levels: 1,
                        nodes: 1,
                        ..TableComponent::new("round-link", k as u32)
                    });
                }
            }
        }
        out.push(TableComponent {
            raw: self.search_bits[u as usize],
            ..TableComponent::new("search-share", 0)
        });
        out
    }
}

impl Maintainable for ScaleFreeNameIndependent {
    fn maintain_name(&self) -> &'static str {
        "scale-free-name-independent"
    }

    fn active_nodes(&self) -> Vec<NodeId> {
        self.underlying.nets().active_nodes().to_vec()
    }

    /// Incrementally repairs the scheme after `batch` joins and leaves.
    ///
    /// The underlying scale-free labeled scheme repairs first. A ℬ-type
    /// tree is rebuilt only when its indexed ball `B_c(r_big)` was touched
    /// by some churned node (this covers the skeleton and the center's own
    /// activity); untouched ℬ-trees re-store their renumbered pairs.
    ///
    /// A facility decision is the least `(j, d(y, c), c)` qualifying packed
    /// ball with an active center (an own tree counting as +∞), and
    /// qualification is physical. Every node centers its own `ℬ_0` ball,
    /// so every batch moves some packing center; but a batch can change a
    /// host's decision only when the linked center leaves or a center that
    /// joined in this batch qualifies with a smaller key. A surviving host
    /// keeps its decision unless one of those holds: kept links are
    /// copied, kept own trees are rebuilt only when their ball `B_y(ρ_k)`
    /// was touched and refreshed otherwise. New hosts and hosts whose
    /// decision fails the test are re-decided from scratch. Search-bit
    /// shares are recomputed wholesale. The result is byte-identical to
    /// [`ScaleFreeNameIndependent::new_over`] on the post-churn active set.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is invalid against the current active set.
    fn repair(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> RepairStats {
        let log2_n = m.log2_n();
        let eps = self.underlying.eps();
        let old_hosts: Vec<Vec<NodeId>> = (0..self.rounds.count())
            .map(|k| self.underlying.nets().level(self.rounds.host_level(k)).to_vec())
            .collect();
        let mut stats = self.underlying.repair(m, batch);

        let changed = batch.changed();

        // ℬ-type trees: the packing is physical, so the tree list shape is
        // static; only contents react to churn.
        for j in 0..=log2_n {
            for bk in 0..self.underlying.packings().at(j).balls().len() {
                let ball = &self.underlying.packings().at(j).balls()[bk];
                let c = ball.center;
                let r_big = m.r_small(c, (j + 2).min(log2_n));
                if changed.iter().any(|&v| m.dist(v, c) <= r_big) {
                    self.btrees[j as usize][bk] =
                        build_btree(m, eps, &self.naming, &self.underlying, ball, r_big);
                    stats.trees_rebuilt += 1;
                } else {
                    let pairs = btree_pairs(m, &self.naming, &self.underlying, c, r_big);
                    self.btrees[j as usize][bk].refresh_pairs(pairs);
                    stats.trees_refreshed += 1;
                }
            }
        }

        // The packed balls whose centers joined in this batch, listed once:
        // the only candidates that can beat a kept facility decision.
        let packings = self.underlying.packings();
        let joined: Vec<(u32, &PackedBall)> = (0..=log2_n)
            .flat_map(|j| {
                let packing = packings.at(j);
                batch.joins.iter().filter_map(move |&v| {
                    let b = &packing.balls()[packing.ball_index_of(v)? as usize];
                    (b.center == v).then_some((j, b))
                })
            })
            .collect();
        // Whether `y`'s old decision survives the batch: its linked center
        // stayed and no joined center qualifies with a smaller key.
        let stands = |f: &Facility, y: NodeId, rho: Dist, s_host: Dist| {
            let key = match *f {
                Facility::Link { j, ball } => {
                    let c = packings.at(j).balls()[ball as usize].center;
                    if batch.leaves.contains(&c) {
                        return false;
                    }
                    Some((j, m.dist(y, c), c))
                }
                Facility::Own(_) => None,
            };
            !joined.iter().any(|&(j, b)| {
                link_distance(m, y, rho, s_host, b, j, log2_n)
                    .is_some_and(|d| key.is_none_or(|key| (j, d, b.center) < key))
            })
        };
        #[allow(clippy::needless_range_loop)] // k also indexes self.facility
        for k in 0..self.rounds.count() {
            let rho = self.rounds.radius(k);
            let host = self.rounds.host_level(k);
            let s_host = m.scale(host);
            let hosts = self.underlying.nets().level(host);
            let mut old: Vec<Option<Facility>> =
                std::mem::take(&mut self.facility[k]).into_iter().map(Some).collect();
            self.facility[k] = hosts
                .iter()
                .map(|&y| {
                    let prev = old_hosts[k]
                        .binary_search(&y)
                        .ok()
                        .and_then(|p| old[p].take())
                        .filter(|f| stands(f, y, rho, s_host));
                    match prev {
                        Some(Facility::Link { j, ball }) => Facility::Link { j, ball },
                        Some(Facility::Own(mut tree)) => {
                            if changed.iter().any(|&v| m.dist(v, y) <= rho) {
                                stats.trees_rebuilt += 1;
                                Facility::Own(Box::new(build_own_tree(
                                    m,
                                    eps,
                                    &self.naming,
                                    &self.underlying,
                                    y,
                                    rho,
                                )))
                            } else {
                                // Ball ∩ active unchanged: keep the skeleton,
                                // re-store the renumbered labels.
                                let pairs =
                                    pairs_for(&self.naming, &self.underlying, tree.tree().nodes());
                                tree.refresh_pairs(pairs);
                                stats.trees_refreshed += 1;
                                Facility::Own(tree)
                            }
                        }
                        None => {
                            let f = compute_facility(
                                m,
                                eps,
                                &self.naming,
                                &self.underlying,
                                y,
                                rho,
                                s_host,
                                log2_n,
                            );
                            if matches!(f, Facility::Own(_)) {
                                stats.trees_rebuilt += 1;
                            }
                            f
                        }
                    }
                })
                .collect();
        }

        self.search_bits = compute_search_bits(m.n(), self.widths, &self.btrees, &self.facility);
        stats
    }

    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]) {
        *self = ScaleFreeNameIndependent::new_over(
            m,
            self.underlying.eps(),
            self.naming.clone(),
            active,
        )
        .expect("eps validated at construction");
    }

    fn total_table_bits(&self) -> u64 {
        (0..self.naming.n() as NodeId).map(|u| NameIndependentScheme::table_bits(self, u)).sum()
    }
}

impl netsim::recovery::FallbackHierarchy for ScaleFreeNameIndependent {
    /// The underlying labeled scheme's net hierarchy: a fallback re-issues
    /// the name lookup from a coarser net center, whose hash-table rounds
    /// cover a larger name range.
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
        let s = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let pairs = if m.n() <= 36 { all_pairs(m.n()) } else { sample_pairs(m.n(), 250, 7) };
        let res = eval(&Named(&s, &naming), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0, "all routes must deliver");
        assert!(
            res.max_stretch <= stretch_envelope(eps) + 1.0,
            "stretch {} exceeds envelope on eps {}",
            res.max_stretch,
            eps
        );
        res
    }

    #[test]
    fn delivers_on_grid() {
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
    fn delivers_on_exp_path_scale_free_regime() {
        check(&gen::exp_weight_path(24), Eps::one_over(8), 1);
    }

    #[test]
    fn adjacent_pairs_have_bounded_stretch() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let naming = Naming::random(36, 2);
        for k in [8u64, 16] {
            let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(k), naming.clone()).unwrap();
            for (u, v, _) in m.graph().edges() {
                let r = s.route(&m, u, naming.name_of(v)).unwrap();
                assert!(r.stretch(&m) <= 7.0, "adjacent stretch {} at eps 1/{k}", r.stretch(&m));
            }
        }
    }

    #[test]
    fn links_replace_trees_somewhere() {
        // The whole point of ℬ/𝒜: on a reasonably dense graph some rounds
        // must be served by links into packed-ball trees.
        let m = MetricSpace::new(&gen::grid(8, 8));
        let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(4), Naming::identity(64)).unwrap();
        assert!(s.link_fraction() > 0.0, "no H(u,k) links were created — packing reuse inactive");
    }

    #[test]
    fn link_counts_obey_claim_3_9_order() {
        // Claim 3.9: O(log n) distinct balls; our per-round links can
        // repeat a ball across rounds, so allow a log(1/ε) slack factor.
        let m = MetricSpace::new(&gen::exp_weight_path(32));
        let eps = Eps::one_over(4);
        let s = ScaleFreeNameIndependent::new(&m, eps, Naming::identity(32)).unwrap();
        let bound = 8 * (m.log2_n() as usize + 1) * 3;
        for u in 0..32 {
            assert!(
                s.link_count(u) <= bound,
                "node {u} has {} links, bound {bound}",
                s.link_count(u)
            );
        }
    }

    #[test]
    fn scale_free_tables_beat_simple_on_huge_delta() {
        // The headline claim of Theorem 1.1 vs Theorem 1.4: on a graph with
        // Δ exponential in n, the scale-free scheme's max table is smaller.
        let m = MetricSpace::new(&gen::exp_weight_path(48));
        let eps = Eps::one_over(4);
        let naming = Naming::random(48, 3);
        let simple = crate::SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let scale_free = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let max_simple = (0..48).map(|u| simple.table_bits(u)).max().unwrap();
        let max_sf =
            (0..48).map(|u| NameIndependentScheme::table_bits(&scale_free, u)).max().unwrap();
        assert!(
            max_sf < max_simple,
            "scale-free {max_sf} bits should beat simple {max_simple} bits at huge Δ"
        );
    }

    #[test]
    fn self_route_is_free() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(4), Naming::identity(9)).unwrap();
        let r = s.route(&m, 5, 5).unwrap();
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn new_over_all_equals_new_and_repair_matches_rebuild() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let eps = Eps::one_over(8);
        let naming = Naming::random(25, 4);
        let all: Vec<NodeId> = (0..25).collect();
        let mut s = ScaleFreeNameIndependent::new_over(&m, eps, naming.clone(), &all).unwrap();
        assert_eq!(s, ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap());

        use doubling_metric::nets::ChurnBatch;
        let mut active = [true; 25];
        for (joins, leaves) in
            [(vec![], vec![6u32, 18, 0]), (vec![6u32, 0], vec![20, 21]), (vec![21u32], vec![2, 3])]
        {
            let batch = ChurnBatch::new(joins, leaves);
            s.repair(&m, &batch);
            batch.apply(&mut active);
            let ids: Vec<NodeId> = (0..25u32).filter(|&v| active[v as usize]).collect();
            let fresh = ScaleFreeNameIndependent::new_over(&m, eps, naming.clone(), &ids).unwrap();
            assert_eq!(s, fresh, "repair must be byte-identical to rebuild");
            for (a, b) in [(0usize, ids.len() - 1), (1, ids.len() / 2), (2, ids.len() - 2)] {
                let (u, v) = (ids[a], ids[b]);
                let r = s.route(&m, u, naming.name_of(v)).unwrap();
                assert_eq!(r.dst, v);
            }
        }
    }
}

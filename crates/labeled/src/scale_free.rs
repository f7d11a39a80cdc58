//! The scale-free `(1+O(ε))`-stretch labeled scheme — **Theorem 1.2**,
//! Section 4 of the paper.
//!
//! Storage cannot afford all `Θ(log Δ)` ring levels, so each node `u` keeps
//! rings only for the index set
//! `R(u) = {i : ∃j ∈ [log n], (ε/6)·r_u(j) ≤ 2^i ≤ r_u(j)}` —
//! `O(log n)` *bands* of `O(log(1/ε))` levels each, pinned to the radii at
//! which `u`'s ball sizes double. The greedy ring walk (**Algorithm 5**,
//! lines 1–6) proceeds while the level does not increase and the current
//! target `x_k = v(i_k)` is still far (`d(u_k, x_k) ≥ 2^{i_k−1}/ε −
//! 2^{i_k}`); as soon as the walk stalls, Claim 4.6 localizes the
//! destination: `r_{u_t}(j)/(3ε) < d(u_t, v) < r_{u_t}(j+1)/5` for the `j`
//! with `r_{u_t}(j) ≤ 2^{i_t} < r_{u_t}(j+1)`.
//!
//! The ball-packing machinery then finishes the route (lines 7–10): `u_t`
//! routes to the center `c` of its Voronoi ball in `ℬ_j` on the
//! shortest-path tree `T_c(j)`, retrieves the destination's *local*
//! tree-routing label `l(v; c, j)` from the search tree `T'(c, r_c(j))`
//! (Lemma 4.5 proves `v ∈ V(c, j) ∩ B_c(r_c(j+1))`, so the pair is stored),
//! and routes to `v` on `T_c(j)`.
//!
//! Everything a node stores is polylogarithmic in `n` and independent of
//! `Δ`: rings for `R(u)` only, one Voronoi-center local label per `j`, the
//! degree-independent tree-router tables, and its share of the search
//! trees' `(key, data)` pairs — `(1/ε)^{O(α)}·log³ n` bits (Lemma 4.4).

use std::borrow::Cow;

use doubling_metric::graph::{Dist, NodeId, INFINITY};
use doubling_metric::nets::{ChurnBatch, NetHierarchy};
use doubling_metric::packing::Packings;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;

use netsim::bits::{BitTally, FieldWidths, TableComponent};
use netsim::maintain::{Maintainable, RepairStats};
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Certifiable, Label, LabeledScheme};
use obs::Tracer;
use searchtree::{SearchTree, SearchTreeConfig};
use treeroute::{PortLabel, PortTreeRouter, RouterRecords, Tree};

use crate::error::SchemeError;
use crate::rings::{
    affected_nodes, level_ranges, patch_ring, refresh_ring_ranges, ring_lookup, RingBuilder,
    RingEntry,
};
use crate::view::{CellView, LabeledView, RingHit, ScaleFreeView};

/// The `(l(v), l(v;c,j))` pair set of one Voronoi cell: active region
/// members within `r_c(j+1)`, keyed by hierarchy label. Cell *skeletons*
/// (trees, routers) are physical and survive overlay churn; only this pair
/// set tracks the active set and its labels.
fn cell_pairs(
    m: &MetricSpace,
    nets: &NetHierarchy,
    region: &[NodeId],
    router: &PortTreeRouter,
    c: NodeId,
    r_j1: Dist,
) -> Vec<(u32, PortLabel)> {
    region
        .iter()
        .filter(|&&v| m.dist(c, v) <= r_j1 && nets.is_active(v))
        .map(|&v| (nets.label(v), router.label_of(v).clone()))
        .collect()
}

/// One node's stored rings: `(level, ring)` for each level of `R(u)`,
/// sorted by level.
type NodeRings = Box<[(u32, Box<[RingEntry]>)]>;

/// One Voronoi cell of a packed ball: its shortest-path tree router and the
/// search tree indexing local labels.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    router: PortTreeRouter,
    search: SearchTree<PortLabel>,
}

/// Per-node search-tree storage shares across all cells.
fn compute_search_bits(n: usize, widths: &FieldWidths, cells: &[Vec<Cell>]) -> Vec<u64> {
    let mut search_bits = vec![0u64; n];
    for level_cells in cells {
        for cell in level_cells {
            let port_bits = cell.router.port_bits();
            cell.search.add_storage_bits(&mut search_bits, widths.node, widths.node, |lbl| {
                lbl.bits(widths.node, port_bits)
            });
        }
    }
    search_bits
}

/// The scale-free labeled scheme of Theorem 1.2.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, Eps, MetricSpace};
/// use labeled_routing::ScaleFreeLabeled;
/// use netsim::LabeledScheme;
///
/// // Normalized diameter 2^31 — far beyond what log Δ tables would like.
/// let m = MetricSpace::new(&gen::exp_weight_path(32));
/// let s = ScaleFreeLabeled::new(&m, Eps::one_over(8))?;
/// let route = s.route(&m, 0, s.label_of(31))?;
/// assert_eq!(route.dst, 31);
/// assert!(route.stretch(&m) <= 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleFreeLabeled {
    nets: NetHierarchy,
    eps: Eps,
    widths: FieldWidths,
    /// Rings for levels in `R(u)` only.
    rings: Vec<NodeRings>,
    packings: Packings,
    /// `cells[j][k]` = cell of ball `k` in `ℬ_j`.
    cells: Vec<Vec<Cell>>,
    /// Precomputed per-node search-tree storage (bits).
    search_bits: Vec<u64>,
    log2_n: u32,
}

impl ScaleFreeLabeled {
    /// Preprocesses the scheme.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::EpsTooLarge`] if `ε > 1/4` (needed so a ring
    /// hit exists at every node — see the module docs of
    /// [`crate::net_labeled`] and Claim 4.6's `ε < 3/4` requirement), and
    /// [`SchemeError::Disconnected`] if the graph is disconnected.
    pub fn new(m: &MetricSpace, eps: Eps) -> Result<Self, SchemeError> {
        Self::new_traced(m, eps, &Tracer::noop())
    }

    /// [`Self::new`] restricted to an active overlay subset. The packing,
    /// Voronoi routers and search-tree skeletons are physical (they serve
    /// any forwarding node); only the hierarchy, rings and search-tree pair
    /// sets are restricted to `active`. With all nodes active this equals
    /// `new` exactly.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    ///
    /// # Panics
    ///
    /// Panics if `active` is empty, has duplicates, or is out of range.
    pub fn new_over(m: &MetricSpace, eps: Eps, active: &[NodeId]) -> Result<Self, SchemeError> {
        Self::check(m, eps)?;
        let nets = NetHierarchy::new_over(m, active);
        Ok(Self::from_nets(m, eps, nets, &Tracer::noop()))
    }

    /// [`Self::new`] with preprocessing phases recorded into `tracer`:
    /// `"net-hierarchy"`, `"ring-build"` (rings on `R(u)`),
    /// `"ball-packing"` (the `ℬ_j` packings), `"voronoi-trees"` (the
    /// `T_c(j)` shortest-path-tree routers), `"search-tree-build"` (the
    /// `T'(c, r_c(j))` trees), and `"table-assembly"` (per-node bit
    /// shares). With [`Tracer::noop`] this is exactly `new`.
    ///
    /// # Errors
    ///
    /// As [`Self::new`].
    pub fn new_traced(m: &MetricSpace, eps: Eps, tracer: &Tracer) -> Result<Self, SchemeError> {
        Self::check(m, eps)?;
        let nets = {
            let _s = tracer.span("net-hierarchy");
            NetHierarchy::new(m)
        };
        Ok(Self::from_nets(m, eps, nets, tracer))
    }

    /// The inputs every constructor rejects: `ε > 1/4`, or a graph with
    /// unreachable pairs.
    fn check(m: &MetricSpace, eps: Eps) -> Result<(), SchemeError> {
        if !eps.mul_le(4, 1) {
            // 4 ≤ 1/ε  ⟺  ε ≤ 1/4
            return Err(SchemeError::EpsTooLarge { got: eps, bound: "1/4" });
        }
        if m.diameter() == INFINITY {
            return Err(SchemeError::Disconnected);
        }
        Ok(())
    }

    /// Shared tail of every constructor: everything downstream of the
    /// hierarchy, honoring its active overlay set.
    fn from_nets(m: &MetricSpace, eps: Eps, nets: NetHierarchy, tracer: &Tracer) -> Self {
        let widths = FieldWidths::new(m);
        let log2_n = m.log2_n();
        let n = m.n();

        // --- Ring tables on R(u). ---
        let eps6 = eps.div_by(6);
        let rings: Vec<NodeRings> = {
            let _s = tracer.span("ring-build");
            let mut builder = RingBuilder::new(m, &nets, eps);
            (0..n as NodeId)
                .map(|u| {
                    let r_of: Vec<Dist> = (0..=log2_n).map(|j| m.r_small(u, j)).collect();
                    // i ∈ R(u) ⟺ ∃j: (ε/6)·r_u(j) ≤ s_i ≤ r_u(j).
                    let in_r = |s_i: Dist| r_of.iter().any(|&r| eps6.mul_le(r, s_i) && s_i <= r);
                    (0..m.num_scales())
                        .filter(|&i| in_r(m.scale(i)))
                        .map(|i| (i as u32, builder.ring(u, i)))
                        .collect()
                })
                .collect()
        };

        // --- Ball packings. ---
        let packings = {
            let _s = tracer.span("ball-packing");
            Packings::new(m)
        };

        // --- Voronoi shortest-path-tree routers, per (j, ball). ---
        let routers: Vec<Vec<PortTreeRouter>> = {
            let _s = tracer.span("voronoi-trees");
            (0..=log2_n)
                .map(|j| {
                    let packing = packings.at(j);
                    packing
                        .balls()
                        .iter()
                        .zip(packing.voronoi_regions())
                        .map(|(ball, region)| {
                            let c = ball.center;
                            // Shortest-path tree T_c(j): deterministic
                            // Dijkstra parents; regions are
                            // shortest-path-closed so parents stay inside.
                            let edges = region.iter().filter(|&&v| v != c).map(|&v| {
                                let p = m.apsp().parent(c, v);
                                let w =
                                    m.graph().edge_weight(p, v).expect("tree edge is a graph edge");
                                (v, p, w)
                            });
                            let tree = Tree::new(c, edges).expect("region forms a tree");
                            PortTreeRouter::new(tree, m.graph())
                                .expect("T_c(j) edges are graph edges")
                        })
                        .collect()
                })
                .collect()
        };

        // --- Search trees over the packed balls. ---
        let cells: Vec<Vec<Cell>> = {
            let _s = tracer.span("search-tree-build");
            routers
                .into_iter()
                .enumerate()
                .map(|(j, level_routers)| {
                    let j = j as u32;
                    let packing = packings.at(j);
                    level_routers
                        .into_iter()
                        .zip(packing.balls().iter().zip(packing.voronoi_regions()))
                        .map(|(router, (ball, region))| {
                            let c = ball.center;
                            // Search tree II over B_c(r_c(j)), holding
                            // (l(v), l(v;c,j)) for active v ∈ V(c,j) ∩
                            // B_c(r_c(j+1)).
                            let r_j = m.r_small(c, j);
                            let r_j1 = m.r_small(c, (j + 1).min(log2_n));
                            let tree_ball = m.ball(c, r_j);
                            let pairs = cell_pairs(m, &nets, &region, &router, c, r_j1);
                            let search = SearchTree::new(
                                m,
                                c,
                                tree_ball,
                                SearchTreeConfig {
                                    eps_r: eps.mul_floor(r_j),
                                    max_levels: Some(log2_n.max(1)),
                                },
                                pairs,
                            );
                            Cell { router, search }
                        })
                        .collect()
                })
                .collect()
        };

        // --- Per-node search-tree storage shares. ---
        let search_bits = {
            let _s = tracer.span("table-assembly");
            compute_search_bits(n, &widths, &cells)
        };

        ScaleFreeLabeled { nets, eps, widths, rings, packings, cells, search_bits, log2_n }
    }

    /// The net hierarchy the labels come from.
    pub fn nets(&self) -> &NetHierarchy {
        &self.nets
    }

    /// The ball packings `ℬ_j` (shared with the name-independent layer,
    /// which builds its `ℬ`-type search trees over the same packing).
    pub fn packings(&self) -> &Packings {
        &self.packings
    }

    /// The `ε` this scheme was built with.
    pub fn eps(&self) -> Eps {
        self.eps
    }

    /// The levels in `R(u)` (the only levels `u` stores rings for).
    pub fn ring_levels(&self, u: NodeId) -> Vec<u32> {
        self.rings[u as usize].iter().map(|&(i, _)| i).collect()
    }

    /// The stored `(level, ring)` tables of `u` in ascending level order —
    /// the per-node state a plane compiler packs.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn rings_of(&self, u: NodeId) -> &[(u32, Box<[RingEntry]>)] {
        &self.rings[u as usize]
    }

    /// `⌈log₂ n⌉` — the number of ball-packing size exponents minus one.
    pub fn log2_n(&self) -> u32 {
        self.log2_n
    }
}

/// Algorithm 5 line 3's continuation test: `d(u_k, x_k) ≥
/// 2^{i_k−1}/ε − 2^{i_k}`, evaluated exactly as `2·ε·(d + s_i) ≥ s_i`
/// (using `s_{i−1} = s_i/2`).
fn far_from_target((num, den): (u64, u64), d: Dist, s_i: Dist) -> bool {
    2 * (d + s_i) as u128 * num as u128 >= s_i as u128 * den as u128
}

/// Algorithm 5 over any [`ScaleFreeView`] — the scheme's one routing
/// procedure, run by [`ScaleFreeLabeled`] and by
/// [`crate::ScaleFreeLabeledPlane`] alike.
///
/// Phase 1 (lines 1–6) is the greedy ring walk over `R(u)`: step toward
/// the minimal-level hit while the level does not increase and the hit is
/// still far. When the hit is the destination itself (`x = v`, which
/// happens whenever `v ∈ Y_i` — in particular at every level-0 hit) the
/// walk goes straight to it: the per-hop recomputation keeps the target
/// fixed, so this is the exact shortest path. Claim 4.6's analysis only
/// covers stalls with `x_t ≠ v` (it needs `i_t ≥ 1` and `x' = v(i_t − 1)`
/// distinct from the walk target). Once the walk stalls, phase 2 hands off
/// to the ball-packing machinery.
pub(crate) fn walk<V: ScaleFreeView + ?Sized>(
    view: &V,
    rec: &mut RouteRecorder<'_>,
    target: Label,
) -> Result<(), RouteError> {
    let widths = view.widths();
    // Phase-1 header: destination label + previous level.
    rec.note_header_bits(widths.node + widths.level);
    let mut i_prev = u32::MAX;
    let mut seg_level: Option<u32> = None;
    loop {
        let u = rec.current();
        if view.label_at(u) == target {
            return Ok(());
        }
        let (hit, dist) = view.min_hit(u, target).ok_or_else(|| RouteError::LookupFailed {
            at: u,
            detail: "no ring hit on R(u) (requires eps <= 1/4)".into(),
        })?;
        let i = hit.level;
        if view.label_at(hit.x) == target
            || (i <= i_prev
                && far_from_target(view.eps_ratio(), dist, rec.metric().scale(i as usize)))
        {
            if seg_level != Some(i) {
                rec.begin_segment("ring-walk", Some(i));
                seg_level = Some(i);
            }
            rec.hop(hit.next)?;
            i_prev = i;
            continue;
        }
        // Stalled: hand off to the ball-packing machinery.
        packing_phase(view, rec, target, i)?;
        let arrived = rec.current();
        if view.label_at(arrived) != target {
            return Err(RouteError::Internal(format!(
                "packing phase delivered to {arrived}, not the target"
            )));
        }
        return Ok(());
    }
}

/// Phase 2 of Algorithm 5 (lines 7–10) from the stalled node `u_t`: route
/// to the center `c` of `u_t`'s Voronoi ball in `ℬ_j` on `T_c(j)`, look up
/// the target's local label in `T'(c, r_c(j))`, and route to it on
/// `T_c(j)`.
fn packing_phase<V: ScaleFreeView + ?Sized>(
    view: &V,
    rec: &mut RouteRecorder<'_>,
    target: Label,
    i_t: u32,
) -> Result<(), RouteError> {
    let (widths, m) = (view.widths(), rec.metric());
    let u_t = rec.current();
    let s_it = m.scale(i_t as usize);
    // j: the largest index with r_{u_t}(j) ≤ 2^{i_t}.
    let j = (0..=view.log2_n())
        .rev()
        .find(|&j| m.r_small(u_t, j) <= s_it)
        .expect("r_u(0) = 0 always qualifies");
    let (k, _) = view.voronoi_row(u_t, j);
    let cell = view.cell(j, k);

    // Route to c on T_c(j) using the stored local label l(c;c,j).
    rec.begin_segment("to-center", Some(j));
    rec.note_header_bits(cell.root_label.bits(widths.node, cell.port_bits) + widths.size_exp);
    tree_walk(view, rec, j, &cell.router, &cell.root_label)?;

    // Search T'(c, r_c(j)) for the local label of the target, scanning
    // each tree node once the packet stands on it.
    rec.begin_segment("tree-search", Some(j));
    rec.note_header_bits(widths.node + widths.size_exp);
    let found = searchtree::descend(&cell.search, target, |x| rec.walk_shortest(x))?;
    let local = found.ok_or_else(|| RouteError::LookupFailed {
        at: rec.current(),
        detail: format!("label {target} not in search tree of ball j={j} (Lemma 4.5)"),
    })?;

    // Route to the target on T_c(j).
    rec.begin_segment("to-target", Some(j));
    rec.note_header_bits(local.bits(widths.node, cell.port_bits));
    tree_walk(view, rec, j, &cell.router, &local)
}

/// Forwards on a cell's tree `T_c(j)` until `target` is reached; each
/// hop's tree-local index is the forwarding node's own Voronoi row.
fn tree_walk<V: ScaleFreeView + ?Sized, R: RouterRecords>(
    view: &V,
    rec: &mut RouteRecorder<'_>,
    j: u32,
    router: &R,
    target: &PortLabel,
) -> Result<(), RouteError> {
    loop {
        let u = rec.current();
        let (_, local) = view.voronoi_row(u, j);
        match treeroute::next_hop(router, rec.metric().graph(), u, local, target)? {
            Some(next) => rec.hop(next)?,
            None => return Ok(()),
        }
    }
}

impl LabeledView for ScaleFreeLabeled {
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

impl ScaleFreeView for ScaleFreeLabeled {
    type Router<'a> = &'a PortTreeRouter;
    type Search<'a> = &'a SearchTree<PortLabel>;

    fn eps_ratio(&self) -> (u64, u64) {
        (self.eps.num(), self.eps.den())
    }

    fn log2_n(&self) -> u32 {
        self.log2_n
    }

    fn min_hit(&self, u: NodeId, label: Label) -> Option<(RingHit, Dist)> {
        self.rings[u as usize].iter().find_map(|(i, ring)| {
            ring_lookup(ring, label).map(|e| (RingHit { level: *i, x: e.x, next: e.next }, e.dist))
        })
    }

    fn voronoi_row(&self, u: NodeId, j: u32) -> (u32, u32) {
        let k = self.packings.at(j).voronoi_index(u);
        let local = self.cells[j as usize][k as usize]
            .router
            .tree()
            .local(u)
            .expect("u is in its Voronoi region");
        (k, local)
    }

    fn cell(&self, j: u32, k: u32) -> CellView<'_, &PortTreeRouter, &SearchTree<PortLabel>> {
        let cell = &self.cells[j as usize][k as usize];
        let center = self.packings.at(j).balls()[k as usize].center;
        CellView {
            center,
            port_bits: cell.router.port_bits(),
            root_label: Cow::Borrowed(cell.router.label_of(center)),
            router: &cell.router,
            search: &cell.search,
        }
    }
}

impl LabeledScheme for ScaleFreeLabeled {
    fn scheme_name(&self) -> &'static str {
        "scale-free-labeled"
    }

    fn label_of(&self, v: NodeId) -> Label {
        self.nets.label(v)
    }

    fn label_bits(&self) -> u64 {
        self.widths.node
    }

    fn table_bits(&self, u: NodeId) -> u64 {
        let mut t = BitTally::new();
        // Rings: level tag + entries of (x, range lo/hi, next, dist).
        for (_i, ring) in &self.rings[u as usize] {
            t.levels(&self.widths, 1);
            t.nodes(&self.widths, 4 * ring.len() as u64);
            t.dists(&self.widths, ring.len() as u64);
        }
        // Per j: the local label of u's Voronoi center plus tree-router
        // table (degree-independent).
        for j in 0..=self.log2_n {
            let packing = self.packings.at(j);
            let k = packing.voronoi_index(u);
            let cell = &self.cells[j as usize][k as usize];
            let c = packing.balls()[k as usize].center;
            t.raw(cell.router.label_of(c).bits(self.widths.node, cell.router.port_bits()));
            t.raw(cell.router.table_bits(u, self.widths.node));
        }
        // Search-tree shares.
        t.raw(self.search_bits[u as usize]);
        t.total()
    }

    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        self.route_label(m, src, target)
    }
}

impl Certifiable for ScaleFreeLabeled {
    fn field_widths(&self) -> FieldWidths {
        self.widths
    }

    /// Enumerates, per node: one `"ring"` component per stored level (a
    /// level tag plus, per entry, net point / range lo / range hi / next
    /// hop and a distance), one `"voronoi-cell"` component per size
    /// exponent `j` (the local tree-router label of `u`'s cell center plus
    /// `u`'s share of the cell's tree-router table, both already priced in
    /// raw bits), and the node's `"search-share"`. Independent of
    /// [`LabeledScheme::table_bits`] by construction.
    fn table_components(&self, u: NodeId) -> Vec<TableComponent> {
        let mut out = Vec::new();
        for (i, ring) in &self.rings[u as usize] {
            out.push(TableComponent {
                levels: 1,
                nodes: 4 * ring.len() as u64,
                dists: ring.len() as u64,
                ..TableComponent::new("ring", *i)
            });
        }
        for j in 0..=self.log2_n {
            let packing = self.packings.at(j);
            let k = packing.voronoi_index(u);
            let cell = &self.cells[j as usize][k as usize];
            let c = packing.balls()[k as usize].center;
            out.push(TableComponent {
                raw: cell.router.label_of(c).bits(self.widths.node, cell.router.port_bits())
                    + cell.router.table_bits(u, self.widths.node),
                ..TableComponent::new("voronoi-cell", j)
            });
        }
        out.push(TableComponent {
            raw: self.search_bits[u as usize],
            ..TableComponent::new("search-share", 0)
        });
        out
    }
}

impl Maintainable for ScaleFreeLabeled {
    fn maintain_name(&self) -> &'static str {
        "scale-free-labeled"
    }

    fn active_nodes(&self) -> Vec<NodeId> {
        self.nets.active_nodes().to_vec()
    }

    /// Repairs the hierarchy, patches the rings near changed net members
    /// by their level delta ([`patch_ring`]; range-refreshing the rest),
    /// redistributes every cell's `(label, local-label)` pair set over its
    /// **unchanged** physical skeleton (each counted as a refreshed tree),
    /// and re-prices the per-node search shares. The repaired scheme is
    /// **identical** to [`ScaleFreeLabeled::new_over`] on the post-churn
    /// active set.
    ///
    /// # Panics
    ///
    /// Panics if the batch is invalid against the current active set.
    fn repair(&mut self, m: &MetricSpace, batch: &ChurnBatch) -> RepairStats {
        let deltas = self.nets.apply_churn(m, batch);

        // Rings: stored levels only. Lazily compute per-level blast zones
        // and range tables.
        let mut zones: Vec<Option<Vec<bool>>> = vec![None; m.num_scales()];
        let mut tables: Vec<Option<Vec<(u32, u32)>>> = vec![None; m.num_scales()];
        let mut stats = RepairStats::default();
        for u in 0..m.n() {
            // Split borrow: rings mutably, the rest of self immutably.
            let (nets, eps) = (&self.nets, self.eps);
            for (i, ring) in self.rings[u].iter_mut() {
                let i = *i as usize;
                let zone = zones[i].get_or_insert_with(|| {
                    let changed = deltas[i].changed();
                    if changed.is_empty() {
                        vec![false; m.n()]
                    } else {
                        affected_nodes(m, eps, i, &changed)
                    }
                });
                let ranges = tables[i].get_or_insert_with(|| level_ranges(nets, m.n(), i));
                if zone[u] {
                    *ring = patch_ring(ring, m, ranges, eps, u as NodeId, i, &deltas[i]);
                    stats.rings_rebuilt += 1;
                } else {
                    refresh_ring_ranges(ring, ranges);
                    stats.rings_refreshed += 1;
                }
            }
        }

        // Cells: skeletons and routers are physical — only the pair sets
        // (active membership and labels) change. Redistribute wholesale.
        for (j, level_cells) in self.cells.iter_mut().enumerate() {
            let j = j as u32;
            let packing = self.packings.at(j);
            let regions = packing.voronoi_regions();
            for ((cell, ball), region) in level_cells.iter_mut().zip(packing.balls()).zip(regions) {
                let c = ball.center;
                let r_j1 = m.r_small(c, (j + 1).min(self.log2_n));
                let pairs = cell_pairs(m, &self.nets, &region, &cell.router, c, r_j1);
                cell.search.refresh_pairs(pairs);
                stats.trees_refreshed += 1;
            }
        }

        self.search_bits = compute_search_bits(m.n(), &self.widths, &self.cells);
        stats
    }

    fn rebuild(&mut self, m: &MetricSpace, active: &[NodeId]) {
        *self =
            ScaleFreeLabeled::new_over(m, self.eps, active).expect("eps validated at construction");
    }

    fn total_table_bits(&self) -> u64 {
        (0..self.rings.len() as NodeId).map(|u| self.table_bits(u)).sum()
    }
}

impl netsim::recovery::FallbackHierarchy for ScaleFreeLabeled {
    /// The scheme's own net hierarchy: `LevelFallback` climbs the zooming
    /// sequence the ring/packing tables are built on.
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
        let s = ScaleFreeLabeled::new(&m, eps).unwrap();
        let pairs = if m.n() <= 40 { all_pairs(m.n()) } else { sample_pairs(m.n(), 400, 7) };
        let res = eval(&Labeled(&s), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0, "all routes must deliver on {}", res.scheme);
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
        check_graph(&gen::grid(6, 6), Eps::one_over(8), 3.5);
    }

    #[test]
    fn delivers_on_all_families() {
        for f in gen::Family::all() {
            let g = f.build(60, 11);
            check_graph(&g, Eps::one_over(8), 4.0);
        }
    }

    #[test]
    fn stretch_approaches_one_for_small_eps() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let pairs = sample_pairs(m.n(), 500, 3);
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(16)).unwrap();
        let res = eval(&Labeled(&s), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert!(res.max_stretch <= 2.0, "max stretch {}", res.max_stretch);
    }

    #[test]
    fn rejects_large_eps() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        assert!(matches!(
            ScaleFreeLabeled::new(&m, Eps::one_over(2)),
            Err(SchemeError::EpsTooLarge { .. })
        ));
        assert!(ScaleFreeLabeled::new(&m, Eps::one_over(4)).is_ok());
    }

    #[test]
    fn ring_levels_are_sparse_on_huge_diameter() {
        // The whole point of R(u): on the exponential path the hierarchy
        // has Θ(n) levels but R(u) keeps only O(log n · log 1/ε) of them.
        let m = MetricSpace::new(&gen::exp_weight_path(48));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(4)).unwrap();
        let total_levels = m.num_scales();
        assert!(total_levels >= 40, "num_scales = {total_levels}");
        for u in 0..m.n() as NodeId {
            let kept = s.ring_levels(u).len();
            assert!(
                kept * 2 < total_levels,
                "R(u) kept {kept} of {total_levels} levels at node {u}"
            );
        }
    }

    #[test]
    fn delivers_on_exp_path() {
        let m = MetricSpace::new(&gen::exp_weight_path(32));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(8)).unwrap();
        let res = eval(&Labeled(&s), &m, &all_pairs(m.n()), 1, |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert!(res.max_stretch <= 3.0, "max stretch {}", res.max_stretch);
    }

    #[test]
    fn phase_segments_are_well_formed() {
        // The packing phase engages when R(u) prunes levels — i.e. in the
        // huge-Δ regime; on small poly-Δ graphs the greedy walk alone
        // usually delivers.
        let m = MetricSpace::new(&gen::exp_weight_path(24));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(8)).unwrap();
        let mut saw_packing = false;
        for (u, v) in all_pairs(24) {
            let r = s.route(&m, u, s.label_of(v)).unwrap();
            let labels: Vec<&str> = r.segments.iter().map(|s| s.label).collect();
            // to-center/tree-search/to-target appear only after all
            // ring-walk segments, in order.
            let phase2_start = labels.iter().position(|&l| l != "ring-walk");
            if let Some(p) = phase2_start {
                saw_packing = true;
                for l in &labels[..p] {
                    assert_eq!(*l, "ring-walk");
                }
                for l in &labels[p..] {
                    assert!(["to-center", "tree-search", "to-target"].contains(l));
                }
            }
        }
        assert!(saw_packing, "expected at least one route to use the packing phase");
    }

    #[test]
    fn new_over_all_equals_new_and_repair_matches_rebuild() {
        use doubling_metric::nets::ChurnBatch;
        let m = MetricSpace::new(&gen::grid(5, 5));
        let eps = Eps::one_over(8);
        let all: Vec<NodeId> = (0..25).collect();
        let mut s = ScaleFreeLabeled::new_over(&m, eps, &all).unwrap();
        assert_eq!(s, ScaleFreeLabeled::new(&m, eps).unwrap());

        let mut active: Vec<NodeId> = all.clone();
        for batch in [
            ChurnBatch::new(vec![], vec![12, 6]),
            ChurnBatch::new(vec![12], vec![0]),
            ChurnBatch::new(vec![0, 6], vec![24]),
        ] {
            assert!(s.repair(&m, &batch).trees_refreshed > 0);
            active.retain(|v| batch.leaves.binary_search(v).is_err());
            active.extend(&batch.joins);
            active.sort_unstable();
            let fresh = ScaleFreeLabeled::new_over(&m, eps, &active).unwrap();
            assert_eq!(s, fresh, "repair diverged from rebuild");
            for (u, v) in all_pairs(25) {
                if active.binary_search(&u).is_ok() && active.binary_search(&v).is_ok() && u != v {
                    let r = s.route(&m, u, s.label_of(v)).unwrap();
                    assert_eq!(r.dst, v);
                }
            }
        }
    }

    #[test]
    fn labels_are_log_n_bits() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(4)).unwrap();
        assert_eq!(s.label_bits(), 6);
    }

    #[test]
    fn table_bits_positive_and_finite() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(4)).unwrap();
        for u in 0..36 {
            let bits = s.table_bits(u);
            assert!(bits > 0);
            // Far below the full-table cost n·log n for reasonable sizes is
            // not expected at n = 36 (polylog constants dominate); just
            // sanity-check against an absurd blowup.
            assert!(bits < 1_000_000);
        }
    }
}

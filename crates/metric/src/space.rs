//! The shortest-path metric space of a graph, with exact ball queries.
//!
//! [`MetricSpace`] packages the all-pairs distance oracle together with the
//! per-node sorted rows that the paper's structures need:
//!
//! * **Balls** `B_u(r) = {x : d(u, x) ≤ r}` (Section 2);
//! * **Size-`2^j` radii** `r_u(j)`, the radius of the smallest ball around
//!   `u` containing `2^j` nodes (Section 2, used by the ball packings and by
//!   the ring index set `R(u)` in Section 4);
//! * **Scales** `s_i = min_dist · 2^i` for `i ∈ [⌈log Δ⌉]`, the exact integer
//!   analogue of the paper's `2^i` levels after normalizing the minimum
//!   distance to 1.
//!
//! Ties everywhere are broken by `(distance, least node id)`.
//!
//! A sorted row holds node ids only: every distance already sits in the
//! APSP matrix, so a caller that needs `d(u, x)` beside the row reads
//! [`Apsp::row`] (or [`MetricSpace::dist`]). The whole metric is `16·n²`
//! bytes: 8 for each distance, 4 for each shortest-path parent and 4 for
//! each sorted-row entry.

use std::sync::Arc;

use crate::build::{run_rows, BuildProfile};
use crate::ceil_log2;
use crate::graph::{Dist, Graph, NodeId};
use crate::shortest_paths::Apsp;

/// A finite metric space induced by a connected weighted graph.
///
/// The graph is held behind an [`Arc`], so cloning a `MetricSpace` (or
/// building one from a shared graph with [`MetricSpace::from_shared`])
/// never duplicates the adjacency lists, and an `Arc<MetricSpace>` can be
/// handed to every routing-scheme constructor without rebuilding the
/// `Θ(n²)` tables (`16·n²` bytes; see the module docs).
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, MetricSpace};
///
/// let m = MetricSpace::new(&gen::grid(4, 4));
/// assert_eq!(m.dist(0, 15), 6);             // Manhattan corner-to-corner
/// assert_eq!(m.ball(0, 1).len(), 3);        // self + two neighbours
/// assert_eq!(m.r_small(0, 2), 2);           // smallest radius holding 4 nodes
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpace {
    graph: Arc<Graph>,
    apsp: Apsp,
    /// All `n` sorted rows in one contiguous allocation: row `u` occupies
    /// `sorted[u*n..(u+1)*n]` and holds every node `x` in ascending
    /// `(d(u, x), x)` order (self first). Distances live in `apsp` only.
    sorted: Vec<NodeId>,
    min_dist: Dist,
    diameter: Dist,
    num_scales: usize,
    log2_n: u32,
}

impl MetricSpace {
    /// Builds the metric (all-pairs Dijkstra plus sorted rows) on the
    /// calling thread.
    ///
    /// Runs in `O(n·m log n + n² log n)` time and `Θ(n²)` space. Clones
    /// the graph once into shared ownership; callers that can give up or
    /// share their graph should prefer [`MetricSpace::from_graph`] /
    /// [`MetricSpace::from_shared`], which skip the clone.
    pub fn new(g: &Graph) -> Self {
        Self::from_shared(Arc::new(g.clone()), 1)
    }

    /// Builds the metric, taking ownership of the graph (no clone).
    pub fn from_graph(g: Graph) -> Self {
        Self::from_shared(Arc::new(g), 1)
    }

    /// Builds the metric over an already-shared graph with up to
    /// `threads` worker threads; see [`MetricSpace::build_profiled`].
    pub fn from_shared(graph: Arc<Graph>, threads: usize) -> Self {
        Self::build_profiled(graph, threads).0
    }

    /// Builds the metric over a shared graph with up to `threads` worker
    /// threads, returning the per-phase/per-worker [`BuildProfile`].
    ///
    /// Both phases (all-pairs Dijkstra, sorted-row construction)
    /// parallelize over sources into disjoint row slices of flat arrays,
    /// so the result is **byte-identical** to the sequential build
    /// (`threads == 1`, which runs inline with no spawned threads).
    pub fn build_profiled(graph: Arc<Graph>, threads: usize) -> (Self, BuildProfile) {
        let n = graph.node_count();
        let (apsp, apsp_profile) = Apsp::new_profiled(&graph, threads);

        let mut sorted = vec![0 as NodeId; n * n];
        let mut unused: Vec<()> = Vec::new();
        let apsp_ref = &apsp;
        let rows_profile =
            run_rows(n, n, threads, &mut sorted, &mut unused, |source, local, chunk, _| {
                let row = &mut chunk[local * n..(local + 1) * n];
                let dist = apsp_ref.row(source as NodeId);
                for (v, x) in row.iter_mut().enumerate() {
                    *x = v as NodeId;
                }
                // A stable sort by distance keeps equal distances in the
                // ascending id order the row starts in: `(d(u, x), x)`.
                row.sort_by_key(|&x| dist[x as usize]);
            });
        // Each row is sorted ascending, so its last entry is that source's
        // farthest node; the diameter is the max eccentricity over sources.
        let mut diameter: Dist = 0;
        for u in 0..n {
            diameter = diameter.max(apsp.dist(u as NodeId, sorted[(u + 1) * n - 1]));
        }

        // The minimum pairwise distance equals the minimum edge weight.
        let min_dist = if n > 1 { graph.min_weight() } else { 1 };
        if diameter == 0 {
            diameter = min_dist; // single-node graph: one trivial scale
        }
        // Scales s_i = min_dist << i for i in 0..num_scales, with the top
        // scale at least the diameter (so the top net is a singleton).
        // With two or more nodes the hierarchy needs at least two levels:
        // Y_0 must be all of V while the top net is a singleton, which a
        // single shared level cannot satisfy when diameter == min_dist.
        let top = ceil_log2(diameter.div_ceil(min_dist)) as usize;
        let num_scales = if n > 1 { (top + 1).max(2) } else { 1 };
        let log2_n = ceil_log2(n as u64);
        let profile = BuildProfile { threads, apsp: apsp_profile, rows: rows_profile };
        (MetricSpace { graph, apsp, sorted, min_dist, diameter, num_scales, log2_n }, profile)
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shared handle to the underlying graph (cheap `Arc` clone).
    #[inline]
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// The all-pairs shortest path tables.
    #[inline]
    pub fn apsp(&self) -> &Apsp {
        &self.apsp
    }

    /// Number of points.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.node_count()
    }

    /// `⌈log₂ n⌉`.
    #[inline]
    pub fn log2_n(&self) -> u32 {
        self.log2_n
    }

    /// Exact distance `d(u, v)`.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> Dist {
        self.apsp.dist(u, v)
    }

    /// The minimum pairwise distance (equals the minimum edge weight).
    #[inline]
    pub fn min_dist(&self) -> Dist {
        self.min_dist
    }

    /// The diameter `max_{u,v} d(u, v)`.
    #[inline]
    pub fn diameter(&self) -> Dist {
        self.diameter
    }

    /// `⌈log₂ Δ⌉ + 1` where `Δ = diameter / min_dist` is the normalized
    /// diameter: the number of scales `s_0, …, s_L`.
    #[inline]
    pub fn num_scales(&self) -> usize {
        self.num_scales
    }

    /// The scale `s_i = min_dist · 2^i` — the exact analogue of the paper's
    /// level radius `2^i`.
    ///
    /// # Panics
    ///
    /// Panics if the shift overflows (`i` far beyond `num_scales` on graphs
    /// with huge diameters).
    #[inline]
    pub fn scale(&self, i: usize) -> Dist {
        self.min_dist.checked_shl(i as u32).expect("scale overflow")
    }

    /// Every node, ascending by `(d(u, x), x)` (so `u` first). The
    /// distances are `apsp().row(u)`, indexed by node.
    #[inline]
    pub fn sorted_row(&self, u: NodeId) -> &[NodeId] {
        let n = self.n();
        &self.sorted[u as usize * n..(u as usize + 1) * n]
    }

    /// `r_u(j)`: the radius of the smallest ball around `u` containing
    /// `min(2^j, n)` nodes (the paper's `r_u(j)` with `|B_u(r_u(j))| = 2^j`,
    /// clamped at `n` for the top levels of non-power-of-two graphs).
    #[inline]
    pub fn r_small(&self, u: NodeId, j: u32) -> Dist {
        let size = (1usize << j.min(62)).min(self.n());
        self.dist(u, self.sorted_row(u)[size - 1])
    }

    /// The `min(2^j, n)` nodes nearest to `u` (by `(distance, id)`), i.e. the
    /// canonical size-`2^j` ball used by the packing construction.
    #[inline]
    pub fn nearest_set(&self, u: NodeId, j: u32) -> &[NodeId] {
        let size = (1usize << j.min(62)).min(self.n());
        &self.sorted_row(u)[..size]
    }

    /// All nodes within distance `r` of `u` (the ball `B_u(r)`), in
    /// `(distance, id)` order.
    pub fn ball(&self, u: NodeId, r: Dist) -> &[NodeId] {
        let (row, dist) = (self.sorted_row(u), self.apsp.row(u));
        let end = row.partition_point(|&x| dist[x as usize] <= r);
        &row[..end]
    }

    /// `|B_u(r)|`.
    #[inline]
    pub fn ball_size(&self, u: NodeId, r: Dist) -> usize {
        self.ball(u, r).len()
    }

    /// The nearest member of `set` to `u`, breaking ties by least id.
    /// Returns `None` for an empty set.
    pub fn nearest_in(&self, u: NodeId, set: &[NodeId]) -> Option<NodeId> {
        set.iter().map(|&y| (self.dist(u, y), y)).min().map(|(_, y)| y)
    }

    /// The neighbour of `src` on the deterministic shortest path to `dst`.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.apsp.next_hop(src, dst)
    }

    /// The full shortest path from `src` to `dst` (inclusive).
    #[inline]
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        self.apsp.path(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn grid_metric_basics() {
        let g = gen::grid(4, 4);
        let m = MetricSpace::new(&g);
        assert_eq!(m.n(), 16);
        assert_eq!(m.min_dist(), 1);
        assert_eq!(m.diameter(), 6); // Manhattan distance corner to corner
                                     // scales: 1,2,4,8 → num_scales = 4 (ceil_log2(6)=3, +1)
        assert_eq!(m.num_scales(), 4);
        assert_eq!(m.scale(0), 1);
        assert_eq!(m.scale(3), 8);
        assert!(m.scale(m.num_scales() - 1) >= m.diameter());
    }

    #[test]
    fn sorted_rows_start_with_self() {
        let g = gen::grid(3, 3);
        let m = MetricSpace::new(&g);
        for u in 0..9 {
            assert_eq!(m.sorted_row(u)[0], u);
        }
    }

    #[test]
    fn ball_contains_exactly_close_nodes() {
        let g = gen::grid(5, 5);
        let m = MetricSpace::new(&g);
        for u in 0..25u32 {
            for r in 0..8u64 {
                let ball = m.ball(u, r);
                for v in 0..25u32 {
                    assert_eq!(ball.contains(&v), m.dist(u, v) <= r);
                }
            }
        }
    }

    #[test]
    fn r_small_is_monotone_and_tight() {
        let g = gen::random_geometric(60, 220, 3);
        let m = MetricSpace::new(&g);
        for u in 0..m.n() as NodeId {
            let mut prev = 0;
            for j in 0..=m.log2_n() {
                let r = m.r_small(u, j);
                assert!(r >= prev, "r_u(j) must be nondecreasing in j");
                // The ball of radius r_u(j) has at least 2^j nodes.
                assert!(m.ball_size(u, r) >= (1usize << j).min(m.n()));
                // A strictly smaller radius has fewer than 2^j nodes.
                if r > 0 {
                    assert!(
                        m.ball_size(u, r - 1) < (1usize << j).min(m.n()) || {
                            // ties: r_small picks the 2^j-th sorted distance, so
                            // a smaller radius must cut below 2^j *in sorted
                            // (dist,id) order*; ball_size counts by distance only
                            // and may exceed due to equal distances.
                            m.dist(u, m.sorted_row(u)[(1usize << j).min(m.n()) - 1]) == r
                        }
                    );
                }
                prev = r;
            }
        }
    }

    #[test]
    fn nearest_set_sizes() {
        let g = gen::grid(4, 4);
        let m = MetricSpace::new(&g);
        assert_eq!(m.nearest_set(0, 0).len(), 1);
        assert_eq!(m.nearest_set(0, 2).len(), 4);
        assert_eq!(m.nearest_set(0, 4).len(), 16);
        assert_eq!(m.nearest_set(0, 10).len(), 16); // clamped at n
    }

    #[test]
    fn nearest_in_breaks_ties_by_id() {
        let g = gen::grid(3, 1); // path 0-1-2
        let m = MetricSpace::new(&g);
        // 0 and 2 are both at distance 1 from node 1 → pick least id 0.
        assert_eq!(m.nearest_in(1, &[0, 2]), Some(0));
        assert_eq!(m.nearest_in(1, &[2, 0]), Some(0));
        assert_eq!(m.nearest_in(1, &[]), None);
    }

    #[test]
    fn single_node_space() {
        let g = crate::graph::GraphBuilder::new(1).build().unwrap();
        let m = MetricSpace::new(&g);
        assert_eq!(m.n(), 1);
        assert_eq!(m.num_scales(), 1);
        assert_eq!(m.r_small(0, 0), 0);
    }

    #[test]
    fn parallel_build_is_bit_identical_for_threads_1_2_4() {
        for g in [gen::grid(6, 5), gen::random_geometric(48, 210, 9), gen::exp_weight_path(16)] {
            let shared = Arc::new(g);
            let sequential = MetricSpace::from_shared(Arc::clone(&shared), 1);
            for threads in [2usize, 4] {
                let (parallel, profile) = MetricSpace::build_profiled(Arc::clone(&shared), threads);
                assert_eq!(parallel, sequential, "threads = {threads}");
                assert_eq!(profile.threads, threads);
                assert_eq!(profile.rows.per_source_us.len(), shared.node_count());
            }
        }
    }

    #[test]
    fn from_graph_matches_new() {
        let g = gen::grid(4, 3);
        assert_eq!(MetricSpace::from_graph(g.clone()), MetricSpace::new(&g));
    }

    #[test]
    fn large_weight_scales() {
        // Path with exponentially growing weights: Δ is huge, num_scales
        // tracks log Δ.
        let g = gen::exp_weight_path(12);
        let m = MetricSpace::new(&g);
        assert!(m.num_scales() >= 11, "num_scales = {}", m.num_scales());
        assert!(m.scale(m.num_scales() - 1) >= m.diameter());
    }
}

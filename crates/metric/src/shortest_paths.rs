//! Deterministic Dijkstra shortest paths and all-pairs tables.
//!
//! Routing schemes in this workspace need three primitives from the metric:
//! exact distances `d(u, v)`, shortest-path *trees* (for "which neighbour of
//! `u` is on the shortest path to `x`" table entries), and next-hop queries.
//!
//! Determinism matters: the paper's zooming sequences require a globally
//! consistent tie-breaking rule. Our Dijkstra settles nodes in
//! `(distance, node id)` order and, among equal-length paths, prefers the
//! predecessor with the least node id, so shortest-path trees — and hence
//! every structure built on them — are unique functions of the input graph.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::build::{run_rows, PhaseProfile};
use crate::graph::{Dist, Graph, NodeId, INFINITY};

/// Runs the deterministic Dijkstra from `source`, writing distances and
/// predecessors into the caller's row buffers (each of length `n`).
///
/// This is the single Dijkstra implementation in the workspace: the
/// sequential [`ShortestPathTree::new`], the parallel
/// [`Apsp::new_parallel`], and the on-demand
/// [`crate::provider::OnDemandDijkstra`] backend all call it, which is
/// what makes every distance source byte-identical by construction.
///
/// # Panics
///
/// Debug-asserts that `dist` and `parent` are both length `n`.
pub fn dijkstra_into(g: &Graph, source: NodeId, dist: &mut [Dist], parent: &mut [NodeId]) {
    let n = g.node_count();
    debug_assert_eq!(dist.len(), n);
    debug_assert_eq!(parent.len(), n);
    dist.fill(INFINITY);
    parent.fill(source);
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        debug_assert_eq!(d, dist[u as usize]);
        for nb in g.neighbors(u) {
            let v = nb.node as usize;
            if settled[v] {
                continue;
            }
            let nd = d.saturating_add(nb.weight);
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                heap.push(Reverse((nd, nb.node)));
            } else if nd == dist[v] && u < parent[v] {
                // Equal-length path through a smaller-id predecessor:
                // deterministic tie-break.
                parent[v] = u;
            }
        }
    }
}

/// The shortest-path tree rooted at a single source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn new(g: &Graph, source: NodeId) -> Self {
        let n = g.node_count();
        assert!((source as usize) < n, "source out of range");
        let mut dist = vec![INFINITY; n];
        let mut parent = vec![source; n];
        dijkstra_into(g, source, &mut dist, &mut parent);
        ShortestPathTree { source, dist, parent }
    }

    /// The source node of this tree.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        self.dist[v as usize]
    }

    /// Predecessor of `v` on the shortest path from the source (the source
    /// is its own predecessor).
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// The full shortest path from the source to `v`, inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from the source (possible only on
    /// graphs built with [`crate::graph::GraphBuilder::build_any`]).
    pub fn path_to(&self, v: NodeId) -> Vec<NodeId> {
        assert_ne!(
            self.dist(v),
            INFINITY,
            "no path from {} to {v}: graph is disconnected",
            self.source
        );
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent(cur);
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Borrow the raw distance array.
    #[inline]
    pub fn dists(&self) -> &[Dist] {
        &self.dist
    }
}

/// All-pairs shortest-path tables: one deterministic Dijkstra tree per
/// source, stored flat.
///
/// Memory is `Θ(n²)` (`12n²` bytes), which is the honest cost of an exact
/// metric oracle; the workspace keeps `n` in the low thousands.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::gen;
/// use doubling_metric::shortest_paths::Apsp;
///
/// let g = gen::ring(6);
/// let apsp = Apsp::new(&g);
/// assert_eq!(apsp.dist(0, 3), 3);
/// assert_eq!(apsp.path(0, 2), vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Apsp {
    n: usize,
    dist: Vec<Dist>,
    parent: Vec<NodeId>,
}

impl Apsp {
    /// Computes all-pairs shortest paths by `n` Dijkstra runs on the
    /// calling thread. Equivalent to [`Apsp::new_parallel`] with one
    /// thread.
    pub fn new(g: &Graph) -> Self {
        Self::new_parallel(g, 1)
    }

    /// Computes all-pairs shortest paths with up to `threads` worker
    /// threads (`std::thread::scope`; no thread pool, no external deps).
    ///
    /// Each source's Dijkstra writes into a disjoint row slice of the flat
    /// `dist`/`parent` arrays, so the result is **byte-identical** to the
    /// sequential build for every thread count. `threads == 1` runs inline
    /// on the calling thread (the historical behavior).
    pub fn new_parallel(g: &Graph, threads: usize) -> Self {
        Self::new_profiled(g, threads).0
    }

    /// [`Apsp::new_parallel`] returning the per-worker/per-source timing
    /// profile alongside the tables.
    pub fn new_profiled(g: &Graph, threads: usize) -> (Self, PhaseProfile) {
        let n = g.node_count();
        let mut dist = vec![0 as Dist; n * n];
        let mut parent = vec![0 as NodeId; n * n];
        let profile =
            run_rows(n, n, threads, &mut dist, &mut parent, |source, local, d_chunk, p_chunk| {
                dijkstra_into(
                    g,
                    source as NodeId,
                    &mut d_chunk[local * n..(local + 1) * n],
                    &mut p_chunk[local * n..(local + 1) * n],
                );
            });
        (Apsp { n, dist, parent }, profile)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Exact shortest-path distance `d(u, v)`.
    #[inline]
    pub fn dist(&self, u: NodeId, v: NodeId) -> Dist {
        self.dist[u as usize * self.n + v as usize]
    }

    /// Predecessor of `v` on the shortest path from `src` (in the Dijkstra
    /// tree rooted at `src`).
    #[inline]
    pub fn parent(&self, src: NodeId, v: NodeId) -> NodeId {
        self.parent[src as usize * self.n + v as usize]
    }

    /// The neighbour of `src` that lies on the (deterministic) shortest path
    /// from `src` to `dst`; `None` if `src == dst` **or `dst` is
    /// unreachable from `src`** (possible only on graphs built with
    /// [`crate::graph::GraphBuilder::build_any`]).
    ///
    /// The unreachable guard matters: `parent` rows are initialized to the
    /// source, so without it an unreachable `dst` would silently decode as
    /// a bogus one-hop neighbour.
    ///
    /// This is exactly the "next hop" a routing-table entry stores. It
    /// walks `dst`'s parent chain, `O(hops)` per call; a caller that needs
    /// next hops from one source to many destinations fills the source's
    /// first-hop row once instead
    /// ([`crate::space::MetricSpace::first_hop_row`], `O(n)` for all of
    /// them).
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if src == dst || self.dist(src, dst) == INFINITY {
            return None;
        }
        let mut cur = dst;
        loop {
            let p = self.parent(src, cur);
            if p == src {
                return Some(cur);
            }
            cur = p;
        }
    }

    /// The full shortest path from `src` to `dst`, inclusive of both.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is unreachable from `src` (possible only on graphs
    /// built with [`crate::graph::GraphBuilder::build_any`]) — following
    /// the source-initialized `parent` row would otherwise fabricate a
    /// 2-node "path" across the component gap.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        assert_ne!(
            self.dist(src, dst),
            INFINITY,
            "no path from {src} to {dst}: graph is disconnected"
        );
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = self.parent(src, cur);
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Row of distances from `u` (indexed by destination).
    #[inline]
    pub fn row(&self, u: NodeId) -> &[Dist] {
        &self.dist[u as usize * self.n..(u as usize + 1) * self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 0 -1- 1 -1- 2
    /// |           |
    /// +----5------+
    fn cycle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1, 1).unwrap();
        b.edge(1, 2, 1).unwrap();
        b.edge(0, 2, 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dijkstra_prefers_cheap_path() {
        let t = ShortestPathTree::new(&cycle(), 0);
        assert_eq!(t.dist(0), 0);
        assert_eq!(t.dist(1), 1);
        assert_eq!(t.dist(2), 2);
        assert_eq!(t.path_to(2), vec![0, 1, 2]);
    }

    #[test]
    fn tie_break_prefers_smaller_parent() {
        // Two equal-length paths 0->1->3 and 0->2->3; parent of 3 must be 1.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 1).unwrap();
        b.edge(0, 2, 1).unwrap();
        b.edge(1, 3, 1).unwrap();
        b.edge(2, 3, 1).unwrap();
        let g = b.build().unwrap();
        let t = ShortestPathTree::new(&g, 0);
        assert_eq!(t.dist(3), 2);
        assert_eq!(t.parent(3), 1);
    }

    #[test]
    fn apsp_symmetric_and_triangle() {
        let g = crate::gen::grid(4, 3);
        let apsp = Apsp::new(&g);
        let n = apsp.node_count() as NodeId;
        for u in 0..n {
            assert_eq!(apsp.dist(u, u), 0);
            for v in 0..n {
                assert_eq!(apsp.dist(u, v), apsp.dist(v, u), "symmetry {u} {v}");
                for w in 0..n {
                    assert!(
                        apsp.dist(u, w) <= apsp.dist(u, v) + apsp.dist(v, w),
                        "triangle inequality violated at {u},{v},{w}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_hop_walks_shortest_path() {
        let g = crate::gen::grid(5, 5);
        let apsp = Apsp::new(&g);
        let n = apsp.node_count() as NodeId;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    assert_eq!(apsp.next_hop(u, v), None);
                    continue;
                }
                let h = apsp.next_hop(u, v).unwrap();
                assert!(g.has_edge(u, h));
                // Moving to the next hop makes exact progress.
                assert_eq!(apsp.dist(u, v), g.edge_weight(u, h).unwrap() + apsp.dist(h, v));
            }
        }
    }

    #[test]
    fn path_endpoints_and_cost() {
        let g = crate::gen::grid(6, 2);
        let apsp = Apsp::new(&g);
        let p = apsp.path(0, 11);
        assert_eq!(*p.first().unwrap(), 0);
        assert_eq!(*p.last().unwrap(), 11);
        let mut cost = 0;
        for w in p.windows(2) {
            cost += g.edge_weight(w[0], w[1]).unwrap();
        }
        assert_eq!(cost, apsp.dist(0, 11));
    }

    #[test]
    fn parallel_apsp_is_bit_identical_for_threads_1_2_4() {
        // The deterministic-parallelism contract: for every thread count,
        // the flat tables are equal as values (and hence byte-identical —
        // they are plain integer vectors).
        for g in [
            crate::gen::grid(7, 6),
            crate::gen::random_geometric(50, 250, 11),
            crate::gen::exp_weight_path(20),
        ] {
            let sequential = Apsp::new(&g);
            for threads in [1usize, 2, 4] {
                let (parallel, profile) = Apsp::new_profiled(&g, threads);
                assert_eq!(parallel, sequential, "threads={threads}");
                assert_eq!(profile.per_source_us.len(), g.node_count());
                assert_eq!(profile.workers.len(), threads.min(g.node_count()));
            }
        }
    }

    /// Two components: 0-1-2 and 3-4.
    fn two_components() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1, 1).unwrap();
        b.edge(1, 2, 1).unwrap();
        b.edge(3, 4, 2).unwrap();
        b.build_any().unwrap()
    }

    #[test]
    fn next_hop_is_none_across_components() {
        let apsp = Apsp::new(&two_components());
        // Within components next hops work as usual.
        assert_eq!(apsp.next_hop(0, 2), Some(1));
        assert_eq!(apsp.next_hop(3, 4), Some(4));
        // Across components: distance is INFINITY, next hop must be None —
        // not the bogus `Some(dst)` the source-initialized parent row would
        // have produced before the guard.
        assert_eq!(apsp.dist(0, 3), INFINITY);
        assert_eq!(apsp.next_hop(0, 3), None);
        assert_eq!(apsp.next_hop(4, 1), None);
    }

    #[test]
    #[should_panic(expected = "no path from 0 to 4")]
    fn path_across_components_panics() {
        Apsp::new(&two_components()).path(0, 4);
    }

    #[test]
    #[should_panic(expected = "graph is disconnected")]
    fn tree_path_to_unreachable_panics() {
        ShortestPathTree::new(&two_components(), 0).path_to(3);
    }

    #[test]
    fn apsp_matches_single_source() {
        let g = crate::gen::random_geometric(40, 260, 7);
        let apsp = Apsp::new(&g);
        for s in [0u32, 5, 17] {
            let t = ShortestPathTree::new(&g, s);
            for v in 0..g.node_count() as NodeId {
                assert_eq!(t.dist(v), apsp.dist(s, v));
            }
        }
    }
}

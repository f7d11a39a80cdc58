//! Weighted undirected graphs with exact `u64` edge weights.
//!
//! The graph is the only input to every routing scheme in this workspace.
//! Nodes are dense indices `0..n`; edges carry positive integer weights.
//! The paper normalizes the minimum edge weight to 1; we do not rescale but
//! expose [`Graph::min_weight`] so the metric layer can normalize scales.

use std::fmt;

/// Dense node identifier (`0..n`).
pub type NodeId = u32;

/// Exact integer distance. Edge weights are at least 1, so all shortest-path
/// distances between distinct nodes are at least the minimum edge weight.
pub type Dist = u64;

/// Sentinel for "unreachable" in shortest-path computations.
pub const INFINITY: Dist = Dist::MAX;

/// Errors produced when constructing or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node index `>= n`.
    NodeOutOfRange {
        /// The out-of-range index.
        node: NodeId,
        /// The graph's node count.
        n: usize,
    },
    /// An edge had weight zero (the metric requires positive weights).
    ZeroWeight {
        /// One endpoint of the offending edge.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A self-loop was added.
    SelfLoop {
        /// The node with the self-loop.
        u: NodeId,
    },
    /// The graph is not connected (routing schemes require connectivity).
    Disconnected,
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::ZeroWeight { u, v } => {
                write!(f, "edge ({u}, {v}) has zero weight; weights must be positive")
            }
            GraphError::SelfLoop { u } => write!(f, "self-loop at node {u}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A half-edge in the adjacency list: the neighbour and the edge weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Neighbor {
    /// The node at the other end of the edge.
    pub node: NodeId,
    /// The (positive) edge weight.
    pub weight: Dist,
}

/// A connected, edge-weighted, undirected graph.
///
/// Construct with [`GraphBuilder`]; the builder validates weights, node
/// ranges and (on [`GraphBuilder::build`]) connectivity.
///
/// ```rust
/// use doubling_metric::graph::GraphBuilder;
///
/// # fn main() -> Result<(), doubling_metric::graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1, 2)?;
/// b.edge(1, 2, 3)?;
/// let g = b.build()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.min_weight(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<Neighbor>>,
    edge_count: usize,
    min_weight: Dist,
    max_weight: Dist,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbours of `u`, sorted by node id.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[Neighbor] {
        &self.adj[u as usize]
    }

    /// The smallest edge weight in the graph.
    #[inline]
    pub fn min_weight(&self) -> Dist {
        self.min_weight
    }

    /// The largest edge weight in the graph.
    #[inline]
    pub fn max_weight(&self) -> Dist {
        self.max_weight
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Iterator over all undirected edges as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Dist)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, ns)| {
            ns.iter().filter_map(move |nb| {
                if (u as NodeId) < nb.node {
                    Some((u as NodeId, nb.node, nb.weight))
                } else {
                    None
                }
            })
        })
    }

    /// The weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Dist> {
        let ns = &self.adj[u as usize];
        ns.binary_search_by_key(&v, |nb| nb.node).ok().map(|i| ns[i].weight)
    }

    /// Whether `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Checks connectivity with a BFS from node 0.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for nb in &self.adj[u as usize] {
                if !seen[nb.node as usize] {
                    seen[nb.node as usize] = true;
                    count += 1;
                    stack.push(nb.node);
                }
            }
        }
        count == self.adj.len()
    }
}

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, Dist)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Adds an undirected edge `(u, v)` with weight `w`.
    ///
    /// If the same edge is added twice, the smaller weight wins (the metric
    /// only ever uses the cheapest parallel edge).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range endpoints, zero weights or
    /// self-loops.
    pub fn edge(&mut self, u: NodeId, v: NodeId, w: Dist) -> Result<&mut Self, GraphError> {
        if (u as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if (v as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        self.edges.push((u.min(v), u.max(v), w));
        Ok(self)
    }

    /// A snapshot of the edges added so far, as `(min(u,v), max(u,v), w)`
    /// triples (parallel edges not yet deduplicated). Used by generators
    /// that need connectivity checks mid-construction.
    pub fn edges_snapshot(&self) -> Vec<(NodeId, NodeId, Dist)> {
        self.edges.clone()
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for zero nodes and
    /// [`GraphError::Disconnected`] if the graph is not connected.
    pub fn build(self) -> Result<Graph, GraphError> {
        let g = self.build_any()?;
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    /// Finalizes the graph **without the connectivity requirement**.
    ///
    /// Routing schemes still demand connected inputs; this exists for the
    /// shortest-path oracles' disconnected-graph edge cases (unreachable
    /// pairs report `INFINITY` / `None`) and for fault-injection tooling
    /// that carves components out of a connected graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for zero nodes.
    pub fn build_any(self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        let mut edges = self.edges;
        // Deduplicate parallel edges, keeping the minimum weight.
        edges.sort_unstable();
        edges.dedup_by(|next, prev| {
            if next.0 == prev.0 && next.1 == prev.1 {
                prev.2 = prev.2.min(next.2);
                true
            } else {
                false
            }
        });

        let mut adj: Vec<Vec<Neighbor>> = vec![Vec::new(); self.n];
        let mut min_w = Dist::MAX;
        let mut max_w = 0;
        for &(u, v, w) in &edges {
            adj[u as usize].push(Neighbor { node: v, weight: w });
            adj[v as usize].push(Neighbor { node: u, weight: w });
            min_w = min_w.min(w);
            max_w = max_w.max(w);
        }
        for ns in &mut adj {
            ns.sort_unstable_by_key(|nb| nb.node);
        }
        if min_w == Dist::MAX {
            // No edges: only valid for the 1-node graph.
            min_w = 1;
            max_w = 1;
        }
        Ok(Graph { adj, edge_count: edges.len(), min_weight: min_w, max_weight: max_w })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1, 1).unwrap();
        b.edge(1, 2, 2).unwrap();
        b.edge(0, 2, 5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.min_weight(), 1);
        assert_eq!(g.max_weight(), 5);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edge_weight(0, 2), Some(5));
        assert_eq!(g.edge_weight(2, 0), Some(5));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.edge(0, 1, 0).unwrap_err(), GraphError::ZeroWeight { u: 0, v: 1 });
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.edge(1, 1, 3).unwrap_err(), GraphError::SelfLoop { u: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(b.edge(0, 2, 1).unwrap_err(), GraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 1).unwrap();
        b.edge(2, 3, 1).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn build_any_accepts_disconnected_but_not_empty() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1, 1).unwrap();
        b.edge(2, 3, 1).unwrap();
        let g = b.build_any().unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(GraphBuilder::new(0).build_any().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_node_graph_is_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn parallel_edges_keep_minimum() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1, 7).unwrap();
        b.edge(1, 0, 3).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 5), (1, 2, 2)]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = triangle();
        let ns: Vec<NodeId> = g.neighbors(1).iter().map(|nb| nb.node).collect();
        assert_eq!(ns, vec![0, 2]);
    }
}

//! Port-based heavy-path tree routing — the Fraigniaud–Gavoille port
//! model.
//!
//! A label names each light edge on the root path by its *output port*:
//! the index of the link at the branching node. A node knows its own
//! physical links for free (they are its network interfaces, not routing
//! state), so a light edge costs `⌈log₂ Δ_G⌉` bits for the port instead
//! of another `⌈log₂ n⌉` for a node id — the step toward Lemma 4.1's
//! tighter label sizes.
//!
//! Ports are physical-link indices, so this router applies to trees whose
//! edges are graph edges — exactly the Voronoi shortest-path trees
//! `T_c(j)` of Section 4. [`PortTreeRouter::new`] verifies the property.

use std::fmt;

use doubling_metric::graph::{Graph, NodeId};
use netsim::route::RouteError;

use crate::heavy::{decide, HeavyPaths, RouterRecords, Step};
use crate::tree::Tree;

/// Errors from [`PortTreeRouter::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortError {
    /// A tree edge is not a graph edge, so it has no port.
    NotAGraphEdge {
        /// Child endpoint.
        child: NodeId,
        /// Parent endpoint.
        parent: NodeId,
    },
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::NotAGraphEdge { child, parent } => {
                write!(f, "tree edge ({child}, {parent}) is not a physical link")
            }
        }
    }
}

impl std::error::Error for PortError {}

/// A port-based compact routing label: DFS number plus one
/// `(dfs(x), port)` pair per light edge on the root path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortLabel {
    /// DFS number of the labeled node.
    pub dfs: u32,
    /// `(dfs of branching node, output port at that node)` per light edge,
    /// root-to-node order.
    pub lights: Vec<(u32, u32)>,
}

impl PortLabel {
    /// Serialized size: one node-sized field plus `(node + port)` per
    /// light edge.
    pub fn bits(&self, node_bits: u64, port_bits: u64) -> u64 {
        node_bits + self.lights.len() as u64 * (node_bits + port_bits)
    }
}

/// Port-based heavy-path router over a tree embedded in a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortTreeRouter {
    paths: HeavyPaths,
    labels: Vec<PortLabel>,
    /// `⌈log₂ max-degree⌉`, the port field width.
    port_bits: u64,
}

impl PortTreeRouter {
    /// Builds the router, verifying every tree edge is a graph edge and
    /// computing ports as adjacency-list indices.
    ///
    /// # Errors
    ///
    /// Returns [`PortError::NotAGraphEdge`] if some tree edge is virtual.
    pub fn new(tree: Tree, g: &Graph) -> Result<Self, PortError> {
        let n = tree.len();
        // Verify embedding and precompute the port of each tree edge
        // (from parent towards child).
        let mut port_down = vec![0u32; n]; // port at parent(i) toward i
        for i in 0..n as u32 {
            let p = tree.parent(i);
            if p == i {
                continue;
            }
            let (pu, cu) = (tree.node(p), tree.node(i));
            let port = g
                .neighbors(pu)
                .binary_search_by_key(&cu, |nb| nb.node)
                .map_err(|_| PortError::NotAGraphEdge { child: cu, parent: pu })?;
            port_down[i as usize] = port as u32;
        }
        let max_deg = (0..n as u32).map(|i| g.degree(tree.node(i)) as u64).max().unwrap_or(1);
        let paths = HeavyPaths::new(tree);
        let labels = paths
            .labels(|c| port_down[c as usize])
            .into_iter()
            .map(|(dfs, lights)| PortLabel { dfs, lights })
            .collect();
        Ok(PortTreeRouter { paths, labels, port_bits: netsim_bits(max_deg) })
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.paths.tree
    }

    /// The port field width in bits (`⌈log₂ max-degree⌉`).
    pub fn port_bits(&self) -> u64 {
        self.port_bits
    }

    /// The label of graph node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the tree.
    pub fn label_of(&self, v: NodeId) -> &PortLabel {
        &self.labels[self.paths.tree.local(v).expect("node in tree") as usize]
    }

    /// Next hop from `from` toward `target`, or `None` on arrival — the
    /// shared [`next_hop`] over this router's records.
    ///
    /// # Errors
    ///
    /// [`RouteError::LookupFailed`] if `from` is not in the tree or the
    /// label's light trail does not name the branching port.
    pub fn next_hop(
        &self,
        g: &Graph,
        from: NodeId,
        target: &PortLabel,
    ) -> Result<Option<NodeId>, RouteError> {
        let local = self.paths.tree.local(from).ok_or_else(|| RouteError::LookupFailed {
            at: from,
            detail: "node is not in the port tree".into(),
        })?;
        next_hop(&self.paths, g, from, local, target)
    }

    /// Full route from `from` to the labeled node (graph nodes,
    /// inclusive).
    ///
    /// # Errors
    ///
    /// As [`Self::next_hop`].
    pub fn route(
        &self,
        g: &Graph,
        from: NodeId,
        target: &PortLabel,
    ) -> Result<Vec<NodeId>, RouteError> {
        let mut path = vec![from];
        while let Some(next) = self.next_hop(g, path[path.len() - 1], target)? {
            path.push(next);
        }
        Ok(path)
    }

    /// Table bits per node: own DFS number and interval, parent, heavy
    /// child and its interval — seven node-sized fields, independent of
    /// degree (the port tables are the node's physical links, free).
    pub fn table_bits(&self, _v: NodeId, node_bits: u64) -> u64 {
        7 * node_bits
    }

    /// The largest label in bits.
    pub fn max_label_bits(&self, node_bits: u64) -> u64 {
        self.labels.iter().map(|l| l.bits(node_bits, self.port_bits)).max().unwrap_or(node_bits)
    }
}

impl RouterRecords for &PortTreeRouter {
    #[inline]
    fn node(&self, i: u32) -> NodeId {
        self.paths.node(i)
    }

    #[inline]
    fn dfs(&self, i: u32) -> u32 {
        self.paths.dfs(i)
    }

    #[inline]
    fn interval(&self, i: u32) -> (u32, u32) {
        self.paths.interval(i)
    }

    #[inline]
    fn parent_node(&self, i: u32) -> NodeId {
        self.paths.parent_node(i)
    }

    #[inline]
    fn heavy(&self, i: u32) -> Option<u32> {
        self.paths.heavy(i)
    }
}

/// The port-model forwarding step at `from` (tree local index
/// `from_local`) toward `target`: [`decide`] over the router records,
/// with a light exit resolved through `from`'s own physical link list.
/// `None` on arrival.
///
/// # Errors
///
/// [`RouteError::LookupFailed`] if the light trail names no port at
/// `from`, or a port beyond `from`'s degree — a malformed label or table
/// yields an error, never a panic.
pub fn next_hop<R: RouterRecords + ?Sized>(
    r: &R,
    g: &Graph,
    from: NodeId,
    from_local: u32,
    target: &PortLabel,
) -> Result<Option<NodeId>, RouteError> {
    match decide(r, from_local, target.dfs, &target.lights) {
        Some(Step::Arrived) => Ok(None),
        Some(Step::To(v)) => Ok(Some(v)),
        Some(Step::Light(port)) if (port as usize) < g.degree(from) => {
            Ok(Some(g.neighbors(from)[port as usize].node))
        }
        _ => Err(RouteError::LookupFailed {
            at: from,
            detail: format!("port label (dfs {}) names no usable light port here", target.dfs),
        }),
    }
}

fn netsim_bits(count: u64) -> u64 {
    if count <= 1 {
        1
    } else {
        doubling_metric::ceil_log2(count) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, MetricSpace};

    /// A shortest-path tree of the whole graph rooted at `root` — every
    /// edge is a graph edge by construction.
    fn spt(m: &MetricSpace, root: NodeId) -> Tree {
        let edges = (0..m.n() as NodeId).filter(|&v| v != root).map(|v| {
            let p = m.apsp().parent(root, v);
            let w = m.graph().edge_weight(p, v).expect("tree edge is a graph edge");
            (v, p, w)
        });
        Tree::new(root, edges).expect("SPT is a tree")
    }

    /// Every route between two nodes of `m` is the tree path.
    fn assert_routes_are_tree_paths(pr: &PortTreeRouter, m: &MetricSpace) {
        for a in 0..m.n() as NodeId {
            for b in 0..m.n() as NodeId {
                let route = pr.route(m.graph(), a, pr.label_of(b)).unwrap();
                assert_eq!(route, pr.tree().path(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn routes_match_tree_paths_on_a_grid_spt() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let pr = PortTreeRouter::new(spt(&m, 14), m.graph()).unwrap();
        assert_routes_are_tree_paths(&pr, &m);
    }

    #[test]
    fn port_labels_are_smaller() {
        // On a bounded-degree graph, ports are much narrower than ids: an
        // id-named light edge costs two node-sized fields.
        let m = MetricSpace::new(&gen::grid(10, 10));
        let pr = PortTreeRouter::new(spt(&m, 0), m.graph()).unwrap();
        let node_bits = 7; // ⌈log2 100⌉
        assert_eq!(pr.port_bits(), 2); // max degree 4
        let max_lights = (0..100).map(|v| pr.label_of(v).lights.len() as u64).max().unwrap();
        assert!(max_lights > 0, "some node lies below a light edge");
        let id_label_bits = node_bits + max_lights * 2 * node_bits;
        assert!(
            pr.max_label_bits(node_bits) < id_label_bits,
            "port labels {} vs id labels {id_label_bits}",
            pr.max_label_bits(node_bits)
        );
    }

    #[test]
    fn rejects_virtual_trees() {
        let m = MetricSpace::new(&gen::path(5));
        // Tree edge (0, 4) is not a graph edge on a path.
        let t = Tree::new(4, vec![(0, 4, 4)]).unwrap();
        assert!(matches!(PortTreeRouter::new(t, m.graph()), Err(PortError::NotAGraphEdge { .. })));
    }

    #[test]
    fn routes_on_random_geometric_spt() {
        let m = MetricSpace::new(&gen::random_geometric(40, 260, 8));
        let pr = PortTreeRouter::new(spt(&m, 3), m.graph()).unwrap();
        assert_routes_are_tree_paths(&pr, &m);
    }

    #[test]
    fn singleton_routes_to_itself() {
        let m = MetricSpace::new(&gen::path(5));
        let pr = PortTreeRouter::new(Tree::singleton(3), m.graph()).unwrap();
        assert_eq!(pr.route(m.graph(), 3, pr.label_of(3)).unwrap(), vec![3]);
        assert_eq!(pr.max_label_bits(5), 5);
    }
    #[test]
    fn light_trail_without_branching_port_is_an_error() {
        // A spider's center branches into equal legs: every leg but the
        // heavy one is entered through a light edge named in the label.
        let m = MetricSpace::new(&gen::spider(3, 2));
        let pr = PortTreeRouter::new(spt(&m, 0), m.graph()).unwrap();
        let v = (0..m.n() as NodeId)
            .find(|&v| !pr.label_of(v).lights.is_empty())
            .expect("some node lies below a light edge");
        let light = pr.label_of(v).clone();
        assert_eq!(pr.route(m.graph(), 0, &light).unwrap().last(), Some(&v));
        let stripped = PortLabel { dfs: light.dfs, lights: Vec::new() };
        assert!(matches!(
            pr.next_hop(m.graph(), 0, &stripped),
            Err(RouteError::LookupFailed { at: 0, .. })
        ));
        let out_of_range = PortLabel { dfs: light.dfs, lights: vec![(0, 1_000)] };
        assert!(matches!(
            pr.next_hop(m.graph(), 0, &out_of_range),
            Err(RouteError::LookupFailed { at: 0, .. })
        ));
    }

    #[test]
    fn table_bits_are_degree_independent() {
        let m = MetricSpace::new(&gen::spider(8, 3));
        let tree = spt(&m, 0);
        let pr = PortTreeRouter::new(tree, m.graph()).unwrap();
        assert_eq!(pr.table_bits(0, 5), pr.table_bits(7, 5));
    }
}

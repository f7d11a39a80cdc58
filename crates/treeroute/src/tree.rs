//! Rooted weighted trees over graph node ids.
//!
//! The trees the routing schemes build (Voronoi shortest-path trees
//! `T_c(j)`, search trees, local tail trees) live over subsets of the
//! graph's nodes; [`Tree`] maps between graph ids and dense local indices
//! and validates tree-ness on construction.

use std::fmt;

use doubling_metric::graph::{Dist, NodeId};

/// Errors from [`Tree::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A node had two parent edges.
    DuplicateChild {
        /// The node with two parents.
        child: NodeId,
    },
    /// The root appeared as a child.
    RootHasParent,
    /// Some node is not reachable from the root (cycle or disconnection).
    NotATree {
        /// Nodes reachable from the root.
        reachable: usize,
        /// Total nodes mentioned.
        total: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DuplicateChild { child } => {
                write!(f, "node {child} has more than one parent edge")
            }
            TreeError::RootHasParent => write!(f, "the root appears as a child"),
            TreeError::NotATree { reachable, total } => {
                write!(f, "edges do not form a tree: {reachable}/{total} nodes reachable")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted weighted tree over graph node ids.
///
/// # Examples
///
/// ```rust
/// use treeroute::Tree;
///
/// // child, parent, weight triples rooted at 10.
/// let t = Tree::new(10, vec![(20, 10, 1), (30, 10, 2), (40, 20, 3)]).unwrap();
/// assert_eq!(t.root(), 10);
/// assert_eq!(t.path(40, 30), vec![40, 20, 10, 30]);
/// assert_eq!(t.path_weight(40, 30), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// Local index → graph node id. Index 0 is the root; the rest ascend,
    /// so [`Tree::local`] is a binary search.
    nodes: Vec<NodeId>,
    parent: Vec<u32>,
    /// CSR child lists: the children of `i` are
    /// `child_list[child_start[i]..child_start[i + 1]]`, in graph-id order.
    child_start: Vec<u32>,
    child_list: Vec<u32>,
    weight_up: Vec<Dist>,
    subtree_size: Vec<u32>,
}

impl Tree {
    /// Builds a tree from `(child, parent, weight)` edges rooted at `root`.
    ///
    /// Costs one sort of the edges by child plus one sort of the mentioned
    /// ids, then [`Tree::from_parents`]; no hashing.
    ///
    /// # Errors
    ///
    /// Returns an error if a node has two parents, the root has a parent,
    /// or the edges do not form a single tree containing every mentioned
    /// node. When several edges are at fault, the first one in input order
    /// decides the error.
    pub fn new(
        root: NodeId,
        edges: impl IntoIterator<Item = (NodeId, NodeId, Dist)>,
    ) -> Result<Self, TreeError> {
        // (child, input position, parent, weight), sorted by child then
        // position. An edge is at fault when its child is the root or when
        // an earlier edge has the same child; the fault earliest in input
        // order is the one a scan in that order would have met first.
        let mut by_child: Vec<(NodeId, u32, NodeId, Dist)> =
            edges.into_iter().enumerate().map(|(i, (c, p, w))| (c, i as u32, p, w)).collect();
        by_child.sort_unstable_by_key(|&(c, i, _, _)| (c, i));
        let first_fault = by_child
            .iter()
            .enumerate()
            .filter_map(|(j, &(c, i, _, _))| {
                if c == root {
                    Some((i, TreeError::RootHasParent))
                } else if j > 0 && by_child[j - 1].0 == c {
                    Some((i, TreeError::DuplicateChild { child: c }))
                } else {
                    None
                }
            })
            .min_by_key(|&(i, _)| i);
        if let Some((_, err)) = first_fault {
            return Err(err);
        }

        // Local indexing: root first, then remaining nodes in id order (the
        // deterministic convention used throughout the workspace).
        let mut rest: Vec<NodeId> =
            by_child.iter().flat_map(|&(c, _, p, _)| [c, p]).filter(|&x| x != root).collect();
        rest.sort_unstable();
        rest.dedup();
        let mut nodes = Vec::with_capacity(rest.len() + 1);
        nodes.push(root);
        nodes.extend(rest);
        let local = |x: NodeId| local_in(&nodes, x).expect("endpoint mentioned");

        // A node without a parent edge is its own parent: never reachable.
        let mut parent: Vec<u32> = (0..nodes.len() as u32).collect();
        let mut weight_up = vec![0 as Dist; nodes.len()];
        for &(c, _, p, w) in &by_child {
            let cl = local(c) as usize;
            parent[cl] = local(p);
            weight_up[cl] = w;
        }
        Tree::from_parents(nodes, parent, weight_up)
    }

    /// Assembles a tree from local-index parent pointers in `O(len)`, with
    /// no sort and no search — the constructor [`Tree::new`] ends in, for
    /// callers that already hold the local indexing.
    ///
    /// `nodes[0]` is the root and `nodes[1..]` must ascend strictly by
    /// graph id; `parent[i]` is the local index of `i`'s parent and
    /// `weight_up[i]` the weight of that edge, for every `i ≥ 1`. The
    /// root's entries are ignored (the root is its own parent, at weight
    /// 0).
    ///
    /// # Errors
    ///
    /// [`TreeError::NotATree`] if some node is not reachable from the root
    /// (a cycle, or a node that is its own parent).
    ///
    /// # Panics
    ///
    /// Panics if the three vectors differ in length, `nodes` is empty, or
    /// a parent index is out of range.
    pub fn from_parents(
        nodes: Vec<NodeId>,
        mut parent: Vec<u32>,
        mut weight_up: Vec<Dist>,
    ) -> Result<Self, TreeError> {
        let len = nodes.len();
        assert!(len > 0, "a tree has a root");
        assert!(parent.len() == len && weight_up.len() == len, "one entry per node");
        debug_assert!(nodes[1..].windows(2).all(|w| w[0] < w[1]), "non-root ids ascend");
        parent[0] = 0;
        weight_up[0] = 0;

        // CSR child lists. Local indices past the root ascend by graph id,
        // so each list fills in graph-id order.
        let mut child_start = vec![0u32; len + 1];
        for &p in &parent[1..] {
            child_start[p as usize + 1] += 1;
        }
        for i in 0..len {
            child_start[i + 1] += child_start[i];
        }
        let mut fill: Vec<u32> = child_start[..len].to_vec();
        let mut child_list = vec![0u32; len - 1];
        for cl in 1..len as u32 {
            let pl = parent[cl as usize] as usize;
            child_list[fill[pl] as usize] = cl;
            fill[pl] += 1;
        }
        let children = |u: u32| {
            &child_list[child_start[u as usize] as usize..child_start[u as usize + 1] as usize]
        };

        // Verify reachability (tree-ness) and compute subtree sizes. Every
        // node has one parent entry, so no node is reached twice.
        let mut order = Vec::with_capacity(len);
        let mut stack = vec![0u32];
        while let Some(u) = stack.pop() {
            order.push(u);
            stack.extend_from_slice(children(u));
        }
        if order.len() != len {
            return Err(TreeError::NotATree { reachable: order.len(), total: len });
        }
        let mut size = vec![1u32; len];
        for &u in order.iter().rev() {
            if u != 0 {
                size[parent[u as usize] as usize] += size[u as usize];
            }
        }

        Ok(Tree { nodes, parent, child_start, child_list, weight_up, subtree_size: size })
    }

    /// A single-node tree.
    pub fn singleton(root: NodeId) -> Self {
        Tree::new(root, std::iter::empty()).expect("singleton is a tree")
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single node. Trees are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root's graph id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Graph id of local index `i`.
    #[inline]
    pub fn node(&self, i: u32) -> NodeId {
        self.nodes[i as usize]
    }

    /// Local index of graph node `x`, if present.
    #[inline]
    pub fn local(&self, x: NodeId) -> Option<u32> {
        local_in(&self.nodes, x)
    }

    /// Whether graph node `x` belongs to the tree.
    #[inline]
    pub fn contains(&self, x: NodeId) -> bool {
        self.local(x).is_some()
    }

    /// Parent local index (root maps to itself).
    #[inline]
    pub fn parent(&self, i: u32) -> u32 {
        self.parent[i as usize]
    }

    /// Children local indices, sorted by graph id.
    #[inline]
    pub fn children(&self, i: u32) -> &[u32] {
        let (lo, hi) = (self.child_start[i as usize], self.child_start[i as usize + 1]);
        &self.child_list[lo as usize..hi as usize]
    }

    /// Weight of the edge from `i` to its parent (0 for the root).
    #[inline]
    pub fn weight_up(&self, i: u32) -> Dist {
        self.weight_up[i as usize]
    }

    /// Subtree size of `i`.
    #[inline]
    pub fn subtree_size(&self, i: u32) -> u32 {
        self.subtree_size[i as usize]
    }

    /// All graph ids in the tree (root first, then ascending).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The tree path between two members, as graph ids (inclusive).
    ///
    /// Used by tests as the ground truth the router must match.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not in the tree.
    pub fn path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut ai = self.local(a).expect("a in tree");
        let mut bi = self.local(b).expect("b in tree");
        let depth = |mut x: u32| {
            let mut d = 0;
            while self.parent(x) != x {
                x = self.parent(x);
                d += 1;
            }
            d
        };
        let (mut da, mut db) = (depth(ai), depth(bi));
        let mut up_a = vec![ai];
        let mut up_b = vec![bi];
        while da > db {
            ai = self.parent(ai);
            up_a.push(ai);
            da -= 1;
        }
        while db > da {
            bi = self.parent(bi);
            up_b.push(bi);
            db -= 1;
        }
        while ai != bi {
            ai = self.parent(ai);
            bi = self.parent(bi);
            up_a.push(ai);
            up_b.push(bi);
        }
        up_b.pop();
        up_b.reverse();
        up_a.extend(up_b);
        up_a.into_iter().map(|i| self.node(i)).collect()
    }

    /// Total weight of the tree path between two members.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not in the tree.
    pub fn path_weight(&self, a: NodeId, b: NodeId) -> Dist {
        let p = self.path(a, b);
        let mut total = 0;
        for w in p.windows(2) {
            let (x, y) = (self.local(w[0]).unwrap(), self.local(w[1]).unwrap());
            total += if self.parent(x) == y { self.weight_up(x) } else { self.weight_up(y) };
        }
        total
    }
}

/// Local index of `x` in a root-then-ascending id list.
fn local_in(nodes: &[NodeId], x: NodeId) -> Option<u32> {
    if nodes[0] == x {
        return Some(0);
    }
    nodes[1..].binary_search(&x).ok().map(|i| i as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small tree:        10
    ///                     /  \
    ///                    20    30
    ///                   /  \     \
    ///                  40   50    60
    fn sample() -> Tree {
        Tree::new(10, vec![(20, 10, 1), (30, 10, 2), (40, 20, 3), (50, 20, 4), (60, 30, 5)])
            .unwrap()
    }

    #[test]
    fn construction_and_queries() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.root(), 10);
        assert!(t.contains(40));
        assert!(!t.contains(99));
        let l20 = t.local(20).unwrap();
        assert_eq!(t.node(t.parent(l20)), 10);
        assert_eq!(t.weight_up(l20), 1);
        assert_eq!(t.subtree_size(0), 6);
        assert_eq!(t.subtree_size(l20), 3);
    }

    #[test]
    fn children_sorted_by_graph_id() {
        let t = sample();
        let ch: Vec<NodeId> = t.children(0).iter().map(|&c| t.node(c)).collect();
        assert_eq!(ch, vec![20, 30]);
    }

    #[test]
    fn paths_and_weights() {
        let t = sample();
        assert_eq!(t.path(40, 60), vec![40, 20, 10, 30, 60]);
        assert_eq!(t.path_weight(40, 60), 3 + 1 + 2 + 5);
        assert_eq!(t.path(40, 50), vec![40, 20, 50]);
        assert_eq!(t.path(10, 10), vec![10]);
        assert_eq!(t.path_weight(10, 10), 0);
    }

    #[test]
    fn rejects_duplicate_parent() {
        let err = Tree::new(0, vec![(1, 0, 1), (1, 2, 1), (2, 0, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 1 });
    }

    #[test]
    fn rejects_root_as_child() {
        let err = Tree::new(0, vec![(0, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent);
    }

    #[test]
    fn first_offending_edge_decides_the_error() {
        // Root-as-child edge first, duplicate child later.
        let err = Tree::new(0, vec![(2, 0, 1), (0, 1, 1), (2, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent);
        // Duplicate child first, root-as-child edge later.
        let err = Tree::new(0, vec![(2, 0, 1), (2, 1, 1), (0, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 2 });
        // Of two duplicated children, the one whose second edge comes first.
        let err = Tree::new(0, vec![(5, 0, 1), (3, 0, 1), (5, 3, 1), (3, 5, 1)]).unwrap_err();
        assert_eq!(err, TreeError::DuplicateChild { child: 5 });
        // The root listed twice as a child is still a root error.
        let err = Tree::new(0, vec![(0, 1, 1), (0, 2, 1)]).unwrap_err();
        assert_eq!(err, TreeError::RootHasParent);
    }

    #[test]
    fn local_and_contains_on_root_members_and_strangers() {
        // A root whose id is larger than every other member's.
        let t = Tree::new(50, vec![(20, 50, 1), (60, 20, 1), (10, 50, 1)]).unwrap();
        assert_eq!(t.nodes(), &[50, 10, 20, 60]);
        assert_eq!(t.local(50), Some(0));
        assert!(t.contains(50));
        for (i, &x) in t.nodes().iter().enumerate() {
            assert_eq!(t.local(x), Some(i as u32));
            assert!(t.contains(x));
        }
        for x in [0, 15, 30, 55, 61, NodeId::MAX] {
            assert_eq!(t.local(x), None, "{x} is not a member");
            assert!(!t.contains(x));
        }
        let s = Tree::singleton(7);
        assert_eq!(s.local(7), Some(0));
        assert_eq!(s.local(6), None);
        assert!(!s.contains(8));
    }

    #[test]
    fn rejects_cycle() {
        // 1 -> 2 -> 3 -> 1 plus root 0 disconnected from the cycle.
        let err = Tree::new(0, vec![(1, 2, 1), (2, 3, 1), (3, 1, 1)]).unwrap_err();
        assert_eq!(err, TreeError::NotATree { reachable: 1, total: 4 });
        // A cycle hanging off a reachable part, and a parent with no edge
        // of its own: only the root's side counts as reachable.
        let err = Tree::new(0, vec![(4, 0, 1), (1, 2, 1), (2, 1, 1), (5, 9, 1)]).unwrap_err();
        assert_eq!(err, TreeError::NotATree { reachable: 2, total: 6 });
    }

    #[test]
    fn from_parents_rejects_unreachable_nodes() {
        // Local 2 is its own parent; local 1 hangs off it.
        let err = Tree::from_parents(vec![0, 1, 2], vec![0, 2, 2], vec![0, 1, 1]).unwrap_err();
        assert_eq!(err, TreeError::NotATree { reachable: 1, total: 3 });
        // The root's own entries are ignored.
        let t = Tree::from_parents(vec![5, 1], vec![1, 0], vec![9, 4]).unwrap();
        assert_eq!((t.parent(0), t.weight_up(0), t.weight_up(1)), (0, 0, 4));
        assert_eq!(t, Tree::new(5, vec![(1, 5, 4)]).unwrap());
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::singleton(7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), 7);
        assert_eq!(t.path(7, 7), vec![7]);
        assert!(!t.is_empty());
    }
}

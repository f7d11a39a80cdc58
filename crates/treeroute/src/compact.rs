//! Heavy-path compact tree routing (Fraigniaud–Gavoille style), naming
//! each light edge by the graph id of the child it enters.
//!
//! Any root-to-node path crosses at most `⌊log₂ n⌋` light edges, so a
//! label of the node's DFS number plus one `(dfs(x), child-of-x)` pair per
//! light edge on its root path is `O(log² n)` bits. Per-node storage is
//! constant-many fields (`O(log n)` bits) *independent of degree*: own DFS
//! number and interval, parent, heavy child and its interval. The
//! decomposition and the forwarding decision are [`crate::heavy`]'s.
//!
//! This matches the bounds of Lemma 4.1 up to the `log log n` encoding
//! factor we deliberately do not implement (see crate docs).

use doubling_metric::graph::NodeId;

use crate::heavy::{decide, HeavyPaths, Step};
use crate::tree::Tree;

/// A compact routing label: DFS number plus the light-edge trail from the
/// root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactLabel {
    /// DFS number of the labeled node.
    pub dfs: u32,
    /// For each light edge `(x → y)` on the root path, the pair
    /// `(dfs(x), y)` with `y` a graph node id, in root-to-node order.
    pub lights: Vec<(u32, NodeId)>,
}

impl CompactLabel {
    /// Serialized size in bits: one DFS number plus two fields per light
    /// edge.
    pub fn bits(&self, node_bits: u64) -> u64 {
        node_bits + self.lights.len() as u64 * 2 * node_bits
    }
}

/// Heavy-path compact routing tables over a [`Tree`].
///
/// # Examples
///
/// ```rust
/// use treeroute::{CompactTreeRouter, Tree};
///
/// let t = Tree::new(0, (1..20).map(|c| (c, (c - 1) / 2, 1))).unwrap();
/// let r = CompactTreeRouter::new(t);
/// // Routing follows the exact tree path, degree-independent tables.
/// assert_eq!(r.route(13, r.label_of(9)), r.tree().path(13, 9));
/// assert_eq!(r.table_bits(0, 5), 7 * 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactTreeRouter {
    paths: HeavyPaths,
    labels: Vec<CompactLabel>,
}

impl CompactTreeRouter {
    /// Builds the router: heavy children, DFS numbering (heavy child first,
    /// then light children in graph-id order), and all labels.
    pub fn new(tree: Tree) -> Self {
        let paths = HeavyPaths::new(tree);
        let labels = paths
            .labels(|c| paths.tree.node(c))
            .into_iter()
            .map(|(dfs, lights)| CompactLabel { dfs, lights })
            .collect();
        CompactTreeRouter { paths, labels }
    }

    /// The underlying tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.paths.tree
    }

    /// The label of graph node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the tree.
    pub fn label_of(&self, v: NodeId) -> &CompactLabel {
        &self.labels[self.paths.tree.local(v).expect("node in tree") as usize]
    }

    /// Next hop (graph node) from `from` toward `target`, or `None` on
    /// arrival. The decision uses only `from`'s constant-size table plus
    /// the label in the header.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not in the tree, or if the target lies in a
    /// light subtree of `from` that the label's trail does not name.
    pub fn next_hop(&self, from: NodeId, target: &CompactLabel) -> Option<NodeId> {
        let u = self.paths.tree.local(from).expect("node in tree");
        match decide(&self.paths, u, target.dfs, &target.lights) {
            Some(Step::Arrived) => None,
            Some(Step::To(v) | Step::Light(v)) => Some(v),
            None => panic!("target under a light edge the trail does not name"),
        }
    }

    /// Full hop-by-hop route from `from` to the labeled node, as graph
    /// nodes (inclusive).
    pub fn route(&self, from: NodeId, target: &CompactLabel) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(next) = self.next_hop(cur, target) {
            path.push(next);
            cur = next;
        }
        path
    }

    /// Table bits at any node: own dfs + interval + parent + heavy child +
    /// heavy interval — seven node-sized fields, degree-independent.
    pub fn table_bits(&self, _v: NodeId, node_bits: u64) -> u64 {
        7 * node_bits
    }

    /// The largest label in the tree, in bits.
    pub fn max_label_bits(&self, node_bits: u64) -> u64 {
        self.labels.iter().map(|l| l.bits(node_bits)).max().unwrap_or(node_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use doubling_metric::ceil_log2;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> Tree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for c in 1..n {
            let p = rng.gen_range(0..c);
            edges.push((c as NodeId, p as NodeId, rng.gen_range(1..10u64)));
        }
        Tree::new(0, edges).unwrap()
    }

    #[test]
    fn routes_match_tree_paths_on_random_trees() {
        for seed in 0..15 {
            let n = 40 + seed as usize * 3;
            let r = CompactTreeRouter::new(random_tree(n, seed));
            for a in 0..n as NodeId {
                for b in 0..n as NodeId {
                    let route = r.route(a, r.label_of(b));
                    assert_eq!(route, r.tree().path(a, b), "seed {seed}: {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn light_trail_is_logarithmically_short() {
        for seed in 0..10 {
            let n = 200;
            let r = CompactTreeRouter::new(random_tree(n, seed));
            let bound = ceil_log2(n as u64) as usize;
            for v in 0..n as NodeId {
                assert!(r.label_of(v).lights.len() <= bound, "light trail too long at {v}");
            }
        }
    }

    #[test]
    fn star_has_degree_independent_tables() {
        // A star: root 0 with 50 leaves. Interval routing would need
        // Θ(deg·log n) at the hub; the compact router stays at 7 fields.
        let edges: Vec<_> = (1..=50).map(|c| (c as NodeId, 0, 1u64)).collect();
        let r = CompactTreeRouter::new(Tree::new(0, edges).unwrap());
        assert_eq!(r.table_bits(0, 6), 42);
        // Leaf labels on a star have at most one light pair.
        for v in 1..=50 {
            assert!(r.label_of(v).lights.len() <= 1);
        }
        for v in 1..=50u32 {
            assert_eq!(r.route(v, r.label_of(0)), vec![v, 0]);
            assert_eq!(r.route(0, r.label_of(v)), vec![0, v]);
            assert_eq!(r.route(v, r.label_of((v % 50) + 1)).len(), 3);
        }
    }

    #[test]
    fn caterpillar_routes() {
        // Path 0-1-2-3-4 with a leaf hanging off each path node.
        let mut edges = Vec::new();
        for i in 1..5 {
            edges.push((i as NodeId, i as NodeId - 1, 2u64));
        }
        for i in 0..5 {
            edges.push((5 + i as NodeId, i as NodeId, 1u64));
        }
        let r = CompactTreeRouter::new(Tree::new(0, edges).unwrap());
        for a in 0..10 as NodeId {
            for b in 0..10 as NodeId {
                assert_eq!(r.route(a, r.label_of(b)), r.tree().path(a, b));
            }
        }
    }

    #[test]
    fn singleton_routes_to_itself() {
        let r = CompactTreeRouter::new(Tree::singleton(3));
        assert_eq!(r.route(3, r.label_of(3)), vec![3]);
        assert_eq!(r.label_of(3).bits(5), 5);
    }

    #[test]
    fn label_bits_bound() {
        let n = 256;
        let r = CompactTreeRouter::new(random_tree(n, 7));
        let node_bits = ceil_log2(n as u64) as u64;
        // O(log² n): at most (1 + 2·log n)·log n bits.
        let bound = node_bits + 2 * ceil_log2(n as u64) as u64 * node_bits;
        assert!(r.max_label_bits(node_bits) <= bound);
    }
}

//! Property-based tests: the tree router must route along the exact tree
//! path for arbitrary random trees, and its compactness invariant must
//! hold; the edge-list and local-index constructors must agree.

use doubling_metric::graph::{Dist, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;
use treeroute::{PortTreeRouter, Tree};

/// Strategy: a random rooted tree on `2..=max_n` nodes with random parent
/// choices and weights.
fn arb_tree(max_n: usize) -> impl Strategy<Value = Tree> {
    (2usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0usize..usize::MAX, n - 1),
            proptest::collection::vec(1u64..100, n - 1),
        )
            .prop_map(|(n, parents, weights)| {
                let edges = (1..n).map(|c| {
                    let p = (parents[c - 1] % c) as u32;
                    (c as u32, p, weights[c - 1])
                });
                Tree::new(0, edges).expect("parent structure is a tree")
            })
    })
}

/// The graph whose edges are exactly `t`'s, so every tree edge has a port.
fn own_graph(t: &Tree) -> Graph {
    let mut b = GraphBuilder::new(t.len());
    for i in 1..t.len() as u32 {
        b.edge(t.node(i), t.node(t.parent(i)), t.weight_up(i)).unwrap();
    }
    b.build().expect("a tree is connected")
}

/// Strategy: a random tree on `1..=max_n` nodes with scattered graph ids
/// (the root's id is arbitrary among them), as the root and its
/// `(child, parent, weight)` edges in shuffled order.
fn arb_shuffled_edges(
    max_n: usize,
) -> impl Strategy<Value = (NodeId, Vec<(NodeId, NodeId, Dist)>)> {
    (1usize..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u32..1000, n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..100, 0u64..u64::MAX), n - 1),
        )
            .prop_map(|(raw_ids, links)| {
                // Distinct ids in random order: index i is tree position i.
                let ids: Vec<NodeId> =
                    raw_ids.iter().enumerate().map(|(i, &r)| r * 64 + i as u32).collect();
                let mut keyed: Vec<(u64, (NodeId, NodeId, Dist))> = links
                    .iter()
                    .enumerate()
                    .map(|(j, &(praw, w, key))| {
                        let c = j + 1;
                        (key, (ids[c], ids[praw % c], w))
                    })
                    .collect();
                keyed.sort_unstable_by_key(|&(key, _)| key);
                (ids[0], keyed.into_iter().map(|(_, e)| e).collect())
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edge_list_constructor_equals_local_index_constructor(case in arb_shuffled_edges(40)) {
        let (root, edges) = case;
        let mut nodes: Vec<NodeId> = edges.iter().map(|&(c, _, _)| c).collect();
        nodes.sort_unstable();
        nodes.insert(0, root);
        let local = |x: NodeId| {
            if x == root { 0 } else { nodes[1..].binary_search(&x).unwrap() as u32 + 1 }
        };
        let mut parent = vec![0u32; nodes.len()];
        let mut weight_up = vec![0 as Dist; nodes.len()];
        for &(c, p, w) in &edges {
            parent[local(c) as usize] = local(p);
            weight_up[local(c) as usize] = w;
        }
        let direct = Tree::from_parents(nodes, parent, weight_up).unwrap();
        prop_assert_eq!(Tree::new(root, edges).unwrap(), direct);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn port_router_routes_exact_tree_paths(t in arb_tree(40)) {
        let n = t.len();
        let g = own_graph(&t);
        let r = PortTreeRouter::new(t, &g).unwrap();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let route = r.route(&g, a, r.label_of(b)).unwrap();
                prop_assert_eq!(&route, &r.tree().path(a, b));
            }
        }
    }

    #[test]
    fn light_trails_stay_logarithmic(t in arb_tree(64)) {
        let n = t.len() as u64;
        let g = own_graph(&t);
        let r = PortTreeRouter::new(t, &g).unwrap();
        let bound = (64 - (n.max(2) - 1).leading_zeros()) as usize; // ⌈log2 n⌉
        for v in 0..n as u32 {
            prop_assert!(r.label_of(v).lights.len() <= bound);
        }
    }
}

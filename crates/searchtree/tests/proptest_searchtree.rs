//! Property-based tests for search trees: lookup correctness, the
//! Eqn. (3) height bound, Algorithm 1's balanced distribution, and relay
//! accounting consistency on random graphs and random ball choices.

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder};
use doubling_metric::{Eps, MetricSpace};
use searchtree::{SearchTree, SearchTreeConfig};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..9), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..9), 0..n / 2),
        )
            .prop_map(|(n, tree, extra)| {
                let mut b = GraphBuilder::new(n);
                for (c, (praw, w)) in tree.into_iter().enumerate() {
                    b.edge((c + 1) as u32, (praw % (c + 1)) as u32, w).unwrap();
                }
                for (u, v, w) in extra {
                    if u != v {
                        b.edge(u, v, w).unwrap();
                    }
                }
                b.build().expect("connected")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_stored_key_is_found(
        g in arb_graph(24),
        center_raw in 0u32..24,
        radius in 1u64..40,
        inv in 2u64..12,
        cap in proptest::option::of(1u32..5),
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let ball = m.ball(center, radius);
        let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x * 3 + 1, x)).collect();
        let eps = Eps::one_over(inv);
        let st = SearchTree::new(
            &m,
            center,
            ball,
            SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: cap },
            pairs.clone(),
        );
        // Every member is placed exactly once.
        prop_assert_eq!(st.tree().len(), ball.len());
        // Every stored key retrieves its datum; walks start/end at center.
        for (k, v) in pairs {
            let walk = st.search(k);
            prop_assert_eq!(walk.result, Some(v));
            prop_assert_eq!(*walk.nodes.first().unwrap(), center);
            prop_assert_eq!(*walk.nodes.last().unwrap(), center);
        }
        // Missing keys return None.
        prop_assert_eq!(st.search(0).result, None);
        prop_assert_eq!(st.search(u32::MAX).result, None);
    }

    #[test]
    fn height_bound_holds(
        g in arb_graph(20),
        center_raw in 0u32..20,
        inv in 2u64..10,
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let radius = m.diameter();
        let ball = m.ball(center, radius);
        let eps = Eps::one_over(inv);
        let st = SearchTree::new(
            &m,
            center,
            ball,
            SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: None },
            Vec::<(u32, u32)>::new(),
        );
        // Eqn (3): height ≤ r + εr (+ min_dist slack for integer floors).
        prop_assert!(st.height() <= radius + eps.mul_floor(radius) + m.min_dist());
    }

    #[test]
    fn distribution_is_balanced(
        g in arb_graph(16),
        multiplier in 1usize..5,
    ) {
        let m = MetricSpace::new(&g);
        let ball: Vec<u32> = (0..m.n() as u32).collect();
        let k = ball.len() * multiplier;
        let pairs: Vec<(u32, u32)> = (0..k as u32).map(|i| (i, i)).collect();
        let st = SearchTree::new(
            &m,
            0,
            &ball,
            SearchTreeConfig { eps_r: m.min_dist(), max_levels: None },
            pairs,
        );
        // Algorithm 1: ⌈k/m⌉ per node.
        for &v in st.tree().nodes() {
            prop_assert!(st.pairs_at(v).len() <= multiplier);
        }
    }

    #[test]
    fn relay_totals_match_edge_interiors(
        g in arb_graph(16),
        center_raw in 0u32..16,
    ) {
        let m = MetricSpace::new(&g);
        let center = center_raw % m.n() as u32;
        let radius = m.diameter();
        let ball = m.ball(center, radius);
        let st = SearchTree::new(
            &m,
            center,
            ball,
            SearchTreeConfig { eps_r: (radius / 2).max(1), max_levels: None },
            Vec::<(u32, u32)>::new(),
        );
        let mut expected = 0u64;
        for &v in st.tree().nodes() {
            let u = st.tree().local(v).unwrap();
            let p = st.tree().parent(u);
            if p != u {
                expected += 2 * (m.path(st.tree().node(p), v).len() as u64 - 2);
            }
        }
        let total: u64 = (0..m.n() as u32).map(|v| st.relay_bits(v, 1)).sum();
        prop_assert_eq!(total, expected);
    }
}

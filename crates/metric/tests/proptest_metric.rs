//! Property-based tests of the metric substrate: exact rational ε
//! arithmetic, shortest-path metric axioms, sorted-row order, and
//! ball/radius consistency on random graphs.

use proptest::prelude::*;

use doubling_metric::eps::Eps;
use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::space::MetricSpace;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    arb_weighted_graph(max_n, 50)
}

/// A random connected graph on up to `max_n` nodes with edge weights in
/// `1..max_w`; a small `max_w` makes distance ties common.
fn arb_weighted_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(move |n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..max_w), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..max_w), 0..n),
        )
            .prop_map(|(n, tree, extra)| {
                let mut b = GraphBuilder::new(n);
                for (c, (praw, w)) in tree.into_iter().enumerate() {
                    let child = c + 1;
                    b.edge(child as u32, (praw % child) as u32, w).unwrap();
                }
                for (u, v, w) in extra {
                    if u != v {
                        b.edge(u, v, w).unwrap();
                    }
                }
                b.build().expect("connected by construction")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eps_comparisons_match_exact_rationals(
        num in 1u64..100,
        den_extra in 1u64..100,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let den = num + den_extra; // guarantees 0 < ε < 1
        let eps = Eps::new(num, den).unwrap();
        // a ≤ b/ε ⟺ a·num ≤ b·den, checked against u128 ground truth.
        let exact = (a as u128) * (num as u128) <= (b as u128) * (den as u128);
        prop_assert_eq!(eps.mul_le(a, b), exact);
        prop_assert_eq!(eps.mul_gt(a, b), !exact);
        // Floor/ceil division consistency.
        let fl = eps.div_floor(a);
        let ce = eps.div_ceil(a);
        prop_assert!(fl <= ce);
        prop_assert!(ce - fl <= 1);
        // ⌊a·ε⌋ ≤ a for ε < 1.
        prop_assert!(eps.mul_floor(a) <= a);
    }

    #[test]
    fn metric_axioms_hold(g in arb_connected_graph(20)) {
        let m = MetricSpace::new(&g);
        let n = m.n() as u32;
        for u in 0..n {
            prop_assert_eq!(m.dist(u, u), 0);
            for v in 0..n {
                prop_assert_eq!(m.dist(u, v), m.dist(v, u));
                if u != v {
                    prop_assert!(m.dist(u, v) >= m.min_dist());
                    prop_assert!(m.dist(u, v) <= m.diameter());
                }
                for w in 0..n {
                    prop_assert!(m.dist(u, w) <= m.dist(u, v) + m.dist(v, w));
                }
            }
        }
    }

    /// Every sorted row is a permutation of the nodes in `(d(u, x), x)`
    /// order; a ball is the row's prefix within its radius, and
    /// `nearest_set` / `r_small` read the same prefix. The id tie-break is
    /// what keeps the search trees built from these rows byte-identical.
    #[test]
    fn sorted_rows_order_balls_and_nearest_sets(
        g in (2u64..=50).prop_flat_map(|max_w| arb_weighted_graph(24, max_w)),
    ) {
        let m = MetricSpace::new(&g);
        let n = m.n();
        for u in 0..n as NodeId {
            let row = m.sorted_row(u);
            let key = |x: NodeId| (m.dist(u, x), x);
            let mut ids = row.to_vec();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..n as NodeId).collect::<Vec<_>>());
            prop_assert!(row.windows(2).all(|w| key(w[0]) < key(w[1])), "row {} out of order", u);
            prop_assert_eq!(row.first(), Some(&u));

            let radii = row.iter().flat_map(|&x| {
                let d = m.dist(u, x);
                [d.saturating_sub(1), d, d + 1]
            });
            for r in radii {
                let within = row.iter().take_while(|&&x| m.dist(u, x) <= r).count();
                prop_assert_eq!(m.ball(u, r), &row[..within], "ball({}, {})", u, r);
                prop_assert_eq!(m.ball_size(u, r), within);
                prop_assert!(row[within..].iter().all(|&x| m.dist(u, x) > r));
            }
            for j in 0..=m.log2_n() + 1 {
                let size = (1usize << j).min(n);
                prop_assert_eq!(m.nearest_set(u, j), &row[..size]);
                prop_assert_eq!(m.r_small(u, j), m.dist(u, row[size - 1]));
            }
        }
    }

    #[test]
    fn balls_nest_and_r_small_is_consistent(g in arb_connected_graph(20)) {
        let m = MetricSpace::new(&g);
        for u in 0..m.n() as u32 {
            // Balls nest with radius.
            let mut prev = 0;
            for r in [0u64, 1, 2, 5, 13, m.diameter()] {
                let size = m.ball_size(u, r);
                prop_assert!(size >= prev);
                prev = size;
            }
            // r_small: the ball of radius r_u(j) holds ≥ min(2^j, n) nodes.
            for j in 0..=m.log2_n() {
                let r = m.r_small(u, j);
                prop_assert!(m.ball_size(u, r) >= (1usize << j).min(m.n()));
            }
        }
    }

    #[test]
    fn next_hop_makes_exact_progress(g in arb_connected_graph(16)) {
        let m = MetricSpace::new(&g);
        let n = m.n() as u32;
        for u in 0..n {
            for v in 0..n {
                if u == v { continue; }
                let h = m.next_hop(u, v).unwrap();
                let w = m.graph().edge_weight(u, h).unwrap();
                prop_assert_eq!(m.dist(u, v), w + m.dist(h, v));
            }
        }
    }

    #[test]
    fn scales_cover_the_diameter(g in arb_connected_graph(24)) {
        let m = MetricSpace::new(&g);
        prop_assert!(m.scale(m.num_scales() - 1) >= m.diameter());
        if m.num_scales() >= 3 {
            // Minimality up to the n ≥ 2 two-level floor: the next-to-top
            // scale does not yet reach the diameter.
            prop_assert!(m.scale(m.num_scales() - 2) < m.diameter());
        }
        prop_assert_eq!(m.scale(0), m.min_dist());
    }
}

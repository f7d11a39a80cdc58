//! The one-pass ring builder against the definition of a ring.
//!
//! [`build_ring`] below is the reference: it computes `X_i(u) =
//! B_u(2^i/ε) ∩ Y_i` for one `(u, i)` straight from the definition, with a
//! range binary search and a parent-chain next hop per member and a sort
//! at the end. [`RingBuilder`], and the rings both labeled schemes store,
//! must equal it entry for entry: on every graph family, at ε = 1/2, 1/4
//! and 1/8, over the full node set and over overlays with departed nodes,
//! and on disconnected graphs.

use proptest::prelude::*;

use doubling_metric::gen::Family;
use doubling_metric::graph::{GraphBuilder, NodeId, INFINITY};
use doubling_metric::nets::NetHierarchy;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::rings::{RingBuilder, RingEntry};
use labeled_routing::{NetLabeled, ScaleFreeLabeled};

/// `X_i(u)` from the definition, sorted by range start.
fn build_ring(
    m: &MetricSpace,
    nets: &NetHierarchy,
    eps: Eps,
    u: NodeId,
    i: usize,
) -> Box<[RingEntry]> {
    let s_i = m.scale(i);
    let mut out: Vec<RingEntry> = nets
        .level(i)
        .iter()
        .filter_map(|&x| {
            let d = m.dist(u, x);
            if !eps.mul_le(d, s_i) {
                return None;
            }
            let range = nets.range(i, x).expect("x is in Y_i");
            let next = m.next_hop(u, x).unwrap_or(u);
            Some(RingEntry { x, range, next, dist: d })
        })
        .collect();
    out.sort_unstable_by_key(|e| e.range.0);
    out.into_boxed_slice()
}

/// Asserts every ring [`RingBuilder`] builds over `active`, and every ring
/// both labeled schemes store, equals [`build_ring`] against the scheme's
/// own hierarchy; the scale-free scheme stores the levels of `R(u)` only,
/// and needs ε ≤ 1/4.
fn check_schemes(what: &str, m: &MetricSpace, eps: Eps, active: &[NodeId]) {
    let net = NetLabeled::new_over(m, eps, active).unwrap();
    let mut builder = RingBuilder::new(m, net.nets(), eps);
    for u in 0..m.n() as NodeId {
        for i in 0..net.num_levels() {
            let oracle = build_ring(m, net.nets(), eps, u, i);
            assert_eq!(builder.ring(u, i), oracle, "{what}: builder u={u} i={i}");
            assert_eq!(net.ring(u, i), &oracle[..], "{what}: net-labeled u={u} i={i}");
        }
    }
    if !eps.mul_le(4, 1) {
        return;
    }
    let sf = ScaleFreeLabeled::new_over(m, eps, active).unwrap();
    for u in 0..m.n() as NodeId {
        for (i, ring) in sf.rings_of(u) {
            let oracle = build_ring(m, sf.nets(), eps, u, *i as usize);
            assert_eq!(ring, &oracle, "{what}: scale-free u={u} i={i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both schemes' rings, and the builder's for every `(u, i)`, equal
    /// the definition on every family at n = 40–100, for each ε of 1/2,
    /// 1/4 and 1/8, over all nodes and over an overlay that lost up to a
    /// quarter of them.
    #[test]
    fn built_rings_equal_the_definition(
        n in 40usize..=100,
        seed in 0u64..1000,
        departed in proptest::collection::vec(0usize..usize::MAX, 1..25),
    ) {
        for &family in Family::all() {
            let m = MetricSpace::new(&family.build(n, seed));
            let all: Vec<NodeId> = (0..m.n() as NodeId).collect();
            let mut overlay = all.clone();
            for &r in &departed {
                if overlay.len() > 2 {
                    overlay.remove(r % overlay.len());
                }
            }
            for eps in [Eps::one_over(2), Eps::one_over(4), Eps::one_over(8)] {
                let what = format!("{} n={} seed={seed} eps={eps}", family.name(), m.n());
                check_schemes(&format!("{what} full"), &m, eps, &all);
                check_schemes(&format!("{what} overlay"), &m, eps, &overlay);
            }
        }
    }
}

/// On a graph of two components, a ring holds only members `u` can reach,
/// and an entry's next hop is `u` exactly where `next_hop` has none.
#[test]
fn unreachable_members_stay_out_of_the_rings() {
    // 0-1-2-3 and 4-5-6, unit weights except one heavier edge.
    let mut b = GraphBuilder::new(7);
    for (u, v, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 2), (4, 5, 1), (5, 6, 1)] {
        b.edge(u, v, w).unwrap();
    }
    let m = MetricSpace::new(&b.build_any().unwrap());
    assert_eq!(m.dist(0, 4), INFINITY);
    let side = |v: NodeId| v < 4;
    let eps = Eps::one_over(4);
    // Every level of both components' nets, then each component alone: the
    // nets of one side are all unreachable from the other.
    for active in [vec![0, 1, 2, 3, 4, 5, 6], vec![0, 1, 2, 3], vec![4, 5, 6]] {
        let nets = NetHierarchy::new_over(&m, &active);
        let mut builder = RingBuilder::new(&m, &nets, eps);
        for u in 0..m.n() as NodeId {
            let reachable = active.iter().any(|&v| side(v) == side(u));
            // The scales above the components' diameters hold nothing new
            // and, with the metric's infinite diameter, overflow.
            for i in 0..4 {
                let ring = builder.ring(u, i);
                assert_eq!(ring, build_ring(&m, &nets, eps, u, i), "u={u} i={i}");
                assert_eq!(ring.is_empty(), !reachable, "u={u} i={i} over {active:?}");
                for e in ring.iter() {
                    assert_eq!(side(e.x), side(u), "u={u} i={i}: unreachable member {}", e.x);
                    assert_eq!(e.next == u, m.next_hop(u, e.x).is_none(), "u={u} x={}", e.x);
                }
            }
        }
    }
}

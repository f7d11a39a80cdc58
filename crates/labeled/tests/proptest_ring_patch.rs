//! Property-based check of ring repair by level delta: on random connected
//! graphs under churn batches that mix joins and leaves, every stored ring
//! of both labeled schemes must equal [`build_ring`] against the repaired
//! hierarchy after every batch, and hold exactly as many slots as entries.
//!
//! Slots are counted with the counting allocator, which this binary
//! installs; it holds a single test, since the counters are process-global.

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::nets::ChurnBatch;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::rings::build_ring;
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use netsim::maintain::Maintainable;
use obs::alloc::{live_bytes, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The heap bytes `s` holds beyond an exact-size copy of itself (a clone
/// allocates every vector at its length): the bytes of its spare slots.
/// Leaves the copy in place of `s`.
fn spare_bytes<S: Clone>(s: &mut S) -> u64 {
    let before = live_bytes();
    let copy = s.clone();
    let exact = live_bytes() - before;
    let before = live_bytes();
    drop(std::mem::replace(s, copy));
    (before - live_bytes()) - exact
}

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..20), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..20), 0..2 * n),
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

/// Turns raw index lists into toggle batches: each batch flips the nodes
/// it names (active ones leave, inactive ones join), plus the first node
/// the previous batch took out, so every batch after the first mixes a
/// rejoin with whatever leaves it names. Leaves that would drop the active
/// set below two nodes are skipped.
fn mixed_script(n: usize, raw: &[Vec<usize>]) -> Vec<ChurnBatch> {
    let mut active = vec![true; n];
    let mut last_left: Option<NodeId> = None;
    let mut script = Vec::new();
    for picks in raw {
        let mut flip: Vec<NodeId> = picks.iter().map(|&r| (r % n) as NodeId).collect();
        flip.extend(last_left);
        flip.sort_unstable();
        flip.dedup();
        let mut count = active.iter().filter(|&&a| a).count();
        let (mut joins, mut leaves) = (Vec::new(), Vec::new());
        for v in flip {
            if !active[v as usize] {
                joins.push(v);
            } else if count > 2 {
                leaves.push(v);
                count -= 1;
            }
        }
        let batch = ChurnBatch::new(joins, leaves);
        batch.apply(&mut active);
        last_left = batch.leaves.first().copied();
        if !batch.is_empty() {
            script.push(batch);
        }
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `(u, i)` ring of both labeled schemes equals `build_ring`
    /// against the repaired hierarchy after every mixed batch, and each
    /// repaired scheme holds no spare slot: a patched ring has exactly as
    /// many slots as entries.
    #[test]
    fn patched_rings_equal_build_ring(
        g in arb_connected_graph(24),
        raw in proptest::collection::vec(
            proptest::collection::vec(0usize..usize::MAX, 1..4),
            2..6,
        ),
        inv_eps in 4u64..=8,
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(inv_eps);
        let mut net = NetLabeled::new(&m, eps).unwrap();
        let mut sf = ScaleFreeLabeled::new(&m, eps).unwrap();
        for (b, batch) in mixed_script(m.n(), &raw).iter().enumerate() {
            net.repair(&m, batch);
            sf.repair(&m, batch);
            prop_assert_eq!(spare_bytes(&mut net), 0, "net-labeled spare slots, batch {}", b);
            prop_assert_eq!(spare_bytes(&mut sf), 0, "scale-free spare slots, batch {}", b);
            for u in 0..m.n() as NodeId {
                for i in 0..net.num_levels() {
                    let fresh = build_ring(&m, net.nets(), eps, u, i);
                    prop_assert_eq!(
                        net.ring(u, i),
                        &fresh[..],
                        "net-labeled u={} i={} batch {}",
                        u,
                        i,
                        b
                    );
                }
                for (i, ring) in sf.rings_of(u) {
                    let fresh = build_ring(&m, sf.nets(), eps, u, *i as usize);
                    prop_assert_eq!(ring, &fresh, "scale-free u={} i={} batch {}", u, i, b);
                }
            }
        }
    }
}

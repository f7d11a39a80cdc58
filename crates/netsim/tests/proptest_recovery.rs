//! Property-based tests of the self-healing runtime: on random connected
//! graphs under random fault schedules, a `Delivered` outcome must be a
//! real route — it never traverses a node or edge that was dead in the
//! epoch it crossed it, its recorded cost is the sum of its segment
//! costs (via `Route::verify`), and on shortest-path routes the `Drop`
//! baseline agrees exactly with stale-table routing. On a
//! name-independent scheme the two differ: `Drop` delivers as soon as
//! the packet first stands on the destination.

// The vendored proptest macro expands deeply for three-property blocks.
#![recursion_limit = "1024"]

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::space::MetricSpace;
use doubling_metric::{gen, Eps};
use name_independent::SimpleNameIndependent;
use netsim::baseline::FullTable;
use netsim::faults::{FaultPlan, FaultTimeline};
use netsim::naming::Naming;
use netsim::recovery::{DeliveryOutcome, LossReason, RecoveryPolicy, ResilientRouter};
use netsim::route::RouteError;
use netsim::scheme::{Labeled, Named};

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n).prop_flat_map(|n| {
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

fn arb_policy() -> impl Strategy<Value = RecoveryPolicy> {
    (0usize..4, 0usize..12, 0usize..6).prop_map(|(kind, ttl, climbs)| match kind {
        0 => RecoveryPolicy::Drop,
        1 => RecoveryPolicy::LocalDetour { ttl },
        2 => RecoveryPolicy::LevelFallback { max_climbs: climbs },
        _ => RecoveryPolicy::Chained(vec![
            RecoveryPolicy::LocalDetour { ttl },
            RecoveryPolicy::LevelFallback { max_climbs: climbs },
        ]),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline safety property: whatever the policy and however many
    /// recoveries happened, a `Delivered` route replays cleanly under the
    /// timeline (no hop crosses a node/edge dead in that hop's epoch) and
    /// verifies on the metric (adjacency + cost = Σ segment costs).
    #[test]
    fn delivered_routes_survive_replay_and_verify(
        g in arb_connected_graph(16),
        policy in arb_policy(),
        seed_pairs in 0u64..1000,
        tl_seed in 0u64..1000,
    ) {
        let m = MetricSpace::new(&g);
        let n = m.n();
        let timeline = {
            // Reuse arb_timeline's construction deterministically from
            // tl_seed so the timeline matches this graph's n.
            let epochs = (tl_seed % 3) as usize + 1;
            let max_fraction = (tl_seed % 40) as f64 / 100.0;
            let plans: Vec<FaultPlan> = (1..=epochs)
                .map(|e| FaultPlan::random_nodes(n, max_fraction * e as f64 / epochs as f64, tl_seed))
                .collect();
            let hpe = if epochs == 1 { 0 } else { (tl_seed % 4) as usize + 1 };
            FaultTimeline::new(plans, hpe).expect("cumulative")
        };
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let router = ResilientRouter::without_hierarchy(&m, &scheme, policy);
        let pairs = netsim::stats::sample_pairs(n, 20, seed_pairs);
        for (u, v) in pairs {
            match router.deliver(u, v, &timeline, &mut |_| {}) {
                DeliveryOutcome::Delivered { route, stretch, .. } => {
                    prop_assert_eq!(route.src, u);
                    prop_assert_eq!(route.dst, v);
                    // Cost accounting: adjacency, cost = Σ segment costs.
                    route.verify(&m).expect("delivered route must verify");
                    // Fault safety: no hop crosses a casualty of its epoch.
                    timeline.check_route(&route).expect("must replay under the timeline");
                    prop_assert!(stretch >= 1.0 - 1e-9);
                }
                DeliveryOutcome::Lost { reason, progress } => {
                    // A lost packet still reports honest progress.
                    prop_assert!((progress.reached as usize) < n);
                    if matches!(reason, LossReason::SourceDead) {
                        prop_assert!(timeline.initial().is_node_dead(u));
                    }
                }
            }
        }
    }

    /// `Drop` through the resilient runtime is stale-table routing,
    /// outcome for outcome, on single-epoch timelines — for the full-table
    /// baseline, whose shortest-path routes reach `dst` only at their end.
    #[test]
    fn drop_policy_matches_route_stale_on_shortest_paths(
        g in arb_connected_graph(14),
        frac_pct in 0u64..50,
        seed in 0u64..1000,
    ) {
        let m = MetricSpace::new(&g);
        let n = m.n();
        let plan = FaultPlan::random_nodes(n, frac_pct as f64 / 100.0, seed);
        let timeline = FaultTimeline::from_plan(plan.clone());
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let router = ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop);
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u == v {
                    continue;
                }
                let legacy = plan.route_stale(&scheme, &m, u, v);
                let resilient = router.deliver(u, v, &timeline, &mut |_| {});
                match (&legacy, &resilient) {
                    (Ok(r), DeliveryOutcome::Delivered { route, .. }) => {
                        prop_assert_eq!(&r.hops, &route.hops);
                        prop_assert_eq!(r.cost, route.cost);
                    }
                    (Err(RouteError::NodeFailed { node }), DeliveryOutcome::Lost { reason, .. }) => {
                        match reason {
                            LossReason::SourceDead => prop_assert_eq!(*node, u),
                            LossReason::Casualty { error: RouteError::NodeFailed { node: n2 } } => {
                                prop_assert_eq!(node, n2)
                            }
                            other => prop_assert!(false, "mismatched loss {:?}", other),
                        }
                    }
                    (Err(RouteError::EdgeFailed { u: eu, v: ev }), DeliveryOutcome::Lost { reason, .. }) => {
                        prop_assert!(matches!(
                            reason,
                            LossReason::Casualty { error: RouteError::EdgeFailed { u: u2, v: v2 } }
                                if u2 == eu && v2 == ev
                        ));
                    }
                    (l, r) => prop_assert!(false, "legacy {:?} vs resilient {:?}", l, r),
                }
            }
        }
    }

    /// Monotonicity: more TTL never delivers fewer packets, and every
    /// policy delivers at least as much as `Drop`.
    #[test]
    fn recovery_budget_is_monotone(
        g in arb_connected_graph(14),
        frac_pct in 0u64..40,
        seed in 0u64..1000,
    ) {
        let m = MetricSpace::new(&g);
        let n = m.n();
        let timeline =
            FaultTimeline::from_plan(FaultPlan::random_nodes(n, frac_pct as f64 / 100.0, seed));
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let pairs = netsim::stats::sample_pairs(n, 30, seed ^ 0x99);
        let delivered = |policy: RecoveryPolicy| {
            let router = ResilientRouter::without_hierarchy(&m, &scheme, policy);
            pairs
                .iter()
                .filter(|&&(u, v)| router.deliver(u, v, &timeline, &mut |_| {}).is_delivered())
                .count()
        };
        let base = delivered(RecoveryPolicy::Drop);
        let mut last = base;
        for ttl in [0usize, 1, 2, 4, 8] {
            let d = delivered(RecoveryPolicy::LocalDetour { ttl });
            prop_assert!(d >= base, "detour:{} delivered {} < drop {}", ttl, d, base);
            prop_assert!(d >= last, "ttl {} delivered {} < smaller ttl {}", ttl, d, last);
            last = d;
        }
    }
}

/// `Drop` is not stale-table routing on a name-independent scheme: the
/// simple-NI search from 0 for node 7 of a 5×5 grid passes 7, goes on to
/// 12, walks back to 0 and only then returns to 7. `Drop` delivers the
/// first time the packet stands on 7; the scheme's own route, which
/// stale-table routing replays, follows the plan to its end.
#[test]
fn drop_delivers_where_a_name_independent_search_first_passes_dst() {
    let m = MetricSpace::new(&gen::grid(5, 5));
    let naming = Naming::random(m.n(), 1);
    let sni = SimpleNameIndependent::new(&m, Eps::one_over(4), naming.clone()).unwrap();
    let scheme = Named(&sni, &naming);
    let drop_cost = |plan: &FaultPlan| {
        let router = ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop);
        match router.deliver(0, 7, &FaultTimeline::from_plan(plan.clone()), &mut |_| {}) {
            DeliveryOutcome::Delivered { route, .. } => route.cost,
            lost => panic!("Drop must deliver 0 -> 7, got {lost:?}"),
        }
    };

    let none = FaultPlan::none(m.n());
    let stale = none.route_stale(&scheme, &m, 0, 7).unwrap();
    assert_eq!(stale.hops, [0, 1, 2, 7, 12, 7, 2, 1, 0, 1, 2, 7]);
    assert_eq!((drop_cost(&none), stale.cost), (3, 11));

    // Node 12 lies only on the part of the plan after the first visit to
    // 7: stale-table routing loses the packet there, `Drop` delivers it.
    let mut plan = FaultPlan::none(m.n());
    plan.kill_node(12);
    assert_eq!(plan.route_stale(&scheme, &m, 0, 7), Err(RouteError::NodeFailed { node: 12 }));
    assert_eq!(drop_cost(&plan), 3);
}

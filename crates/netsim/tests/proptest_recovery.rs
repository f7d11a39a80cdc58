//! Property-based tests of the self-healing runtime: on random connected
//! graphs under random fault schedules, a `Delivered` outcome must be a
//! real route — it never traverses a node or edge that was dead in the
//! epoch it crossed it, its recorded cost is the sum of its segment
//! costs (via `Route::verify`), and the `Drop` baseline is stale-table
//! routing for all four of the paper's schemes: the scheme's own route,
//! delivered where its plan ends or lost at its first casualty.

// The vendored proptest macro expands deeply for three-property blocks.
#![recursion_limit = "1024"]

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::space::MetricSpace;
use doubling_metric::{gen, Eps};
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::baseline::FullTable;
use netsim::faults::{FaultPlan, FaultTimeline};
use netsim::naming::Naming;
use netsim::recovery::{DeliveryOutcome, LossReason, RecoveryPolicy, ResilientRouter};
use netsim::route::{Route, RouteError};
use netsim::scheme::{Deliver, Labeled, Named};

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

/// Test-local stale-table reference: the scheme's own route, lost at the
/// first hop [`FaultPlan::blocks`] refuses (a dead source is lost where
/// it stands).
fn stale_reference(
    d: &dyn Deliver,
    m: &MetricSpace,
    plan: &FaultPlan,
    u: NodeId,
    v: NodeId,
) -> Result<Route, RouteError> {
    if plan.is_node_dead(u) {
        return Err(RouteError::NodeFailed { node: u });
    }
    let route = d.route_to(m, u, v)?;
    match route.hops.windows(2).find_map(|w| plan.blocks(w[0], w[1])) {
        Some(casualty) => Err(casualty),
        None => Ok(route),
    }
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
    /// outcome for outcome, on single-epoch timelines — for each of the
    /// paper's four schemes, whose name-independent searches may pass
    /// `dst` before their plans end there.
    #[test]
    fn drop_policy_matches_the_stale_table_reference_for_all_four_schemes(
        g in arb_connected_graph(14),
        frac_pct in 0u64..50,
        seed in 0u64..1000,
        eps_pick in 0u64..2,
    ) {
        let m = MetricSpace::new(&g);
        let n = m.n();
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(n, seed);
        let plan = FaultPlan::random_nodes(n, frac_pct as f64 / 100.0, seed);
        let timeline = FaultTimeline::from_plan(plan.clone());
        let nl = NetLabeled::new(&m, eps).expect("eps within range");
        let sfl = ScaleFreeLabeled::new(&m, eps).expect("eps within range");
        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let sfni =
            ScaleFreeNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let schemes: [&dyn Deliver; 4] =
            [&Labeled(&nl), &Labeled(&sfl), &Named(&sni, &naming), &Named(&sfni, &naming)];
        for scheme in schemes {
            let router = ResilientRouter::without_hierarchy(&m, scheme, RecoveryPolicy::Drop);
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    if u == v {
                        continue;
                    }
                    let reference = stale_reference(scheme, &m, &plan, u, v);
                    let resilient = router.deliver(u, v, &timeline, &mut |_| {});
                    let name = scheme.scheme_name();
                    match (&reference, &resilient) {
                        (Ok(r), DeliveryOutcome::Delivered { route, .. }) => {
                            prop_assert_eq!(&r.hops, &route.hops, "{} {}->{}", name, u, v);
                            prop_assert_eq!(r.cost, route.cost);
                        }
                        (Err(RouteError::NodeFailed { node }), DeliveryOutcome::Lost { reason, .. }) => {
                            match reason {
                                LossReason::SourceDead => prop_assert_eq!(*node, u),
                                LossReason::Casualty { error: RouteError::NodeFailed { node: n2 } } => {
                                    prop_assert_eq!(node, n2)
                                }
                                other => prop_assert!(false, "{} mismatched loss {:?}", name, other),
                            }
                        }
                        (Err(RouteError::EdgeFailed { u: eu, v: ev }), DeliveryOutcome::Lost { reason, .. }) => {
                            prop_assert!(matches!(
                                reason,
                                LossReason::Casualty { error: RouteError::EdgeFailed { u: u2, v: v2 } }
                                    if u2 == eu && v2 == ev
                            ));
                        }
                        (l, r) => prop_assert!(false, "{} reference {:?} vs resilient {:?}", name, l, r),
                    }
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

/// Simple-NI on a 5×5 grid, whose search from 0 for node 7 passes 7, goes
/// on to 12, walks back to 0 and only then returns to 7, where its plan
/// ends.
fn simple_ni_on_grid() -> (MetricSpace, SimpleNameIndependent, Naming) {
    let m = MetricSpace::new(&gen::grid(5, 5));
    let naming = Naming::random(m.n(), 1);
    let sni = SimpleNameIndependent::new(&m, Eps::one_over(4), naming.clone()).unwrap();
    (m, sni, naming)
}

/// `Drop` follows that plan to its end, like the scheme's own route: it
/// delivers at the route's full cost, and a casualty on the part after
/// the first pass of 7 loses the packet.
#[test]
fn drop_follows_a_name_independent_search_to_the_end_of_its_plan() {
    let (m, sni, naming) = simple_ni_on_grid();
    let scheme = Named(&sni, &naming);
    let router = ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop);
    let drop = |plan: FaultPlan| router.deliver(0, 7, &FaultTimeline::from_plan(plan), &mut |_| {});

    let own = scheme.route_to(&m, 0, 7).unwrap();
    assert_eq!(own.hops, [0, 1, 2, 7, 12, 7, 2, 1, 0, 1, 2, 7]);
    match drop(FaultPlan::none(m.n())) {
        DeliveryOutcome::Delivered { route, .. } => {
            assert_eq!(route.hops, own.hops);
            assert_eq!((route.cost, own.cost), (11, 11));
        }
        lost => panic!("Drop must deliver 0 -> 7, got {lost:?}"),
    }

    // Node 12 lies only on the part of the plan after the first visit to
    // 7: the packet is lost there, as stale-table routing loses it.
    let mut plan = FaultPlan::none(m.n());
    plan.kill_node(12);
    match drop(plan) {
        DeliveryOutcome::Lost { reason, progress } => {
            assert_eq!(reason, LossReason::Casualty { error: RouteError::NodeFailed { node: 12 } });
            assert_eq!((progress.reached, progress.hops), (7, 3));
        }
        delivered => panic!("Drop must lose the packet at node 12, got {delivered:?}"),
    }
}

/// The hop budget counts the end of the plan, not a pass of `dst`: the
/// same search stands on 7 after 3 hops but its plan ends there only
/// after 11.
#[test]
fn hop_budget_is_met_only_where_the_plan_ends() {
    let (m, sni, naming) = simple_ni_on_grid();
    let scheme = Named(&sni, &naming);
    let timeline = FaultTimeline::from_plan(FaultPlan::none(m.n()));
    let budgeted = |budget| {
        ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop)
            .with_hop_budget(budget)
            .deliver(0, 7, &timeline, &mut |_| {})
    };
    // Standing on 7 exactly at budget 3, mid-plan, is a loss there.
    for (budget, reached) in [(3, 7), (10, 2)] {
        match budgeted(budget) {
            DeliveryOutcome::Lost { reason: LossReason::HopBudget, progress } => {
                assert_eq!((progress.hops, progress.reached), (budget, reached));
            }
            other => panic!("budget {budget}: expected HopBudget loss, got {other:?}"),
        }
    }
    // Ending the plan exactly on the budget delivers.
    assert!(budgeted(11).is_delivered());
}

//! Fault-injection edge cases: dead endpoints, a decapitated net level,
//! and the guarantee that an empty plan changes nothing at all. Stale
//! tables are the recovery runtime's `Drop` policy on a single-epoch
//! timeline.

use compact_routing::netsim::faults::{FaultPlan, FaultTimeline};
use compact_routing::netsim::recovery::{
    DeliveryOutcome, LossReason, RecoveryPolicy, ResilientRouter,
};
use compact_routing::netsim::route::RouteError;
use compact_routing::netsim::scheme::{Deliver, Labeled, Named};
use compact_routing::netsim::stats::sample_pairs;
use compact_routing::{gen, Eps, MetricSpace, Naming, Route};
use compact_routing::{
    NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent, SimpleNameIndependent,
};

fn setup(n: usize, seed: u64) -> (MetricSpace, Naming) {
    let g = gen::Family::Grid.build(n, seed);
    let m = MetricSpace::new(&g);
    let naming = Naming::random(m.n(), seed ^ 0xA5);
    (m, naming)
}

/// Delivers `u → v` on stale tables: `Drop` under `plan`, held for the
/// whole delivery.
fn stale(d: &dyn Deliver, m: &MetricSpace, plan: &FaultPlan, u: u32, v: u32) -> DeliveryOutcome {
    let timeline = FaultTimeline::from_plan(plan.clone());
    ResilientRouter::without_hierarchy(m, d, RecoveryPolicy::Drop).deliver(
        u,
        v,
        &timeline,
        &mut |_| {},
    )
}

/// Asserts that a delivered route is the scheme's own route, hop for hop:
/// same endpoints, hops, cost and header bits.
fn assert_same_route(delivered: &DeliveryOutcome, own: &Route) {
    match delivered {
        DeliveryOutcome::Delivered { route, recoveries, detour_hops, .. } => {
            assert_eq!((route.src, route.dst), (own.src, own.dst));
            assert_eq!(route.hops, own.hops, "{} -> {}", own.src, own.dst);
            assert_eq!(route.cost, own.cost);
            assert_eq!(route.max_header_bits, own.max_header_bits);
            assert_eq!((*recoveries, *detour_hops), (0, 0));
        }
        lost => panic!("{} -> {} lost on an empty plan: {lost:?}", own.src, own.dst),
    }
}

#[test]
fn routing_from_a_failed_source_reports_the_source() {
    let (m, naming) = setup(49, 11);
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).unwrap();
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();

    let mut plan = FaultPlan::none(m.n());
    plan.kill_node(3);

    for d in [&Labeled(&nl) as &dyn Deliver, &Named(&sni, &naming)] {
        match stale(d, &m, &plan, 3, 40) {
            DeliveryOutcome::Lost { reason: LossReason::SourceDead, progress } => {
                assert_eq!((progress.reached, progress.hops), (3, 0));
            }
            other => panic!("expected a dead source, got {other:?}"),
        }
    }
}

#[test]
fn routing_to_a_failed_destination_dies_at_the_destination() {
    let (m, naming) = setup(49, 13);
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).unwrap();
    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();

    let mut plan = FaultPlan::none(m.n());
    plan.kill_node(40);

    // The packet must be lost to a casualty — and since only the
    // destination is dead, the casualty must be the destination itself.
    for d in [&Labeled(&nl) as &dyn Deliver, &Named(&sfni, &naming)] {
        match stale(d, &m, &plan, 3, 40) {
            DeliveryOutcome::Lost { reason: LossReason::Casualty { error }, .. } => {
                assert_eq!(error, RouteError::NodeFailed { node: 40 });
            }
            other => panic!("expected NodeFailed at the destination, got {other:?}"),
        }
    }
}

#[test]
fn killing_every_net_center_of_a_level_degrades_but_never_panics() {
    let (m, naming) = setup(64, 17);
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).unwrap();
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();

    // Decapitate one mid-hierarchy level: every member of Y_i dies.
    let nets = nl.nets();
    let i = nets.num_levels() / 2;
    let mut plan = FaultPlan::none(m.n());
    for &c in nets.level(i) {
        plan.kill_node(c);
    }
    assert!(plan.dead_node_count() > 0, "level {i} was empty");

    let mut losses = 0usize;
    let mut attempted = 0usize;
    for (u, v) in sample_pairs(m.n(), 300, 19) {
        if plan.is_node_dead(u) || plan.is_node_dead(v) {
            continue;
        }
        attempted += 1;
        // Both schemes must either deliver around the hole or report a
        // clean fault — anything else is a scheme bug.
        let labeled = stale(&Labeled(&nl), &m, &plan, u, v);
        let named = stale(&Named(&sni, &naming), &m, &plan, u, v);
        for outcome in [&labeled, &named] {
            match outcome {
                DeliveryOutcome::Delivered { route, .. } => assert_eq!(route.dst, v),
                DeliveryOutcome::Lost { reason: LossReason::Casualty { error }, .. } => {
                    assert!(error.is_fault(), "non-fault error: {error}");
                }
                other => panic!("neither a delivery nor a casualty: {other:?}"),
            }
        }
        losses += usize::from(!labeled.is_delivered());
    }
    assert!(attempted > 0);
    // Net centers carry the traffic of their whole cluster; losing a full
    // level must actually hurt the labeled scheme.
    assert!(losses > 0, "decapitating level {i} broke no routes");
}

#[test]
fn empty_fault_plan_is_byte_identical_to_baseline() {
    let (m, naming) = setup(49, 23);
    let eps = Eps::one_over(8);
    let plan = FaultPlan::none(m.n());
    assert!(plan.is_empty());

    let nl = NetLabeled::new(&m, eps).unwrap();
    let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let schemes: [&dyn Deliver; 4] =
        [&Labeled(&nl), &Labeled(&sfl), &Named(&sni, &naming), &Named(&sfni, &naming)];

    for (u, v) in sample_pairs(m.n(), 200, 29) {
        for d in schemes {
            assert_same_route(&stale(d, &m, &plan, u, v), &d.route_to(&m, u, v).unwrap());
        }
    }
}

/// On an empty timeline `Drop` delivers every scheme's own route, hop for
/// hop — including the name-independent searches that pass `dst` before
/// their plans end there — on every family and at both ε.
#[test]
fn drop_on_an_empty_timeline_delivers_route_to_hop_for_hop() {
    for &family in gen::Family::all() {
        let m = MetricSpace::new(&family.build(40, 5));
        let naming = Naming::random(m.n(), 7);
        let plan = FaultPlan::none(m.n());
        let pairs = sample_pairs(m.n(), 120, 11);
        for eps in [Eps::one_over(4), Eps::one_over(8)] {
            let nl = NetLabeled::new(&m, eps).unwrap();
            let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
            let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let schemes: [&dyn Deliver; 4] =
                [&Labeled(&nl), &Labeled(&sfl), &Named(&sni, &naming), &Named(&sfni, &naming)];
            for d in schemes {
                for &(u, v) in &pairs {
                    let own = d.route_to(&m, u, v).unwrap();
                    assert_same_route(&stale(d, &m, &plan, u, v), &own);
                }
            }
        }
    }
}

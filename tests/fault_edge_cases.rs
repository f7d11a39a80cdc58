//! Fault-injection edge cases: dead endpoints, a decapitated net level,
//! and the guarantee that an empty plan changes nothing at all.

use compact_routing::netsim::faults::FaultPlan;
use compact_routing::netsim::route::RouteError;
use compact_routing::netsim::scheme::{Labeled, Named};
use compact_routing::netsim::stats::sample_pairs;
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{
    LabeledScheme, NameIndependentScheme, NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent,
    SimpleNameIndependent,
};

fn setup(n: usize, seed: u64) -> (MetricSpace, Naming) {
    let g = gen::Family::Grid.build(n, seed);
    let m = MetricSpace::new(&g);
    let naming = Naming::random(m.n(), seed ^ 0xA5);
    (m, naming)
}

#[test]
fn routing_from_a_failed_source_reports_the_source() {
    let (m, naming) = setup(49, 11);
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).unwrap();
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();

    let mut plan = FaultPlan::none(m.n());
    plan.kill_node(3);

    match plan.route_stale(&Labeled(&nl), &m, 3, 40) {
        Err(RouteError::NodeFailed { node }) => assert_eq!(node, 3),
        other => panic!("expected NodeFailed at the source, got {other:?}"),
    }
    match plan.route_stale(&Named(&sni, &naming), &m, 3, 40) {
        Err(RouteError::NodeFailed { node }) => assert_eq!(node, 3),
        other => panic!("expected NodeFailed at the source, got {other:?}"),
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
    match plan.route_stale(&Labeled(&nl), &m, 3, 40) {
        Err(RouteError::NodeFailed { node }) => assert_eq!(node, 40),
        other => panic!("expected NodeFailed at the destination, got {other:?}"),
    }
    match plan.route_stale(&Named(&sfni, &naming), &m, 3, 40) {
        Err(RouteError::NodeFailed { node }) => assert_eq!(node, 40),
        other => panic!("expected NodeFailed at the destination, got {other:?}"),
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
        match plan.route_stale(&Labeled(&nl), &m, u, v) {
            Ok(r) => assert_eq!(r.dst, v),
            Err(e) => {
                assert!(e.is_fault(), "non-fault error: {e}");
                losses += 1;
            }
        }
        match plan.route_stale(&Named(&sni, &naming), &m, u, v) {
            Ok(r) => assert_eq!(r.dst, v),
            Err(e) => assert!(e.is_fault(), "non-fault error: {e}"),
        }
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

    for (u, v) in sample_pairs(m.n(), 200, 29) {
        let a = nl.route(&m, u, nl.label_of(v)).unwrap();
        let b = plan.route_stale(&Labeled(&nl), &m, u, v).unwrap();
        assert_eq!(a, b);

        let a = sfl.route(&m, u, sfl.label_of(v)).unwrap();
        let b = plan.route_stale(&Labeled(&sfl), &m, u, v).unwrap();
        assert_eq!(a, b);

        let a = sni.route(&m, u, naming.name_of(v)).unwrap();
        let b = plan.route_stale(&Named(&sni, &naming), &m, u, v).unwrap();
        assert_eq!(a, b);

        let a = sfni.route(&m, u, naming.name_of(v)).unwrap();
        let b = plan.route_stale(&Named(&sfni, &naming), &m, u, v).unwrap();
        assert_eq!(a, b);
    }
}

//! Failure injection: the simulator must *catch* misbehaving schemes —
//! teleporting, looping, misdelivering, or lying about cost — rather than
//! silently producing good-looking numbers.

use doubling_metric::graph::NodeId;
use doubling_metric::{gen, MetricSpace};
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Label, Labeled, LabeledScheme};
use netsim::stats::eval;

/// A scheme with selectable misbehaviour.
struct Buggy {
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Attempts a non-edge hop straight to the destination.
    Teleport,
    /// Bounces between two nodes forever.
    Loop,
    /// Delivers to the wrong node.
    Misdeliver,
}

impl LabeledScheme for Buggy {
    fn scheme_name(&self) -> &'static str {
        "buggy"
    }
    fn label_of(&self, v: NodeId) -> Label {
        v
    }
    fn label_bits(&self) -> u64 {
        8
    }
    fn table_bits(&self, _u: NodeId) -> u64 {
        0
    }
    fn route(&self, m: &MetricSpace, src: NodeId, target: Label) -> Result<Route, RouteError> {
        let mut rec = RouteRecorder::new(m, src);
        match self.mode {
            Mode::Teleport => {
                // Hop directly to the target even when it is not adjacent.
                rec.hop(target as NodeId)?;
                Ok(rec.finish())
            }
            Mode::Loop => {
                let nb = m.graph().neighbors(src)[0].node;
                loop {
                    rec.hop(nb)?;
                    rec.hop(src)?;
                }
            }
            Mode::Misdeliver => {
                // Walk to some node that is not the target.
                let wrong = if target == 0 { 1 } else { 0 };
                rec.walk_shortest(wrong)?;
                Ok(rec.finish())
            }
        }
    }
}

#[test]
fn teleporting_is_rejected() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let s = Buggy { mode: Mode::Teleport };
    // 0 -> 15 is not an edge: the recorder refuses the hop.
    match s.route(&m, 0, 15) {
        Err(RouteError::Internal(msg)) => assert!(msg.contains("non-edge")),
        other => panic!("teleport must be caught, got {other:?}"),
    }
    // eval counts it as a failure rather than crediting the route.
    let res = eval(&Labeled(&s), &m, &[(0, 15)], 1, |_, _, _| {});
    assert_eq!(res.failures, 1);
    assert_eq!(res.routes, 0);
}

#[test]
fn loops_hit_the_hop_budget() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let s = Buggy { mode: Mode::Loop };
    match s.route(&m, 0, 15) {
        Err(RouteError::HopBudgetExceeded { .. }) => {}
        other => panic!("loop must exhaust the budget, got {other:?}"),
    }
}

#[test]
fn misdelivery_is_caught_by_eval() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let s = Buggy { mode: Mode::Misdeliver };
    let result = std::panic::catch_unwind(|| eval(&Labeled(&s), &m, &[(5, 15)], 1, |_, _, _| {}));
    assert!(result.is_err(), "eval must panic on misdelivery");
}

#[test]
fn cost_tampering_is_caught_by_verify() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let mut rec = RouteRecorder::new(&m, 0);
    rec.walk_shortest(15).unwrap();
    let mut route = rec.finish();
    route.verify(&m).unwrap();
    // A scheme cannot understate its cost after the fact.
    route.cost -= 1;
    assert!(route.verify(&m).is_err());
    route.cost += 1;
    // Nor inject phantom hops.
    route.hops.push(3);
    assert!(route.verify(&m).is_err());
}

#[test]
fn segment_tampering_is_caught_by_verify() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let mut rec = RouteRecorder::new(&m, 0);
    rec.begin_segment("a", None);
    rec.walk_shortest(5).unwrap();
    let mut route = rec.finish();
    route.verify(&m).unwrap();
    route.segments[0].cost += 1;
    assert!(route.verify(&m).is_err(), "segment sums must match total cost");
}

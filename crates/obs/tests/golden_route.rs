//! Golden-file and zero-overhead tests for the route observability layer.
//!
//! * The golden test pins the exact span tree of one deterministic
//!   `NetLabeled` route on a 5×5 grid (the crate-docs example route), and
//!   asserts the structural invariant behind Figures 1/2: the segment
//!   spans partition the route's recorded cost and hop count exactly.
//! * The no-op test pins the zero-overhead contract: evaluating through
//!   [`Telemetry::route`] with [`Tracer::noop`] produces a bit-identical
//!   [`EvalResult`] to the plain harness and records nothing.
//!
//! Regenerate the golden file with
//! `UPDATE_GOLDEN=1 cargo test -p obs --test golden_route`.

use doubling_metric::{gen, Eps, MetricSpace};
use labeled_routing::NetLabeled;
use name_independent::SimpleNameIndependent;
use netsim::json::Value;
use netsim::stats::{eval, sample_pairs, EvalResult};
use netsim::{Deliver, Labeled, LabeledScheme, NameIndependentScheme, Named, Naming};
use obs::spans::segment_span_sum;
use obs::{route_span_tree, RouteMetrics, Telemetry, TraceLog, Tracer};

/// Evaluates `d` the way the profiler does — a [`RouteMetrics`] fold plus
/// [`Telemetry::route`] — with disabled registry and flight sinks; returns
/// the result and what `tracer` recorded.
fn traced_eval(
    d: &dyn Deliver,
    m: &MetricSpace,
    pairs: &[(u32, u32)],
    tracer: Tracer,
    rm: &mut RouteMetrics,
) -> (EvalResult, TraceLog) {
    let tel = Telemetry { tracer, ..Telemetry::off() };
    let res = eval(d, m, pairs, 1, |u, v, r| {
        if let Ok(route) = r {
            rm.record(route);
            rm.record_stretch(route.stretch(m));
        }
        tel.route(m, u, v, r);
    });
    (res, tel.tracer.finish())
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/route_span_tree.json");

#[test]
fn golden_route_span_tree_matches_and_spans_sum_to_cost() {
    // A name-independent route, so the golden pins the full Figure-1
    // anatomy (zoom → search → final), not just a single ring walk.
    let m = MetricSpace::new(&gen::grid(5, 5));
    let naming = Naming::random(m.n(), 7);
    let s = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone()).unwrap();
    let route = s.route(&m, 0, naming.name_of(24)).unwrap();
    route.verify(&m).unwrap();

    // The Figure-level invariant: segment spans partition the route.
    assert!(!route.segments.is_empty());
    assert_eq!(segment_span_sum(&route), route.cost);
    assert_eq!(
        route.segments.iter().map(|sg| sg.hops).sum::<usize>(),
        route.hop_count(),
        "segment hops must partition the walk"
    );

    let tree = route_span_tree(&route);
    let rendered = tree.to_string_pretty() + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden file");
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 once");
    assert_eq!(
        rendered, expected,
        "route span tree drifted from tests/golden/route_span_tree.json"
    );
    // And the golden file itself parses back to the same tree.
    assert_eq!(Value::parse(&expected).unwrap(), tree);
}

#[test]
fn every_sampled_route_span_tree_partitions_cost() {
    // Beyond the single pinned route: the partition invariant holds for
    // both a labeled and a name-independent scheme across a pair sample.
    let m = MetricSpace::new(&gen::grid(6, 6));
    let naming = Naming::random(m.n(), 11);
    let nl = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
    let sni = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone()).unwrap();
    for (u, v) in sample_pairs(m.n(), 80, 13) {
        for route in
            [nl.route(&m, u, nl.label_of(v)).unwrap(), sni.route(&m, u, naming.name_of(v)).unwrap()]
        {
            route.verify(&m).unwrap();
            assert_eq!(segment_span_sum(&route), route.cost, "{u}->{v}");
            let tree = route_span_tree(&route);
            let spans = tree.get("spans").and_then(Value::as_array).unwrap();
            let sum: u64 =
                spans.iter().map(|s| s.get("cost").and_then(Value::as_u64).unwrap()).sum();
            assert_eq!(sum, route.cost, "{u}->{v}: span tree must partition the cost");
        }
    }
}

#[test]
fn noop_traced_eval_is_bit_identical_to_plain_eval_and_records_nothing() {
    let m = MetricSpace::new(&gen::grid(6, 6));
    let naming = Naming::random(m.n(), 3);
    let pairs = sample_pairs(m.n(), 60, 5);

    let nl = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
    let plain = eval(&Labeled(&nl), &m, &pairs, 1, |_, _, _| {});
    let mut rm = RouteMetrics::new();
    let (traced, log) = traced_eval(&Labeled(&nl), &m, &pairs, Tracer::noop(), &mut rm);
    assert_eq!(traced, plain, "no-op tracing must not perturb the evaluation");
    assert_eq!(rm.cost.count(), pairs.len() as u64);
    assert!(log.spans.is_empty() && log.events.is_empty(), "no-op tracer must record nothing");

    let sni = SimpleNameIndependent::new(&m, Eps::one_over(8), naming.clone()).unwrap();
    let plain = eval(&Named(&sni, &naming), &m, &pairs, 1, |_, _, _| {});
    let mut rm = RouteMetrics::new();
    let (traced, log) = traced_eval(&Named(&sni, &naming), &m, &pairs, Tracer::noop(), &mut rm);
    assert_eq!(traced, plain);
    assert!(log.to_jsonl().is_empty());
}

#[test]
fn recording_traced_eval_emits_one_route_event_per_pair() {
    let m = MetricSpace::new(&gen::grid(5, 5));
    let nl = NetLabeled::new(&m, Eps::one_over(8)).unwrap();
    let pairs = sample_pairs(m.n(), 30, 9);
    let mut rm = RouteMetrics::new();
    let (res, log) = traced_eval(&Labeled(&nl), &m, &pairs, Tracer::recording(), &mut rm);
    assert_eq!(res.failures, 0);
    assert_eq!(log.events.len(), pairs.len());
    for e in &log.events {
        assert_eq!(e.name, "route");
        let (_, tree) = &e.fields[0];
        let cost = tree.get("cost").and_then(Value::as_u64).unwrap();
        let spans = tree.get("spans").and_then(Value::as_array).unwrap();
        let sum: u64 = spans.iter().map(|s| s.get("cost").and_then(Value::as_u64).unwrap()).sum();
        assert_eq!(sum, cost);
    }
}

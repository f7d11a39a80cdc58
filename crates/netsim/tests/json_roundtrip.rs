//! Persistence: graphs, namings, routes and results serialize through the
//! dependency-free [`netsim::json`] module, enabling experiment inputs and
//! outputs to be saved and reloaded without crates.io access.

use doubling_metric::{gen, MetricSpace};
use netsim::baseline::FullTable;
use netsim::json::{graph_from_json, graph_to_json, naming_from_json, naming_to_json, Value};
use netsim::scheme::{Labeled, LabeledScheme};
use netsim::stats::{eval, sample_pairs, StretchQuantiles};
use netsim::Naming;

#[test]
fn graph_roundtrips_through_json() {
    let g = gen::random_geometric(30, 300, 5);
    let json = graph_to_json(&g).to_string();
    let back = graph_from_json(&Value::parse(&json).unwrap()).unwrap();
    assert_eq!(back.node_count(), g.node_count());
    assert_eq!(back.edge_count(), g.edge_count());
    let e1: Vec<_> = g.edges().collect();
    let e2: Vec<_> = back.edges().collect();
    assert_eq!(e1, e2);
    // The reloaded graph produces the identical metric.
    let m1 = MetricSpace::new(&g);
    let m2 = MetricSpace::new(&back);
    for u in 0..30u32 {
        for v in 0..30u32 {
            assert_eq!(m1.dist(u, v), m2.dist(u, v));
        }
    }
}

#[test]
fn naming_roundtrips_through_json() {
    let nm = Naming::random(40, 9);
    let json = naming_to_json(&nm).to_string();
    let back = naming_from_json(&Value::parse(&json).unwrap()).unwrap();
    assert_eq!(back, nm);
}

#[test]
fn results_serialize() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let s = FullTable::new(&m);
    let res = eval(&Labeled(&s), &m, &sample_pairs(16, 20, 1), 1, |_, _, _| {});
    let json = res.to_json().to_string();
    assert!(json.contains("\"max_stretch\":1.0"), "json was: {json}");
    let q = StretchQuantiles::from_stretches(&[1.0, 2.0, 3.0]);
    let json = q.to_json().to_string();
    assert!(json.contains("\"p50\":2.0"), "json was: {json}");
}

#[test]
fn routes_serialize() {
    let m = MetricSpace::new(&gen::path(4));
    let s = FullTable::new(&m);
    let r = s.route(&m, 0, 3).unwrap();
    let json = r.to_json().to_string();
    assert!(
        json.contains("\"hops\":[0.0,1.0,2.0,3.0]") || json.contains("\"hops\":[0,1,2,3]"),
        "json was: {json}"
    );
}

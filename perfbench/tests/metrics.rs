//! The benchmark's own tests, on tiny instances with a zero time budget
//! (so every phase runs its minimum number of repetitions).
//!
//! Runs read the process-wide allocation counters, so nothing else in the
//! process may allocate while one runs — not even the test harness
//! reporting another test's result. The checks are therefore plain
//! functions run in sequence by the one `#[test]` at the end.

use netsim::json::Value;
use perfbench::run::{run, Options, Outcome};
use perfbench::workload::{generate, Spec, SLICE};

fn tiny(name: &str) -> Spec {
    let mut spec = Spec::named(name).expect("workload exists");
    spec.n = 36;
    spec.stream_len = 2 * SLICE;
    spec
}

fn run_tiny(name: &str, seed: u64, trace: bool) -> Outcome {
    run(&tiny(name), &Options { seed, seconds: 0.0, trace })
}

/// `(name, unit)` of each declared metric.
type Declared = Vec<(String, String)>;

/// The workload names and the end-to-end and per-layer metrics declared in
/// the repository's `BENCHMARK.json`.
fn declared() -> (Vec<String>, Declared, Declared) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<Value> {
        doc.get(key).and_then(Value::as_array).expect("declared list").to_vec()
    };
    let field =
        |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect("string field").to_string();
    let metrics =
        |key: &str| list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
    let workloads = list("workloads").iter().map(|w| field(w, "name")).collect();
    (workloads, metrics("end_to_end"), metrics("per_layer"))
}

fn every_declared_metric_is_emitted_with_its_unit() {
    let (workloads, end_to_end, per_layer) = declared();
    assert_eq!(workloads, Spec::names());
    for w in &workloads {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let out = run_tiny(w, 3, trace);
            let got: Vec<(String, String)> =
                out.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            assert_eq!(&got, want, "{w} trace={trace}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{w}: {} = {}", m.name, m.value);
            }
        }
    }
}

fn no_operation_fails_on_any_workload() {
    for w in Spec::names() {
        for trace in [false, true] {
            let out = run_tiny(w, 5, trace);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{w} trace={trace}: {:?}", out.failures);
            assert!(out.correct());
            if trace {
                assert_eq!(out.metric("fail_ratio"), Some(0.0));
            }
        }
    }
}

fn deterministic_metrics_repeat_for_a_seed() {
    let exact_units = ["MiB", "GiB", "bits", "bytes", "count"];
    for w in Spec::names() {
        let (a, b) = (run_tiny(w, 7, false), run_tiny(w, 7, false));
        for name in ["plane_mib", "stretch_mean", "setup_peak_mib", "serve_resident_mib"] {
            assert_eq!(a.metric(name), b.metric(name), "{w}: {name}");
            assert!(a.metric(name).is_some_and(|v| v > 0.0), "{w}: {name}");
        }
        let (a, b) = (run_tiny(w, 7, true), run_tiny(w, 7, true));
        let exact: Vec<_> = a
            .metrics
            .iter()
            .filter(|m| exact_units.contains(&m.unit) || m.name == "maintain.blast_fraction")
            .collect();
        assert!(exact.len() >= 20, "{w}: only {} exact per-layer metrics", exact.len());
        for m in exact {
            assert_eq!(Some(m.value), b.metric(&m.name), "{w}: {}", m.name);
        }
    }
}

fn a_different_seed_changes_the_generated_inputs() {
    for w in Spec::names() {
        let spec = tiny(w);
        let (a, b, c) = (generate(&spec, 1), generate(&spec, 1), generate(&spec, 2));
        assert_eq!(a.stream, b.stream, "{w}: same seed, same stream");
        assert_eq!(a.units, b.units, "{w}: same seed, same churn");
        assert_ne!(a.stream, c.stream, "{w}: the seed must change the stream");
        assert_ne!(a.units, c.units, "{w}: the seed must change the churn batches");
        // The instance is fixed: only the traffic depends on the seed.
        assert_eq!(a.graph.edge_count(), c.graph.edge_count());
        assert_eq!(a.stream.len(), spec.stream_len);
        assert!(a.stream.iter().all(|q| q.src != q.dst));
    }
}

#[test]
fn benchmark_contract_holds_at_tiny_sizes() {
    every_declared_metric_is_emitted_with_its_unit();
    no_operation_fails_on_any_workload();
    deterministic_metrics_repeat_for_a_seed();
    a_different_seed_changes_the_generated_inputs();
}

//! Experiment S1: end-to-end scaling of all four schemes to n = 10,000.
//!
//! The dense all-pairs experiments (tables, conformance) stop being the
//! bottleneck once the Θ(n²) *evaluation* is replaced by seeded sampled
//! pairs measured against the exact [`OnDemandDijkstra`] backend — the
//! metric itself still builds densely (the schemes consume
//! [`MetricSpace`]), but nothing downstream touches all n² pairs. Per
//! (n, scheme) cell this sweep records:
//!
//! * per-phase preprocessing wall time — the metric build split
//!   (all-pairs Dijkstra / sorted rows, via
//!   [`MetricSpace::build_profiled`]) plus the scheme construction;
//! * peak allocation per phase (high-water bytes under the binary's
//!   [`obs::alloc::CountingAlloc`]);
//! * per-node storage (max / mean table bits, label bits where the
//!   scheme has labels);
//! * sampled stretch — mean with a 95% CI half-width, p99, and max over
//!   seeded pairs ([`netsim::stats::SampledStretch`]), measured against
//!   the on-demand Dijkstra oracle;
//! * a **determinism flag**: the same pairs are re-measured against the
//!   dense matrix backend and the two statistics must agree bit for bit
//!   (the backends are interchangeable exact oracles — see DESIGN.md,
//!   "Distance backends").
//!
//! Each instance also records the landmark estimator's mean relative
//! bound gap on the sampled pairs — how tight the third (inexact)
//! backend's brackets are at scale.
//!
//! The `scale` binary prints the table and writes the JSON document
//! (`schema_version` 1) to `results/scale.json`. With `--stable` the
//! volatile fields (wall times, peak bytes, the recorded thread count)
//! are pinned to `0` so two same-seed runs — at any `--threads` —
//! produce byte-identical files; every other field is byte-identical
//! even without the flag.

use std::sync::Arc;
use std::time::Instant;

use doubling_metric::{
    gen, DistanceProvider, Eps, LandmarkEstimator, MetricSpace, OnDemandDijkstra,
};
use netsim::json::Value;
use netsim::stats::{sample_pairs, sampled_stretch, SampledStretch};
use netsim::Naming;
use obs::{Telemetry, Tracer};

use crate::schemes::{self, Built};
use crate::table::f2;

/// Version of the `results/scale.json` document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// The default n sweep (requested grid sizes; grids round to squares).
pub const DEFAULT_NS: [usize; 4] = [1000, 2000, 5000, 10000];

/// Sampled source/destination pairs per cell (`--pairs` overrides).
pub const DEFAULT_PAIRS: usize = 2000;

/// 1/ε for every scheme in the sweep.
pub const EPS_INV: u64 = 8;

/// LRU row capacity of the on-demand evaluation oracle.
pub const ORACLE_ROWS: usize = 256;

/// Landmarks for the per-instance bound-gap diagnostic.
pub const LANDMARK_COUNT: usize = 16;

/// One instance's metric-level measurements, shared by its four cells.
struct InstanceCell {
    n: usize,
    requested_n: usize,
    apsp_us: u64,
    rows_us: u64,
    peak_bytes: u64,
    landmark_mean_rel_gap: f64,
}

impl InstanceCell {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("n".into(), self.n.into()),
            ("requested_n".into(), self.requested_n.into()),
            ("apsp_us".into(), self.apsp_us.into()),
            ("sort_rows_us".into(), self.rows_us.into()),
            ("peak_bytes".into(), self.peak_bytes.into()),
            ("oracle".into(), "dijkstra-lru".into()),
            ("oracle_rows".into(), ORACLE_ROWS.into()),
            ("landmark_count".into(), LANDMARK_COUNT.into()),
            ("landmark_mean_rel_gap".into(), self.landmark_mean_rel_gap.into()),
        ])
    }
}

/// One (n, scheme) cell.
struct SchemeCell {
    n: usize,
    scheme: &'static str,
    build_us: u64,
    peak_bytes: u64,
    label_bits: Option<u64>,
    max_table_bits: u64,
    avg_table_bits: f64,
    stats: SampledStretch,
    deterministic: bool,
}

impl SchemeCell {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("n".into(), self.n.into()),
            ("scheme".into(), self.scheme.into()),
            ("build_us".into(), self.build_us.into()),
            ("peak_bytes".into(), self.peak_bytes.into()),
            ("label_bits".into(), self.label_bits.map_or(Value::Null, Value::from)),
            ("max_table_bits".into(), self.max_table_bits.into()),
            ("avg_table_bits".into(), self.avg_table_bits.into()),
            ("pairs".into(), self.stats.pairs.into()),
            ("failures".into(), self.stats.failures.into()),
            ("stretch_mean".into(), self.stats.mean.into()),
            ("stretch_ci95".into(), self.stats.ci_half_width.into()),
            ("stretch_p99".into(), self.stats.p99.into()),
            ("stretch_max".into(), self.stats.max.into()),
            ("deterministic".into(), self.deterministic.into()),
        ])
    }

    fn row(&self, inst: &InstanceCell) -> Vec<String> {
        vec![
            self.n.to_string(),
            self.scheme.to_string(),
            f2((inst.apsp_us + inst.rows_us) as f64 / 1e3),
            f2(self.build_us as f64 / 1e3),
            f2(self.peak_bytes as f64 / (1024.0 * 1024.0)),
            self.max_table_bits.to_string(),
            f2(self.stats.mean),
            format!("{:.4}", self.stats.ci_half_width),
            f2(self.stats.p99),
            f2(self.stats.max),
            if self.deterministic { "yes".into() } else { "NO".into() },
        ]
    }
}

/// Everything one scaling sweep produces: console table plus the JSON
/// document for `results/scale.json`.
pub struct ScaleReport {
    /// Table headers.
    pub headers: Vec<&'static str>,
    /// One row per (n, scheme) cell.
    pub rows: Vec<Vec<String>>,
    /// The full document (`schema_version` 1).
    pub doc: Value,
    /// Whether every cell's on-demand statistics matched the dense-matrix
    /// statistics bit for bit (the sweep's hard invariant).
    pub all_deterministic: bool,
    /// Total routes that returned an error, across all cells.
    pub failures: usize,
}

/// Runs one phase under timing + peak-allocation measurement.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    obs::alloc::reset_peak_bytes();
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_micros() as u64, obs::alloc::peak_bytes())
}

/// Builds scheme `i` of the table order and measures its cell.
#[allow(clippy::too_many_arguments)]
fn scheme_cell(
    i: usize,
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    oracle: &OnDemandDijkstra,
    pairs: &[(doubling_metric::NodeId, doubling_metric::NodeId)],
    stable: bool,
    tel: &Telemetry,
) -> SchemeCell {
    let n = m.n();
    let pin = |v: u64| if stable { 0 } else { v };
    let (s, build_us, peak) = {
        let _sp = tel.tracer.span("scheme-build");
        measured(|| Built::new(i, m, eps, naming, &Tracer::noop()))
    };
    let seam = s.seam();
    let stats = {
        let _sp = tel.tracer.span("evaluate");
        sampled_stretch(&*seam, m, oracle, pairs, |u, v, res| tel.route(m, u, v, res))
    };
    // The cross-check replays the same pairs, so it stays unobserved.
    let check = {
        let _sp = tel.tracer.span("cross-check");
        sampled_stretch(&*seam, m, m, pairs, |_, _, _| {})
    };
    let table_bits: Vec<u64> = (0..n as u32).map(|u| seam.table_bits(u)).collect();
    SchemeCell {
        n,
        scheme: schemes::SHORT_NAMES[i],
        build_us: pin(build_us),
        peak_bytes: pin(peak),
        label_bits: seam.label_bits(),
        max_table_bits: table_bits.iter().copied().max().unwrap_or(0),
        avg_table_bits: table_bits.iter().sum::<u64>() as f64 / n as f64,
        deterministic: stats == check,
        stats,
    }
}

/// Runs the sweep: for each requested `n`, one metric build, then all
/// four schemes built and sampled-evaluated against the on-demand oracle
/// with a dense-matrix cross-check. `stable` pins the volatile fields
/// (wall times, peak bytes) to `0` for byte-identity checks.
///
/// Telemetry never feeds back into the document: `tel.tracer` gets
/// per-phase spans (`metric-build` with its apsp/sort-rows worker
/// children, `scheme-build`, `evaluate`, `cross-check`, `landmark-gap`),
/// every oracle-pass route goes through [`Telemetry::route`] (`eval.*`
/// counters and histograms, flight ring), and `tel.registry` also gets
/// the oracle row-cache stats.
pub fn run_scale(
    ns: &[usize],
    pairs_per_cell: usize,
    seed: u64,
    threads: usize,
    stable: bool,
    tel: &Telemetry,
) -> ScaleReport {
    let headers = vec![
        "n",
        "scheme",
        "metric(ms)",
        "build(ms)",
        "peak(MiB)",
        "max-table(b)",
        "mean",
        "ci95",
        "p99",
        "max",
        "identical",
    ];
    let eps = Eps::one_over(EPS_INV);
    let pin = |v: u64| if stable { 0 } else { v };
    let mut rows = Vec::new();
    let mut instances_json = Vec::new();
    let mut cells_json = Vec::new();
    let mut all_deterministic = true;
    let mut failures = 0usize;

    for &requested_n in ns {
        tel.tracer.event_lazy("scale-instance", || vec![("requested_n", requested_n.into())]);
        let graph = Arc::new(gen::Family::Grid.build(requested_n, seed));
        let ((m, profile), _, metric_peak) = {
            let _sp = tel.tracer.span("metric-build");
            let out = measured(|| MetricSpace::build_profiled(Arc::clone(&graph), threads));
            obs::phase::record_build_profile(&tel.tracer, &out.0 .1);
            out
        };
        let n = m.n();

        let pairs = sample_pairs(n, pairs_per_cell, seed ^ 0x5A);
        let naming = Naming::random(n, seed ^ 0xA5);
        let oracle = OnDemandDijkstra::new(Arc::clone(&graph), ORACLE_ROWS);

        let _landmark_span = tel.tracer.span("landmark-gap");
        let landmarks = LandmarkEstimator::new(&graph, LANDMARK_COUNT);
        let mut gap = 0.0;
        for &(u, v) in &pairs {
            let b = landmarks.dist_bounds(u, v);
            gap += (b.upper - b.lower) as f64 / b.upper.max(1) as f64;
        }
        drop(_landmark_span);
        let inst = InstanceCell {
            n,
            requested_n,
            apsp_us: pin(profile.apsp.wall_us),
            rows_us: pin(profile.rows.wall_us),
            peak_bytes: pin(metric_peak),
            landmark_mean_rel_gap: if pairs.is_empty() { 0.0 } else { gap / pairs.len() as f64 },
        };

        // Evaluate against the on-demand oracle, then cross-check bit for
        // bit against the dense matrix.
        let cells: Vec<SchemeCell> = (0..schemes::COUNT)
            .map(|i| scheme_cell(i, &m, eps, &naming, &oracle, &pairs, stable, tel))
            .collect();
        for cell in cells {
            all_deterministic &= cell.deterministic;
            failures += cell.stats.failures;
            rows.push(cell.row(&inst));
            cells_json.push(cell.to_json());
        }
        let oracle_stats = oracle.stats();
        tel.registry.counter("oracle.row_builds").add(oracle_stats.builds);
        tel.registry.counter("oracle.row_hits").add(oracle_stats.hits);
        tel.registry.counter("oracle.row_evictions").add(oracle_stats.evictions);
        instances_json.push(inst.to_json());
    }

    let doc = Value::Object(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("experiment".into(), "scale".into()),
        ("family".into(), "grid".into()),
        ("seed".into(), seed.into()),
        ("eps".into(), format!("1/{EPS_INV}").into()),
        ("pairs_per_cell".into(), pairs_per_cell.into()),
        // `--stable` pins the recorded thread count alongside the wall
        // times: the whole point of the flag is that the document is
        // byte-identical at any `--threads`, including this header field.
        ("threads".into(), if stable { 0usize } else { threads }.into()),
        ("stable".into(), stable.into()),
        ("alloc_counted".into(), (obs::alloc::allocated_bytes() > 0).into()),
        ("all_deterministic".into(), all_deterministic.into()),
        ("instances".into(), Value::Array(instances_json)),
        ("cells".into(), Value::Array(cells_json)),
    ]);
    ScaleReport { headers, rows, doc, all_deterministic, failures }
}

/// Entry point for `cargo run --release --bin scale`: runs the sweep,
/// prints the table, and writes `results/scale.json`.
///
/// Usage: `scale [max_n] [--n LIST] [--pairs K] [--seed N] [--threads N]
/// [--stable] [--json] [--trace] [--chrome-trace PATH]`. `max_n`
/// truncates the default n sweep {1000, 2000, 5000, 10000}; `--n`
/// replaces it outright; `--stable` pins wall times, peak bytes, and the
/// recorded thread count to `0` so same-seed runs are byte-identical at
/// any `--threads` (CI's determinism check `cmp`s the raw files —
/// telemetry output lives in separate files and never perturbs the
/// document). [`crate::cli::Cli::finish`] writes the telemetry
/// artifacts: the flight recorder dumps `results/scale_flight.jsonl`
/// whenever a loss or under-stretch route was observed.
pub fn scale_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let max_n: usize = cli.pos(0, *DEFAULT_NS.last().unwrap());
    let ns: Vec<usize> = match &cli.n_list {
        Some(list) => list.clone(),
        None => DEFAULT_NS.into_iter().filter(|&n| n <= max_n).collect(),
    };
    let pairs = cli.pairs.unwrap_or(DEFAULT_PAIRS);
    let tel = cli.telemetry();
    let report = run_scale(&ns, pairs, cli.seed, cli.threads, cli.stable, &tel);
    crate::table::emit(
        &format!(
            "S1: scheme scaling (grid, eps=1/{EPS_INV}, {pairs} pairs/cell, seed {}{})",
            cli.seed,
            if cli.stable { ", stable" } else { "" }
        ),
        &report.headers,
        &report.rows,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/scale.json", report.doc.to_string_pretty() + "\n")
        .expect("write results/scale.json");
    cli.finish("scale", std::path::Path::new("results"), tel);
    if !cli.json {
        println!("\nwrote results/scale.json");
        println!("reading: stretch is sampled ({pairs} seeded pairs/cell) against the");
        println!("on-demand Dijkstra oracle; `identical` certifies the dense matrix");
        println!("produced bit-identical statistics for the same pairs.");
    }
    assert_eq!(report.failures, 0, "routes failed — see results/scale.json");
    assert!(report.all_deterministic, "backends disagreed — see results/scale.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_cells_with_exact_sampled_stats() {
        let report = run_scale(&[64], 100, 3, 1, false, &Telemetry::off());
        assert_eq!(report.rows.len(), 4);
        assert!(report.all_deterministic);
        assert_eq!(report.failures, 0);
        assert_eq!(report.doc.get("schema_version").and_then(Value::as_u64), Some(SCHEMA_VERSION));
        let cells = report.doc.get("cells").and_then(Value::as_array).expect("cells");
        assert_eq!(cells.len(), 4);
        for c in cells {
            assert_eq!(c.get("deterministic").and_then(Value::as_bool), Some(true));
            assert_eq!(c.get("failures").and_then(Value::as_u64), Some(0));
            let mean = c.get("stretch_mean").and_then(Value::as_f64).expect("mean");
            let p99 = c.get("stretch_p99").and_then(Value::as_f64).expect("p99");
            let max = c.get("stretch_max").and_then(Value::as_f64).expect("max");
            assert!(1.0 <= mean && mean <= p99 + 1e-12 && p99 <= max + 1e-12, "{c:?}");
            assert!(c.get("max_table_bits").and_then(Value::as_u64).unwrap() > 0);
        }
        let inst = &report.doc.get("instances").and_then(Value::as_array).unwrap()[0];
        let gap = inst.get("landmark_mean_rel_gap").and_then(Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&gap));
        // Round-trips through the parser.
        assert_eq!(Value::parse(&report.doc.to_string_pretty()).unwrap(), report.doc);
    }

    #[test]
    fn telemetered_sweep_records_spans_registry_and_flight() {
        let tel = Telemetry {
            flight: obs::FlightRecorder::new(16).into(),
            ..Telemetry::on(Tracer::recording())
        };
        let report = run_scale(&[36], 40, 3, 1, false, &tel);
        assert!(report.all_deterministic);
        assert_eq!(report.failures, 0);

        let Telemetry { tracer, registry, flight } = tel;
        let flight = flight.into_inner();
        let log = tracer.finish();
        let names: std::collections::BTreeSet<&str> = log.spans.iter().map(|s| s.name).collect();
        for want in [
            "metric-build",
            "apsp",
            "sort-rows",
            "scheme-build",
            "evaluate",
            "cross-check",
            "landmark-gap",
        ] {
            assert!(names.contains(want), "missing span {want:?} in {names:?}");
        }

        // 4 schemes × 40 pairs, all delivered, observed only on the
        // oracle pass (the cross-check replays the same pairs).
        let snap = registry.snapshot();
        assert_eq!(snap.counter("eval.routes"), Some(160));
        assert_eq!(snap.counter("eval.route_failures"), Some(0));
        assert_eq!(snap.histogram("eval.route_cost").map(obs::Log2Histogram::count), Some(160));
        assert!(snap.counter("oracle.row_builds").unwrap_or(0) > 0);

        // The flight ring retains the last 16 of those queries, none
        // anomalous.
        assert_eq!(flight.len(), 16);
        assert_eq!(flight.anomalies(), 0);
    }

    #[test]
    fn stable_runs_are_byte_identical_at_any_thread_count() {
        let tel = Telemetry::off();
        let a = run_scale(&[36], 60, 7, 1, true, &tel).doc.to_string_pretty();
        let b = run_scale(&[36], 60, 7, 4, true, &tel).doc.to_string_pretty();
        // The *whole document* must agree byte for byte — `--stable`
        // pins the recorded thread count too (CI `cmp`s raw files).
        assert_eq!(a, b);
        assert!(a.contains("\"threads\": 0"), "thread count not pinned:\n{a}");
        assert!(a.contains("\"apsp_us\": 0"), "volatile field not pinned:\n{a}");
        assert!(a.contains("\"build_us\": 0"));
        assert!(a.contains("\"peak_bytes\": 0"));
    }

    #[test]
    fn unstable_runs_pin_nothing_but_agree_on_semantics() {
        let a = run_scale(&[36], 60, 7, 1, false, &Telemetry::off());
        let b = run_scale(&[36], 60, 7, 1, false, &Telemetry::off());
        let strip = |doc: &Value| {
            let cells = doc.get("cells").and_then(Value::as_array).unwrap();
            cells
                .iter()
                .map(|c| {
                    (
                        c.get("stretch_mean").and_then(Value::as_f64).unwrap().to_bits(),
                        c.get("stretch_ci95").and_then(Value::as_f64).unwrap().to_bits(),
                        c.get("max_table_bits").and_then(Value::as_u64).unwrap(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a.doc), strip(&b.doc));
    }
}

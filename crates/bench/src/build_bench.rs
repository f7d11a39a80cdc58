//! Experiment B1: metric preprocessing build-time scaling.
//!
//! Sweeps grid instances over n × thread counts and measures the two
//! parallel phases of [`MetricSpace`] construction (all-pairs Dijkstra,
//! sorted-row build) via [`MetricSpace::build_profiled`]:
//!
//! * wall-clock per phase and speedup vs the 1-thread baseline;
//! * per-source Dijkstra timing quantiles (p50/p90/p99 bucket bounds from
//!   an [`obs::Log2Histogram`]);
//! * allocation delta per build (nonzero only under the binary's
//!   [`obs::alloc::CountingAlloc`] global allocator);
//! * a **determinism check**: every multi-threaded build is compared
//!   (`==`, i.e. every table byte) against the sequential one.
//!
//! The `bench_build` binary prints the table and writes the JSON document
//! (`schema_version` 1) to `results/bench_build.json` — the first
//! datapoint of the repo's perf trajectory. Speedups are hardware-bound:
//! on a single-core container every thread count measures ≈ 1.0×.

use std::sync::Arc;

use doubling_metric::build::BuildProfile;
use doubling_metric::{gen, MetricSpace};
use netsim::json::Value;
use obs::{Log2Histogram, Telemetry};

use crate::table::f2;

/// Version of the `results/bench_build.json` document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// The default n sweep (requested grid sizes; grids round to squares).
pub const DEFAULT_NS: [usize; 4] = [100, 200, 400, 800];

/// One build's measurements.
struct BuildCell {
    n: usize,
    threads: usize,
    profile: BuildProfile,
    alloc_bytes: u64,
    deterministic: bool,
}

impl BuildCell {
    fn to_json(&self, baseline: &BuildProfile) -> Value {
        let apsp_hist = per_source_hist(&self.profile.apsp.per_source_us);
        let q = |o: Option<u64>| o.map_or(Value::Null, Value::from);
        Value::Object(vec![
            ("n".into(), self.n.into()),
            ("threads".into(), self.threads.into()),
            ("workers".into(), self.profile.apsp.threads().into()),
            ("apsp_us".into(), self.profile.apsp.wall_us.into()),
            ("sort_rows_us".into(), self.profile.rows.wall_us.into()),
            ("total_us".into(), self.profile.total_us().into()),
            (
                "speedup_apsp".into(),
                speedup(baseline.apsp.wall_us, self.profile.apsp.wall_us).into(),
            ),
            ("speedup_total".into(), speedup(baseline.total_us(), self.profile.total_us()).into()),
            ("alloc_bytes".into(), self.alloc_bytes.into()),
            ("per_source_p50_us".into(), q(apsp_hist.p50())),
            ("per_source_p90_us".into(), q(apsp_hist.p90())),
            ("per_source_p99_us".into(), q(apsp_hist.p99())),
            ("deterministic".into(), self.deterministic.into()),
        ])
    }

    fn row(&self, baseline: &BuildProfile) -> Vec<String> {
        let apsp_hist = per_source_hist(&self.profile.apsp.per_source_us);
        let q = |o: Option<u64>| o.map_or_else(|| "-".into(), |v| v.to_string());
        vec![
            self.n.to_string(),
            self.threads.to_string(),
            f2(self.profile.apsp.wall_us as f64 / 1e3),
            f2(self.profile.rows.wall_us as f64 / 1e3),
            f2(speedup(baseline.apsp.wall_us, self.profile.apsp.wall_us)),
            f2(speedup(baseline.total_us(), self.profile.total_us())),
            q(apsp_hist.p50()),
            q(apsp_hist.p99()),
            f2(self.alloc_bytes as f64 / (1024.0 * 1024.0)),
            if self.deterministic { "yes".into() } else { "NO".into() },
        ]
    }
}

fn per_source_hist(per_source_us: &[u64]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for &us in per_source_us {
        h.record(us);
    }
    h
}

fn speedup(baseline_us: u64, us: u64) -> f64 {
    if us == 0 {
        1.0
    } else {
        baseline_us as f64 / us as f64
    }
}

/// Everything one build sweep produces: console table plus the JSON
/// document for `results/bench_build.json`.
pub struct BuildBenchReport {
    /// Table headers.
    pub headers: Vec<&'static str>,
    /// One row per (n, threads) cell.
    pub rows: Vec<Vec<String>>,
    /// The full document (`schema_version` 1).
    pub doc: Value,
    /// Whether every parallel build was bit-identical to its sequential
    /// baseline (the sweep's hard invariant).
    pub all_deterministic: bool,
}

/// Runs the sweep: for each `n`, a 1-thread baseline build, then one
/// build per entry of `thread_counts` compared `==` against the baseline.
/// Every build is a `metric-build` span with its per-phase children on
/// `tel.tracer`.
pub fn run_build_bench(
    ns: &[usize],
    thread_counts: &[usize],
    seed: u64,
    tel: &Telemetry,
) -> BuildBenchReport {
    let headers = vec![
        "n",
        "threads",
        "apsp(ms)",
        "sort-rows(ms)",
        "speedup-apsp",
        "speedup-total",
        "src-p50(us)",
        "src-p99(us)",
        "alloc(MiB)",
        "identical",
    ];
    let mut rows = Vec::new();
    let mut cells_json = Vec::new();
    let mut all_deterministic = true;

    for &n in ns {
        let graph = Arc::new(gen::Family::Grid.build(n, seed));
        let real_n = graph.node_count();
        let build = |threads| {
            let _sp = tel.tracer.span("metric-build");
            let (m, profile) = MetricSpace::build_profiled(Arc::clone(&graph), threads);
            obs::phase::record_build_profile(&tel.tracer, &profile);
            (m, profile)
        };

        let alloc0 = obs::alloc::allocated_bytes();
        let (reference, baseline) = build(1);
        let baseline_alloc = obs::alloc::allocated_bytes() - alloc0;

        for &threads in thread_counts {
            let cell = if threads == 1 {
                BuildCell {
                    n: real_n,
                    threads,
                    profile: baseline.clone(),
                    alloc_bytes: baseline_alloc,
                    deterministic: true,
                }
            } else {
                let alloc0 = obs::alloc::allocated_bytes();
                let (m, profile) = build(threads);
                let alloc_bytes = obs::alloc::allocated_bytes() - alloc0;
                let deterministic = m == reference;
                all_deterministic &= deterministic;
                BuildCell { n: real_n, threads, profile, alloc_bytes, deterministic }
            };
            rows.push(cell.row(&baseline));
            cells_json.push(cell.to_json(&baseline));
        }
    }

    let doc = Value::Object(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("experiment".into(), "bench_build".into()),
        ("family".into(), "grid".into()),
        ("seed".into(), seed.into()),
        ("alloc_counted".into(), (obs::alloc::allocated_bytes() > 0).into()),
        ("available_parallelism".into(), crate::cli::default_threads().into()),
        ("all_deterministic".into(), all_deterministic.into()),
        ("cells".into(), Value::Array(cells_json)),
    ]);
    BuildBenchReport { headers, rows, doc, all_deterministic }
}

/// The thread counts a sweep covers given the `--threads` cap: `{1, 2, 4,
/// cap}` filtered to `≤ cap`, deduplicated, ascending.
pub fn thread_sweep(cap: usize) -> Vec<usize> {
    let mut ts: Vec<usize> = [1, 2, 4, cap].into_iter().filter(|&t| t <= cap.max(1)).collect();
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// Entry point for `cargo run --release -p bench --bin bench_build`: runs
/// the sweep, prints the table, and writes `results/bench_build.json`.
///
/// Usage: `bench_build [max_n] [--seed N] [--threads N] [--json] [--trace]
/// [--chrome-trace PATH]`.
/// `max_n` truncates the default n sweep {100, 200, 400, 800}; `--threads`
/// caps the thread sweep {1, 2, 4, max} (default: available parallelism).
pub fn build_bench_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let max_n: usize = cli.pos(0, *DEFAULT_NS.last().unwrap());
    let ns: Vec<usize> = DEFAULT_NS.into_iter().filter(|&n| n <= max_n).collect();
    let threads = thread_sweep(cli.threads);
    let tel = cli.telemetry();
    let report = run_build_bench(&ns, &threads, cli.seed, &tel);
    crate::table::emit(
        &format!(
            "B1: metric build scaling (grid, threads {threads:?}, {} core(s) available, seed {})",
            crate::cli::default_threads(),
            cli.seed
        ),
        &report.headers,
        &report.rows,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/bench_build.json", report.doc.to_string_pretty() + "\n")
        .expect("write results/bench_build.json");
    if !cli.json {
        println!("\nwrote results/bench_build.json");
        println!("reading: speedup is vs the 1-thread build of the same n; on a");
        println!("single-core machine it stays ≈1.0 — the `identical` column is the");
        println!("invariant that must hold everywhere.");
    }
    cli.finish("bench_build", std::path::Path::new("results"), tel);
    assert!(report.all_deterministic, "parallel build diverged from sequential");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_cells_and_stays_deterministic() {
        let report = run_build_bench(&[64, 100], &[1, 2, 4], 3, &Telemetry::off());
        assert_eq!(report.rows.len(), 2 * 3);
        assert!(report.all_deterministic);
        assert_eq!(report.doc.get("schema_version").and_then(Value::as_u64), Some(SCHEMA_VERSION));
        let cells = report.doc.get("cells").and_then(Value::as_array).expect("cells");
        assert_eq!(cells.len(), 6);
        for c in cells {
            assert_eq!(c.get("deterministic").and_then(Value::as_bool), Some(true));
            let speedup = c.get("speedup_apsp").and_then(Value::as_f64).expect("speedup");
            assert!(speedup > 0.0);
            // Baseline cells pin speedup to exactly 1.0.
            if c.get("threads").and_then(Value::as_u64) == Some(1) {
                assert!((speedup - 1.0).abs() < 1e-12);
            }
        }
        // Round-trips through the parser.
        assert_eq!(Value::parse(&report.doc.to_string_pretty()).unwrap(), report.doc);
    }

    #[test]
    fn thread_sweep_dedups_and_caps() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(3), vec![1, 2, 3]);
    }
}

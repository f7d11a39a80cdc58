//! Experiment P1: per-phase preprocessing profile and route-metric
//! histograms for all four schemes, across the Table-1/2 graph families.
//!
//! For every (family, scheme) pair the runner:
//!
//! 1. builds the scheme with a recording [`Tracer`] (the `new_traced`
//!    constructors wrap each preprocessing stage — net-tree construction,
//!    ring building, packing/Voronoi trees, search-tree population, table
//!    assembly — in a span), measuring total build wall-clock;
//! 2. folds the trace into a [`PhaseBreakdown`] (per-phase wall time and
//!    allocation delta; allocation is nonzero only under the binaries'
//!    [`obs::alloc::CountingAlloc`] global allocator);
//! 3. routes a pair sample through [`netsim::stats::eval`], folding
//!    every route into a per-entry [`RouteMetrics`] (cost / hop /
//!    header-bit histograms, per-level search-tree lookups, under-stretch
//!    counter) and into the run's [`Telemetry::route`] (`eval.*` registry
//!    counters, a flight ring that dumps `results/profile_flight.jsonl` if
//!    any route is lost or under-stretched).
//!
//! The binary prints the two tables and writes the full document —
//! `schema_version` 1, including the registry snapshot under
//! `"telemetry"` — to `results/profile.json`. The per-entry traces are
//! appended to the run's tracer, so `--chrome-trace PATH` exports them as
//! one timeline.

use std::time::Instant;

use doubling_metric::Eps;
use netsim::json::Value;
use netsim::stats::{eval, sample_pairs, EvalResult};
use netsim::Naming;
use obs::{PhaseBreakdown, RouteMetrics, Telemetry, Tracer};

use crate::cache::MetricCache;
use crate::experiments::table_families;
use crate::schemes::{self, Built};
use crate::table::f2;

/// Version of the `results/profile.json` document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Everything one profiling run produces: the two console tables and the
/// JSON document for `results/profile.json`.
pub struct ProfileReport {
    /// Headers for the per-phase preprocessing table.
    pub phase_headers: Vec<&'static str>,
    /// One row per (family, scheme, phase), nested phases indented.
    pub phase_rows: Vec<Vec<String>>,
    /// Headers for the route-metrics table.
    pub metric_headers: Vec<&'static str>,
    /// One row per (family, scheme).
    pub metric_rows: Vec<Vec<String>>,
    /// The full document (`schema_version`, parameters, per-entry phases,
    /// histograms, eval results, registry snapshot).
    pub doc: Value,
}

/// One scheme profiled on one family: build time, trace, route metrics.
fn profile_one(
    family: &'static str,
    report: &mut ProfileReport,
    entries: &mut Vec<Value>,
    tel: &Telemetry,
    run: impl FnOnce(&Tracer) -> (f64, EvalResult, RouteMetrics),
) {
    let tracer = Tracer::recording();
    let (build_ms, res, rm) = run(&tracer);
    let log = tracer.finish();
    let breakdown = PhaseBreakdown::from_log(&log);
    tel.tracer.append(&log);

    for p in &breakdown.phases {
        report.phase_rows.push(vec![
            family.to_string(),
            res.scheme.to_string(),
            format!("{}{}", "  ".repeat(p.depth), p.name),
            p.calls.to_string(),
            f2(p.wall_us as f64 / 1e3),
            f2(p.alloc_bytes as f64 / 1024.0),
        ]);
    }
    let q = |hist: &obs::Log2Histogram, q: f64| {
        hist.quantile_bound(q).map_or_else(|| "-".into(), |b| b.to_string())
    };
    let lookups: u64 = rm.search_lookups_by_level.values().sum();
    report.metric_rows.push(vec![
        family.to_string(),
        res.scheme.to_string(),
        f2(build_ms),
        rm.cost.count().to_string(),
        res.failures.to_string(),
        q(&rm.cost, 0.5),
        q(&rm.cost, 0.99),
        rm.cost.max().map_or_else(|| "-".into(), |v| v.to_string()),
        f2(rm.hops.mean()),
        rm.header_bits.max().map_or_else(|| "-".into(), |v| v.to_string()),
        lookups.to_string(),
        res.understretch.to_string(),
    ]);
    entries.push(Value::Object(vec![
        ("family".into(), family.into()),
        ("scheme".into(), res.scheme.into()),
        ("build_ms".into(), build_ms.into()),
        ("phases".into(), breakdown.to_json()),
        ("metrics".into(), rm.to_json()),
        ("eval".into(), res.to_json()),
    ]));
}

/// Runs the full profiling grid: every Table-1/2 family × all four
/// schemes. Metrics come from `cache`: the first scheme of each family
/// pays the (traced) `metric-build`, the other three hit the cache — the
/// `metric_cache` counters in the JSON document prove it. The document
/// embeds `tel.registry`'s snapshot under `"telemetry"`.
pub fn run_profile(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    pairs_count: usize,
    seed: u64,
    tel: &Telemetry,
) -> ProfileReport {
    let mut report = ProfileReport {
        phase_headers: vec!["family", "scheme", "phase", "calls", "wall(ms)", "alloc(KiB)"],
        phase_rows: Vec::new(),
        metric_headers: vec![
            "family",
            "scheme",
            "build(ms)",
            "routes",
            "failures",
            "cost-p50<=",
            "cost-p99<=",
            "cost-max",
            "hops-avg",
            "hdr(b)",
            "lookups",
            "under",
        ],
        metric_rows: Vec::new(),
        doc: Value::Null,
    };
    let mut entries = Vec::new();

    for f in table_families() {
        // Every closure fetches the metric through the cache *inside* the
        // traced region: the first one records the metric-build span, the
        // other three record metric-cache-hit events. Naming and pair
        // samples are seeded, so recomputing them per closure is free
        // determinism (and they need `m.n()`, which only the metric knows).
        let pairs_for =
            |m: &doubling_metric::MetricSpace| sample_pairs(m.n(), pairs_count, seed ^ 0x5A);
        for i in 0..schemes::COUNT {
            profile_one(f.name(), &mut report, &mut entries, tel, |tracer| {
                let t0 = Instant::now();
                let m = cache.family_traced(f, n, seed, tracer);
                let naming = Naming::random(m.n(), seed ^ 0xA5);
                let s = Built::new(i, &m, eps, &naming, tracer);
                let build_ms = t0.elapsed().as_secs_f64() * 1e3;
                let mut rm = RouteMetrics::new();
                let res = eval(&*s.seam(), &m, &pairs_for(&m), 1, |u, v, r| {
                    if let Ok(route) = r {
                        rm.record(route);
                        rm.record_stretch(route.stretch(&m));
                    }
                    tel.route(&m, u, v, r);
                });
                (build_ms, res, rm)
            });
        }
    }

    let stats = cache.stats();
    tel.registry.counter("metric_cache.builds").add(stats.builds);
    tel.registry.counter("metric_cache.hits").add(stats.hits);

    report.doc = Value::Object(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("experiment".into(), "profile".into()),
        ("n".into(), n.into()),
        ("eps".into(), eps.to_string().into()),
        ("pairs".into(), pairs_count.into()),
        ("seed".into(), seed.into()),
        ("alloc_counted".into(), (obs::alloc::allocated_bytes() > 0).into()),
        ("threads".into(), cache.threads().into()),
        ("metric_cache".into(), stats.to_json()),
        ("telemetry".into(), tel.registry.snapshot().to_json()),
        ("entries".into(), Value::Array(entries)),
    ]);
    report
}

/// Entry point for `cargo run --release --bin profile` (the binary lives in
/// this crate): runs the grid, prints the two
/// tables, and writes `results/profile.json`.
///
/// Usage: `profile [n] [1/eps] [pairs] [--seed N] [--json] [--threads N]
/// [--trace] [--chrome-trace PATH]`.
pub fn profile_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let n: usize = cli.pos(0, 100);
    let inv: u64 = cli.pos(1, 8);
    let pairs: usize = cli.pos(2, 200);
    let cache = MetricCache::new(cli.threads);
    let tel = cli.telemetry();
    let report = run_profile(&cache, n, Eps::one_over(inv), pairs, cli.seed, &tel);
    crate::table::emit(
        &format!("P1a: preprocessing phases (n≈{n}, eps=1/{inv}, seed {})", cli.seed),
        &report.phase_headers,
        &report.phase_rows,
    );
    crate::table::emit(
        &format!("P1b: route metrics ({pairs} pairs/graph)"),
        &report.metric_headers,
        &report.metric_rows,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/profile.json", report.doc.to_string_pretty() + "\n")
        .expect("write results/profile.json");
    cli.finish("profile", std::path::Path::new("results"), tel);
    if !cli.json {
        println!("\nwrote results/profile.json");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_every_family_and_scheme() {
        let cache = MetricCache::new(1);
        let tel = Telemetry::on(Tracer::recording());
        let report = run_profile(&cache, 36, Eps::one_over(8), 40, 3, &tel);
        let Telemetry { tracer, registry, flight } = tel;
        let (snap, flight) = (registry.snapshot(), flight.into_inner());
        let n_families = table_families().len();
        assert_eq!(report.metric_rows.len(), n_families * 4);

        // Each family's metric is built exactly once; the other three
        // schemes hit the cache.
        assert_eq!(cache.stats().builds, n_families as u64);
        assert_eq!(cache.stats().hits, n_families as u64 * 3);
        let mc = report.doc.get("metric_cache").expect("metric_cache stats");
        assert_eq!(mc.get("builds").and_then(Value::as_u64), Some(n_families as u64));

        // The run-wide registry saw every route of every entry, the cache
        // stats were published as counters, and nothing tripped the flight
        // recorder's anomaly detection.
        let routes = n_families as u64 * 4 * 40;
        assert_eq!(snap.counter("eval.routes"), Some(routes));
        assert_eq!(snap.counter("eval.route_failures"), Some(0));
        assert_eq!(snap.histogram("eval.route_cost").map(obs::Log2Histogram::count), Some(routes));
        assert_eq!(snap.counter("metric_cache.builds"), Some(n_families as u64));
        assert_eq!(snap.counter("metric_cache.hits"), Some(n_families as u64 * 3));
        assert_eq!(flight.anomalies(), 0);
        assert_eq!(flight.len(), obs::flight::DEFAULT_CAPACITY.min(routes as usize));
        assert_eq!(report.doc.get("telemetry"), Some(&snap.to_json()), "doc embeds the snapshot");
        // Per-entry traces were merged into the run's timeline, one
        // route event per sampled pair alongside.
        let log = tracer.finish();
        assert!(!log.spans.is_empty());
        assert_eq!(log.events.iter().filter(|e| e.name == "route").count() as u64, routes);
        // The first entry of each family carries the metric-build phase.
        let entries = report.doc.get("entries").and_then(Value::as_array).expect("entries");
        for (i, e) in entries.iter().enumerate() {
            let phases = e.get("phases").and_then(Value::as_array).expect("phases");
            let names: Vec<&str> =
                phases.iter().filter_map(|p| p.get("name").and_then(Value::as_str)).collect();
            assert_eq!(names.contains(&"metric-build"), i % 4 == 0, "entry {i}: {names:?}");
        }

        let doc = &report.doc;
        assert_eq!(
            doc.get("schema_version").and_then(Value::as_u64),
            Some(SCHEMA_VERSION),
            "profile.json must carry its schema version"
        );
        let entries = doc.get("entries").and_then(Value::as_array).expect("entries");
        assert_eq!(entries.len(), n_families * 4);
        for e in entries {
            let scheme = e.get("scheme").and_then(Value::as_str).expect("scheme");
            let phases = e.get("phases").and_then(Value::as_array).expect("phases");
            assert!(!phases.is_empty(), "{scheme}: traced build must record phases");
            // Every scheme's trace leads with the net-tree span (the
            // name-independent ones nest it under "underlying-labeled").
            let names: Vec<&str> =
                phases.iter().filter_map(|p| p.get("name").and_then(Value::as_str)).collect();
            assert!(names.contains(&"net-hierarchy"), "{scheme}: phases {names:?}");
            assert!(
                e.get("build_ms").and_then(Value::as_f64).expect("build_ms") >= 0.0,
                "{scheme}: build wall-clock missing"
            );
            // All sampled routes delivered; histograms saw each of them.
            let eval = e.get("eval").expect("eval block");
            assert_eq!(eval.get("failures").and_then(Value::as_u64), Some(0), "{scheme}");
            assert_eq!(eval.get("understretch").and_then(Value::as_u64), Some(0), "{scheme}");
            let cost = e.get("metrics").and_then(|m| m.get("cost")).expect("cost histogram");
            assert_eq!(cost.get("count").and_then(Value::as_u64), Some(40), "{scheme}");
        }
        // The JSON document round-trips through the parser.
        assert_eq!(Value::parse(&doc.to_string_pretty()).unwrap(), *doc);
    }
}

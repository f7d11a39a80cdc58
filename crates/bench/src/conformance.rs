//! Experiment V1: theorem-conformance certificates.
//!
//! For every (metric family × `n` × `ε` × seed) cell, all four schemes are
//! built and audited against their theorems by the `conform` crate:
//! exhaustive all-pairs routing with the differential route oracle, the
//! double-entry per-node table audit, and header/label measurements —
//! each clause reported as bound vs measured with its margin, plus a
//! worst-stretch witness route per certificate (reproducing Tables 1 & 2
//! with a bound column). Theorem 1.3 is certified once per run by playing
//! the adversarial search game on the lower-bound tree.
//!
//! Output schema (`results/conformance.json`, `schema_version` 1): the
//! sweep axes, one `cells` entry per (family, n, ε, seed) holding the four
//! [`conform::Certificate`]s, the `lower_bound` certificate, and a
//! `summary` with the total clause count and the global verdict. The
//! document depends only on the sweep arguments and `--seed` — never on
//! `--threads` — so same-seed runs are byte-identical (CI enforces this).

use std::sync::Arc;

use doubling_metric::{gen, DistanceProvider, Eps, OnDemandDijkstra};
use netsim::json::Value;
use netsim::stats::{all_pairs, sample_pairs};
use netsim::Naming;
use obs::Telemetry;

use conform::{certify, certify_lower_bound, Certificate, Params};

use crate::cache::MetricCache;
use crate::schemes::Built;
use crate::table::f2;

/// Size of the Theorem 1.3 lower-bound tree and the number of
/// order-optimization iterations used by the full `conformance` run.
pub const LB_TREE_SIZE: usize = 1 << 14;
/// See [`LB_TREE_SIZE`].
pub const LB_ITERS: usize = 1500;
/// The `ε` values (as integers, the game's convention) Theorem 1.3 is
/// certified at: the game value must stay `≥ 9 − ε` for each.
pub const LB_EPS_VALUES: [u64; 3] = [2, 4, 6];

/// Above this node count the per-cell route audit switches from the
/// exhaustive all-pairs oracle to a seeded spot audit: `SPOT_PAIRS`
/// sampled pairs cross-checked against the exact on-demand Dijkstra
/// backend (see DESIGN.md, "Distance backends"). Below it, nothing
/// changes — the audit replays every ordered pair against the dense
/// matrix, byte-identical to the pre-backend engine.
pub const AUDIT_WALL: usize = 800;
/// Pairs per spot-audit cell above [`AUDIT_WALL`].
pub const SPOT_PAIRS: usize = 2000;
/// LRU row capacity of the spot-audit oracle.
pub const SPOT_ORACLE_ROWS: usize = 64;

/// Table row for one certificate: sweep coordinates, then measured vs
/// bound for the three headline clauses, then the verdict.
fn cert_row(family: &str, n: usize, eps: &str, seed: u64, cert: &Certificate) -> Vec<String> {
    let get = |name: &str| {
        cert.clauses
            .iter()
            .find(|c| c.name == name)
            .map(|c| (c.measured, c.bound))
            .unwrap_or((f64::NAN, f64::NAN))
    };
    let (stretch_m, stretch_b) = get("stretch");
    let (table_m, table_b) = get("table-bits");
    let (header_m, header_b) = get("header-bits");
    vec![
        family.to_string(),
        n.to_string(),
        eps.to_string(),
        seed.to_string(),
        cert.theorem.to_string(),
        cert.scheme.clone(),
        f2(stretch_m),
        f2(stretch_b),
        format!("{}", table_m as u64),
        format!("{}", table_b as u64),
        format!("{}", header_m as u64),
        format!("{}", header_b as u64),
        if cert.pass() { "PASS" } else { "FAIL" }.to_string(),
    ]
}

/// Observes `cert`: its worst-stretch witness route enters the flight
/// ring, then every clause goes through [`Telemetry::conformance_clause`]
/// (a failing clause flags the witness as an anomaly).
fn observe_cert(tel: &Telemetry, family: &str, n: usize, eps: &str, seed: u64, cert: &Certificate) {
    if let Some(w) = &cert.witness {
        tel.flight.borrow_mut().record_route(w.src, w.dst, &w.route, w.stretch);
    }
    for c in &cert.clauses {
        tel.conformance_clause(
            || {
                vec![
                    ("family", family.into()),
                    ("n", n.into()),
                    ("eps", eps.into()),
                    ("seed", seed.into()),
                    ("scheme", cert.scheme.clone().into()),
                    ("theorem", cert.theorem.into()),
                ]
            },
            &c.name,
            c.bound,
            c.measured,
            c.pass(),
        );
    }
}

/// Runs the full conformance sweep. Returns console table headers/rows
/// plus the JSON document (`schema_version` 1).
///
/// Seeds run from `seed` to `seed + num_seeds - 1`. `threads` fans the
/// per-cell route audit out over scoped workers but never affects the
/// document (the audit merge is order-deterministic), so two runs with the
/// same sweep arguments and seed are byte-identical at any thread count.
///
/// Every certificate's worst-stretch witness route enters `tel`'s flight
/// ring (hop attribution included); a failing clause flags it with a
/// `"conformance-failure"` anomaly, so the owning binary dumps the ring.
#[allow(clippy::too_many_arguments)]
pub fn run_conformance(
    cache: &MetricCache,
    families: &[gen::Family],
    ns: &[usize],
    eps_list: &[Eps],
    seed: u64,
    num_seeds: usize,
    threads: usize,
    lb_tree_size: usize,
    lb_iters: usize,
    audit_wall: usize,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>, Value) {
    let headers = vec![
        "family", "n", "eps", "seed", "theorem", "scheme", "stretch", "s-bound", "table-b",
        "t-bound", "header-b", "h-bound", "verdict",
    ];
    let mut rows = Vec::new();
    let mut cell_docs = Vec::new();
    let mut total_clauses = 0usize;
    let mut total_certs = 0usize;
    let mut all_pass = true;

    for &family in families {
        for &n in ns {
            for &eps in eps_list {
                for s in seed..seed + num_seeds as u64 {
                    let m = cache.family_traced(family, n, s, &tel.tracer);
                    let params = Params::measure(&m, eps);
                    let naming = Naming::random(m.n(), s ^ 0xA5);
                    let exhaustive = m.n() <= audit_wall;
                    let pairs = if exhaustive {
                        all_pairs(m.n())
                    } else {
                        sample_pairs(m.n(), SPOT_PAIRS, s ^ 0x51)
                    };
                    let oracle: Arc<dyn DistanceProvider> = if exhaustive {
                        Arc::clone(&m) as Arc<dyn DistanceProvider>
                    } else {
                        Arc::new(OnDemandDijkstra::new(m.graph_arc(), SPOT_ORACLE_ROWS))
                    };
                    let eps_str = eps.to_string();

                    let certs: Vec<Certificate> = Built::all(&m, eps, &naming)
                        .iter()
                        .map(|b| {
                            let g = b.guarantee();
                            certify(&m, oracle.as_ref(), &*b.seam(), &g, &params, &pairs, threads)
                        })
                        .collect();

                    for cert in &certs {
                        observe_cert(tel, family.name(), m.n(), &eps_str, s, cert);
                        rows.push(cert_row(family.name(), m.n(), &eps_str, s, cert));
                        total_clauses += cert.clauses.len();
                        total_certs += 1;
                        all_pass &= cert.pass();
                    }
                    cell_docs.push(Value::Object(vec![
                        ("family".into(), family.name().into()),
                        ("n".into(), m.n().into()),
                        ("eps".into(), eps_str.clone().into()),
                        ("seed".into(), s.into()),
                        (
                            "audit".into(),
                            Value::Object(vec![
                                (
                                    "mode".into(),
                                    if exhaustive { "exhaustive" } else { "spot" }.into(),
                                ),
                                ("pairs".into(), pairs.len().into()),
                                ("oracle".into(), oracle.backend().into()),
                            ]),
                        ),
                        (
                            "certificates".into(),
                            Value::Array(certs.iter().map(Certificate::to_json).collect()),
                        ),
                    ]));
                }
            }
        }
    }

    // Theorem 1.3, once per run: the search game on the lower-bound tree.
    let lb = certify_lower_bound(&LB_EPS_VALUES, lb_tree_size, lb_iters, seed);
    observe_cert(tel, "lb-tree", lb_tree_size, "-", seed, &lb);
    for c in &lb.clauses {
        rows.push(vec![
            "lb-tree".to_string(),
            lb_tree_size.to_string(),
            "-".to_string(),
            seed.to_string(),
            lb.theorem.to_string(),
            lb.scheme.clone(),
            f2(c.measured),
            f2(c.bound),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            if c.pass() { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
    total_clauses += lb.clauses.len();
    total_certs += 1;
    all_pass &= lb.pass();

    let doc = Value::Object(vec![
        ("schema_version".into(), 1u64.into()),
        ("families".into(), Value::Array(families.iter().map(|f| f.name().into()).collect())),
        ("ns".into(), Value::Array(ns.iter().map(|&n| n.into()).collect())),
        ("eps".into(), Value::Array(eps_list.iter().map(|e| e.to_string().into()).collect())),
        ("seed".into(), seed.into()),
        ("num_seeds".into(), num_seeds.into()),
        ("metric_cache".into(), cache.stats().to_json()),
        ("cells".into(), Value::Array(cell_docs)),
        ("lower_bound".into(), lb.to_json()),
        (
            "summary".into(),
            Value::Object(vec![
                ("certificates".into(), total_certs.into()),
                ("clauses".into(), total_clauses.into()),
                ("all_pass".into(), all_pass.into()),
            ]),
        ),
    ]);
    (headers, rows, doc)
}

/// Entry point for `cargo run --release --bin conformance` (the binary lives in
/// this crate): runs the sweep, prints the
/// table, and writes `results/conformance.json`. With `--trace`, every
/// clause verdict is recorded to `results/conformance_trace.jsonl`.
///
/// Usage: `conformance [1/eps-list] [--n LIST] [--seeds K] [--seed N]
/// [--json] [--trace] [--chrome-trace PATH] [--threads N]` — e.g.
/// `conformance 4,8 --n 64,196`. A failing certificate dumps the witness
/// flight ring to `results/conformance_flight.jsonl` (see
/// [`crate::cli::Cli::finish`]) before the verdict assertion fires.
pub fn conformance_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let inv_list: String = cli.pos(0, "4,8".to_string());
    let eps_list: Vec<Eps> = inv_list
        .split(',')
        .map(|s| {
            let inv: u64 = s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("invalid 1/eps value: {s:?} in {inv_list:?}"));
            Eps::one_over(inv)
        })
        .collect();
    let ns = cli.n_list.clone().unwrap_or_else(|| vec![64, 196]);
    let num_seeds = cli.seeds.unwrap_or(1);
    let families = crate::experiments::table_families();
    let tel = cli.telemetry();
    let cache = MetricCache::new(cli.threads);
    let (headers, rows, doc) = run_conformance(
        &cache,
        &families,
        &ns,
        &eps_list,
        cli.seed,
        num_seeds,
        cli.threads,
        LB_TREE_SIZE,
        LB_ITERS,
        AUDIT_WALL,
        &tel,
    );
    crate::table::emit(
        &format!(
            "Conformance: theorem certificates, bound vs measured (eps 1/{inv_list}, n {ns:?}, \
             {num_seeds} seed(s))"
        ),
        &headers,
        &rows,
    );
    let all_pass = doc
        .get("summary")
        .and_then(|s| s.get("all_pass"))
        .and_then(Value::as_bool)
        .unwrap_or(false);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/conformance.json", doc.to_string_pretty() + "\n")
        .expect("write results/conformance.json");
    if !cli.json {
        println!("\nwrote results/conformance.json");
        println!("verdict: {}", if all_pass { "all certificates PASS" } else { "FAILURES found" });
    }
    cli.finish("conformance", std::path::Path::new("results"), tel);
    assert!(all_pass, "conformance FAILED — see results/conformance.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_cell_certifies_all_four_theorems() {
        let tel = Telemetry {
            flight: obs::FlightRecorder::new(8).into(),
            ..Telemetry::on(obs::Tracer::recording())
        };
        let cache = MetricCache::new(1);
        let (h, rows, doc) = run_conformance(
            &cache,
            &[gen::Family::Grid],
            &[36],
            &[Eps::one_over(8)],
            7,
            1,
            2,
            1 << 9,
            120,
            AUDIT_WALL,
            &tel,
        );
        assert_eq!(h.len(), 13);
        for row in &rows {
            assert_eq!(row.len(), h.len());
            assert_eq!(row.last().unwrap(), "PASS", "row failed: {row:?}");
        }
        // 4 scheme certificates + 3 lower-bound clauses.
        assert_eq!(rows.len(), 4 + LB_EPS_VALUES.len());
        assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(1));
        let summary = doc.get("summary").expect("summary");
        assert_eq!(summary.get("all_pass").and_then(Value::as_bool), Some(true));
        assert_eq!(summary.get("certificates").and_then(Value::as_u64), Some(5));

        // Every certificate carries a worst-pair witness whose route ends
        // at the witness destination.
        let cells = doc.get("cells").and_then(Value::as_array).expect("cells");
        assert_eq!(cells.len(), 1);
        let certs = cells[0].get("certificates").and_then(Value::as_array).unwrap();
        assert_eq!(certs.len(), 4);
        for cert in certs {
            let w = cert.get("witness").expect("witness");
            let dst = w.get("dst").and_then(Value::as_u64).expect("dst");
            let hops = w.get("route").and_then(|r| r.get("hops")).and_then(Value::as_array);
            assert_eq!(hops.and_then(|h| h.last()).and_then(Value::as_u64), Some(dst));
            assert!(w.get("stretch").and_then(Value::as_f64).unwrap() >= 1.0);
        }

        // Clause verdicts were traced and counted.
        let Telemetry { tracer, registry, flight } = tel;
        let flight = flight.into_inner();
        let snap = registry.snapshot();
        assert!(snap.counter("conformance.clauses").unwrap_or(0) > 0);
        assert_eq!(snap.counter("conformance.violations"), None);
        let log = tracer.finish();
        assert!(log.events.iter().any(|e| e.name == "conformance-pass"));
        assert!(!log.events.iter().any(|e| e.name == "conformance-violation"));

        // Every scheme certificate's witness route entered the flight
        // ring; with all certificates passing, nothing is anomalous.
        assert_eq!(flight.len(), 4);
        assert_eq!(flight.anomalies(), 0);
        assert!(flight.records().all(|r| !r.hops.is_empty() || r.src == r.dst));
    }

    #[test]
    fn spot_audit_above_the_wall_still_certifies_and_stays_deterministic() {
        // Force the spot path by dropping the wall below n = 36: the cell
        // is audited on sampled pairs against the on-demand oracle.
        let run = |threads: usize| {
            let cache = MetricCache::new(threads);
            let (_, rows, doc) = run_conformance(
                &cache,
                &[gen::Family::Grid],
                &[36],
                &[Eps::one_over(8)],
                7,
                1,
                threads,
                1 << 8,
                60,
                16,
                &Telemetry::off(),
            );
            for row in &rows {
                assert_eq!(row.last().unwrap(), "PASS", "row failed: {row:?}");
            }
            doc
        };
        let doc = run(1);
        let cells = doc.get("cells").and_then(Value::as_array).expect("cells");
        let audit = cells[0].get("audit").expect("audit block");
        assert_eq!(audit.get("mode").and_then(Value::as_str), Some("spot"));
        assert_eq!(audit.get("oracle").and_then(Value::as_str), Some("dijkstra-lru"));
        let pairs = audit.get("pairs").and_then(Value::as_u64).unwrap() as usize;
        assert!(pairs > 0 && pairs <= SPOT_PAIRS);
        assert_eq!(doc.to_string(), run(4).to_string());
    }

    #[test]
    fn conformance_run_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let cache = MetricCache::new(threads);
            let (_, _, doc) = run_conformance(
                &cache,
                &[gen::Family::Grid],
                &[25],
                &[Eps::one_over(8)],
                7,
                1,
                threads,
                1 << 8,
                60,
                AUDIT_WALL,
                &Telemetry::off(),
            );
            doc.to_string()
        };
        let base = run(1);
        assert_eq!(base, run(1));
        assert_eq!(base, run(4));
    }
}

//! M1 — incremental maintenance under churn: self-healing tables vs the
//! full-rebuild baseline.
//!
//! For every (n, scheme, per-batch churn rate) cell the experiment drives
//! a seeded join/leave schedule — leave batches derived from the deltas
//! of a cumulative [`FaultTimeline`], followed by rejoin batches
//! re-admitting the same nodes — through a
//! [`netsim::maintain::Maintainer`], and measures:
//!
//! * **amortized update cost** — repair wall time per join/leave event,
//!   next to the cost of absorbing the same batch by rebuilding the
//!   scheme from scratch over the post-batch active set (the baseline a
//!   self-healing table must beat; the target is sublinear in `n`);
//! * **p99 repair latency** — per-batch repair time folded into a
//!   [`Log2Histogram`];
//! * **certification** — every committed batch is spot-audited
//!   ([`conform::spot_audit`]): sampled active routes against the exact
//!   oracle plus a full table re-price, with the audit verdict recorded
//!   per batch;
//! * **equivalence** — after every batch the repaired scheme is compared
//!   (`PartialEq`, i.e. byte-for-byte on the table level) against the
//!   full-rebuild baseline copy;
//! * **fallbacks** — an adversarial cell aims the churn at net centers
//!   under a tight blast budget, demonstrating that the degradation
//!   ladder fires ([`netsim::maintain::BatchAction::is_fallback`]) and that the maintainer
//!   recovers (epochs keep advancing, audits keep passing).
//!
//! Wall-clock fields are pinned to 0 under `--stable` so CI's same-seed
//! determinism check can byte-compare two runs; the committed
//! `results/maintain.json` is produced without `--stable` so the
//! repair-vs-rebuild gap stays visible.

use std::time::Instant;

use doubling_metric::graph::NodeId;
use doubling_metric::nets::{ChurnBatch, NetHierarchy};
use doubling_metric::{gen, Eps, MetricSpace};
use netsim::faults::{FaultPlan, FaultTimeline};
use netsim::json::Value;
use netsim::maintain::{BatchAction, BatchReport, Maintainable, MaintainerConfig};
use netsim::stats::sample_pairs;
use netsim::Naming;
use obs::{Log2Histogram, Telemetry, Tracer};

use crate::cache::MetricCache;
use crate::schemes::{self, Built};
use crate::table::f2;

/// Version of the `results/maintain.json` document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Builds a seeded churn schedule by driving a cumulative
/// [`FaultTimeline`] and converting its epoch deltas into leave batches,
/// then re-admitting the same nodes in reverse order as join batches.
///
/// With `nets: None` the leave plans are uniformly random
/// ([`FaultPlan::random_nodes`], deterministic in `seed`); with
/// `Some(nets)` they target the highest net centers
/// ([`FaultPlan::targeted_net_centers`]) — the adversarial cell. Both
/// strategies kill growing prefixes of one fixed priority order, so the
/// plans are nested and the timeline validates as cumulative.
pub fn churn_schedule(
    m: &MetricSpace,
    nets: Option<&NetHierarchy>,
    leave_batches: usize,
    per_batch: usize,
    seed: u64,
) -> Vec<ChurnBatch> {
    let n = m.n();
    let plans: Vec<FaultPlan> = (1..=leave_batches)
        .map(|k| {
            let fraction = ((k * per_batch) as f64 / n as f64).min(0.5);
            match nets {
                Some(nh) => FaultPlan::targeted_net_centers(nh, n, fraction),
                None => FaultPlan::random_nodes(n, fraction, seed),
            }
        })
        .collect();
    let tl = FaultTimeline::new(plans, 1).expect("growing prefixes are cumulative");
    let mut batches = Vec::new();
    let mut prev: Vec<NodeId> = Vec::new();
    for plan in tl.epochs() {
        let dead: Vec<NodeId> = (0..n as NodeId).filter(|&v| plan.is_node_dead(v)).collect();
        let leaves: Vec<NodeId> =
            dead.iter().copied().filter(|v| prev.binary_search(v).is_err()).collect();
        batches.push(ChurnBatch::new(Vec::new(), leaves));
        prev = dead;
    }
    // Rejoin epoch by epoch in reverse: the last casualties return first.
    for k in (0..batches.len()).rev() {
        let joins = batches[k].leaves.clone();
        batches.push(ChurnBatch::new(joins, Vec::new()));
    }
    batches.retain(|b| !b.is_empty());
    batches
}

/// Everything measured over one maintenance cell.
struct CellResult {
    scheme: &'static str,
    per_batch: usize,
    updates: usize,
    repair_us: u64,
    audit_us: u64,
    rebuild_us: u64,
    hist: Log2Histogram,
    fallbacks: u64,
    equal: bool,
    reports: Vec<BatchReport>,
}

impl CellResult {
    fn amortized(&self, total: u64) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            total as f64 / self.updates as f64
        }
    }

    fn mean_blast(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.reports.iter().map(|r| r.stats.blast_fraction()).sum::<f64>()
                / self.reports.len() as f64
        }
    }

    fn action_counts(&self) -> Vec<(String, Value)> {
        let mut counts: Vec<(String, u64)> = Vec::new();
        for r in &self.reports {
            let tag = r.action.tag().to_string();
            match counts.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, c)) => *c += 1,
                None => counts.push((tag, 1)),
            }
        }
        counts.into_iter().map(|(t, c)| (t, c.into())).collect()
    }

    fn to_json(&self, n: usize, stable: bool) -> Value {
        let sublinear_ok = stable || self.repair_us < self.rebuild_us.max(1);
        Value::Object(vec![
            ("n".to_string(), n.into()),
            ("scheme".into(), self.scheme.into()),
            ("per_batch".into(), self.per_batch.into()),
            ("batches".into(), self.reports.len().into()),
            ("updates".into(), self.updates.into()),
            ("amortized_repair_us".into(), self.amortized(self.repair_us).into()),
            ("amortized_rebuild_us".into(), self.amortized(self.rebuild_us).into()),
            ("amortized_audit_us".into(), self.amortized(self.audit_us).into()),
            ("p99_repair_us".into(), self.hist.p99().unwrap_or(0).into()),
            ("repair_hist".into(), self.hist.to_json()),
            ("mean_blast".into(), self.mean_blast().into()),
            ("fallbacks".into(), self.fallbacks.into()),
            ("audit_failures".into(), audit_failures(&self.reports).into()),
            ("repair_equals_rebuild".into(), self.equal.into()),
            ("sublinear_ok".into(), sublinear_ok.into()),
            ("epoch_final".into(), self.reports.last().map_or(0, |r| r.epoch).into()),
            ("table_bits_final".into(), self.reports.last().map_or(0, |r| r.table_bits).into()),
            ("active_final".into(), self.reports.last().map_or(0, |r| r.active).into()),
            ("actions".into(), Value::Object(self.action_counts())),
        ])
    }

    fn row(&self, n: usize) -> Vec<String> {
        vec![
            n.to_string(),
            self.scheme.to_string(),
            self.per_batch.to_string(),
            self.updates.to_string(),
            f2(self.amortized(self.repair_us)),
            f2(self.amortized(self.rebuild_us)),
            self.hist.p99().unwrap_or(0).to_string(),
            f2(self.mean_blast()),
            self.fallbacks.to_string(),
            if audit_failures(&self.reports) == 0 { "ok".into() } else { "FAIL".into() },
        ]
    }
}

/// Batches whose repaired tables failed their spot audit (absorbed by a
/// rebuild; a batch failing the rebuilt audit too is an error, not a
/// report).
fn audit_failures(reports: &[BatchReport]) -> u64 {
    reports.iter().filter(|r| r.action == BatchAction::RebuiltAudit).count() as u64
}

/// Drives scheme `i` of the table order through `schedule`, maintaining
/// a second copy by full rebuilds as the baseline (and equivalence
/// witness). Every batch is spot-audited ([`conform::spot_audit`]):
/// sampled routes over the post-batch active set plus the full table
/// re-price.
#[allow(clippy::too_many_arguments)] // experiment cell: one knob per measured dimension
fn run_cell(
    m: &MetricSpace,
    i: usize,
    eps: Eps,
    naming: &Naming,
    schedule: &[ChurnBatch],
    config: MaintainerConfig,
    audit_pairs: usize,
    seed: u64,
    per_batch: usize,
    threads: usize,
    stable: bool,
    tel: &Telemetry,
) -> CellResult {
    let pin = |v: u64| if stable { 0 } else { v };
    let scheme_name = schemes::SHORT_NAMES[i];
    let scheme = Built::new(i, m, eps, naming, &Tracer::noop());
    let mut baseline = scheme.clone();
    let mut active = vec![false; m.n()];
    for v in scheme.active_nodes() {
        active[v as usize] = true;
    }
    let mut mt = scheme.maintainer(m.n(), config);
    let mut out = CellResult {
        scheme: scheme_name,
        per_batch,
        updates: 0,
        repair_us: 0,
        audit_us: 0,
        rebuild_us: 0,
        hist: Log2Histogram::new(),
        fallbacks: 0,
        equal: true,
        reports: Vec::new(),
    };
    for (k, batch) in schedule.iter().enumerate() {
        out.updates += batch.len();
        batch.apply(&mut active);
        let ids: Vec<NodeId> = (0..m.n() as NodeId).filter(|&v| active[v as usize]).collect();
        // Audit pairs sampled over the *post-batch* active set.
        let pairs: Vec<(NodeId, NodeId)> =
            sample_pairs(ids.len(), audit_pairs, seed ^ ((k as u64 + 1) << 8))
                .into_iter()
                .map(|(a, b)| (ids[a as usize], ids[b as usize]))
                .collect();

        let audit_spent = std::cell::Cell::new(0u64);
        let t0 = Instant::now();
        let report = mt
            .apply_batch(m, batch, |s| {
                let ta = Instant::now();
                let seam = s.seam();
                let ok = conform::spot_audit(
                    m,
                    s,
                    |u| seam.table_bits(u),
                    &pairs,
                    threads,
                    |u, v| seam.route_to(m, u, v),
                )
                .ok();
                audit_spent.set(audit_spent.get() + ta.elapsed().as_micros() as u64);
                ok
            })
            .expect("schedule batches are valid and audits recover");
        let total_us = t0.elapsed().as_micros() as u64;
        let repair_us = pin(total_us.saturating_sub(audit_spent.get()));
        out.repair_us += repair_us;
        out.audit_us += pin(audit_spent.get());
        out.hist.record(repair_us);
        if report.action.is_fallback() {
            out.fallbacks += 1;
        }

        let t1 = Instant::now();
        baseline.rebuild(m, &ids);
        out.rebuild_us += pin(t1.elapsed().as_micros() as u64);
        out.equal &= *mt.scheme() == baseline;

        tel.maintain_batch(
            || {
                vec![
                    ("scheme", scheme_name.into()),
                    ("n", m.n().into()),
                    ("per_batch", per_batch.into()),
                ]
            },
            &report,
        );
        out.reports.push(report);
    }
    out
}

/// Runs the adversarial cell: net-center-targeted leaves under a blast
/// budget tight enough that the degradation ladder must fire, followed by
/// the rejoins. Returns its JSON block; the embedded assertions are the
/// acceptance criterion (fallback fires AND the maintainer recovers).
#[allow(clippy::too_many_arguments)] // experiment cell: one knob per measured dimension
fn run_adversarial(
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    audit_pairs: usize,
    seed: u64,
    threads: usize,
    stable: bool,
    tel: &Telemetry,
) -> Value {
    let nets = NetHierarchy::new(m);
    let per_batch = (m.n() / 16).max(2);
    let schedule = churn_schedule(m, Some(&nets), 2, per_batch, seed);
    // Net-center churn rebuilds far more than 2% of the structures, so the
    // blast rung must trip and degrade to a whole-scheme rebuild.
    let config = MaintainerConfig { max_blast_fraction: 0.02 };
    let cell = run_cell(
        m,
        0,
        eps,
        naming,
        &schedule,
        config,
        audit_pairs,
        seed,
        per_batch,
        threads,
        stable,
        tel,
    );
    let recovered = audit_failures(&cell.reports) == 0
        && cell.reports.last().map_or(0, |r| r.epoch) == cell.reports.len() as u64
        && cell.equal;
    Value::Object(vec![
        ("n".to_string(), m.n().into()),
        ("scheme".into(), cell.scheme.into()),
        ("strategy".into(), "netcenter".into()),
        ("per_batch".into(), per_batch.into()),
        ("batches".into(), cell.reports.len().into()),
        ("fallbacks".into(), cell.fallbacks.into()),
        ("recovered".into(), recovered.into()),
        (
            "actions".into(),
            Value::Array(cell.reports.iter().map(|r| r.action.tag().into()).collect()),
        ),
    ])
}

/// Runs the full maintenance grid on unit grid graphs: every scheme ×
/// every n × every per-batch churn rate, plus the adversarial
/// net-center cell on the smallest n. Returns table headers/rows for the
/// console plus the full JSON document.
///
/// Every committed batch goes through [`Telemetry::maintain_batch`]: one
/// `"maintain-batch"` event when `tel.tracer` records, and registry
/// counters by action.
#[allow(clippy::too_many_arguments)] // experiment entry point: one knob per CLI flag
pub fn run_maintain(
    cache: &MetricCache,
    ns: &[usize],
    eps: Eps,
    leave_batches: usize,
    rates: &[usize],
    audit_pairs: usize,
    seed: u64,
    threads: usize,
    stable: bool,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>, Value) {
    let headers = vec![
        "n",
        "scheme",
        "per-batch",
        "updates",
        "repair(us/upd)",
        "rebuild(us/upd)",
        "p99(us)",
        "blast",
        "fallbacks",
        "cert",
    ];
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut adversarial = None;

    for &n in ns {
        let m = cache.family_traced(gen::Family::Grid, n, seed, &tel.tracer);
        let naming = Naming::random(m.n(), seed ^ 0xA5);
        for &rate in rates {
            let schedule = churn_schedule(&m, None, leave_batches, rate, seed ^ rate as u64);
            for i in 0..schemes::COUNT {
                let cell = run_cell(
                    &m,
                    i,
                    eps,
                    &naming,
                    &schedule,
                    MaintainerConfig::default(),
                    audit_pairs,
                    seed,
                    rate,
                    threads,
                    stable,
                    tel,
                );
                rows.push(cell.row(m.n()));
                cells.push(cell.to_json(m.n(), stable));
            }
        }
        if adversarial.is_none() {
            adversarial =
                Some(run_adversarial(&m, eps, &naming, audit_pairs, seed, threads, stable, tel));
        }
    }

    let doc = Value::Object(vec![
        ("schema_version".to_string(), SCHEMA_VERSION.into()),
        ("experiment".into(), "maintain".into()),
        ("family".into(), "grid".into()),
        ("eps".into(), eps.to_string().into()),
        ("seed".into(), seed.into()),
        ("leave_batches".into(), leave_batches.into()),
        ("rates".into(), Value::Array(rates.iter().map(|&r| Value::from(r)).collect())),
        ("audit_pairs".into(), audit_pairs.into()),
        ("stable".into(), stable.into()),
        ("metric_cache".into(), cache.stats().to_json()),
        ("cells".into(), Value::Array(cells)),
        ("adversarial".into(), adversarial.unwrap_or(Value::Null)),
    ]);
    (headers, rows, doc)
}

/// Entry point for `cargo run --release --bin maintain` (the binary lives in
/// this crate): runs the grid, prints the table,
/// and writes `results/maintain.json`. With `--trace` the per-batch
/// events land in `results/maintain_trace.jsonl`.
///
/// Usage: `maintain [1/eps] [audit_pairs] [--n LIST] [--seed N]
/// [--stable] [--json] [--trace] [--chrome-trace PATH] [--threads N]`.
pub fn maintain_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let inv: u64 = cli.pos(0, 8);
    let audit_pairs: usize = cli.pos(1, 50);
    let ns = cli.n_list.clone().unwrap_or_else(|| vec![64, 256, 2025]);
    let rates = [1usize, 8];
    let leave_batches = 3usize;
    let tel = cli.telemetry();
    let cache = MetricCache::new(cli.threads);
    let (headers, rows, doc) = run_maintain(
        &cache,
        &ns,
        Eps::one_over(inv),
        leave_batches,
        &rates,
        audit_pairs,
        cli.seed,
        cli.threads,
        cli.stable,
        &tel,
    );
    crate::table::emit(
        &format!(
            "Maintain: incremental repair vs full rebuild (eps=1/{inv}, {audit_pairs} audit pairs)"
        ),
        &headers,
        &rows,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/maintain.json", doc.to_string_pretty() + "\n")
        .expect("write results/maintain.json");
    if !cli.json {
        println!("\nwrote results/maintain.json");
    }
    cli.finish("maintain", std::path::Path::new("results"), tel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::maintain::RepairStats;

    #[test]
    fn audit_failures_count_rebuilt_audit_batches() {
        let report = |epoch, action| BatchReport {
            epoch,
            action,
            stats: RepairStats::default(),
            table_bits: 0,
            active: 0,
        };
        let reports = [
            report(1, BatchAction::Repaired),
            report(2, BatchAction::RebuiltAudit),
            report(3, BatchAction::RebuiltBlast),
            report(4, BatchAction::RebuiltAudit),
        ];
        assert_eq!(audit_failures(&reports), 2);
        assert_eq!(audit_failures(&reports[..1]), 0);
    }

    #[test]
    fn churn_schedule_is_cumulative_and_returns_everyone() {
        let m = MetricSpace::new(&gen::grid(8, 8));
        let batches = churn_schedule(&m, None, 3, 4, 7);
        assert_eq!(batches.len(), 6); // 3 leave + 3 rejoin
        let mut active = vec![true; m.n()];
        let mut left_total = 0;
        for b in &batches {
            b.validate(&active).expect("schedule batches are valid in order");
            left_total += b.leaves.len();
            b.apply(&mut active);
        }
        assert_eq!(left_total, 12);
        assert!(active.iter().all(|&a| a), "every leaver rejoins");
        // Deterministic in the seed.
        assert_eq!(batches, churn_schedule(&m, None, 3, 4, 7));
        assert_ne!(batches, churn_schedule(&m, None, 3, 4, 8));
    }

    #[test]
    fn maintain_grid_certifies_every_batch_and_matches_rebuild() {
        let cache = MetricCache::new(1);
        let tel = Telemetry::on(obs::Tracer::recording());
        let (h, rows, doc) = run_maintain(
            &cache,
            &[36],
            Eps::one_over(8),
            2,
            &[2],
            40,
            7,
            1,
            true, // stable: pinned wall fields keep this test timing-free
            &tel,
        );
        assert_eq!(h.len(), 10);
        assert_eq!(rows.len(), 4); // 4 schemes × 1 n × 1 rate
        let cells = doc.get("cells").and_then(Value::as_array).expect("cells");
        assert_eq!(cells.len(), 4);
        let mut batches_total = 0;
        for c in cells {
            assert_eq!(c.get("audit_failures").and_then(Value::as_u64), Some(0));
            assert_eq!(c.get("repair_equals_rebuild").and_then(Value::as_bool), Some(true));
            assert_eq!(c.get("fallbacks").and_then(Value::as_u64), Some(0));
            assert_eq!(c.get("sublinear_ok").and_then(Value::as_bool), Some(true));
            let batches = c.get("batches").and_then(Value::as_u64).unwrap();
            let epoch = c.get("epoch_final").and_then(Value::as_u64).unwrap();
            assert_eq!(epoch, batches, "every batch epoch-stamped");
            batches_total += batches;
            // Stable run: pinned wall fields are exactly zero.
            assert_eq!(c.get("amortized_repair_us").and_then(Value::as_f64), Some(0.0));
        }

        // The adversarial net-center cell fired the fallback AND recovered.
        let adv = doc.get("adversarial").expect("adversarial cell");
        assert!(adv.get("fallbacks").and_then(Value::as_u64).unwrap() > 0, "ladder must fire");
        assert_eq!(adv.get("recovered").and_then(Value::as_bool), Some(true));
        let adv_batches = adv.get("batches").and_then(Value::as_u64).unwrap();

        // Telemetry: one maintain-batch event and one counter tick per
        // committed batch (grid cells + adversarial cell).
        let total = batches_total + adv_batches;
        assert_eq!(tel.registry.snapshot().counter("maintain.batches"), Some(total));
        assert_eq!(tel.flight.borrow().anomalies(), 0, "no committed table failed its audit");
        let log = tel.tracer.finish();
        let events = log.events.iter().filter(|e| e.name == "maintain-batch").count() as u64;
        assert_eq!(events, total);

        // schema_version leads the document.
        assert!(doc.to_string_pretty().starts_with("{\n  \"schema_version\""));
        assert_eq!(Value::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn unpinned_run_beats_rebuild_on_amortized_cost() {
        // Timing-based, but the margin is structural: a 2-node batch
        // touches O(polylog) structures while the rebuild reconstructs
        // all of them. Assert the aggregate, not per-batch, to stay
        // robust against scheduler noise.
        let cache = MetricCache::new(1);
        let (_, _, doc) = run_maintain(
            &cache,
            &[196],
            Eps::one_over(8),
            2,
            &[2],
            20,
            7,
            1,
            false,
            &Telemetry::off(),
        );
        let cells = doc.get("cells").and_then(Value::as_array).unwrap();
        for c in cells {
            let scheme = c.get("scheme").and_then(Value::as_str).unwrap();
            let repair = c.get("amortized_repair_us").and_then(Value::as_f64).unwrap();
            let rebuild = c.get("amortized_rebuild_us").and_then(Value::as_f64).unwrap();
            assert!(
                repair < rebuild,
                "{scheme}: amortized repair {repair} us not below rebuild {rebuild} us"
            );
            assert_eq!(c.get("sublinear_ok").and_then(Value::as_bool), Some(true));
        }
    }
}

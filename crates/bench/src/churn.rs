//! The churn experiment: all four routing schemes under fault injection.
//!
//! For every (removal strategy × removal fraction) cell, the experiment
//! measures each scheme twice:
//!
//! * **stale** — the scheme routes with the tables it built *before* the
//!   failures: [`eval_resilient`] under [`RecoveryPolicy::Drop`] on a
//!   single-epoch [`FaultTimeline`], so a pair is delivered exactly when
//!   the scheme's own route avoids every casualty; reported as
//!   reachability, surviving-route stretch, and a loss breakdown.
//! * **rebuilt** — preprocessing is re-run from scratch on the largest
//!   surviving component ([`SurvivingNetwork`]), wall-clock measured;
//!   reachability then counts exactly the sampled pairs that ended up in
//!   that component, and stretch is measured against the survivor metric.
//!
//! The gap between the two columns is the cost of *not* rebuilding; the
//! `rebuild(ms)` column is the cost of rebuilding (pinned to `0` under
//! `--stable`, so two same-seed runs produce byte-identical documents).

use std::time::Instant;

use doubling_metric::graph::NodeId;
use doubling_metric::nets::NetHierarchy;
use doubling_metric::{gen, Eps};
use netsim::faults::{FaultPlan, FaultTimeline, SurvivingNetwork};
use netsim::json::Value;
use netsim::recovery::{DeliveryOutcome, LossReason, RecoveryPolicy, ResilientRouter};
use netsim::route::{Route, RouteError};
use netsim::stats::{eval_resilient, sample_pairs, RecoveryEvalResult};
use netsim::Naming;
use obs::{Telemetry, Tracer};

use crate::cache::MetricCache;
use crate::schemes::Built;
use crate::table::f2;

/// Event context identifying one (strategy, fraction, scheme) cell, so a
/// trace consumer can attribute every individual loss.
#[derive(Clone, Copy)]
struct CellCtx<'t> {
    tracer: &'t Tracer,
    strategy: &'static str,
    fraction: f64,
    scheme: &'static str,
}

impl CellCtx<'_> {
    fn fields(&self, u: NodeId, v: NodeId) -> Vec<(&'static str, Value)> {
        vec![
            ("strategy", self.strategy.into()),
            ("fraction", self.fraction.into()),
            ("scheme", self.scheme.into()),
            ("src", u.into()),
            ("dst", v.into()),
        ]
    }
}

/// The trace-event `kind` for one stale-routing loss.
fn loss_kind(reason: &LossReason) -> &'static str {
    match reason {
        LossReason::Casualty { error: RouteError::NodeFailed { .. } } => "node-failed",
        LossReason::Casualty { error: RouteError::EdgeFailed { .. } } => "edge-failed",
        _ => "other",
    }
}

/// The `stale` block of a scheme cell: the `Drop` evaluation under the
/// churn document's long-standing keys. `Drop` on a single-epoch timeline
/// over live endpoints loses a packet only to a casualty, a hop-budget
/// trip or a scheme error, so `lost_other` counts the last two.
fn stale_json(r: &RecoveryEvalResult) -> Value {
    Value::Object(vec![
        ("scheme".into(), r.scheme.into()),
        ("attempted".into(), r.attempted.into()),
        ("delivered".into(), r.delivered.into()),
        ("reachability".into(), r.delivered_fraction.into()),
        ("avg_stretch".into(), r.avg_stretch.into()),
        ("max_stretch".into(), r.max_stretch.into()),
        ("lost_to_node".into(), r.lost_to_node.into()),
        ("lost_to_edge".into(), r.lost_to_edge.into()),
        ("lost_other".into(), r.lost_other.into()),
        ("understretch".into(), r.understretch.into()),
    ])
}

/// Reachability and mean stretch after a full rebuild on the surviving
/// component, over the same sampled pairs as the stale evaluation. Pairs
/// that fall outside the surviving component are emitted as
/// `"rebuilt-unreachable"` events when `ctx.tracer` is recording.
fn rebuilt_on(
    sn: &SurvivingNetwork,
    plan: &FaultPlan,
    pairs: &[(NodeId, NodeId)],
    ctx: CellCtx<'_>,
    mut route: impl FnMut(NodeId, NodeId) -> Route,
) -> (f64, f64) {
    let mut attempted = 0usize;
    let mut delivered = 0usize;
    let mut stretch_sum = 0.0f64;
    for &(u, v) in pairs {
        if plan.is_node_dead(u) || plan.is_node_dead(v) {
            continue; // same denominator as the stale evaluation
        }
        attempted += 1;
        if let (Some(nu), Some(nv)) = (sn.new_id(u), sn.new_id(v)) {
            let r = route(nu, nv);
            r.verify(&sn.metric).expect("rebuilt route must verify");
            assert_eq!(r.dst, nv, "rebuilt route must reach the destination");
            delivered += 1;
            stretch_sum += r.stretch(&sn.metric);
        } else {
            ctx.tracer.event_lazy("rebuilt-unreachable", || ctx.fields(u, v));
        }
    }
    let reach = if attempted == 0 { 1.0 } else { delivered as f64 / attempted as f64 };
    let avg = if delivered == 0 { 1.0 } else { stretch_sum / delivered as f64 };
    (reach, avg)
}

/// One scheme's measurements in one (strategy, fraction) cell.
struct SchemeCell {
    /// Stale tables: `Drop` on the cell's single-epoch timeline.
    stale: RecoveryEvalResult,
    /// `None` when every node failed (no component to rebuild on).
    rebuilt: Option<(f64, f64, f64)>, // (reachability, avg stretch, rebuild ms)
    /// Resilient delivery under `--policy`, absent on the legacy path.
    recovery: Option<RecoveryEvalResult>,
}

impl SchemeCell {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("scheme".to_string(), self.stale.scheme.into()),
            ("stale".to_string(), stale_json(&self.stale)),
        ];
        match self.rebuilt {
            Some((reach, stretch, ms)) => {
                fields.push(("rebuilt_reachability".into(), reach.into()));
                fields.push(("rebuilt_avg_stretch".into(), stretch.into()));
                fields.push(("rebuild_ms".into(), ms.into()));
            }
            None => fields.push(("rebuilt_reachability".into(), Value::Null)),
        }
        if let Some(r) = &self.recovery {
            fields.push(("recovery".into(), r.to_json()));
        }
        Value::Object(fields)
    }

    fn row(&self, strategy: &str, fraction: f64) -> Vec<String> {
        let (rr, rs, ms) = match self.rebuilt {
            Some((r, s, m)) => (f2(r), f2(s), f2(m)),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let mut row = vec![
            strategy.to_string(),
            f2(fraction),
            self.stale.scheme.to_string(),
            f2(self.stale.delivered_fraction),
            rr,
            f2(self.stale.avg_stretch),
            rs,
            ms,
        ];
        if let Some(r) = &self.recovery {
            row.push(f2(r.delivered_fraction));
        }
        row
    }
}

/// Times building scheme `i` of the table order on the survivor metric
/// (under the survivor `naming`), then evaluates it over `pairs`.
#[allow(clippy::too_many_arguments)]
fn rebuild_and_eval(
    sn: &SurvivingNetwork,
    plan: &FaultPlan,
    pairs: &[(NodeId, NodeId)],
    ctx: CellCtx<'_>,
    i: usize,
    eps: Eps,
    naming: &Naming,
    stable: bool,
) -> (f64, f64, f64) {
    let t0 = Instant::now();
    let scheme = Built::new(i, &sn.metric, eps, naming, &Tracer::noop());
    let ms = if stable { 0.0 } else { t0.elapsed().as_secs_f64() * 1e3 };
    let seam = scheme.seam();
    let (reach, stretch) =
        rebuilt_on(sn, plan, pairs, ctx, |u, v| seam.route_to(&sn.metric, u, v).expect("delivers"));
    (reach, stretch, ms)
}

/// A per-pair observer emitting one `"stale-loss"` event (with the loss
/// kind) for every pair the stale tables failed to deliver.
fn stale_observer(ctx: CellCtx<'_>) -> impl FnMut(NodeId, NodeId, &DeliveryOutcome) + '_ {
    move |u, v, outcome| {
        if let DeliveryOutcome::Lost { reason, .. } = outcome {
            ctx.tracer.event_lazy("stale-loss", || {
                let mut fields = ctx.fields(u, v);
                fields.push(("kind", loss_kind(reason).into()));
                fields
            });
        }
    }
}

/// Version of the `results/churn.json` document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Runs the churn grid on a unit grid graph: every scheme × every removal
/// strategy × every removal fraction. Returns table headers/rows for the
/// console plus the full JSON document.
///
/// When `tel.tracer` is recording, every individual loss becomes an
/// attributable event: `"stale-loss"` (strategy, fraction, scheme, pair,
/// loss kind) for stale-table losses and `"rebuilt-unreachable"` for
/// pairs outside the rebuilt component. With [`Tracer::noop`] the
/// per-pair overhead is one branch.
///
/// With `policy: Some(..)` (the `--policy` flag) every cell additionally
/// delivers the same pairs through a [`ResilientRouter`] applying that
/// policy: the table gains a `policy-reach` column, each scheme's JSON
/// gains a `recovery` block ([`RecoveryEvalResult`]), and — when tracing —
/// every recovery decision becomes a `recovery-detour` /
/// `recovery-fallback` / `recovery-exhausted` event with the same cell
/// context as the loss events. With `None`, output is byte-identical to
/// before the flag existed.
///
/// `tel` also counts recovery interventions by kind and records every
/// resilient delivery in its flight ring ([`Telemetry::recovery_event`],
/// [`Telemetry::delivery`]); [`Telemetry::off`] opts out at one branch
/// per event. `stable` (the `--stable` flag) pins every `rebuild_ms` to
/// `0`, the only wall-clock field of the document.
#[allow(clippy::too_many_arguments)] // experiment entry point: one knob per CLI flag
pub fn run_churn(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    pairs_count: usize,
    fractions: &[f64],
    seed: u64,
    tel: &Telemetry,
    policy: Option<&RecoveryPolicy>,
    stable: bool,
) -> (Vec<&'static str>, Vec<Vec<String>>, Value) {
    let m = cache.family_traced(gen::Family::Grid, n, seed, &tel.tracer);
    let g = m.graph();
    let naming = Naming::random(m.n(), seed ^ 0xA5);
    let pairs = sample_pairs(m.n(), pairs_count, seed ^ 0x5A);
    let nets = NetHierarchy::new(&m);

    // Pre-failure ("stale") tables, built once on the intact network.
    let built = Built::all(&m, eps, &naming);
    let stale: Vec<_> = built.iter().map(Built::seam).collect();

    let mut headers = vec![
        "strategy",
        "fraction",
        "scheme",
        "stale-reach",
        "rebuilt-reach",
        "stale-stretch",
        "rebuilt-stretch",
        "rebuild(ms)",
    ];
    if policy.is_some() {
        headers.push("policy-reach");
    }
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    for &fraction in fractions {
        let plans: Vec<(&'static str, FaultPlan)> = vec![
            ("random", FaultPlan::random_nodes(m.n(), fraction, seed ^ 0xC0)),
            ("degree", FaultPlan::targeted_by_degree(g, fraction)),
            ("netcenter", FaultPlan::targeted_net_centers(&nets, m.n(), fraction)),
        ];
        for (strategy, plan) in plans {
            let sn = SurvivingNetwork::build(g, &plan);
            let naming2 = sn.as_ref().map(|sn| Naming::random(sn.n(), seed ^ 0xA5));
            let timeline = FaultTimeline::from_plan(plan.clone());

            // One cell per scheme: stale tables, a rebuild on the
            // survivors, and — when --policy asked for it — resilient
            // delivery of the same pairs, whose recovery decisions become
            // trace events.
            let scheme_cells: Vec<SchemeCell> = stale
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let scheme = s.scheme_name();
                    let ctx = CellCtx { tracer: &tel.tracer, strategy, fraction, scheme };
                    SchemeCell {
                        stale: eval_resilient(
                            &ResilientRouter::new(&m, &**s, RecoveryPolicy::Drop),
                            &timeline,
                            &pairs,
                            |_, _, _| {},
                            stale_observer(ctx),
                        ),
                        rebuilt: sn.as_ref().map(|sn| {
                            let nm = naming2.as_ref().unwrap();
                            rebuild_and_eval(sn, &plan, &pairs, ctx, i, eps, nm, stable)
                        }),
                        recovery: policy.map(|p| {
                            eval_resilient(
                                &ResilientRouter::new(&m, &**s, p.clone()),
                                &timeline,
                                &pairs,
                                |u, v, ev| tel.recovery_event(|| ctx.fields(u, v), ev),
                                |u, v, o| tel.delivery(u, v, o),
                            )
                        }),
                    }
                })
                .collect();

            for c in &scheme_cells {
                rows.push(c.row(strategy, fraction));
            }
            cells.push(Value::Object(vec![
                ("strategy".into(), strategy.into()),
                ("fraction".into(), fraction.into()),
                ("dead_nodes".into(), plan.dead_node_count().into()),
                (
                    "surviving_component".into(),
                    sn.as_ref().map_or(Value::from(0u32), |sn| sn.n().into()),
                ),
                (
                    "schemes".into(),
                    Value::Array(scheme_cells.iter().map(SchemeCell::to_json).collect()),
                ),
            ]));
        }
    }

    let mut doc_fields = vec![
        ("schema_version".to_string(), Value::from(SCHEMA_VERSION)),
        ("family".into(), Value::from("grid")),
        ("n".into(), m.n().into()),
        ("eps".into(), eps.to_string().into()),
        ("pairs".into(), pairs.len().into()),
        ("seed".into(), seed.into()),
    ];
    if let Some(p) = policy {
        doc_fields.push(("policy".into(), p.to_string().into()));
    }
    doc_fields.push(("metric_cache".into(), cache.stats().to_json()));
    doc_fields.push(("cells".into(), Value::Array(cells)));
    (headers, rows, Value::Object(doc_fields))
}

/// The worst delivered fraction in a churn document: the minimum over
/// every (strategy, fraction, scheme) cell of the recovery
/// `delivered_fraction` when a `--policy` ran, falling back to the stale
/// reachability otherwise. `1.0` on a document without cells.
///
/// This is what the `--min-delivery` gate compares against its
/// threshold, so CI can fail a run whose delivery degrades.
pub fn worst_delivery(doc: &Value) -> f64 {
    let mut worst = 1.0f64;
    let cells = doc.get("cells").and_then(Value::as_array).unwrap_or(&[]);
    for cell in cells {
        for s in cell.get("schemes").and_then(Value::as_array).unwrap_or(&[]) {
            let frac = s
                .get("recovery")
                .and_then(|r| r.get("delivered_fraction"))
                .and_then(Value::as_f64)
                .or_else(|| {
                    s.get("stale").and_then(|v| v.get("reachability")).and_then(Value::as_f64)
                });
            if let Some(f) = frac {
                worst = worst.min(f);
            }
        }
    }
    worst
}

/// Entry point for `cargo run --release --bin churn` (the binary lives in
/// this crate): runs the grid, prints the table, and
/// writes `results/churn.json`. With `--trace`, every individual loss is
/// recorded and the trace is written to `results/churn_trace.jsonl`
/// ([`crate::cli::Cli::finish`] writes the telemetry artifacts).
///
/// Usage: `churn [n] [1/eps] [pairs] [--seed N] [--trace]
/// [--chrome-trace PATH] [--json] [--threads N] [--policy P]
/// [--min-delivery F] [--stable]`. With `--policy`, each cell also delivers the
/// pairs through a [`ResilientRouter`] applying `P` (see [`run_churn`]).
/// With `--min-delivery F`, the process exits non-zero when
/// [`worst_delivery`] of the run falls below `F` — the artifacts are
/// still written first, so the failing run stays inspectable.
pub fn churn_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let n: usize = cli.pos(0, 196);
    let inv: u64 = cli.pos(1, 8);
    let pairs: usize = cli.pos(2, 300);
    let fractions = [0.05, 0.10, 0.20, 0.30];
    let tel = cli.telemetry();
    let cache = MetricCache::new(cli.threads);
    let (headers, rows, doc) = run_churn(
        &cache,
        n,
        Eps::one_over(inv),
        pairs,
        &fractions,
        cli.seed,
        &tel,
        cli.policy.as_ref(),
        cli.stable,
    );
    crate::table::emit(
        &format!("Churn: reachability under node removal (n≈{n}, eps=1/{inv}, {pairs} pairs)"),
        &headers,
        &rows,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/churn.json", doc.to_string_pretty() + "\n")
        .expect("write results/churn.json");
    if !cli.json {
        println!("\nwrote results/churn.json");
    }
    cli.finish("churn", std::path::Path::new("results"), tel);
    if let Some(threshold) = cli.min_delivery {
        let worst = worst_delivery(&doc);
        if worst < threshold {
            eprintln!(
                "churn: worst delivered fraction {worst:.4} below --min-delivery {threshold}"
            );
            std::process::exit(2);
        }
        if !cli.json {
            println!("min-delivery gate passed: worst {worst:.4} >= {threshold}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_grid_covers_all_cells_and_rebuild_beats_stale_under_targeting() {
        let fractions = [0.1, 0.2];
        let tel = Telemetry { tracer: Tracer::recording(), ..Telemetry::off() };
        let cache = MetricCache::new(1);
        let (h, rows, doc) =
            run_churn(&cache, 64, Eps::one_over(8), 150, &fractions, 7, &tel, None, false);
        // One base metric build, no rebuild through the cache.
        assert_eq!(cache.stats().builds, 1);
        assert_eq!(h.len(), 8);
        // 4 schemes × 3 strategies × 2 fractions.
        assert_eq!(rows.len(), 4 * 3 * 2);

        let cells = doc.get("cells").and_then(Value::as_array).expect("cells");
        assert_eq!(cells.len(), 3 * 2);
        for cell in cells {
            let schemes = cell.get("schemes").and_then(Value::as_array).expect("schemes");
            assert_eq!(schemes.len(), 4);
            for s in schemes {
                let stale = s.get("stale").expect("stale block");
                let stale_reach = stale.get("reachability").and_then(Value::as_f64).expect("reach");
                let rebuilt = s
                    .get("rebuilt_reachability")
                    .and_then(Value::as_f64)
                    .expect("component survives at these fractions");
                assert!((0.0..=1.0).contains(&stale_reach));
                // Rebuilding can only help: stale routes die to any casualty
                // on the precomputed path, rebuilt routes only to actual
                // disconnection.
                assert!(stale_reach <= rebuilt + 1e-12, "stale {stale_reach} > rebuilt {rebuilt}");
                // The scheme itself must never be the cause of a loss.
                assert_eq!(
                    stale.get("lost_other").and_then(Value::as_u64),
                    Some(0),
                    "scheme error under faults"
                );
            }
            // At 20% targeted removal, stale tables must be strictly worse
            // than rebuilding (the headline acceptance criterion).
            let frac = cell.get("fraction").and_then(Value::as_f64).unwrap();
            let strategy = cell.get("strategy").and_then(Value::as_str).unwrap();
            if (frac - 0.2).abs() < 1e-9 && strategy != "random" {
                for s in schemes {
                    let stale_reach = s
                        .get("stale")
                        .and_then(|v| v.get("reachability"))
                        .and_then(Value::as_f64)
                        .unwrap();
                    let rebuilt = s.get("rebuilt_reachability").and_then(Value::as_f64).unwrap();
                    assert!(
                        stale_reach < rebuilt,
                        "{strategy}@{frac}: stale {stale_reach} not strictly below rebuilt {rebuilt}"
                    );
                }
            }
        }

        // Every individual stale loss is an attributable trace event: the
        // event count matches the aggregated loss counters exactly, and
        // each event carries the full (strategy, fraction, scheme, pair,
        // kind) context.
        let log = tel.tracer.finish();
        let mut expected_losses = 0u64;
        for cell in cells {
            for s in cell.get("schemes").and_then(Value::as_array).unwrap() {
                let stale = s.get("stale").unwrap();
                for k in ["lost_to_node", "lost_to_edge", "lost_other"] {
                    expected_losses += stale.get(k).and_then(Value::as_u64).unwrap();
                }
            }
        }
        let stale_events: Vec<_> = log.events.iter().filter(|e| e.name == "stale-loss").collect();
        assert_eq!(stale_events.len() as u64, expected_losses, "one event per stale loss");
        assert!(expected_losses > 0, "targeted removal at 20% must lose something");
        for e in &stale_events {
            let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, ["strategy", "fraction", "scheme", "src", "dst", "kind"]);
        }

        // Likewise each pair outside the rebuilt component: the event
        // count is exactly Σ attempted·(1 − rebuilt reachability).
        let mut expected_unreachable = 0u64;
        for cell in cells {
            for s in cell.get("schemes").and_then(Value::as_array).unwrap() {
                let attempted = s
                    .get("stale")
                    .and_then(|v| v.get("attempted"))
                    .and_then(Value::as_u64)
                    .unwrap();
                let reach = s.get("rebuilt_reachability").and_then(Value::as_f64).unwrap();
                expected_unreachable += (attempted as f64 * (1.0 - reach)).round() as u64;
            }
        }
        let unreachable_events =
            log.events.iter().filter(|e| e.name == "rebuilt-unreachable").count() as u64;
        assert_eq!(unreachable_events, expected_unreachable);
    }

    #[test]
    fn churn_policy_adds_recovery_column_and_trace_events() {
        let fractions = [0.2];
        let tel = Telemetry::on(Tracer::recording());
        let cache = MetricCache::new(1);
        let policy = RecoveryPolicy::parse("detour:8").unwrap();
        let (h, rows, doc) =
            run_churn(&cache, 64, Eps::one_over(8), 120, &fractions, 7, &tel, Some(&policy), false);
        assert_eq!(*h.last().unwrap(), "policy-reach");
        assert!(rows.iter().all(|r| r.len() == h.len()));
        assert_eq!(doc.get("policy").and_then(Value::as_str), Some("detour:8"));

        let cells = doc.get("cells").and_then(Value::as_array).expect("cells");
        let mut recoveries_total = 0u64;
        for cell in cells {
            for s in cell.get("schemes").and_then(Value::as_array).unwrap() {
                let stale_reach = s
                    .get("stale")
                    .and_then(|v| v.get("reachability"))
                    .and_then(Value::as_f64)
                    .unwrap();
                let rec = s.get("recovery").expect("recovery block under --policy");
                assert_eq!(rec.get("policy").and_then(Value::as_str), Some("detour:8"));
                let frac = rec.get("delivered_fraction").and_then(Value::as_f64).unwrap();
                assert!(
                    frac >= stale_reach - 1e-12,
                    "recovery must not deliver less than Drop: {frac} < {stale_reach}"
                );
                recoveries_total += rec.get("recoveries").and_then(Value::as_u64).unwrap();
            }
        }
        assert!(recoveries_total > 0, "20% removal must force recoveries");

        // Every resilient delivery entered the flight ring.
        assert!(!tel.flight.borrow().is_empty());

        // Recovery decisions are attributable trace events carrying the
        // same cell context as the loss events.
        let snap = tel.registry.snapshot();
        let log = tel.tracer.finish();
        let detours: Vec<_> = log.events.iter().filter(|e| e.name == "recovery-detour").collect();
        assert!(!detours.is_empty());
        for e in &detours {
            let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                keys,
                ["strategy", "fraction", "scheme", "src", "dst", "at", "rejoin", "detour_hops"]
            );
        }

        // The registry counted exactly the interventions that were traced.
        assert_eq!(snap.counter("recovery-detour"), Some(detours.len() as u64));
    }

    #[test]
    fn worst_delivery_prefers_recovery_and_takes_the_minimum() {
        let doc = Value::parse(
            r#"{"cells": [
                {"schemes": [
                    {"stale": {"reachability": 0.8},
                     "recovery": {"delivered_fraction": 0.95}},
                    {"stale": {"reachability": 0.9}}
                ]},
                {"schemes": [
                    {"stale": {"reachability": 0.4},
                     "recovery": {"delivered_fraction": 0.85}}
                ]}
            ]}"#,
        )
        .unwrap();
        // Recovery fractions (0.95, 0.85) replace their stale columns
        // (0.8, 0.4); the no-policy scheme contributes its stale 0.9.
        assert!((worst_delivery(&doc) - 0.85).abs() < 1e-12);
        // A document with no cells never trips the gate.
        assert_eq!(worst_delivery(&Value::parse(r#"{"cells": []}"#).unwrap()), 1.0);
        assert_eq!(worst_delivery(&Value::parse("{}").unwrap()), 1.0);
    }

    #[test]
    fn churn_without_policy_is_byte_identical_to_legacy() {
        // The --policy flag must not disturb existing output: no header,
        // no JSON field, same documents as before the flag existed.
        let fractions = [0.1];
        let cache = MetricCache::new(1);
        let (h, _, doc) = run_churn(
            &cache,
            36,
            Eps::one_over(8),
            60,
            &fractions,
            7,
            &Telemetry::off(),
            None,
            false,
        );
        assert_eq!(h.len(), 8);
        assert!(doc.get("policy").is_none());
        let cells = doc.get("cells").and_then(Value::as_array).unwrap();
        for cell in cells {
            for s in cell.get("schemes").and_then(Value::as_array).unwrap() {
                assert!(s.get("recovery").is_none());
            }
        }
    }

    #[test]
    fn stable_churn_pins_rebuild_ms_and_is_byte_identical() {
        let run = || {
            let (_, _, doc) = run_churn(
                &MetricCache::new(1),
                36,
                Eps::one_over(8),
                60,
                &[0.1],
                7,
                &Telemetry::off(),
                None,
                true,
            );
            doc
        };
        let doc = run();
        assert_eq!(doc.to_string(), run().to_string());
        for cell in doc.get("cells").and_then(Value::as_array).unwrap() {
            for s in cell.get("schemes").and_then(Value::as_array).unwrap() {
                assert_eq!(s.get("rebuild_ms").and_then(Value::as_f64), Some(0.0));
            }
        }
    }
}

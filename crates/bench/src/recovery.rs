//! Experiment R1: the stretch price of survival.
//!
//! For every (fault strategy × recovery policy × scheme) cell, the same
//! sampled pairs are delivered through a
//! [`netsim::recovery::ResilientRouter`] against the strategy's fault
//! schedule, measuring the delivered fraction, the stretch of survivors
//! (detour hops included in the cost), and the recovery effort. The
//! policy grid always contains [`RecoveryPolicy::Drop`] — stale-table
//! routing, the same replay as the churn experiment's `stale` column —
//! as the baseline every other policy is read against.
//!
//! The `random` strategy is *dynamic*: a two-epoch [`FaultTimeline`]
//! (half the casualties at departure, the rest landing mid-route), built
//! on the prefix property of [`FaultPlan::random_nodes`] — the same seed
//! at a larger fraction kills a superset of nodes, so the epochs are
//! cumulative. The targeted strategies are static single-epoch schedules.
//!
//! The run ends with an adversarial **chaos campaign**
//! ([`netsim::recovery::greedy_chaos`]): for each policy, greedily build
//! the fault set (over high-degree candidates) that maximizes packet
//! loss, then prune it to a minimal set. The resulting plans are
//! serialized into the output via [`FaultPlan::to_json`], so each
//! worst case is reproducible from `results/recovery.json` alone.
//!
//! Output schema (`results/recovery.json`, `schema_version` 1):
//! strategies × policies × all four schemes, each cell a
//! [`RecoveryEvalResult`] plus milli-stretch ([`Log2Histogram`]) and
//! detour-hop histograms; per-strategy serialized fault timelines; the
//! chaos section per policy.

use doubling_metric::graph::NodeId;
use doubling_metric::{gen, Eps, MetricSpace};
use netsim::faults::{FaultPlan, FaultTimeline};
use netsim::json::Value;
use netsim::recovery::{greedy_chaos, DeliveryOutcome, RecoveryPolicy, ResilientRouter};
use netsim::stats::{eval_resilient, sample_pairs, RecoveryEvalResult};
use netsim::Naming;
use obs::{Log2Histogram, Telemetry};

use crate::cache::MetricCache;
use crate::schemes::Built;
use crate::table::f2;

/// The policy grid every strategy × scheme cell is measured under.
/// `Drop` first — it is the baseline the other rows are read against.
pub fn policy_grid() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::Drop,
        RecoveryPolicy::LocalDetour { ttl: 8 },
        RecoveryPolicy::LevelFallback { max_climbs: 4 },
        RecoveryPolicy::Chained(vec![
            RecoveryPolicy::LocalDetour { ttl: 8 },
            RecoveryPolicy::LevelFallback { max_climbs: 4 },
        ]),
    ]
}

/// Stretch values enter the [`Log2Histogram`] as integer milli-stretch
/// (stretch × 1000), so quantiles come back at three-decimal resolution.
fn milli(stretch: f64) -> u64 {
    (stretch * 1000.0).round() as u64
}

/// One cell's histograms, filled by the delivery observer.
struct CellHists {
    milli_stretch: Log2Histogram,
    detour_hops: Log2Histogram,
}

impl CellHists {
    fn new() -> Self {
        CellHists { milli_stretch: Log2Histogram::new(), detour_hops: Log2Histogram::new() }
    }

    fn observe(&mut self, outcome: &DeliveryOutcome) {
        if let DeliveryOutcome::Delivered { stretch, detour_hops, .. } = outcome {
            self.milli_stretch.record(milli(*stretch));
            if *detour_hops > 0 {
                self.detour_hops.record(*detour_hops as u64);
            }
        }
    }

    /// Quantile helper: milli-stretch bucket bound back to a stretch.
    fn stretch_q(&self, q: impl Fn(&Log2Histogram) -> Option<u64>) -> f64 {
        q(&self.milli_stretch).map_or(1.0, |v| v as f64 / 1000.0)
    }
}

/// One (strategy, policy, scheme) cell of the grid.
struct Cell {
    eval: RecoveryEvalResult,
    hists: CellHists,
}

impl Cell {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("scheme".into(), self.eval.scheme.into()),
            ("eval".into(), self.eval.to_json()),
            (
                "stretch_quantiles".into(),
                Value::Object(vec![
                    ("p50".into(), self.hists.stretch_q(Log2Histogram::p50).into()),
                    ("p90".into(), self.hists.stretch_q(Log2Histogram::p90).into()),
                    ("p99".into(), self.hists.stretch_q(Log2Histogram::p99).into()),
                    ("max".into(), self.eval.max_stretch.into()),
                ]),
            ),
            ("milli_stretch_hist".into(), self.hists.milli_stretch.to_json()),
            ("detour_hops_hist".into(), self.hists.detour_hops.to_json()),
        ])
    }

    fn row(&self, strategy: &str, policy: &RecoveryPolicy) -> Vec<String> {
        vec![
            strategy.to_string(),
            policy.to_string(),
            self.eval.scheme.to_string(),
            f2(self.eval.delivered_fraction),
            f2(self.eval.avg_stretch),
            f2(self.hists.stretch_q(Log2Histogram::p90)),
            self.eval.recoveries.to_string(),
            self.eval.detour_hops.to_string(),
        ]
    }
}

/// Event context for attributable recovery trace events (same field
/// ordering as the churn loss events).
fn event_fields(
    strategy: &'static str,
    policy: &RecoveryPolicy,
    scheme: &'static str,
    u: NodeId,
    v: NodeId,
) -> Vec<(&'static str, Value)> {
    vec![
        ("strategy", strategy.into()),
        ("policy", policy.to_string().into()),
        ("scheme", scheme.into()),
        ("src", u.into()),
        ("dst", v.into()),
    ]
}

/// The node ids with the `k` highest degrees (ties to the smaller id) —
/// the chaos campaign's candidate pool: hubs are where a targeted
/// adversary gets the most loss per kill.
fn top_degree_candidates(m: &MetricSpace, k: usize) -> Vec<NodeId> {
    let g = m.graph();
    let mut nodes: Vec<NodeId> = (0..m.n() as NodeId).collect();
    nodes.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    nodes.truncate(k);
    nodes
}

/// Runs the full R1 grid on a unit grid graph. Returns console table
/// headers/rows plus the JSON document (`schema_version` 1).
///
/// All randomness derives from `seed` (graph, naming, pairs, fault
/// plans), so two runs with the same arguments produce byte-identical
/// documents — the CI determinism check relies on this.
///
/// `tel` traces and counts every recovery intervention by kind
/// (`recovery-detour` / `recovery-fallback` / `recovery-exhausted`) plus
/// delivered/lost totals, and its flight ring keeps per-hop forensics for
/// the last K deliveries, each loss flagged as an anomaly.
pub fn run_recovery(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    pairs_count: usize,
    fraction: f64,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>, Value) {
    let m = cache.family_traced(gen::Family::Grid, n, seed, &tel.tracer);
    let g = m.graph();
    let naming = Naming::random(m.n(), seed ^ 0xA5);
    let pairs = sample_pairs(m.n(), pairs_count, seed ^ 0x5A);
    let policies = policy_grid();

    let built = Built::all(&m, eps, &naming);
    let schemes: Vec<_> = built.iter().map(Built::seam).collect();

    // The random strategy is dynamic: half the casualties are live at
    // departure, the rest land after `hops_per_epoch` hops. random_nodes
    // has the prefix property (same seed, larger fraction ⊇ smaller), so
    // the two epochs are cumulative by construction.
    let nets = doubling_metric::nets::NetHierarchy::new(&m);
    let strategies: Vec<(&'static str, FaultTimeline)> = vec![
        (
            "random",
            FaultTimeline::new(
                vec![
                    FaultPlan::random_nodes(m.n(), fraction / 2.0, seed ^ 0xC0),
                    FaultPlan::random_nodes(m.n(), fraction, seed ^ 0xC0),
                ],
                8,
            )
            .expect("random_nodes prefixes are cumulative"),
        ),
        ("degree", FaultTimeline::from_plan(FaultPlan::targeted_by_degree(g, fraction))),
        (
            "netcenter",
            FaultTimeline::from_plan(FaultPlan::targeted_net_centers(&nets, m.n(), fraction)),
        ),
    ];

    let headers = vec![
        "strategy",
        "policy",
        "scheme",
        "delivered",
        "avg-stretch",
        "p90-stretch",
        "recoveries",
        "detour-hops",
    ];
    let mut rows = Vec::new();
    let mut strategy_docs = Vec::new();

    for (strategy, timeline) in &strategies {
        let mut policy_docs = Vec::new();
        for policy in &policies {
            // One cell per scheme: identical pairs, identical timeline,
            // only the delivery policy varies.
            let cells: Vec<Cell> = schemes
                .iter()
                .map(|s| {
                    let mut hists = CellHists::new();
                    let eval = eval_resilient(
                        &ResilientRouter::new(&m, &**s, policy.clone()),
                        timeline,
                        &pairs,
                        |u, v, ev| {
                            let fields = || event_fields(strategy, policy, s.scheme_name(), u, v);
                            tel.recovery_event(fields, ev);
                        },
                        |u, v, o| {
                            hists.observe(o);
                            tel.delivery(u, v, o);
                        },
                    );
                    Cell { eval, hists }
                })
                .collect();

            for c in &cells {
                rows.push(c.row(strategy, policy));
            }
            policy_docs.push(Value::Object(vec![
                ("policy".into(), policy.to_string().into()),
                ("schemes".into(), Value::Array(cells.iter().map(Cell::to_json).collect())),
            ]));
        }
        strategy_docs.push(Value::Object(vec![
            ("strategy".into(), (*strategy).into()),
            ("dynamic".into(), (timeline.num_epochs() > 1).into()),
            ("dead_nodes_final".into(), timeline.final_plan().dead_node_count().into()),
            // The full schedule, so any cell is reproducible from this
            // document alone (FaultTimeline::from_json).
            ("timeline".into(), timeline.to_json()),
            ("policies".into(), Value::Array(policy_docs)),
        ]));
    }

    // Adversarial chaos campaign: per policy, the minimal high-damage
    // fault set over high-degree candidates, probed with the NetLabeled
    // scheme (first in table order) on a pair subsample (the campaign re-evaluates the grid once
    // per candidate per step — keep the oracle cheap and deterministic).
    let chaos_pairs = sample_pairs(m.n(), pairs_count.min(80), seed ^ 0x7C);
    let chaos_candidates = top_degree_candidates(&m, 16);
    let chaos_budget = 5;
    let mut chaos_docs = Vec::new();
    for policy in &policies {
        let outcome = greedy_chaos(m.n(), &chaos_candidates, chaos_budget, |plan| {
            let tl = FaultTimeline::from_plan(plan.clone());
            let router = ResilientRouter::new(&m, &*schemes[0], policy.clone());
            chaos_pairs
                .iter()
                .filter(|&&(u, v)| !plan.is_node_dead(u) && !plan.is_node_dead(v))
                .filter(|&&(u, v)| !router.deliver(u, v, &tl, &mut |_| {}).is_delivered())
                .count()
        });
        tel.tracer.event_lazy("chaos-campaign", || {
            vec![
                ("policy", policy.to_string().into()),
                ("lost", outcome.lost.into()),
                ("kills", outcome.plan.dead_node_count().into()),
            ]
        });
        chaos_docs.push(Value::Object(vec![
            ("policy".into(), policy.to_string().into()),
            ("attempted_pairs".into(), chaos_pairs.len().into()),
            ("lost".into(), outcome.lost.into()),
            (
                "steps".into(),
                Value::Array(
                    outcome
                        .steps
                        .iter()
                        .map(|s| {
                            Value::Object(vec![
                                ("kill".into(), s.kill.into()),
                                ("lost".into(), s.lost.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            // The minimal worst-case fault set, reproducible via
            // FaultPlan::from_json.
            ("plan".into(), outcome.plan.to_json()),
        ]));
    }

    let doc = Value::Object(vec![
        ("schema_version".into(), 1u64.into()),
        ("family".into(), "grid".into()),
        ("n".into(), m.n().into()),
        ("eps".into(), eps.to_string().into()),
        ("pairs".into(), pairs.len().into()),
        ("fraction".into(), fraction.into()),
        ("seed".into(), seed.into()),
        ("policies".into(), Value::Array(policies.iter().map(|p| p.to_string().into()).collect())),
        ("metric_cache".into(), cache.stats().to_json()),
        ("strategies".into(), Value::Array(strategy_docs)),
        (
            "chaos".into(),
            Value::Object(vec![
                ("probe_scheme".into(), schemes[0].scheme_name().into()),
                ("candidates".into(), chaos_candidates.len().into()),
                ("budget".into(), chaos_budget.into()),
                ("campaigns".into(), Value::Array(chaos_docs)),
            ]),
        ),
    ]);
    (headers, rows, doc)
}

/// Entry point for `cargo run --release --bin recovery` (the binary lives in
/// this crate): runs the grid, prints the table,
/// and writes `results/recovery.json`. With `--trace`, every recovery
/// decision is recorded to `results/recovery_trace.jsonl`; losses dump
/// the flight ring to `results/recovery_flight.jsonl` (see
/// [`crate::cli::Cli::finish`]).
///
/// Usage: `recovery [n] [1/eps] [pairs] [fraction%] [--seed N] [--trace]
/// [--chrome-trace PATH] [--json] [--threads N]`.
pub fn recovery_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let n: usize = cli.pos(0, 196);
    let inv: u64 = cli.pos(1, 8);
    let pairs: usize = cli.pos(2, 300);
    let pct: u64 = cli.pos(3, 20);
    let fraction = pct as f64 / 100.0;
    let tel = cli.telemetry();
    let cache = MetricCache::new(cli.threads);
    let (headers, rows, doc) =
        run_recovery(&cache, n, Eps::one_over(inv), pairs, fraction, cli.seed, &tel);
    crate::table::emit(
        &format!(
            "Recovery: delivery under {pct}% node faults by policy (n≈{n}, eps=1/{inv}, {pairs} pairs)"
        ),
        &headers,
        &rows,
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/recovery.json", doc.to_string_pretty() + "\n")
        .expect("write results/recovery.json");
    if !cli.json {
        println!("\nwrote results/recovery.json");
    }
    cli.finish("recovery", std::path::Path::new("results"), tel);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_grid_policies_beat_drop_and_document_round_trips() {
        let tel = Telemetry {
            flight: obs::FlightRecorder::new(16).into(),
            ..Telemetry::on(obs::Tracer::recording())
        };
        let cache = MetricCache::new(1);
        let (h, rows, doc) = run_recovery(&cache, 64, Eps::one_over(8), 150, 0.2, 7, &tel);
        assert_eq!(h.len(), 8);
        // 3 strategies × 4 policies × 4 schemes.
        assert_eq!(rows.len(), 3 * 4 * 4);
        assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(1));

        let strategies = doc.get("strategies").and_then(Value::as_array).expect("strategies");
        assert_eq!(strategies.len(), 3);
        let mut detour_wins = 0usize;
        let mut cells_checked = 0usize;
        for s in strategies {
            let policies = s.get("policies").and_then(Value::as_array).unwrap();
            assert_eq!(policies.len(), 4);
            // Baseline first, keyed per scheme.
            let drop_block = &policies[0];
            assert_eq!(drop_block.get("policy").and_then(Value::as_str), Some("drop"));
            let drop_fracs: Vec<f64> = drop_block
                .get("schemes")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|c| {
                    c.get("eval")
                        .and_then(|e| e.get("delivered_fraction"))
                        .and_then(Value::as_f64)
                        .unwrap()
                })
                .collect();
            for p in &policies[1..] {
                for (i, c) in p.get("schemes").and_then(Value::as_array).unwrap().iter().enumerate()
                {
                    let frac = c
                        .get("eval")
                        .and_then(|e| e.get("delivered_fraction"))
                        .and_then(Value::as_f64)
                        .unwrap();
                    assert!(
                        frac >= drop_fracs[i] - 1e-12,
                        "recovery below Drop baseline: {frac} < {}",
                        drop_fracs[i]
                    );
                    cells_checked += 1;
                    if frac > drop_fracs[i] + 1e-12 {
                        detour_wins += 1;
                    }
                }
            }
            // The serialized timeline reproduces the schedule exactly.
            let tl = FaultTimeline::from_json(s.get("timeline").unwrap()).expect("round trip");
            assert_eq!(tl.to_json(), *s.get("timeline").unwrap());
        }
        assert!(cells_checked > 0);
        assert!(
            detour_wins * 2 > cells_checked,
            "recovery policies must beat Drop in most cells ({detour_wins}/{cells_checked})"
        );

        // Chaos campaigns: present per policy, plans round-trip, and the
        // recorded loss is consistent with a re-evaluation.
        let chaos = doc.get("chaos").expect("chaos section");
        let campaigns = chaos.get("campaigns").and_then(Value::as_array).unwrap();
        assert_eq!(campaigns.len(), 4);
        for c in campaigns {
            let plan = FaultPlan::from_json(c.get("plan").unwrap()).expect("plan round trip");
            assert_eq!(plan.to_json(), *c.get("plan").unwrap());
        }
        // The baseline (Drop) campaign must do at least as much damage as
        // any recovering policy's campaign — recovery can only reduce the
        // adversary's best case.
        let lost: Vec<u64> =
            campaigns.iter().map(|c| c.get("lost").and_then(Value::as_u64).unwrap()).collect();
        assert!(
            lost[1..].iter().all(|&l| l <= lost[0]),
            "chaos under recovery beat Drop: {lost:?}"
        );

        // Recovery decisions were traced.
        let Telemetry { tracer, registry, flight } = tel;
        let flight = flight.into_inner();
        let log = tracer.finish();
        assert!(log.events.iter().any(|e| e.name == "recovery-detour"));
        assert!(log.events.iter().any(|e| e.name == "chaos-campaign"));

        // ... and metered: every intervention kind traced also has a
        // registry counter, and delivered + lost covers every *attempted*
        // pair of the grid (dead-endpoint pairs are skipped by the eval,
        // so the total is bounded by 3 strategies × 4 policies × 4
        // schemes × 150 pairs).
        let snap = registry.snapshot();
        assert!(snap.counter("recovery-detour").unwrap_or(0) > 0);
        let delivered = snap.counter("recovery.delivered").unwrap_or(0);
        let lost = snap.counter("recovery.lost").unwrap_or(0);
        assert!(delivered > 0 && lost > 0, "delivered={delivered} lost={lost}");
        assert!(delivered + lost <= 3 * 4 * 4 * 150);

        // The flight ring kept the last deliveries and flagged losses.
        assert_eq!(flight.len(), 16);
        assert!(flight.anomalies() > 0, "20% faults must lose something");
        assert!(flight.records().any(|r| !r.recoveries.is_empty()));
    }

    #[test]
    fn recovery_run_is_deterministic() {
        let run = || {
            let cache = MetricCache::new(1);
            let (_, _, doc) =
                run_recovery(&cache, 36, Eps::one_over(8), 60, 0.2, 7, &Telemetry::off());
            doc.to_string()
        };
        assert_eq!(run(), run());
    }
}

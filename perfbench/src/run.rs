//! One benchmark run: generate the inputs, then interleave setups,
//! serving passes and churn cycles within the run's time budget, check
//! every output, and summarise.

use std::collections::BTreeMap;

use obs::alloc;

use crate::churn::{self, Tally, UnitCost};
use crate::estimate::{median, quantile, rank_quantile, BestOf};
use crate::host::{PhaseClock, PhaseStat};
use crate::serve::{self, Check, Resolved};
use crate::setup::{self, SetupRun, Tables};
use crate::workload::{self, Inputs, Spec, SCHEMES, SLICE};

/// Route segment labels reported as `route.hops.<label>`.
pub const SEGMENTS: [&str; 7] =
    ["ring-walk", "to-center", "tree-search", "to-target", "zoom", "search", "final"];

/// Every `K`-th checked stream route also goes through `Route::verify`.
const VERIFY_EVERY: usize = 8;

const MIB: f64 = 1024.0 * 1024.0;

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the traffic (streams, batches, audit pairs).
    pub seed: u64,
    /// Time budget of the timed phases, split by the workload's shares.
    pub seconds: f64,
    /// Emit the per-layer metrics (and trace every other setup) instead
    /// of the end-to-end metrics.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: setups, served queries (every replay),
    /// differential checks, churn batches, plane epoch checks and audits.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable diagnostics (estimator inputs, host figures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.metrics.is_empty()
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if count > 0 && self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    fn absorb(&mut self, check: &Check, what: &str) {
        self.attempted += check.queries;
        self.fail(check.failures, || {
            format!("{what}: {}", check.first_failure.clone().unwrap_or_default())
        });
    }
}

const SETUP: usize = 0;
const SERVE: usize = 1;
const PHASES: [&str; 3] = ["setup", "serve", "churn"];

/// Decides which phase runs its next unit (a setup, a serving pass, a
/// churn cycle). Phases are interleaved — the one furthest behind its
/// share of the budget goes next — so each phase's replays are spread
/// over the whole run instead of sharing one stretch of host weather.
struct Schedule {
    budget: [f64; 3],
    min: [usize; 3],
    done: [usize; 3],
    host: [PhaseStat; 3],
    last: [f64; 3],
}

impl Schedule {
    fn new(spec: &Spec, opts: &Options) -> Self {
        Schedule {
            budget: spec.shares.map(|s| s * opts.seconds),
            min: [if opts.trace { 2 } else { 3 }, 2, 2],
            done: [0; 3],
            host: [PhaseStat::default(); 3],
            last: [0.0; 3],
        }
    }

    /// The next phase to run, or `None` when every phase has used its
    /// budget and run its minimum number of units. A phase may start
    /// another unit while that unit, if it costs what the last one did,
    /// would end at most half a unit past the phase's budget.
    fn next(&self, have_tables: bool) -> Option<usize> {
        if !have_tables {
            return Some(SETUP);
        }
        let behind = |p: usize| (self.host[p].wall_s + 1e-9) / (self.budget[p] + 1e-9);
        (0..3)
            .filter(|&p| {
                self.done[p] < self.min[p]
                    || self.host[p].wall_s + self.last[p] / 2.0 <= self.budget[p]
            })
            .min_by(|&a, &b| behind(a).total_cmp(&behind(b)))
    }

    fn record(&mut self, phase: usize, stat: PhaseStat) {
        self.done[phase] += 1;
        self.last[phase] = stat.wall_s;
        let h = &mut self.host[phase];
        h.wall_s += stat.wall_s;
        h.on_cpu_s += stat.on_cpu_s;
        h.wait_s += stat.wait_s;
    }
}

/// Serving passes over the stream, cut into [`SLICE`]-query slices.
struct Serving {
    resolved: Vec<Resolved>,
    slices: BestOf,
    /// Per-query samples of each slice's fastest pass (ns).
    best_lat: Vec<u32>,
    lat: Vec<u32>,
    digests: Vec<u64>,
    allocs_per_query: f64,
    alloc_bytes_per_query: f64,
    check: Check,
}

impl Serving {
    fn new(stream_len: usize) -> Self {
        Serving {
            resolved: Vec::new(),
            slices: BestOf::default(),
            best_lat: vec![0; stream_len],
            lat: vec![0; SLICE],
            digests: Vec::new(),
            allocs_per_query: 0.0,
            alloc_bytes_per_query: 0.0,
            check: Check::default(),
        }
    }

    /// One timed pass; each slice keeps its fastest pass's samples.
    fn pass(&mut self, out: &mut Outcome, t: &Tables, inputs: &Inputs) {
        if self.resolved.is_empty() {
            // Labels and names are deterministic, so every setup resolves
            // the stream identically; resolve once, untimed.
            self.resolved = serve::resolve(t, &inputs.naming, &inputs.stream);
        }
        let first = self.digests.is_empty();
        let (a0, b0) = (alloc::allocation_count(), alloc::allocated_bytes());
        for (s, queries) in self.resolved.chunks_exact(SLICE).enumerate() {
            let r = serve::time_slice(t, queries, &mut self.lat);
            out.attempted += SLICE as u64;
            out.fail(r.errors, || format!("serve: slice {s}: {} route errors", r.errors));
            match self.digests.get(s) {
                None => self.digests.push(r.digest),
                Some(&d) => out
                    .fail(u64::from(d != r.digest), || format!("serve: slice {s} replay differs")),
            }
            if self.slices.record(s, r.ns as f64) {
                self.best_lat[s * SLICE..(s + 1) * SLICE].copy_from_slice(&self.lat);
            }
        }
        if first {
            let queries = self.resolved.len() as f64;
            self.allocs_per_query = (alloc::allocation_count() - a0) as f64 / queries;
            self.alloc_bytes_per_query = (alloc::allocated_bytes() - b0) as f64 / queries;
        }
    }
}

/// Exact latency quantiles of the per-query samples of each slice's
/// fastest pass, with how many samples lie beyond each.
struct Latency {
    samples: usize,
    p50: (u32, usize),
    p99: (u32, usize),
}

impl Latency {
    fn of(samples: &[u32]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Latency {
            samples: sorted.len(),
            p50: rank_quantile(&sorted, 0.50),
            p99: rank_quantile(&sorted, 0.99),
        }
    }
}

/// Churn cycles: every unit's batch, recompile and (after rejoins) slice.
struct Churning {
    costs: Vec<Vec<UnitCost>>,
    slices: BestOf,
    slice_queries: usize,
    lat: Vec<u32>,
    digests: Vec<Option<u64>>,
    tally: Tally,
    /// The tally after the first cycle: counts that do not grow with the
    /// number of cycles a run had time for.
    first_cycle: Tally,
    cycles: usize,
}

impl Churning {
    fn new(units: usize) -> Self {
        Churning {
            costs: vec![Vec::new(); units],
            slices: BestOf::default(),
            slice_queries: 0,
            lat: vec![0; SLICE],
            digests: vec![None; units],
            tally: Tally::default(),
            first_cycle: Tally::default(),
            cycles: 0,
        }
    }

    /// One leave → rejoin cycle; `false` if a unit failed (the tables are
    /// then in an unknown state and the run stops churning).
    fn cycle(
        &mut self,
        out: &mut Outcome,
        t: &mut Tables,
        inputs: &Inputs,
        start_bits: [u64; 4],
    ) -> bool {
        for (u, unit) in inputs.units.iter().enumerate() {
            out.attempted += 8; // four batches, four fresh-plane epoch checks
            match churn::apply_unit(t, &inputs.naming, unit, &mut self.tally) {
                Ok(cost) => self.costs[u].push(cost),
                Err(e) => {
                    out.fail(1, || format!("churn unit {u}: {e}"));
                    return false;
                }
            }
            if unit.slice.is_empty() {
                continue;
            }
            let resolved = serve::resolve(t, &inputs.naming, &unit.slice);
            let r = serve::time_slice(t, &resolved, &mut self.lat);
            out.attempted += resolved.len() as u64;
            out.fail(r.errors, || format!("churn slice {u}: {} route errors", r.errors));
            // Only rejoin units (odd indices) serve a slice.
            self.slices.record(u / 2, r.ns as f64);
            self.slice_queries = resolved.len();
            match self.digests[u] {
                None => {
                    self.digests[u] = Some(r.digest);
                    let check = serve::differential(t, &inputs.naming, &unit.slice, &resolved, 1);
                    out.absorb(&check, "churn differential");
                }
                Some(d) => {
                    out.fail(u64::from(d != r.digest), || format!("churn slice {u} replay differs"))
                }
            }
        }
        self.cycles += 1;
        if self.cycles == 1 {
            self.first_cycle = self.tally.clone();
        }
        out.attempted += 1;
        out.fail(u64::from(t.planes.bits() != start_bits), || {
            "churn cycle did not return the planes to their starting size".into()
        });
        true
    }

    /// Per unit index, the sum over `part`'s four components of each
    /// component's fastest replay (seconds); then the median over units.
    fn median_unit(&self, part: impl Fn(&UnitCost) -> [f64; 4]) -> f64 {
        let per_unit: Vec<f64> = self
            .costs
            .iter()
            .filter(|replays| !replays.is_empty())
            .map(|replays| {
                (0..4)
                    .map(|k| replays.iter().map(|c| part(c)[k]).fold(f64::INFINITY, f64::min))
                    .sum()
            })
            .collect();
        median(&per_unit)
    }

    fn update_s(&self) -> f64 {
        self.median_unit(|c| [0, 1, 2, 3].map(|k| c.apply_s[k] + c.compile_s[k]))
    }
}

/// The fastest replay of each setup component (metric build, four
/// constructors, four compiles), summed over the runs in `runs`.
fn setup_estimate(runs: &[&SetupRun]) -> f64 {
    let fastest =
        |f: &dyn Fn(&SetupRun) -> f64| runs.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min);
    fastest(&|s| s.metric_s)
        + (0..4).map(|k| fastest(&|s| s.build_s[k]) + fastest(&|s| s.compile_s[k])).sum::<f64>()
}

/// Runs `spec` once.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let inputs = workload::generate(spec, opts.seed);
    let mut schedule = Schedule::new(spec, opts);
    let mut setups: Vec<SetupRun> = Vec::new();
    let mut serving = Serving::new(inputs.stream.len());
    let mut churning = Churning::new(inputs.units.len());
    let mut tables: Option<Tables> = None;
    let mut start_bits = [0u64; 4];

    while let Some(phase) = schedule.next(tables.is_some()) {
        let clock = PhaseClock::start();
        match phase {
            SETUP => {
                drop(tables.take());
                let traced = opts.trace && setups.len().is_multiple_of(2);
                out.attempted += 1;
                match setup::build(&inputs.graph, &inputs.naming, traced) {
                    Ok((t, r)) => {
                        start_bits = t.planes.bits();
                        tables = Some(t);
                        setups.push(r);
                    }
                    Err(e) => {
                        out.fail(1, || format!("setup: {e}"));
                        return out;
                    }
                }
            }
            SERVE => serving.pass(&mut out, tables.as_ref().expect("set up first"), &inputs),
            _churn => {
                let t = tables.as_mut().expect("set up first");
                if !churning.cycle(&mut out, t, &inputs, start_bits) {
                    return out;
                }
            }
        }
        schedule.record(phase, clock.stop());
    }
    let t = tables.expect("at least one setup ran");
    serving.check =
        serve::differential(&t, &inputs.naming, &inputs.stream, &serving.resolved, VERIFY_EVERY);
    out.absorb(&serving.check, "serve differential");
    let tally = &churning.tally;
    out.attempted += tally.audits + tally.stale_refusals + tally.stale_accepted;
    out.fail(tally.audit_failures, || {
        format!("churn: {} spot audits failed", tally.audit_failures)
    });
    out.fail(tally.stale_accepted, || {
        format!("churn: {} stale planes accepted", tally.stale_accepted)
    });

    let lat = Latency::of(&serving.best_lat);
    notes(&mut out, &schedule, &setups, &serving, &lat, &churning);
    let traced: Vec<&SetupRun> = setups.iter().step_by(2).collect();
    let plain: Vec<&SetupRun> = if opts.trace {
        setups.iter().skip(1).step_by(2).collect()
    } else {
        setups.iter().collect()
    };
    if opts.trace {
        per_layer(&mut out, &t, &inputs, &traced, &plain, &serving, &churning);
        let wait_s: f64 = schedule.host.iter().map(|h| h.wait_s).sum();
        out.push("host.rq_wait_ms", wait_s * 1e3, "ms");
        out.push("host.unit_spread", serving.slices.q3_over_q1(), "ratio");
        out.push("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    } else {
        end_to_end(&mut out, &t, &plain, &serving, &lat, &churning);
    }
    out
}

fn end_to_end(
    out: &mut Outcome,
    t: &Tables,
    setups: &[&SetupRun],
    serving: &Serving,
    lat: &Latency,
    churning: &Churning,
) {
    let best_s: f64 = serving.slices.best().iter().sum::<f64>() / 1e9;
    out.push("setup_s", setup_estimate(setups), "s");
    out.push("setup_peak_mib", setups[0].peak_bytes as f64 / MIB, "MiB");
    out.push("plane_mib", t.planes.bits().iter().sum::<u64>() as f64 / 8.0 / MIB, "MiB");
    out.push("serve_resident_mib", setups[0].resident_bytes as f64 / MIB, "MiB");
    out.push("serve_qps", lat.samples as f64 / best_s, "q/s");
    out.push("lat_p50_us", lat.p50.0 as f64 / 1e3, "us");
    out.push("lat_p99_us", lat.p99.0 as f64 / 1e3, "us");
    let check = &serving.check;
    out.push("stretch_mean", check.stretch_sum / check.queries.max(1) as f64, "ratio");
    out.push("update_ms", churning.update_s() * 1e3, "ms");
}

fn per_layer(
    out: &mut Outcome,
    t: &Tables,
    inputs: &Inputs,
    traced: &[&SetupRun],
    plain: &[&SetupRun],
    serving: &Serving,
    churning: &Churning,
) {
    // Per-layer setup times: each layer's fastest traced replay, the same
    // estimator as `setup_s`, so the layers add up to it.
    let fastest =
        |f: &dyn Fn(&SetupRun) -> f64| traced.iter().map(|s| f(s)).fold(f64::INFINITY, f64::min);
    let span =
        |names: &[&str]| fastest(&|s| names.iter().map(|n| s.span_us(n)).sum::<u64>() as f64 / 1e6);
    out.push("metric.apsp_s", fastest(&|s| s.apsp_s), "s");
    out.push("metric.rows_s", fastest(&|s| s.rows_s), "s");
    out.push("metric.rows_mib", traced[0].metric_bytes as f64 / MIB, "MiB");
    out.push("nets.hierarchy_s", span(&["net-hierarchy"]), "s");
    out.push("labeled.rings_s", span(&["ring-build"]), "s");
    out.push("labeled.packing_s", span(&["ball-packing"]), "s");
    out.push("labeled.voronoi_trees_s", span(&["voronoi-trees"]), "s");
    out.push("searchtree.build_s", span(&["search-tree-build", "btree-build"]), "s");
    // The round schedule is O(1) to build (its span reads 0 µs), so the
    // layer reports its work as a count: rounds of both NI schemes.
    let rounds = t.sni.scheme().rounds().count() + t.sfni.scheme().rounds().count();
    out.push("nameind.rounds", rounds as f64, "count");
    out.push("nameind.facility_s", span(&["facility-build"]), "s");
    out.push("tables.assembly_s", span(&["table-assembly"]), "s");
    for (k, name) in SCHEMES.iter().enumerate() {
        out.push(format!("build_s.{name}"), fastest(&|s| s.build_s[k]), "s");
    }
    out.push("setup.alloc_count", traced[0].allocs as f64, "count");
    out.push("setup.alloc_gib", traced[0].alloc_bytes as f64 / (MIB * 1024.0), "GiB");
    // How much of the constructors' time their own spans account for.
    let coverage: Vec<f64> =
        traced.iter().map(|s| s.top_span_us as f64 / 1e6 / s.build_s.iter().sum::<f64>()).collect();
    out.push("setup.span_coverage", median(&coverage), "ratio");
    out.push("trace.setup_overhead_ratio", setup_estimate(traced) / setup_estimate(plain), "ratio");
    let bits = t.planes.bits();
    for (k, name) in SCHEMES.iter().enumerate() {
        out.push(format!("plane.compile_s.{name}"), fastest(&|s| s.compile_s[k]), "s");
        out.push(format!("plane.bits.{name}"), bits[k] as f64, "bits");
    }

    // Serving, from each slice's fastest pass and the differential check.
    let check = &serving.check;
    let mut ns: BTreeMap<(usize, bool), (f64, f64)> = BTreeMap::new();
    let (mut hops, mut queries, mut time) = ([0f64; 4], [0f64; 4], [0f64; 4]);
    for ((q, &lat), &h) in inputs.stream.iter().zip(&serving.best_lat).zip(&check.hops) {
        let e = ns.entry((q.scheme, q.named)).or_default();
        e.0 += lat as f64;
        e.1 += 1.0;
        hops[q.scheme] += h as f64;
        queries[q.scheme] += 1.0;
        time[q.scheme] += lat as f64;
    }
    for (k, name) in SCHEMES.iter().enumerate() {
        for (named, ingress) in [(false, "label"), (true, "name")] {
            let (sum, count) = ns.get(&(k, named)).copied().unwrap_or_default();
            out.push(format!("serve.ns_per_query.{name}.{ingress}"), sum / count.max(1.0), "ns");
        }
        out.push(format!("serve.ns_per_hop.{name}"), time[k] / hops[k].max(1.0), "ns");
        out.push(format!("serve.hops_per_query.{name}"), hops[k] / queries[k].max(1.0), "count");
    }
    for label in SEGMENTS {
        let h = check.segment_hops.iter().find(|(l, _)| *l == label).map_or(0, |&(_, h)| h);
        out.push(format!("route.hops.{label}"), h as f64, "count");
    }
    out.push("serve.allocs_per_query", serving.allocs_per_query, "count");
    out.push("serve.alloc_bytes_per_query", serving.alloc_bytes_per_query, "bytes");
    let churn_ns: f64 = churning.slices.best().iter().sum();
    let churn_queries = (churning.slices.best().len() * churning.slice_queries).max(1) as f64;
    out.push("churn.serve_ns_per_query", churn_ns / churn_queries, "ns");

    // Maintenance and audits; counts are over the first cycle.
    let first = &churning.first_cycle;
    let repair = |c: &UnitCost| [0, 1, 2, 3].map(|k| c.apply_s[k] - c.audit_s[k]);
    out.push("maintain.repair_ms", churning.median_unit(repair) * 1e3, "ms");
    out.push("maintain.recompile_ms", churning.median_unit(|c| c.compile_s) * 1e3, "ms");
    out.push("maintain.blast_fraction", first.blast_sum / first.batches.max(1) as f64, "ratio");
    out.push("maintain.fallbacks", first.fallbacks as f64, "count");
    out.push("maintain.stale_refusals", first.stale_refusals as f64, "count");
    out.push("conform.audit_ms", churning.median_unit(|c| c.audit_s) * 1e3, "ms");
    out.push("conform.audit_failures", first.audit_failures as f64, "count");
}

fn notes(
    out: &mut Outcome,
    schedule: &Schedule,
    setups: &[SetupRun],
    serving: &Serving,
    lat: &Latency,
    churning: &Churning,
) {
    for (p, name) in PHASES.iter().enumerate() {
        let h = &schedule.host[p];
        out.notes.push(format!(
            "phase {name}: {} units, wall {:.3} s, on-cpu {:.3} s, run-queue wait {:.1} ms",
            schedule.done[p],
            h.wall_s,
            h.on_cpu_s,
            h.wait_s * 1e3
        ));
    }
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    out.notes.push(format!(
        "setup s: fastest-component sum {:.4}; whole setups min {:.4} median {:.4} q1 {:.4} q3 {:.4} over {}",
        setup_estimate(&setups.iter().collect::<Vec<_>>()),
        totals.iter().copied().fold(f64::INFINITY, f64::min),
        median(&totals),
        quantile(&totals, 0.25),
        quantile(&totals, 0.75),
        totals.len()
    ));
    out.notes.push(format!("serve ns per {SLICE}-query slice: {}", serving.slices.spread_note()));
    out.notes.push(format!(
        "latency from {} samples: p50 {} ns ({} beyond), p99 {} ns ({} beyond)",
        lat.samples, lat.p50.0, lat.p50.1, lat.p99.0, lat.p99.1
    ));
    let mut by_unit = BestOf::default();
    for (u, replays) in churning.costs.iter().enumerate() {
        for c in replays {
            by_unit.record(u, c.apply_s.iter().chain(&c.compile_s).sum());
        }
    }
    out.notes.push(format!(
        "update s per batch ({} cycles): {}",
        churning.cycles,
        by_unit.spread_note()
    ));
}

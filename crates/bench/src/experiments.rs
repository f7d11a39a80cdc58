//! Experiment runners. Every function is deterministic given its
//! arguments (seeded generators, seeded pair samples) and returns
//! `(headers, rows)` ready for [`crate::table::print_table`].
//!
//! All runners draw their metrics from a shared [`MetricCache`], so a
//! binary that runs several experiments over the same `(family, n, seed)`
//! builds each `Θ(n²)` metric exactly once; the metric builds and scheme
//! constructions land as spans on the run's [`Telemetry`] tracer.

use doubling_metric::graph::NodeId;
use doubling_metric::{doubling, gen, Eps, MetricSpace};
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use lowerbound::{game, LbParams, LowerBoundTree};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::baseline::FullTable;
use netsim::scheme::{Deliver, Labeled, LabeledScheme, NameIndependentScheme, Named};
use netsim::stats::{eval, sample_pairs, sampled_stretch, EvalResult, StretchQuantiles};
use netsim::Naming;
use obs::Telemetry;

use crate::cache::MetricCache;
use crate::schemes::{self, Built};
use crate::table::f2;

/// Result-row helper: one evaluated scheme on one graph.
fn eval_row(family: &str, n: usize, res: &EvalResult, label_bits: Option<u64>) -> Vec<String> {
    let mut row = vec![
        family.to_string(),
        n.to_string(),
        res.scheme.to_string(),
        f2(res.max_stretch),
        f2(res.avg_stretch),
        res.max_table_bits.to_string(),
        f2(res.avg_table_bits),
        res.max_header_bits.to_string(),
    ];
    if let Some(lb) = label_bits {
        row.push(lb.to_string());
    }
    if res.failures > 0 {
        row.push(format!("FAILURES={}", res.failures));
    }
    if res.understretch > 0 {
        // A sub-1 stretch means the recorder under-charged a route — a
        // harness bug worth shouting about, never silently clamped.
        row.push(format!("UNDERSTRETCH={}", res.understretch));
    }
    row
}

/// One Table 1 / Table 2 row: `d` evaluated over `pairs`, plus the 95% CI
/// half-width of the sampled mean stretch when `with_ci`.
fn table_row(
    family: &str,
    m: &MetricSpace,
    d: &dyn Deliver,
    pairs: &[(NodeId, NodeId)],
    with_ci: bool,
) -> Vec<String> {
    let mut row = eval_row(family, m.n(), &eval(d, m, pairs, 1, |_, _, _| {}), d.label_bits());
    if with_ci {
        row.push(f2(sampled_stretch(d, m, m, pairs, |_, _, _| {}).ci_half_width));
    }
    row
}

/// The graph families Table 1 / Table 2 sweep over.
pub fn table_families() -> Vec<gen::Family> {
    vec![
        gen::Family::Grid,
        gen::Family::GridHoles,
        gen::Family::Geometric,
        gen::Family::Tree,
        gen::Family::ExpPath,
    ]
}

/// Above this n, Table 1 / Table 2 append a 95% CI half-width column on
/// the sampled mean stretch. Below it, the sample covers a large enough
/// fraction of the n² ordered pairs that the historical columns stand on
/// their own, and the output stays byte-identical to earlier releases.
pub const CI_WALL: usize = 1000;

/// **Table 1** — name-independent schemes: stretch, table bits, header
/// bits, across graph families (plus the full-table baseline row). Above
/// [`CI_WALL`] nodes every row gains an `avg-ci95` column: the 95%
/// confidence half-width of the sampled mean stretch from
/// [`netsim::stats::SampledStretch`].
pub fn run_table1(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    pairs_per_graph: usize,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    run_table(cache, n, eps, pairs_per_graph, seed, CI_WALL, false, tel)
}

/// **Table 2** — labeled schemes: stretch, table bits, label bits, header
/// bits, across graph families. Above [`CI_WALL`] nodes every row gains an
/// `avg-ci95` column; see [`run_table1`].
pub fn run_table2(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    pairs_per_graph: usize,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    run_table(cache, n, eps, pairs_per_graph, seed, CI_WALL, true, tel)
}

/// Table 2 when `labeled`, else Table 1: the two compact schemes of that
/// model plus the full-table baseline, addressed by label or by name, with
/// the CI column above `ci_wall` nodes.
#[allow(clippy::too_many_arguments)]
fn run_table(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    pairs_per_graph: usize,
    seed: u64,
    ci_wall: usize,
    labeled: bool,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let mut headers = vec![
        "family",
        "n",
        "scheme",
        "max-stretch",
        "avg-stretch",
        "max-table(b)",
        "avg-table(b)",
        "header(b)",
    ];
    if labeled {
        headers.push("label(b)");
    }
    let with_ci = n > ci_wall;
    if with_ci {
        headers.push("avg-ci95");
    }
    let first = if labeled { 0 } else { 2 };
    let mut rows = Vec::new();
    for f in table_families() {
        let m = cache.family_traced(f, n, seed, &tel.tracer);
        let naming = Naming::random(m.n(), seed ^ 0xA5);
        let pairs = sample_pairs(m.n(), pairs_per_graph, seed ^ 0x5A);
        let built: Vec<Built> =
            (first..first + 2).map(|i| Built::new(i, &m, eps, &naming, &tel.tracer)).collect();
        let full = FullTable::with_naming(&m, naming.clone());
        let mut schemes: Vec<Box<dyn Deliver + '_>> =
            built.iter().map(|b| b.seam() as Box<dyn Deliver>).collect();
        schemes.push(if labeled {
            Box::new(Labeled(&full))
        } else {
            Box::new(Named(&full, &naming))
        });
        for d in &schemes {
            rows.push(table_row(f.name(), &m, &**d, &pairs, with_ci));
        }
    }
    (headers, rows)
}

/// **Figure 1** — anatomy of name-independent routes, bucketed by the
/// search round at which the destination's label was found: counts, mean
/// distance, and the zoom/search/final cost split.
pub fn run_fig1(
    cache: &MetricCache,
    n: usize,
    eps: Eps,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "family",
        "round",
        "routes",
        "avg-d(u,v)",
        "avg-zoom",
        "avg-search",
        "avg-final",
        "avg-stretch",
    ];
    let mut rows = Vec::new();
    for f in [gen::Family::Grid, gen::Family::Geometric] {
        let m = cache.family_traced(f, n, seed, &tel.tracer);
        let naming = Naming::random(m.n(), seed ^ 0xA5);
        let s = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps ok");
        // Buckets keyed by the final round (level of the "final" segment).
        let mut buckets: std::collections::BTreeMap<u32, (usize, f64, f64, f64, f64, f64)> =
            std::collections::BTreeMap::new();
        for (u, v) in sample_pairs(m.n(), 400, seed ^ 0x77) {
            let r = s.route(&m, u, naming.name_of(v)).expect("delivers");
            let round = r
                .segments
                .iter()
                .rev()
                .find(|sg| sg.label == "final")
                .and_then(|sg| sg.level)
                .unwrap_or(0);
            let mut zoom = 0f64;
            let mut search = 0f64;
            let mut fin = 0f64;
            for sg in &r.segments {
                match sg.label {
                    "zoom" => zoom += sg.cost as f64,
                    "search" => search += sg.cost as f64,
                    "final" => fin += sg.cost as f64,
                    _ => {}
                }
            }
            let e = buckets.entry(round).or_insert((0, 0.0, 0.0, 0.0, 0.0, 0.0));
            e.0 += 1;
            e.1 += m.dist(u, v) as f64;
            e.2 += zoom;
            e.3 += search;
            e.4 += fin;
            e.5 += r.stretch(&m);
        }
        for (round, (c, d, z, sch, fin, st)) in buckets {
            let cf = c as f64;
            rows.push(vec![
                f.name().to_string(),
                round.to_string(),
                c.to_string(),
                f2(d / cf),
                f2(z / cf),
                f2(sch / cf),
                f2(fin / cf),
                f2(st / cf),
            ]);
        }
    }
    (headers, rows)
}

/// **Figure 2** — anatomy of scale-free labeled routes: cost split between
/// the greedy ring walk and the three packing phases, bucketed by whether
/// the packing machinery engaged.
pub fn run_fig2(
    cache: &MetricCache,
    eps: Eps,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "family",
        "phase-mix",
        "routes",
        "avg-d(u,v)",
        "avg-ring-walk",
        "avg-to-center",
        "avg-tree-search",
        "avg-to-target",
        "avg-stretch",
    ];
    let mut rows = Vec::new();
    for (name, m) in [
        ("grid", cache.family_traced(gen::Family::Grid, 144, seed, &tel.tracer)),
        (
            "exp-path",
            cache.get_or_build_traced("exp-path", 48, 0, &tel.tracer, || gen::exp_weight_path(48)),
        ),
    ] {
        let s = ScaleFreeLabeled::new(&m, eps).expect("eps ok");
        let mut agg: std::collections::BTreeMap<&str, (usize, f64, [f64; 4], f64)> =
            std::collections::BTreeMap::new();
        for (u, v) in sample_pairs(m.n(), 400, seed ^ 0x33) {
            let r = s.route(&m, u, s.label_of(v)).expect("delivers");
            let mut parts = [0f64; 4]; // ring-walk, to-center, tree-search, to-target
            for sg in &r.segments {
                let idx = match sg.label {
                    "ring-walk" => 0,
                    "to-center" => 1,
                    "tree-search" => 2,
                    "to-target" => 3,
                    _ => continue,
                };
                parts[idx] += sg.cost as f64;
            }
            let mix = if parts[1] + parts[2] + parts[3] > 0.0 { "packing" } else { "greedy-only" };
            let e = agg.entry(mix).or_insert((0, 0.0, [0.0; 4], 0.0));
            e.0 += 1;
            e.1 += m.dist(u, v) as f64;
            for (acc, p) in e.2.iter_mut().zip(parts) {
                *acc += p;
            }
            e.3 += r.stretch(&m);
        }
        for (mix, (c, d, parts, st)) in agg {
            let cf = c as f64;
            rows.push(vec![
                name.to_string(),
                mix.to_string(),
                c.to_string(),
                f2(d / cf),
                f2(parts[0] / cf),
                f2(parts[1] / cf),
                f2(parts[2] / cf),
                f2(parts[3] / cf),
                f2(st / cf),
            ]);
        }
    }
    (headers, rows)
}

/// **Figure 3 / Theorem 1.3** — the lower-bound construction: parameters,
/// measured doubling constant vs Lemma 5.8, measured Δ vs the theorem's
/// envelope, and the search-game stretch (oblivious / optimized / 9−ε).
pub fn run_fig3(
    cache: &MetricCache,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "eps",
        "p",
        "q",
        "c=pq",
        "nodes",
        "alpha-est",
        "alpha-bound",
        "log2(delta)",
        "log2(envelope)",
        "oblivious",
        "optimized",
        "9-eps",
    ];
    let mut rows = Vec::new();
    for &eps in &[2u64, 4, 6] {
        let params = LbParams::from_eps(eps, 1);
        // Structure/game tree at a generous size; metric checks on a small
        // materialization (Θ(n²) memory).
        let big = LowerBoundTree::new(params, 1 << 16);
        let small = LowerBoundTree::new(params, 256);
        let m = cache.get_or_build_traced("lb-tree", 256, eps, &tel.tracer, || small.to_graph());
        let est = doubling::estimate(&m, Some(24));
        let alpha_bound = 6.0 - (eps as f64).log2();

        let oblivious = game::worst_case_stretch(&big, &game::increasing_weight_order(&big)).0;
        let optimized = game::worst_case_stretch(&big, &game::optimize_order(&big, 4000, seed)).0;
        rows.push(vec![
            eps.to_string(),
            params.p.to_string(),
            params.q.to_string(),
            params.c().to_string(),
            big.total_nodes().to_string(),
            f2(est.dimension),
            f2(alpha_bound),
            f2((big.normalized_diameter() as f64).log2()),
            f2((big.delta_envelope() as f64).log2()),
            f2(oblivious),
            f2(optimized),
            f2(9.0 - eps as f64),
        ]);
    }
    (headers, rows)
}

/// **Figure 3, advice curve** — stretch of the search game as a function
/// of the advice bits β (the empirical face of the table-size/stretch
/// trade-off in Theorem 1.3).
pub fn run_fig3_advice(eps: u64) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["beta(bits)", "worst-stretch"];
    let params = LbParams::from_eps(eps, 1);
    let t = LowerBoundTree::new(params, 1 << 16);
    let order = game::increasing_weight_order(&t);
    let mut rows = Vec::new();
    for beta in [0u32, 1, 2, 3, 4, 6, 8, 10, 12] {
        rows.push(vec![beta.to_string(), f2(game::advice_stretch(&t, &order, beta))]);
    }
    (headers, rows)
}

/// **E1** — max/avg stretch vs ε for all four schemes on one graph.
pub fn run_sweep_eps(
    cache: &MetricCache,
    n: usize,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["eps", "scheme", "max-stretch", "avg-stretch", "bound"];
    let m = cache.family_traced(gen::Family::Grid, n, seed, &tel.tracer);
    let naming = Naming::random(m.n(), seed ^ 1);
    let pairs = sample_pairs(m.n(), 400, seed ^ 2);
    let mut rows = Vec::new();
    for k in [4u64, 8, 16, 32] {
        let eps = Eps::one_over(k);
        for (i, s) in Built::all(&m, eps, &naming).iter().enumerate() {
            let r = eval(&*s.seam(), &m, &pairs, 1, |_, _, _| {});
            rows.push(vec![
                eps.to_string(),
                r.scheme.into(),
                f2(r.max_stretch),
                f2(r.avg_stretch),
                if i < 2 { "1+O(eps)" } else { "9+O(eps)" }.into(),
            ]);
        }
    }
    (headers, rows)
}

/// **E2** — max table bits vs log Δ at (almost) fixed n: the scale-free
/// crossover. Compares the simple vs scale-free name-independent schemes
/// on unit paths (Δ = n) vs exponential paths (Δ = 2^n).
pub fn run_sweep_scale(
    cache: &MetricCache,
    eps: Eps,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "graph",
        "n",
        "log2(delta)",
        "simple-max-table(b)",
        "scale-free-max-table(b)",
        "ratio",
    ];
    let mut rows = Vec::new();
    let mut push = |name: &str, n: usize, build: fn(usize) -> doubling_metric::Graph| {
        let m = cache.get_or_build_traced(name, n, 0, &tel.tracer, || build(n));
        let naming = Naming::random(m.n(), seed);
        let si = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps ok");
        let sf = ScaleFreeNameIndependent::new(&m, eps, naming).expect("eps ok");
        let max_si = (0..m.n() as u32).map(|u| si.table_bits(u)).max().unwrap();
        let max_sf =
            (0..m.n() as u32).map(|u| NameIndependentScheme::table_bits(&sf, u)).max().unwrap();
        rows.push(vec![
            name.to_string(),
            m.n().to_string(),
            f2((m.diameter() as f64 / m.min_dist() as f64).log2()),
            max_si.to_string(),
            max_sf.to_string(),
            f2(max_si as f64 / max_sf as f64),
        ]);
    };
    for n in [16usize, 32, 48] {
        push("unit-path", n, gen::path);
        push("exp-path", n, gen::exp_weight_path);
    }
    (headers, rows)
}

/// **A1** — ring-table ablation: how many levels `R(u)` keeps vs the full
/// hierarchy, and the stretch cost of the pruning (NetLabeled stores all
/// levels; ScaleFreeLabeled prunes to R(u) + packing machinery).
pub fn run_ablation_rings(
    cache: &MetricCache,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec![
        "graph",
        "levels-total",
        "avg|R(u)|",
        "max|R(u)|",
        "all-levels-max-stretch",
        "pruned-max-stretch",
        "all-levels-max-table(b)",
        "pruned-max-table(b)",
    ];
    let eps = Eps::one_over(8);
    let mut rows = Vec::new();
    for (name, m) in [
        ("grid-144", cache.family_traced(gen::Family::Grid, 144, seed, &tel.tracer)),
        (
            "exp-path-40",
            cache.get_or_build_traced("exp-path", 40, 0, &tel.tracer, || gen::exp_weight_path(40)),
        ),
    ] {
        let pairs = sample_pairs(m.n(), 300, seed);
        let nl = NetLabeled::new(&m, eps).expect("eps ok");
        let sf = ScaleFreeLabeled::new(&m, eps).expect("eps ok");
        let rn = eval(&Labeled(&nl), &m, &pairs, 1, |_, _, _| {});
        let rs = eval(&Labeled(&sf), &m, &pairs, 1, |_, _, _| {});
        let ring_counts: Vec<usize> = (0..m.n() as u32).map(|u| sf.ring_levels(u).len()).collect();
        rows.push(vec![
            name.to_string(),
            m.num_scales().to_string(),
            f2(ring_counts.iter().sum::<usize>() as f64 / ring_counts.len() as f64),
            ring_counts.iter().max().unwrap().to_string(),
            f2(rn.max_stretch),
            f2(rs.max_stretch),
            rn.max_table_bits.to_string(),
            rs.max_table_bits.to_string(),
        ]);
    }
    (headers, rows)
}

/// **A2** — packing-reuse ablation: the fraction of (round, net point)
/// facilities served by `H(u,i)` links instead of private search trees,
/// and per-node link counts (Claim 3.9's regime).
pub fn run_ablation_packing(
    cache: &MetricCache,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers =
        vec!["graph", "link-fraction", "avg-links/node", "max-links/node", "max-table(b)"];
    let eps = Eps::one_over(4);
    let mut rows = Vec::new();
    for (name, m) in [
        ("grid-100", cache.family_traced(gen::Family::Grid, 100, seed, &tel.tracer)),
        ("geometric-100", cache.family_traced(gen::Family::Geometric, 100, seed, &tel.tracer)),
        (
            "exp-path-32",
            cache.get_or_build_traced("exp-path", 32, 0, &tel.tracer, || gen::exp_weight_path(32)),
        ),
    ] {
        let naming = Naming::random(m.n(), seed);
        let sf = ScaleFreeNameIndependent::new(&m, eps, naming).expect("eps ok");
        let links: Vec<usize> = (0..m.n() as u32).map(|u| sf.link_count(u)).collect();
        let max_table =
            (0..m.n() as u32).map(|u| NameIndependentScheme::table_bits(&sf, u)).max().unwrap();
        rows.push(vec![
            name.to_string(),
            f2(sf.link_fraction()),
            f2(links.iter().sum::<usize>() as f64 / links.len() as f64),
            links.iter().max().unwrap().to_string(),
            max_table.to_string(),
        ]);
    }
    (headers, rows)
}

/// **E3** — storage growth vs n on grids: compact (polylog) vs full-table
/// (`n·log n`) bits per node. Compactness is asymptotic; this measures the
/// growth-rate separation directly and lets the crossover be projected.
pub fn run_storage_growth(
    cache: &MetricCache,
    ns: &[usize],
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers =
        vec!["n", "full-table(b)", "sf-labeled max(b)", "sf-NI max(b)", "sfNI/full", "sfNI-growth"];
    let eps = Eps::one_over(8);
    let mut rows = Vec::new();
    let mut prev_sf: Option<f64> = None;
    for &n in ns {
        let m = cache.family_traced(gen::Family::Grid, n, seed, &tel.tracer);
        let naming = Naming::random(m.n(), seed);
        let full_bits = m.n() as u64 * netsim::bits::bits_for_count(m.n() as u64);
        let sfl = ScaleFreeLabeled::new(&m, eps).expect("eps ok");
        let sfl_max = (0..m.n() as u32).map(|u| sfl.table_bits(u)).max().unwrap();
        let sfni = ScaleFreeNameIndependent::new(&m, eps, naming).expect("eps ok");
        let sfni_max =
            (0..m.n() as u32).map(|u| NameIndependentScheme::table_bits(&sfni, u)).max().unwrap();
        let growth = prev_sf.map(|p| sfni_max as f64 / p);
        prev_sf = Some(sfni_max as f64);
        rows.push(vec![
            m.n().to_string(),
            full_bits.to_string(),
            sfl_max.to_string(),
            sfni_max.to_string(),
            f2(sfni_max as f64 / full_bits as f64),
            growth.map(f2).unwrap_or_else(|| "-".into()),
        ]);
    }
    (headers, rows)
}

/// **Q1 (open question)** — relaxed guarantees: the stretch *distribution*
/// of the name-independent schemes. The paper's conclusion asks whether
/// letting a small fraction of pairs exceed the bound buys better typical
/// stretch; the quantiles show how much headroom exists (p50 ≪ p99 ≪ max).
pub fn run_relaxed(
    cache: &MetricCache,
    n: usize,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let headers = vec!["family", "scheme", "eps", "p50", "p90", "p99", "max"];
    let mut rows = Vec::new();
    for f in [gen::Family::Grid, gen::Family::Geometric] {
        let m = cache.family_traced(f, n, seed, &tel.tracer);
        let naming = Naming::random(m.n(), seed ^ 9);
        let pairs = sample_pairs(m.n(), 500, seed ^ 5);
        for inv in [4u64, 8] {
            let eps = Eps::one_over(inv);
            for i in 2..schemes::COUNT {
                let s = Built::new(i, &m, eps, &naming, &tel.tracer);
                let mut stretches = Vec::with_capacity(pairs.len());
                eval(&*s.seam(), &m, &pairs, 1, |_, _, r| {
                    stretches.push(r.as_ref().expect("route must deliver").stretch(&m));
                });
                let q = StretchQuantiles::from_stretches(&stretches);
                rows.push(vec![
                    f.name().into(),
                    schemes::SHORT_NAMES[i].into(),
                    eps.to_string(),
                    f2(q.p50),
                    f2(q.p90),
                    f2(q.p99),
                    f2(q.max),
                ]);
            }
        }
    }
    (headers, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> MetricCache {
        MetricCache::new(1)
    }

    #[test]
    fn table1_produces_rows_for_every_family_and_scheme() {
        let (h, rows) = run_table1(&cache(), 36, Eps::one_over(8), 30, 3, &Telemetry::off());
        assert_eq!(h.len(), 8);
        assert_eq!(rows.len(), table_families().len() * 3);
        // No failure annotations.
        for r in &rows {
            assert!(!r.iter().any(|c| c.starts_with("FAILURES")), "row {r:?}");
        }
    }

    #[test]
    fn table2_produces_rows() {
        let (_, rows) = run_table2(&cache(), 36, Eps::one_over(8), 30, 3, &Telemetry::off());
        assert_eq!(rows.len(), table_families().len() * 3);
        for r in &rows {
            assert!(!r.iter().any(|c| c.starts_with("FAILURES")), "row {r:?}");
        }
    }

    #[test]
    fn tables_gain_a_ci_column_above_the_wall() {
        // Force the CI path by dropping the wall below n = 36.
        let (h1, rows1) =
            run_table(&cache(), 36, Eps::one_over(8), 30, 3, 10, false, &Telemetry::off());
        assert_eq!(*h1.last().unwrap(), "avg-ci95");
        let (h2, rows2) =
            run_table(&cache(), 36, Eps::one_over(8), 30, 3, 10, true, &Telemetry::off());
        assert_eq!(*h2.last().unwrap(), "avg-ci95");
        for r in rows1.iter().chain(&rows2) {
            let ci: f64 = r.last().unwrap().parse().expect("ci cell is numeric");
            assert!((0.0..10.0).contains(&ci), "implausible ci in {r:?}");
        }
        // The full-table baseline routes optimally: its CI collapses to 0.
        let full1 = rows1.iter().find(|r| r[2] == "full-table").unwrap();
        assert_eq!(full1.last().unwrap(), "0.00");
    }

    #[test]
    fn fig3_rows_respect_theorem_bounds() {
        let (_, rows) = run_fig3(&cache(), 7, &Telemetry::off());
        for r in &rows {
            let optimized: f64 = r[10].parse().unwrap();
            let bound: f64 = r[11].parse().unwrap();
            assert!(optimized >= bound, "game beat the lower bound: {r:?}");
            let alpha_est: f64 = r[5].parse().unwrap();
            let alpha_bound: f64 = r[6].parse().unwrap();
            // Greedy estimate may exceed the exact bound by a constant
            // factor in the exponent; must stay in the same ballpark.
            assert!(alpha_est <= alpha_bound + 2.0, "alpha off: {r:?}");
        }
    }

    #[test]
    fn experiments_share_metrics_through_the_cache() {
        let c = cache();
        run_table1(&c, 36, Eps::one_over(8), 10, 3, &Telemetry::off());
        let builds_after_t1 = c.stats().builds;
        assert_eq!(builds_after_t1, table_families().len() as u64);
        // Table 2 on the same (n, seed) must be served entirely from cache.
        run_table2(&c, 36, Eps::one_over(8), 10, 3, &Telemetry::off());
        assert_eq!(c.stats().builds, builds_after_t1);
        assert_eq!(c.stats().hits, table_families().len() as u64);
    }

    #[test]
    fn sweep_scale_shows_crossover() {
        let (_, rows) = run_sweep_scale(&cache(), Eps::one_over(4), 3, &Telemetry::off());
        // On exp-paths, the simple/scale-free ratio must exceed 1 and grow
        // with n; on unit paths it stays near or below ~1.5.
        let exp_ratios: Vec<f64> =
            rows.iter().filter(|r| r[0] == "exp-path").map(|r| r[5].parse().unwrap()).collect();
        assert!(exp_ratios.iter().all(|&x| x > 1.0), "{exp_ratios:?}");
        assert!(exp_ratios.windows(2).all(|w| w[1] >= w[0] * 0.9), "{exp_ratios:?}");
    }
}

//! Evaluation harness: run a scheme over a sample of source–destination
//! pairs and aggregate the quantities the paper's tables report.
//!
//! Three entry points, each written once over the [`Deliver`] seam so the
//! labeled and name-independent models share every line of accounting:
//! [`eval`] (stretch, table and header bits; optionally parallel),
//! [`sampled_stretch`] (stretch with a confidence interval against any
//! [`DistanceProvider`]) and [`eval_resilient`] (a [`ResilientRouter`]
//! under a [`FaultTimeline`]; stale-table routing is its
//! [`RecoveryPolicy::Drop`](crate::recovery::RecoveryPolicy::Drop) on a
//! single-epoch timeline). Each takes a per-pair observer — the seam
//! observability layers attach to without this crate depending on them;
//! plain callers pass a no-op closure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use doubling_metric::graph::NodeId;
use doubling_metric::provider::DistanceProvider;
use doubling_metric::space::MetricSpace;

use crate::faults::FaultTimeline;
use crate::recovery::{DeliveryOutcome, LossReason, RecoveryEvent, ResilientRouter};
use crate::route::{Route, RouteError};
use crate::scheme::Deliver;

/// Aggregated measurements for one scheme on one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Worst stretch over all routed pairs.
    pub max_stretch: f64,
    /// Mean stretch.
    pub avg_stretch: f64,
    /// Number of routed pairs.
    pub routes: usize,
    /// Number of failed routes (must be 0 for correct schemes).
    pub failures: usize,
    /// Largest per-node table, in bits.
    pub max_table_bits: u64,
    /// Mean per-node table, in bits.
    pub avg_table_bits: f64,
    /// Largest header observed on any hop of any route, in bits.
    pub max_header_bits: u64,
    /// Routed pairs whose measured stretch fell below 1 (beyond float
    /// tolerance). A correct simulator never under-charges a route, so any
    /// nonzero value flags an accounting bug; it is surfaced here instead
    /// of being silently clamped away.
    pub understretch: usize,
}

/// Float tolerance below which a stretch value counts as an under-stretch
/// accounting violation rather than rounding noise. Public so external
/// auditors (the `conform` crate) apply the same tolerance when they
/// cross-check route costs against [`doubling_metric::shortest_paths::Apsp`].
pub const UNDERSTRETCH_TOL: f64 = 1e-9;

/// `(max, mean, understretch)` over delivered routes' stretch values, in
/// the given order (the order fixes the floating-point summation). No
/// clamping: an observed max below 1.0 is a real signal and is reported
/// as-is, with the count of values below `1 - UNDERSTRETCH_TOL` beside it.
/// Empty input keeps the neutral `(1.0, 1.0, 0)`.
fn stretch_summary(stretches: &[f64]) -> (f64, f64, usize) {
    if stretches.is_empty() {
        return (1.0, 1.0, 0);
    }
    let max = stretches.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = stretches.iter().sum::<f64>() / stretches.len() as f64;
    let understretch = stretches.iter().filter(|&&s| s < 1.0 - UNDERSTRETCH_TOL).count();
    (max, mean, understretch)
}

/// Deterministic sample of `count` ordered pairs of distinct nodes.
pub fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2, "need at least two nodes to sample pairs");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..n) as NodeId;
            let mut v = rng.gen_range(0..n - 1) as NodeId;
            if v >= u {
                v += 1;
            }
            (u, v)
        })
        .collect()
}

/// All ordered pairs of distinct nodes (use only for small `n`).
pub fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::with_capacity(n * (n - 1));
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            if u != v {
                out.push((u, v));
            }
        }
    }
    out
}

/// Routes every pair through `d` and hands each `(u, v, outcome)` to
/// `fold` in pair order. With `threads > 1` the pairs are split into
/// contiguous chunks routed by scoped worker threads; the workers only
/// route, and `fold` runs on the calling thread chunk by chunk, so every
/// line of accounting sees the sequential order at any thread count.
fn route_pairs(
    d: &dyn Deliver,
    m: &MetricSpace,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    mut fold: impl FnMut(NodeId, NodeId, Result<Route, RouteError>),
) {
    let threads = threads.max(1).min(pairs.len().max(1));
    if threads == 1 {
        for &(u, v) in pairs {
            fold(u, v, d.route_to(m, u, v));
        }
        return;
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|s| {
        let workers: Vec<_> = pairs
            .chunks(chunk)
            .map(|slice| {
                let routed = s.spawn(move || {
                    slice.iter().map(|&(u, v)| d.route_to(m, u, v)).collect::<Vec<_>>()
                });
                (slice, routed)
            })
            .collect();
        for (slice, routed) in workers {
            for (&(u, v), res) in slice.iter().zip(routed.join().expect("worker panicked")) {
                fold(u, v, res);
            }
        }
    });
}

/// Evaluates a scheme over the given pairs, verifying every route, on
/// `threads` OS threads (`1` routes inline). `observe(u, v, outcome)` is
/// called once per pair, in pair order, with the already-verified route
/// (or the error); results and observations are identical at every
/// thread count.
///
/// # Panics
///
/// Panics if a delivered route fails trace verification or ends at the
/// wrong node — those are simulator-level invariants, not measurements.
pub fn eval<O>(
    d: &dyn Deliver,
    m: &MetricSpace,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
    mut observe: O,
) -> EvalResult
where
    O: FnMut(NodeId, NodeId, &Result<Route, RouteError>),
{
    let mut stretches = Vec::with_capacity(pairs.len());
    let mut failures = 0usize;
    let mut max_header_bits = 0u64;
    route_pairs(d, m, pairs, threads, |u, v, res| {
        match &res {
            Ok(r) => {
                assert_eq!(r.dst, v, "route delivered to the wrong node");
                r.verify(m).expect("route must verify");
                max_header_bits = max_header_bits.max(r.max_header_bits);
                stretches.push(r.stretch(m));
            }
            Err(_) => failures += 1,
        }
        observe(u, v, &res);
    });
    let tables: Vec<u64> = (0..m.n() as NodeId).map(|u| d.table_bits(u)).collect();
    let (max_stretch, avg_stretch, understretch) = stretch_summary(&stretches);
    EvalResult {
        scheme: d.scheme_name(),
        max_stretch,
        avg_stretch,
        routes: stretches.len(),
        failures,
        max_table_bits: tables.iter().cloned().max().unwrap_or(0),
        avg_table_bits: if tables.is_empty() {
            0.0
        } else {
            tables.iter().sum::<u64>() as f64 / tables.len() as f64
        },
        max_header_bits,
        understretch,
    }
}

/// Sampled-pair stretch statistics with a 95% confidence interval on the
/// mean, produced by [`sampled_stretch`].
///
/// The point statistics (`mean`, `p99`, `max`) use the backend's
/// [`DistanceProvider::dist`] as denominator. With an exact backend they
/// equal the exhaustive statistics restricted to the sampled pairs and
/// `mean_upper == mean`; with an estimated backend the true per-pair
/// stretch lies in `[point, upper]` (the provider's `dist` is an upper
/// bound on the true distance), so the true sampled mean lies in
/// `[mean, mean_upper]`. `ci_half_width` is the *sampling* error only:
/// `1.96 · s / √k` over the point values (normal approximation), so with
/// an exact backend and seeded pairs the exhaustive mean is expected
/// inside `mean ± ci_half_width` on ≈95% of sample seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledStretch {
    /// Pairs routed.
    pub pairs: usize,
    /// Routes that returned an error (excluded from the statistics).
    pub failures: usize,
    /// Mean point stretch over delivered routes (1.0 when none).
    pub mean: f64,
    /// 95% CI half-width on `mean` (sampling error; 0.0 for < 2 routes).
    pub ci_half_width: f64,
    /// 99th-percentile point stretch ([`StretchQuantiles`] convention).
    pub p99: f64,
    /// Worst point stretch.
    pub max: f64,
    /// Mean stretch using the provider's *lower* distance bounds as
    /// denominators — equals `mean` for exact backends, an upper bound on
    /// the true sampled mean otherwise.
    pub mean_upper: f64,
    /// Whether the backend was exact ([`DistanceProvider::is_exact`]).
    pub exact: bool,
}

impl SampledStretch {
    /// Aggregates `(cost, bounds)` observations in pair order (the order
    /// fixes the floating-point summation, keeping documents
    /// byte-identical for a given pair sample).
    fn from_observations(
        obs: &[(u64, doubling_metric::DistBounds)],
        failures: usize,
        exact: bool,
    ) -> Self {
        let points: Vec<f64> = obs.iter().map(|&(c, b)| c as f64 / b.upper.max(1) as f64).collect();
        let uppers: Vec<f64> = obs.iter().map(|&(c, b)| c as f64 / b.lower.max(1) as f64).collect();
        if points.is_empty() {
            return SampledStretch {
                pairs: failures,
                failures,
                mean: 1.0,
                ci_half_width: 0.0,
                p99: 1.0,
                max: 1.0,
                mean_upper: 1.0,
                exact,
            };
        }
        let k = points.len() as f64;
        let mean = points.iter().sum::<f64>() / k;
        let mean_upper = uppers.iter().sum::<f64>() / k;
        let ci_half_width = if points.len() >= 2 {
            let var = points.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (k - 1.0);
            1.96 * (var / k).sqrt()
        } else {
            0.0
        };
        let q = StretchQuantiles::from_stretches(&points);
        SampledStretch {
            pairs: obs.len() + failures,
            failures,
            mean,
            ci_half_width,
            p99: q.p99,
            max: q.max,
            mean_upper,
            exact,
        }
    }
}

/// Evaluates a scheme over sampled pairs, taking stretch denominators
/// from `provider` instead of the dense matrix — the scalable evaluation
/// path. Routing still simulates over `m` (schemes walk real
/// shortest-path trees); only the *measurement* denominator goes through
/// the backend, which is what lets certification-grade exactness be
/// traded for `O(k·n)` memory at large `n`. `observe(u, v, outcome)` is
/// called once per pair before the pair is folded into the statistics;
/// it never changes the returned document.
///
/// # Panics
///
/// Panics if a delivered route fails verification or ends at the wrong
/// node, or if `provider` covers a different node count than `m`.
pub fn sampled_stretch<O>(
    d: &dyn Deliver,
    m: &MetricSpace,
    provider: &dyn DistanceProvider,
    pairs: &[(NodeId, NodeId)],
    mut observe: O,
) -> SampledStretch
where
    O: FnMut(NodeId, NodeId, &Result<Route, RouteError>),
{
    assert_eq!(provider.n(), m.n(), "provider covers a different node count");
    let mut obs = Vec::with_capacity(pairs.len());
    let mut failures = 0usize;
    for &(u, v) in pairs {
        let res = d.route_to(m, u, v);
        observe(u, v, &res);
        match res {
            Ok(r) => {
                assert_eq!(r.dst, v, "route delivered to the wrong node");
                r.verify(m).expect("route must verify");
                obs.push((r.cost, provider.dist_bounds(u, v)));
            }
            Err(_) => failures += 1,
        }
    }
    SampledStretch::from_observations(&obs, failures, provider.is_exact())
}

/// Aggregated measurements for one scheme delivering under a
/// [`FaultTimeline`] with a recovery policy (see
/// [`crate::recovery::ResilientRouter`]).
///
/// Reachability follows the DRFE-R convention: pairs with an endpoint
/// dead in the timeline's *initial* epoch are out of the denominator (a
/// dead customer, not a routing failure). Every delivered route ends
/// where the scheme's plan ends, so its stretch is that of the route
/// [`eval`] measures, plus any detour. With the `Drop` policy and a
/// single-epoch timeline this is stale-table routing: a pair is
/// delivered exactly when the scheme's own route avoids every casualty.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvalResult {
    /// Scheme display name.
    pub scheme: &'static str,
    /// The recovery policy, in its canonical `Display` spelling (parse it
    /// back with [`crate::recovery::RecoveryPolicy::parse`]).
    pub policy: String,
    /// Pairs attempted (both endpoints alive initially).
    pub attempted: usize,
    /// Pairs delivered (possibly after recoveries).
    pub delivered: usize,
    /// `delivered / attempted` (1.0 when nothing was attempted).
    pub delivered_fraction: f64,
    /// Mean stretch over delivered routes (detours included in the cost).
    pub avg_stretch: f64,
    /// Worst stretch over delivered routes.
    pub max_stretch: f64,
    /// Total successful recovery interventions across delivered *and*
    /// lost packets.
    pub recoveries: usize,
    /// Total extra hops spent inside detours, over delivered packets.
    pub detour_hops: usize,
    /// Losses where the final casualty was a dead node and the policy
    /// offered no way out.
    pub lost_to_node: usize,
    /// Losses where the final casualty was a dead edge.
    pub lost_to_edge: usize,
    /// Losses where the destination was unreachable in the surviving
    /// graph (no policy could have delivered; includes dead sources).
    pub lost_unreachable: usize,
    /// Losses where the destination was still reachable but the recovery
    /// budget (TTL / climbs) ran out first.
    pub lost_exhausted: usize,
    /// Losses to anything else — hop-budget trips and scheme errors
    /// (must stay 0 for correct schemes).
    pub lost_other: usize,
    /// Delivered routes whose measured stretch fell below 1 (see
    /// [`EvalResult::understretch`]).
    pub understretch: usize,
}

/// Evaluates a scheme delivering under `timeline` with the router's
/// recovery policy: delivered fraction, stretch of survivors (detours
/// included), recovery/detour totals, and a loss taxonomy.
/// `on_event(u, v, ev)` fires for every recovery decision mid-delivery,
/// and `observe(u, v, outcome)` once per attempted pair; pairs skipped
/// for dead endpoints see neither hook.
///
/// # Panics
///
/// Panics if a delivered route misdelivers, fails [`Route::verify`], or
/// does not replay cleanly under [`FaultTimeline::check_route`] — those
/// are simulator invariants, not measurements.
pub fn eval_resilient<D, E, O>(
    router: &ResilientRouter<'_, D>,
    timeline: &FaultTimeline,
    pairs: &[(NodeId, NodeId)],
    mut on_event: E,
    mut observe: O,
) -> RecoveryEvalResult
where
    D: Deliver + ?Sized,
    E: FnMut(NodeId, NodeId, &RecoveryEvent),
    O: FnMut(NodeId, NodeId, &DeliveryOutcome),
{
    let m = router.metric();
    let initial = timeline.initial();
    let mut stretches = Vec::new();
    let mut attempted = 0usize;
    let mut recoveries_total = 0usize;
    let mut detour_hops_total = 0usize;
    let (mut lost_node, mut lost_edge) = (0usize, 0usize);
    let (mut lost_unreachable, mut lost_exhausted, mut lost_other) = (0usize, 0usize, 0usize);
    for &(u, v) in pairs {
        if initial.is_node_dead(u) || initial.is_node_dead(v) {
            continue; // dead endpoint: out of the denominator entirely
        }
        attempted += 1;
        let outcome = router.deliver(u, v, timeline, &mut |ev| on_event(u, v, ev));
        match &outcome {
            DeliveryOutcome::Delivered { stretch, detour_hops, recoveries, route } => {
                assert_eq!(route.dst, v, "resilient delivery must reach the destination");
                route.verify(m).expect("delivered route must verify");
                timeline
                    .check_route(route)
                    .expect("delivered route must replay cleanly under the timeline");
                stretches.push(*stretch);
                detour_hops_total += detour_hops;
                recoveries_total += recoveries;
            }
            DeliveryOutcome::Lost { reason, progress } => {
                recoveries_total += progress.recoveries;
                match reason {
                    LossReason::Casualty { error: RouteError::NodeFailed { .. } } => lost_node += 1,
                    LossReason::Casualty { error: RouteError::EdgeFailed { .. } } => lost_edge += 1,
                    LossReason::Casualty { .. } => lost_other += 1,
                    // A dead source never happens here (endpoints are
                    // pre-filtered on the initial epoch), but classify it
                    // with unreachability for robustness.
                    LossReason::SourceDead | LossReason::Unreachable => lost_unreachable += 1,
                    LossReason::RecoveryExhausted => lost_exhausted += 1,
                    LossReason::HopBudget | LossReason::SchemeError { .. } => lost_other += 1,
                }
            }
        }
        observe(u, v, &outcome);
    }
    let delivered = stretches.len();
    let (max_stretch, avg_stretch, understretch) = stretch_summary(&stretches);
    RecoveryEvalResult {
        scheme: router.scheme().scheme_name(),
        policy: router.policy().to_string(),
        attempted,
        delivered,
        delivered_fraction: if attempted == 0 { 1.0 } else { delivered as f64 / attempted as f64 },
        avg_stretch,
        max_stretch,
        recoveries: recoveries_total,
        detour_hops: detour_hops_total,
        lost_to_node: lost_node,
        lost_to_edge: lost_edge,
        lost_unreachable,
        lost_exhausted,
        lost_other,
        understretch,
    }
}

/// Stretch quantiles over a set of routed pairs — the measurement behind
/// the paper's concluding open question (can relaxing the guarantee for a
/// small fraction of pairs buy better stretch?): the distribution shows
/// how far below the worst case typical routes sit.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchQuantiles {
    /// Median stretch.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl StretchQuantiles {
    /// Computes quantiles from raw stretch values (empty input yields all
    /// 1.0).
    pub fn from_stretches(stretches: &[f64]) -> Self {
        if stretches.is_empty() {
            return StretchQuantiles { p50: 1.0, p90: 1.0, p99: 1.0, max: 1.0 };
        }
        let mut s = stretches.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
        let at = |q: f64| s[((s.len() - 1) as f64 * q).round() as usize];
        StretchQuantiles { p50: at(0.50), p90: at(0.90), p99: at(0.99), max: *s.last().unwrap() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::FullTable;
    use crate::faults::FaultPlan;
    use crate::naming::Naming;
    use crate::recovery::{RecoveryPolicy, ResilientRouter};
    use crate::scheme::{Labeled, LabeledScheme, Named};
    use doubling_metric::gen;

    use crate::route::RouteRecorder;
    use doubling_metric::{LandmarkEstimator, OnDemandDijkstra};
    use std::sync::Arc;

    /// Test-only labeled scheme that routes every packet through node 0 —
    /// cheap to build and its stretch actually *varies* across pairs,
    /// unlike [`FullTable`], so sampling statistics are non-degenerate.
    struct HubScheme;

    impl LabeledScheme for HubScheme {
        fn scheme_name(&self) -> &'static str {
            "hub"
        }
        fn label_of(&self, v: NodeId) -> crate::scheme::Label {
            v
        }
        fn label_bits(&self) -> u64 {
            32
        }
        fn table_bits(&self, _u: NodeId) -> u64 {
            64
        }
        fn route(
            &self,
            m: &MetricSpace,
            src: NodeId,
            target: crate::scheme::Label,
        ) -> Result<Route, RouteError> {
            let mut rec = RouteRecorder::new(m, src);
            rec.walk_shortest(0)?;
            rec.walk_shortest(target)?;
            Ok(rec.finish())
        }
    }

    #[test]
    fn sampled_stretch_with_exact_backends_is_identical() {
        let g = Arc::new(gen::grid(6, 6));
        let m = MetricSpace::from_shared(Arc::clone(&g), 1);
        let pairs = sample_pairs(m.n(), 150, 9);
        let via_matrix = sampled_stretch(&Labeled(&HubScheme), &m, &m, &pairs, |_, _, _| {});
        let lazy = OnDemandDijkstra::new(Arc::clone(&g), 4);
        let via_lazy = sampled_stretch(&Labeled(&HubScheme), &m, &lazy, &pairs, |_, _, _| {});
        assert_eq!(via_matrix, via_lazy);
        assert!(via_matrix.exact);
        assert_eq!(via_matrix.mean, via_matrix.mean_upper);
        assert!(via_matrix.mean > 1.0, "hub routing must have stretch variance");
        assert!(via_matrix.ci_half_width > 0.0);
        assert!(via_matrix.p99 <= via_matrix.max);
    }

    #[test]
    fn sampled_stretch_landmark_bracket_contains_exact_mean() {
        let g = Arc::new(gen::grid(7, 6));
        let m = MetricSpace::from_shared(Arc::clone(&g), 1);
        let pairs = sample_pairs(m.n(), 200, 4);
        let exact = sampled_stretch(&Labeled(&HubScheme), &m, &m, &pairs, |_, _, _| {});
        let lm = LandmarkEstimator::new(&g, 6);
        let est = sampled_stretch(&Labeled(&HubScheme), &m, &lm, &pairs, |_, _, _| {});
        assert!(!est.exact);
        assert!(
            est.mean <= exact.mean + 1e-12 && exact.mean <= est.mean_upper + 1e-12,
            "true mean {} outside landmark bracket [{}, {}]",
            exact.mean,
            est.mean,
            est.mean_upper
        );
    }

    #[test]
    fn sampled_ci_covers_exhaustive_mean_on_at_least_90_percent_of_seeds() {
        let m = MetricSpace::new(&gen::grid(10, 10));
        // Exhaustive oracle value: mean stretch over every ordered pair.
        let hub = Labeled(&HubScheme);
        let truth = sampled_stretch(&hub, &m, &m, &all_pairs(m.n()), |_, _, _| {}).mean;
        let trials = 40usize;
        let covered = (0..trials)
            .filter(|&seed| {
                let pairs = sample_pairs(m.n(), 400, seed as u64);
                let s = sampled_stretch(&hub, &m, &m, &pairs, |_, _, _| {});
                (s.mean - truth).abs() <= s.ci_half_width
            })
            .count();
        assert!(
            covered * 10 >= trials * 9,
            "CI covered the true mean on only {covered}/{trials} seeds"
        );
    }

    #[test]
    fn sampled_stretch_named_matches_labeled_on_identity_naming() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(16, 60, 2);
        let res = sampled_stretch(&Named(&s, &nm), &m, &m, &pairs, |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert!((res.mean - 1.0).abs() < 1e-12);
        assert_eq!(res.ci_half_width, 0.0);
        assert!(res.exact);
    }

    #[test]
    fn sample_pairs_distinct_and_reproducible() {
        let a = sample_pairs(10, 50, 3);
        let b = sample_pairs(10, 50, 3);
        assert_eq!(a, b);
        for &(u, v) in &a {
            assert_ne!(u, v);
            assert!((u as usize) < 10 && (v as usize) < 10);
        }
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).len(), 20);
    }

    #[test]
    fn baseline_eval_has_unit_stretch() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let s = FullTable::new(&m);
        let res = eval(&Labeled(&s), &m, &all_pairs(25), 1, |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert_eq!(res.routes, 600);
        assert!((res.max_stretch - 1.0).abs() < 1e-12);
        assert!((res.avg_stretch - 1.0).abs() < 1e-12);
        assert!(res.max_table_bits > 0);
    }

    #[test]
    fn baseline_eval_named() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let res = eval(&Named(&s, &nm), &m, &sample_pairs(16, 40, 1), 1, |_, _, _| {});
        assert_eq!(res.failures, 0);
        assert!((res.max_stretch - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_eval_matches_serial() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(36, 120, 2);
        let serial = eval(&Labeled(&s), &m, &pairs, 1, |_, _, _| {});
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(eval(&Labeled(&s), &m, &pairs, threads, |_, _, _| {}), serial);
        }
    }

    #[test]
    fn parallel_ni_eval_matches_serial() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let nm = Naming::random(25, 3);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(25, 80, 4);
        let serial = eval(&Named(&s, &nm), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(eval(&Named(&s, &nm), &m, &pairs, 3, |_, _, _| {}), serial);
    }

    #[test]
    fn parallel_eval_handles_more_threads_than_pairs() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(9, 3, 5);
        let par = eval(&Labeled(&s), &m, &pairs, 64, |_, _, _| {});
        assert_eq!(par.routes, 3);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let stretches: Vec<f64> = (1..=100).map(|k| k as f64).collect();
        let q = StretchQuantiles::from_stretches(&stretches);
        assert_eq!(q.p50, 51.0);
        assert_eq!(q.p90, 90.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 100.0);
        let empty = StretchQuantiles::from_stretches(&[]);
        assert_eq!(empty.max, 1.0);
    }

    #[test]
    fn understretch_is_surfaced_not_clamped() {
        // A (bogus) stretch below 1.0 must show up both in the max
        // (unclamped) and in the violation counter.
        let (max, _, understretch) = stretch_summary(&[0.5, 0.9, 1.2]);
        assert_eq!(understretch, 2);
        assert!((max - 1.2).abs() < 1e-12);
        // Rounding noise just below 1.0 is not a violation.
        assert_eq!(stretch_summary(&[1.0 - 1e-12, 1.0]).2, 0);
        // Empty input keeps the neutral 1.0 convention.
        assert_eq!(stretch_summary(&[]), (1.0, 1.0, 0));
    }

    #[test]
    fn fault_understretch_is_surfaced_not_clamped() {
        // Under faults the same summary feeds `RecoveryEvalResult`: a
        // clean stale-table run reports no violations and a neutral
        // stretch when every attempted pair is lost.
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = FullTable::new(&m);
        let d = Labeled(&s);
        let stale = |plan: FaultPlan, pairs: &[(NodeId, NodeId)]| {
            let router = ResilientRouter::without_hierarchy(&m, &d, RecoveryPolicy::Drop);
            eval_resilient(
                &router,
                &FaultTimeline::from_plan(plan),
                pairs,
                |_, _, _| {},
                |_, _, _| {},
            )
        };
        let res = stale(FaultPlan::none(16), &sample_pairs(16, 40, 3));
        assert_eq!((res.attempted, res.delivered, res.understretch), (40, 40, 0));
        let mut cut = FaultPlan::none(16);
        for u in [1, 4] {
            cut.kill_node(u);
        }
        let res = stale(cut, &[(0, 15)]);
        assert_eq!((res.delivered, res.max_stretch, res.understretch), (0, 1.0, 0));
    }

    #[test]
    fn observed_eval_sees_every_pair_and_matches_plain() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(16, 25, 9);
        let mut seen = Vec::new();
        let observed = eval(&Labeled(&s), &m, &pairs, 1, |u, v, res| {
            assert!(res.is_ok());
            seen.push((u, v));
        });
        assert_eq!(seen, pairs);
        assert_eq!(observed, eval(&Labeled(&s), &m, &pairs, 1, |_, _, _| {}));
    }

    #[test]
    fn observed_ni_eval_matches_plain() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(16, 25, 9);
        let mut count = 0usize;
        let observed = eval(&Named(&s, &nm), &m, &pairs, 1, |_, _, _| count += 1);
        assert_eq!(count, pairs.len());
        assert_eq!(observed, eval(&Named(&s, &nm), &m, &pairs, 1, |_, _, _| {}));
    }

    #[test]
    fn resilient_detour_delivers_at_least_as_much_as_drop() {
        let m = MetricSpace::new(&gen::grid(6, 6));
        let s = FullTable::new(&m);
        let pairs = sample_pairs(36, 120, 3);
        let faults = FaultPlan::random_nodes(36, 0.15, 5);
        let timeline = FaultTimeline::from_plan(faults);
        let d = Labeled(&s);
        let drop = eval_resilient(
            &ResilientRouter::without_hierarchy(&m, &d, RecoveryPolicy::Drop),
            &timeline,
            &pairs,
            |_, _, _| {},
            |_, _, _| {},
        );
        let mut events = 0usize;
        let detour = eval_resilient(
            &ResilientRouter::without_hierarchy(&m, &d, RecoveryPolicy::LocalDetour { ttl: 8 }),
            &timeline,
            &pairs,
            |_, _, _| events += 1,
            |_, _, _| {},
        );
        assert_eq!(drop.attempted, detour.attempted);
        assert!(detour.delivered >= drop.delivered);
        assert!(detour.recoveries > 0, "a 15% kill rate must force some detours");
        assert_eq!(events, detour.recoveries + detour.lost_exhausted + detour.lost_unreachable);
    }

    #[test]
    fn resilient_ni_eval_delivers_under_faults() {
        let m = MetricSpace::new(&gen::grid(5, 5));
        let nm = Naming::random(25, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(25, 60, 13);
        let d = Named(&s, &nm);
        let timeline = FaultTimeline::from_plan(FaultPlan::random_nodes(25, 0.2, 17));
        let faults = timeline.initial();
        // Stale-table reference: the scheme's own route, kept when the
        // verification oracle finds no casualty on it.
        let alive =
            pairs.iter().filter(|&&(u, v)| !faults.is_node_dead(u) && !faults.is_node_dead(v));
        let survivors = alive
            .clone()
            .filter(|&&(u, v)| timeline.check_route(&d.route_to(&m, u, v).unwrap()).is_ok())
            .count();
        let drop = eval_resilient(
            &ResilientRouter::without_hierarchy(&m, &d, RecoveryPolicy::Drop),
            &timeline,
            &pairs,
            |_, _, _| {},
            |_, _, _| {},
        );
        assert_eq!(drop.delivered, survivors);
        assert_eq!(drop.attempted, alive.count());
        let detour = eval_resilient(
            &ResilientRouter::without_hierarchy(&m, &d, RecoveryPolicy::LocalDetour { ttl: 8 }),
            &timeline,
            &pairs,
            |_, _, _| {},
            |_, _, _| {},
        );
        assert!(detour.delivered >= drop.delivered);
    }

    #[test]
    fn stretch_samples_match_eval() {
        // Raw stretch values for quantile analysis come through the
        // observer of the one driver.
        let m = MetricSpace::new(&gen::grid(4, 4));
        let nm = Naming::random(16, 5);
        let s = FullTable::with_naming(&m, nm.clone());
        let pairs = sample_pairs(16, 30, 1);
        let mut samples = Vec::new();
        eval(&Named(&s, &nm), &m, &pairs, 2, |_, _, r| {
            samples.push(r.as_ref().expect("route must deliver").stretch(&m));
        });
        assert_eq!(samples.len(), 30);
        assert!(samples.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }
}

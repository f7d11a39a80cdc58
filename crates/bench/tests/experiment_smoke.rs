//! Smoke tests for every experiment runner: each must produce
//! well-formed, failure-free rows on small inputs (regression guard for
//! the table/figure binaries).

use bench::experiments::*;
use bench::MetricCache;
use doubling_metric::Eps;
use obs::Telemetry;

fn cache() -> MetricCache {
    MetricCache::new(2)
}

fn off() -> Telemetry {
    Telemetry::off()
}

#[test]
fn fig1_rows_cover_rounds() {
    let (h, rows) = run_fig1(&cache(), 49, Eps::one_over(8), 3, &off());
    assert_eq!(h.len(), 8);
    assert!(!rows.is_empty());
    // Rounds within a family must be strictly increasing and distances
    // must grow with the round.
    let grid_rows: Vec<_> = rows.iter().filter(|r| r[0] == "grid").collect();
    for w in grid_rows.windows(2) {
        let r0: u32 = w[0][1].parse().unwrap();
        let r1: u32 = w[1][1].parse().unwrap();
        assert!(r1 > r0);
        let d0: f64 = w[0][3].parse().unwrap();
        let d1: f64 = w[1][3].parse().unwrap();
        assert!(d1 >= d0, "distance must grow with the found round");
    }
}

#[test]
fn fig2_shows_greedy_on_grid_and_packing_on_exp_path() {
    let (_, rows) = run_fig2(&cache(), Eps::one_over(8), 3, &off());
    assert!(rows.iter().any(|r| r[0] == "grid" && r[1] == "greedy-only"));
    assert!(
        rows.iter().any(|r| r[0] == "exp-path" && r[1] == "packing"),
        "exp-path must exercise the packing phase: {rows:?}"
    );
    // Stretch column stays within 1+O(eps).
    for r in &rows {
        let stretch: f64 = r.last().unwrap().parse().unwrap();
        assert!(stretch <= 1.6, "labeled stretch {stretch} in {r:?}");
    }
}

#[test]
fn fig3_advice_curve_is_monotone() {
    let (_, rows) = run_fig3_advice(4);
    let values: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
    for w in values.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "advice curve must be nonincreasing: {values:?}");
    }
    assert!((values.last().unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn sweep_eps_labeled_stretch_monotone() {
    let (_, rows) = run_sweep_eps(&cache(), 49, 3, &off());
    let nl: Vec<f64> =
        rows.iter().filter(|r| r[1] == "net-labeled").map(|r| r[2].parse().unwrap()).collect();
    assert!(nl.len() >= 3);
    for w in nl.windows(2) {
        assert!(w[1] <= w[0] + 1e-9, "labeled stretch must shrink with eps: {nl:?}");
    }
}

#[test]
fn ablation_rows_are_well_formed() {
    let (h1, r1) = run_ablation_rings(&cache(), 3, &off());
    assert_eq!(r1.len(), 2);
    assert_eq!(h1.len(), r1[0].len());
    // On the exp-path, R(u) must prune a majority of levels.
    let exp = &r1[1];
    let total: f64 = exp[1].parse().unwrap();
    let kept: f64 = exp[2].parse().unwrap();
    assert!(kept * 2.0 < total, "R(u) must prune: kept {kept} of {total}");

    let (_, r2) = run_ablation_packing(&cache(), 3, &off());
    for row in &r2 {
        let frac: f64 = row[1].parse().unwrap();
        assert!((0.0..=1.0).contains(&frac));
        assert!(frac > 0.3, "packing reuse should be substantial: {row:?}");
    }
}

#[test]
fn relaxed_quantiles_are_ordered() {
    let (_, rows) = run_relaxed(&cache(), 49, 3, &off());
    for r in &rows {
        let p50: f64 = r[3].parse().unwrap();
        let p90: f64 = r[4].parse().unwrap();
        let p99: f64 = r[5].parse().unwrap();
        let max: f64 = r[6].parse().unwrap();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{r:?}");
    }
}

#[test]
fn storage_growth_ratio_falls() {
    let (_, rows) = run_storage_growth(&cache(), &[64, 144, 256], 3, &off());
    let ratios: Vec<f64> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
    // Non-monotone wobble is possible at tiny n (level-count steps); the
    // end-to-end trend must still fall.
    assert!(
        ratios.last().unwrap() < ratios.first().unwrap(),
        "compact/full ratio must trend down: {ratios:?}"
    );
}

//! The `paper` binary: every table and figure of the paper behind one
//! subcommand each.
//!
//! Usage: `cargo run --release --bin paper -- <subcommand> [args]`, where
//! `[args]` are the subcommand's positionals plus the shared
//! [`crate::cli::Cli`] flags (`--seed N`, `--json`, `--threads N`,
//! `--trace`, `--chrome-trace PATH`):
//!
//! | subcommand | positionals | regenerates |
//! |---|---|---|
//! | `table1` | `[n] [1/eps] [pairs]` | Table 1 — name-independent schemes |
//! | `table2` | `[n] [1/eps] [pairs]` | Table 2 — labeled schemes |
//! | `fig1` | `[n] [1/eps]` | Figure 1 — name-independent route anatomy |
//! | `fig2` | `[1/eps]` | Figure 2 — labeled route anatomy |
//! | `fig3` | | Figure 3 / Theorem 1.3 — lower bound and advice curve |
//! | `sweep_eps` | `[n]` | E1 — stretch vs ε |
//! | `sweep_scale` | `[1/eps]` | E2 — storage vs log Δ |
//! | `ablation_rings` | | A1 — R(u) ring pruning |
//! | `ablation_packing` | | A2 — packing reuse |
//! | `storage_growth` | | E3 — storage growth vs n |
//! | `relaxed` | `[n]` | Q1 — stretch quantiles |
//!
//! Each subcommand prints its table(s) — and, without `--json`, the
//! reading notes below them — then hands the run's telemetry (metric
//! builds and scheme constructions as spans) to [`crate::cli::Cli::finish`]
//! under the subcommand's name.

use std::path::Path;

use doubling_metric::Eps;
use obs::Telemetry;

use crate::cli::Cli;
use crate::experiments::{
    run_ablation_packing, run_ablation_rings, run_fig1, run_fig2, run_fig3, run_fig3_advice,
    run_relaxed, run_storage_growth, run_sweep_eps, run_sweep_scale, run_table1, run_table2,
};
use crate::table::emit;
use crate::MetricCache;

/// One subcommand: prints its output for the parsed arguments.
pub type Subcommand = fn(&Cli, &MetricCache, &Telemetry);

/// Every subcommand, by name, in the order the usage message lists them.
pub const SUBCOMMANDS: [(&str, Subcommand); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("sweep_eps", sweep_eps),
    ("sweep_scale", sweep_scale),
    ("ablation_rings", ablation_rings),
    ("ablation_packing", ablation_packing),
    ("storage_growth", storage_growth),
    ("relaxed", relaxed),
];

/// The subcommand called `name`, if there is one.
pub fn subcommand(name: &str) -> Option<Subcommand> {
    SUBCOMMANDS.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}

/// Prints `lines` unless `--json` was passed.
fn notes(cli: &Cli, lines: &[&str]) {
    if !cli.json {
        for line in lines {
            println!("{line}");
        }
    }
}

fn table1(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (n, inv, pairs) = (cli.pos(0, 196usize), cli.pos(1, 8u64), cli.pos(2, 300usize));
    let (headers, rows) = run_table1(cache, n, Eps::one_over(inv), pairs, cli.seed, tel);
    emit(
        &format!("Table 1: name-independent schemes (n≈{n}, eps=1/{inv}, {pairs} pairs/graph)"),
        &headers,
        &rows,
    );
    notes(
        cli,
        &[
            "\npaper bounds: Thm 1.4 stretch 9+O(eps), (1/eps)^O(a)·logΔ·log n bits;",
            "              Thm 1.1 stretch 9+O(eps), (1/eps)^O(a)·log^3 n bits (scale-free).",
        ],
    );
}

fn table2(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (n, inv, pairs) = (cli.pos(0, 196usize), cli.pos(1, 8u64), cli.pos(2, 300usize));
    let (headers, rows) = run_table2(cache, n, Eps::one_over(inv), pairs, cli.seed, tel);
    emit(
        &format!("Table 2: labeled schemes (n≈{n}, eps=1/{inv}, {pairs} pairs/graph)"),
        &headers,
        &rows,
    );
    notes(
        cli,
        &[
            "\npaper bounds: Thm 1.2 stretch 1+O(eps), ceil(log n)-bit labels,",
            "              (1/eps)^O(a)·log^3 n table bits (scale-free).",
        ],
    );
}

fn fig1(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (n, inv) = (cli.pos(0, 196usize), cli.pos(1, 8u64));
    let (headers, rows) = run_fig1(cache, n, Eps::one_over(inv), cli.seed, tel);
    emit(
        &format!("Figure 1: name-independent route anatomy (n≈{n}, eps=1/{inv})"),
        &headers,
        &rows,
    );
    notes(
        cli,
        &[
            "\nexpected shape: found-round grows with d(u,v); search dominates cost;",
            "the stretch stays within 9+O(eps) at every round.",
        ],
    );
}

fn fig2(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let inv = cli.pos(0, 8u64);
    let (headers, rows) = run_fig2(cache, Eps::one_over(inv), cli.seed, tel);
    emit(&format!("Figure 2: labeled route anatomy (eps=1/{inv})"), &headers, &rows);
    notes(
        cli,
        &[
            "\nexpected shape: packing phases engage only in the huge-Δ regime",
            "(exp-path); stretch stays 1+O(eps) either way.",
        ],
    );
}

fn fig3(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (headers, rows) = run_fig3(cache, cli.seed, tel);
    emit("Figure 3 / Theorem 1.3: lower-bound construction", &headers, &rows);
    let (h2, r2) = run_fig3_advice(4);
    emit("Theorem 1.3: stretch vs advice bits (eps=4)", &h2, &r2);
    notes(cli, &["\nexpected shape: optimized >= 9−eps always; advice curve decays toward 1."]);
}

fn sweep_eps(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let n = cli.pos(0, 144usize);
    let (headers, rows) = run_sweep_eps(cache, n, cli.seed, tel);
    emit(&format!("E1: stretch vs eps (grid n≈{n})"), &headers, &rows);
}

fn sweep_scale(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let inv = cli.pos(0, 4u64);
    let (headers, rows) = run_sweep_scale(cache, Eps::one_over(inv), cli.seed, tel);
    emit(&format!("E2: storage vs log Δ (eps=1/{inv})"), &headers, &rows);
    notes(
        cli,
        &[
            "\nexpected shape: on unit paths the schemes are comparable; on exp-paths",
            "the simple scheme's tables grow with log Δ = Θ(n) while the scale-free",
            "scheme stays polylog — the ratio column grows.",
        ],
    );
}

fn ablation_rings(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (headers, rows) = run_ablation_rings(cache, cli.seed, tel);
    emit("A1: ring-level pruning (all levels vs R(u))", &headers, &rows);
}

fn ablation_packing(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (headers, rows) = run_ablation_packing(cache, cli.seed, tel);
    emit("A2: packing reuse (H(u,i) links vs private trees)", &headers, &rows);
}

fn storage_growth(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let (headers, rows) = run_storage_growth(cache, &[144, 256, 484, 1024, 2025], cli.seed, tel);
    emit("E3: storage growth vs n (grid, eps=1/8)", &headers, &rows);
    notes(
        cli,
        &[
            "\nreading: full-table bits quadruple per 4x n (n·log n); the compact",
            "schemes' bits grow far slower (polylog) — the sfNI/full ratio falls",
            "toward the crossover the theory places at polylog < n.",
        ],
    );
}

fn relaxed(cli: &Cli, cache: &MetricCache, tel: &Telemetry) {
    let n = cli.pos(0, 144usize);
    let (headers, rows) = run_relaxed(cache, n, cli.seed, tel);
    emit(&format!("Q1: stretch quantiles (n≈{n})"), &headers, &rows);
    notes(
        cli,
        &[
            "\nreading: the worst case sits far above p99 — a guarantee relaxed on",
            "1% of pairs would already look much better than 9+O(eps), the",
            "direction the paper's conclusion poses as an open question.",
        ],
    );
}

/// Entry point of the `paper` binary: the first argument names the
/// subcommand, the rest parse as its [`Cli`] (default seed 42). An
/// unknown or missing subcommand exits with status 2, listing the valid
/// names.
pub fn paper_main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(run) = subcommand(&name) else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!("paper: unknown subcommand {name:?}; expected one of: {}", names.join(", "));
        std::process::exit(2);
    };
    let cli = Cli::parse(args, 42);
    let cache = MetricCache::new(cli.threads);
    let tel = cli.telemetry();
    run(&cli, &cache, &tel);
    cli.finish(&name, Path::new("results"), tel);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subcommand_resolves_by_its_own_name() {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "fig1",
                "fig2",
                "fig3",
                "sweep_eps",
                "sweep_scale",
                "ablation_rings",
                "ablation_packing",
                "storage_growth",
                "relaxed",
            ]
        );
        for (name, run) in SUBCOMMANDS {
            assert_eq!(subcommand(name).map(|f| f as usize), Some(run as usize), "{name}");
        }
        assert!(subcommand("table3").is_none());
        assert!(subcommand("").is_none());
    }
}

//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment in EXPERIMENTS.md is a pure function in
//! [`experiments`] (or its own module) returning a header row plus data
//! rows; ten `bin/` targets print them as aligned text tables:
//!
//! | binary | regenerates |
//! |---|---|
//! | `paper <subcommand>` | the paper's tables and figures — `table1`, `table2`, `fig1`–`fig3`, `sweep_eps`, `sweep_scale`, `ablation_rings`, `ablation_packing`, `storage_growth`, `relaxed` (see [`paper`]) |
//! | `profile` | P1 — per-phase preprocessing breakdown + route-metric histograms |
//! | `churn` | fault injection: stale-table vs rebuilt routing |
//! | `recovery` | R1 — delivery under faults per recovery policy |
//! | `maintain` | M1 — incremental repair vs full rebuild under seeded churn |
//! | `conformance` | V1 — theorem certificates: bound vs measured per (family, n, ε, seed) |
//! | `scale` | S1 — end-to-end scaling of all four schemes to n = 10,000 |
//! | `serve` | T1 — forwarding planes served by worker threads |
//! | `bench_build` | B1 — metric build-time scaling |
//! | `report` | the perf-regression gate over `results/` vs `baselines/` |
//!
//! Every binary shares the flag vocabulary of [`cli::Cli`]
//! (`--seed N`, `--json`, `--trace`, `--chrome-trace PATH`, …), and every
//! experiment binary threads one [`obs::Telemetry`] from
//! [`cli::Cli::telemetry`] through its run into [`cli::Cli::finish`].
//!
//! Every experiment handles the paper's four schemes through one roster,
//! [`schemes::Built`]: it builds, maintains, compiles and certifies each
//! by its table-order index, so an experiment loops over the schemes once
//! and no other module names a scheme type.
//!
//! Criterion benches (`benches/`) time preprocessing, routing, search-tree
//! lookups and game evaluation on the same inputs, through the same
//! roster.

#![warn(missing_docs)]

pub mod build_bench;
pub mod cache;
pub mod churn;
pub mod cli;
pub mod conformance;
pub mod experiments;
pub mod maintain;
pub mod paper;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod schemes;
pub mod serve;
pub mod table;

pub use cache::MetricCache;
pub use table::{emit, print_table, to_json};

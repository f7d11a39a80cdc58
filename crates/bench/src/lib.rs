//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment in EXPERIMENTS.md is a pure function in
//! [`experiments`] returning a header row plus data rows; the `bin/`
//! targets print them as aligned text tables:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — name-independent schemes (stretch / table bits / header bits) |
//! | `table2` | Table 2 — labeled schemes (stretch / table / label / header bits) |
//! | `fig1` | Figure 1 — name-independent route anatomy by search round |
//! | `fig2` | Figure 2 — labeled route anatomy (ring walk / packing phases) |
//! | `fig3` | Figure 3 + Theorem 1.3 — lower-bound tree properties and the search-game curve |
//! | `sweep_eps` | E1 — stretch vs ε for all four schemes |
//! | `sweep_scale` | E2 — storage vs log Δ: the scale-free crossover |
//! | `ablation_rings` | A1 — R(u) pruning vs full ring tables |
//! | `ablation_packing` | A2 — ℬ/𝒜 reuse statistics (Claims 3.6–3.9) |
//! | `profile` | P1 — per-phase preprocessing breakdown + route-metric histograms |
//! | `churn` | fault injection: stale-table vs rebuilt routing |
//! | `maintain` | M1 — incremental repair vs full rebuild under seeded churn |
//! | `conformance` | V1 — theorem certificates: bound vs measured per (family, n, ε, seed) |
//! | `scale` | S1 — end-to-end scaling of all four schemes to n = 10,000 |
//!
//! Every binary shares the flag vocabulary of [`cli::Cli`]
//! (`--seed N`, `--json`, `--trace`).
//!
//! Criterion benches (`benches/`) time preprocessing, routing, search-tree
//! lookups and game evaluation on the same inputs.

#![warn(missing_docs)]

pub mod build_bench;
pub mod cache;
pub mod churn;
pub mod cli;
pub mod conformance;
pub mod experiments;
pub mod maintain;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod schemes;
pub mod serve;
pub mod table;

pub use cache::MetricCache;
pub use table::{emit, print_table, to_json};

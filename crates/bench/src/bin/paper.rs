//! The paper's tables and figures, one subcommand each: `table1`,
//! `table2`, `fig1`, `fig2`, `fig3`, `sweep_eps`, `sweep_scale`,
//! `ablation_rings`, `ablation_packing`, `storage_growth`, `relaxed`.
//!
//! Usage: `cargo run --release --bin paper -- <subcommand> [args]
//! [--seed N] [--json] [--threads N] [--trace] [--chrome-trace PATH]`

fn main() {
    bench::paper::paper_main();
}

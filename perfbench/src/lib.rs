//! The repository's benchmark: builds, serves and repairs compact routing
//! tables through the routing crates' public API, checks every output,
//! and reports end-to-end and per-layer metrics. See `README.md`.

mod churn;
mod estimate;
mod host;
pub mod run;
mod serve;
mod setup;
pub mod workload;

// Every binary and test linking this crate counts allocations, so the
// byte metrics (peak heap, resident heap, allocations per query) are
// real wherever the benchmark runs.
#[global_allocator]
static GLOBAL: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

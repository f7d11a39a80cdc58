//! Observability layer for the compact-routing workspace: structured
//! tracing, metrics primitives, allocation counting, and phase profiling.
//!
//! Everything in this crate is dependency-free (standard library only) and
//! serializes through [`netsim::json`], so the build works in the same
//! offline environment as the rest of the workspace.
//!
//! # The three layers
//!
//! * [`trace`] — a structured **span/event tracer**. [`trace::Tracer`] has
//!   two modes: a *no-op* mode whose operations are a single branch on
//!   [`trace::Tracer::enabled`] (no allocation, no clock read — the
//!   assertion-free fast path the evaluation harness relies on), and a
//!   *recording* mode that captures nested [`trace::SpanRecord`]s (name,
//!   parent, wall-clock, allocation delta) and [`trace::EventRecord`]s,
//!   exported as JSONL.
//! * [`metrics`] — monotonic [`metrics::Counter`]s and the log₂-bucketed
//!   [`metrics::Log2Histogram`] (with exact count/sum/min/max and lossless
//!   [`metrics::Log2Histogram::merge`]), used for route costs, hop counts,
//!   header bits, and search-tree lookup tallies.
//! * [`phase`] — aggregation of a recorded trace into a per-phase
//!   time/allocation breakdown ([`phase::PhaseBreakdown`]), the table the
//!   `profile` binary prints for every scheme's preprocessing.
//!
//! Three serving-grade layers sit on top:
//!
//! * [`registry`] — a `Send + Sync` [`registry::MetricsRegistry`]: atomic
//!   counters/gauges and per-thread-**sharded** histograms, merged
//!   exactly on read, with deterministic (name-ordered) snapshots and a
//!   single-branch disabled mode.
//! * [`export`] — standard formats: any [`TraceLog`] as Chrome
//!   trace-event / Perfetto JSON (the `--chrome-trace` flag in every
//!   experiment binary) and any registry snapshot as Prometheus text
//!   exposition.
//! * [`flight`] — a [`flight::FlightRecorder`] ring buffer keeping
//!   per-hop forensics for the last K route queries, dumped when a loss,
//!   under-stretch route, or conformance failure is observed.
//!
//! # One seam
//!
//! Experiments never hold the three sinks side by side: a
//! [`telemetry::Telemetry`] value owns the tracer, the registry and the
//! flight ring, and has one method per experiment event (an evaluated
//! route, a resilient delivery, a recovery decision, a maintenance batch,
//! an audited theorem clause) that feeds all three together under one
//! metric namespace (`eval.*`, `recovery.*`, `maintain.*`,
//! `conformance.*`).
//!
//! # Spans ↔ Figure 1/2 route anatomy
//!
//! A delivered [`netsim::Route`] already carries the paper's
//! figure-level decomposition as [`netsim::Segment`]s:
//!
//! * **Figure 1** (name-independent routes): `zoom[k]` → `search[k]` →
//!   `final[k]` segments, one group per search round `k` (Algorithm 3).
//! * **Figure 2** (scale-free labeled routes): `ring-walk[i]` segments for
//!   the greedy phase (Algorithm 5 lines 1–6), then `to-center[j]` /
//!   `tree-search[j]` / `to-target[j]` for the packing phase (lines 7–10).
//!
//! [`spans::route_span_tree`] lifts that decomposition into a span tree —
//! a root span covering the whole route whose children are the segments in
//! travel order — with the invariant (checked by `Route::verify` and this
//! crate's golden test) that **child span costs sum exactly to the root's
//! recorded cost**. The same segment labels appear in the figures, so a
//! traced route is a machine-readable row of Figure 1 or Figure 2.
//!
//! # Example
//!
//! ```rust
//! use obs::trace::Tracer;
//! use obs::metrics::Log2Histogram;
//!
//! let tracer = Tracer::recording();
//! {
//!     let _build = tracer.span("build");
//!     let _rings = tracer.span("ring-build"); // nested under "build"
//! }
//! let log = tracer.finish();
//! assert_eq!(log.spans.len(), 2);
//! assert_eq!(log.spans[1].parent, Some(0));
//!
//! let mut h = Log2Histogram::new();
//! h.record(5);
//! h.record(1000);
//! assert_eq!(h.count(), 2);
//! assert_eq!(h.max(), Some(1000));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod phase;
pub mod registry;
pub mod spans;
pub mod telemetry;
pub mod trace;

pub use flight::FlightRecorder;
pub use metrics::{Counter, Log2Histogram};
pub use phase::PhaseBreakdown;
pub use registry::MetricsRegistry;
pub use spans::{route_span_tree, RouteMetrics};
pub use telemetry::Telemetry;
pub use trace::{TraceLog, Tracer};

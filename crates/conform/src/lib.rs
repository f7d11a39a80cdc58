//! Guarantee-certification engine for the compact-routing workspace.
//!
//! The paper's deliverables are *proven bounds* — stretch `1 + O(ε)` for
//! the labeled schemes and `9 + O(ε)` for the name-independent ones, table
//! sizes `(1/ε)^O(α)·log Δ·log n` and `(1/ε)^O(α)·log³ n` bits, `⌈log n⌉`-bit
//! labels, and the matching stretch-9 lower bound (Theorems 1.1–1.4). This
//! crate turns each theorem into an executable [`guarantee::Guarantee`]
//! (a symbolic bound with explicit, documented constants) and audits a
//! *built* scheme instance against it:
//!
//! * **exhaustive stretch audit** — every ordered pair is routed, every
//!   route is replayed hop by hop against the graph and cross-checked
//!   against the APSP baseline (the differential oracle), and the worst
//!   pair is kept as a [`certificate::Witness`] with its full route;
//! * **per-node table audit** — every node's claimed `table_bits` is
//!   compared against an independently enumerated
//!   [`netsim::scheme::Certifiable`] component list re-priced through
//!   [`netsim::bits::FieldWidths`] (double-entry bookkeeping);
//! * **header/label audit** — measured on the actual routed packets and
//!   the actual label assignment.
//!
//! A [`certificate::Certificate`] aggregates the clause verdicts with
//! measured-vs-bound margins; [`audit::certify_lower_bound`] covers
//! Theorem 1.3 by playing the adversarial search game. The
//! [`sabotage`] wrappers exist so the test suite can prove the checker
//! rejects corrupted schemes instead of passing vacuously.
//!
//! [`audit::certify`] takes any scheme behind the
//! [`netsim::scheme::Deliver`] seam, so one certifier covers both
//! addressing models: a [`netsim::scheme::Labeled`] scheme also gets the
//! label-size and label-bijection checks, a [`netsim::scheme::Named`] one
//! is routed by original names.
//!
//! # Example
//!
//! ```rust
//! use conform::audit::certify;
//! use conform::guarantee::{Guarantee, Params};
//! use doubling_metric::{gen, Eps, MetricSpace};
//! use labeled_routing::NetLabeled;
//! use netsim::scheme::Labeled;
//! use netsim::stats::all_pairs;
//!
//! let m = MetricSpace::new(&gen::grid(5, 5));
//! let eps = Eps::one_over(8);
//! let s = NetLabeled::new(&m, eps)?;
//! let cert = certify(
//!     &m,
//!     &m,
//!     &Labeled(&s),
//!     &Guarantee::lemma_3_1(),
//!     &Params::measure(&m, eps),
//!     &all_pairs(m.n()),
//!     1,
//! );
//! assert!(cert.pass());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod certificate;
pub mod guarantee;
pub mod sabotage;

pub use audit::{
    audit_routes_with, audit_tables, certify, certify_lower_bound, spot_audit, RouteAudit,
    SpotAudit, TableAudit,
};
pub use certificate::{Certificate, ClauseResult, Direction, Witness};
pub use guarantee::{Expr, Guarantee, Params};
pub use sabotage::{BitWiden, NextHopSwap};

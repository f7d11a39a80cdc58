//! Routing-scheme simulator for the compact-routing workspace.
//!
//! The paper's claims are about three quantities: the **stretch** of the
//! delivered path, the **routing-table bits** per node, and the **packet
//! header bits**. This crate pins down how each is measured:
//!
//! * A scheme executes a route as a sequence of *hops over real graph
//!   edges*, captured by a [`route::RouteRecorder`] that validates adjacency
//!   of consecutive hops and charges the exact edge weights. Upper layers
//!   never teleport: a "virtual edge" of a search tree is traversed by
//!   walking the underlying shortest path (or the underlying labeled
//!   scheme's route), and its true cost is charged.
//! * Table bits are reported per node by the scheme itself, using the
//!   [`bits`] conventions (node ids, labels and ports cost `⌈log₂ n⌉` bits,
//!   distances `⌈log₂ diameter⌉ + 1`, levels `⌈log₂(L+1)⌉`).
//! * Header bits are the maximum, over all hops of a route, of the
//!   serialized header size the scheme declares via
//!   [`route::RouteRecorder::note_header_bits`].
//!
//! Two scheme flavours mirror the paper's two models:
//! [`scheme::LabeledScheme`] (the designer assigns labels; the source knows
//! the destination's label) and [`scheme::NameIndependentScheme`] (the
//! source knows only the adversarially-assigned original [`scheme::Name`]).
//! Both are measured through one seam, [`scheme::Deliver`], by the single
//! evaluation driver in [`stats`].
//!
//! # Example
//!
//! ```rust
//! use doubling_metric::{gen, MetricSpace};
//! use netsim::baseline::FullTable;
//! use netsim::scheme::LabeledScheme;
//!
//! let m = MetricSpace::new(&gen::grid(4, 4));
//! let scheme = FullTable::new(&m);
//! let route = scheme.route(&m, 0, scheme.label_of(15)).unwrap();
//! assert_eq!(route.cost, m.dist(0, 15)); // stretch 1
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod bits;
pub mod faults;
pub mod json;
pub mod maintain;
pub mod naming;
pub mod plane;
pub mod recovery;
pub mod route;
pub mod scheme;
pub mod stats;

pub use bits::{FieldWidths, TableComponent};
pub use maintain::{
    BatchAction, BatchReport, MaintainError, Maintainable, Maintainer, MaintainerConfig,
    RepairStats,
};
pub use naming::Naming;
pub use plane::{BitArena, BitCursor, ForwardingPlane};
pub use recovery::{
    DeliveryOutcome, FallbackHierarchy, LossReason, RecoveryEvent, RecoveryPolicy, ResilientRouter,
};
pub use route::{Route, RouteError, RouteRecorder, Segment};
pub use scheme::{
    Certifiable, Deliver, Label, Labeled, LabeledScheme, Name, NameIndependentScheme, Named,
};

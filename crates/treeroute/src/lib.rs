//! Compact routing on trees — the Lemma 4.1 substrate.
//!
//! The paper uses, as a black box, the tree-routing schemes of Fraigniaud &
//! Gavoille and Thorup & Zwick: *"For every weighted tree `T` on `n` nodes,
//! there exists a labeled routing scheme that, given any destination label,
//! routes optimally on `T` from any source to the destination. The storage
//! per node, the label size, and header size are `O(log²n / log log n)`
//! bits."* (Lemma 4.1.)
//!
//! This crate implements it once, over an explicit rooted weighted
//! [`tree::Tree`] whose edges are graph edges: [`port::PortTreeRouter`],
//! heavy-path routing in the port model of Fraigniaud–Gavoille. A label is
//! the node's DFS number plus one `(dfs, port)` pair per light edge on its
//! root path (`O(log² n)` bits, since there are at most `⌊log n⌋` light
//! edges), and every node keeps `O(log n)`-bit tables regardless of its
//! degree. It routes the Voronoi trees `T_c(j)` of Section 4, whose
//! degrees are unbounded. [`heavy`] holds the decomposition and the
//! forwarding decision, which a forwarding plane also runs over packed
//! records.
//!
//! The router routes *optimally* (along the unique tree path). We do not
//! implement the final `log log n`-factor label compression of Thorup–Zwick
//! (a pure re-encoding); measured label sizes are reported honestly as
//! `O(log² n)` (see DESIGN.md).

#![warn(missing_docs)]

pub mod heavy;
pub mod port;
pub mod tree;

pub use heavy::RouterRecords;
pub use port::{next_hop, PortLabel, PortTreeRouter};
pub use tree::{Tree, TreeError};

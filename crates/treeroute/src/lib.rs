//! Compact routing on trees — the Lemma 4.1 substrate.
//!
//! The paper uses, as a black box, the tree-routing schemes of Fraigniaud &
//! Gavoille and Thorup & Zwick: *"For every weighted tree `T` on `n` nodes,
//! there exists a labeled routing scheme that, given any destination label,
//! routes optimally on `T` from any source to the destination. The storage
//! per node, the label size, and header size are `O(log²n / log log n)`
//! bits."* (Lemma 4.1.)
//!
//! This crate provides two implementations over an explicit rooted
//! weighted [`tree::Tree`]:
//!
//! * [`interval::IntervalRouter`] — classic DFS interval routing: label =
//!   DFS number (`⌈log n⌉` bits), each node stores the DFS interval of each
//!   child. Storage is `O(deg · log n)` per node — exactly the structure
//!   the paper itself uses inside its search trees, where degrees are
//!   bounded by `(1/ε)^{O(α)}`.
//! * [`compact::CompactTreeRouter`] — heavy-path routing in the style of
//!   Fraigniaud–Gavoille: label = DFS number plus one `(dfs, child)` pair
//!   per light edge on the root path (`O(log² n)` bits since there are at
//!   most `⌊log n⌋` light edges), and `O(log n)`-bit tables at every node
//!   regardless of degree. [`port::PortTreeRouter`] is the same scheme
//!   naming each light edge by its physical port instead; it is the router
//!   used for the Voronoi trees `T_c(j)` of Section 4, whose degrees are
//!   unbounded. Both share [`heavy`]'s decomposition and forwarding
//!   decision.
//!
//! Both routers route *optimally* (along the unique tree path). We do not
//! implement the final `log log n`-factor label compression of Thorup–Zwick
//! (a pure re-encoding); measured label sizes are reported honestly as
//! `O(log² n)` (see DESIGN.md).

#![warn(missing_docs)]

pub mod compact;
pub mod heavy;
pub mod interval;
pub mod port;
pub mod tree;

pub use compact::{CompactLabel, CompactTreeRouter};
pub use heavy::RouterRecords;
pub use interval::IntervalRouter;
pub use port::{next_hop, PortLabel, PortTreeRouter};
pub use tree::{Tree, TreeError};

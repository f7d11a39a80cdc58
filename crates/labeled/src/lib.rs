//! Labeled (name-dependent) compact routing schemes for networks of low
//! doubling dimension.
//!
//! Both schemes assign each node the `⌈log n⌉`-bit label `l(v)` given by the
//! DFS leaf enumeration of the netting tree (Section 4.1), and both route by
//! the same greedy principle: at the current node, find the *lowest* level
//! `i` whose ring `X_i(u) = B_u(2^i/ε) ∩ Y_i` contains a net point `x` with
//! `l(v) ∈ Range(x, i)` — that `x` is necessarily `v(i)`, the level-`i`
//! member of the destination's zooming sequence — and step toward it.
//!
//! The scheme is written once, [`Labeled<P>`](scale_free::Labeled), over
//! a level policy ([`LevelPolicy`]) that fixes which levels each node
//! stores, with one walk (Algorithm 5) and one plane format:
//!
//! * [`NetLabeled`] = `Labeled<AllLevels>` stores rings for **every**
//!   level `i ∈ [log Δ]` and packs no balls, which makes the greedy walk
//!   alone deliver with stretch `1+O(ε)` at `(1/ε)^{O(α)}·log Δ·log n`
//!   bits per node. This is the workspace's stand-in for the Abraham et
//!   al. scheme the paper cites as Lemma 3.1 (see DESIGN.md), and the
//!   `log Δ` factor is exactly why it is *not* scale-free.
//! * [`ScaleFreeLabeled`] = `Labeled<SparseLevels>` (**Theorem 1.2**)
//!   stores rings only for the `O(log n / ε)` levels in `R(u) = {i : ∃j,
//!   (ε/6)·r_u(j) ≤ 2^i ≤ r_u(j)}`, and ends the greedy walk early
//!   (Algorithm 5's stopping rule). The remaining distance is covered by
//!   the ball-packing machinery: route to the Voronoi center `c` of a
//!   packed ball in `ℬ_j`, look up the destination's *local* tree-routing
//!   label in the search tree `T'(c, r_c(j))` (Lemma 4.5 guarantees it is
//!   there), and finish on the shortest-path tree `T_c(j)`. Storage drops
//!   to `(1/ε)^{O(α)}·log³ n` bits — independent of Δ.

#![warn(missing_docs)]

pub mod error;
pub mod net_labeled;
pub mod oracle;
pub mod plane;
pub mod rings;
pub mod scale_free;
pub mod view;

pub use error::SchemeError;
pub use net_labeled::NetLabeled;
pub use oracle::DistanceEstimate;
pub use plane::{LabeledPlane, NetLabeledPlane, ScaleFreeLabeledPlane};
pub use scale_free::{AllLevels, Labeled, LevelPolicy, ScaleFreeLabeled, SparseLevels};
pub use view::{CellView, LabeledView, RingHit};

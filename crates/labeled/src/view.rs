//! Read-only table views: the state each labeled routing procedure reads.
//!
//! Each routing procedure of this crate exists once, generic over one of
//! these traits: the greedy ring walk in [`crate::net_labeled`] over a
//! [`NetLabeledView`], and Algorithm 5 in [`crate::scale_free`] over a
//! [`ScaleFreeView`]. The in-memory schemes implement the traits over
//! their vectors, and the forwarding planes of [`crate::plane`] over
//! packed bits. A plane routes hop-identically to its scheme because both
//! run the same procedure; what remains to check is that the two views
//! answer every query alike, which the differential tests do accessor by
//! accessor.
//!
//! The traits take node ids and labels and return small values (or a
//! borrowed cell view), so a per-hop step function can later reuse them
//! unchanged.

use std::borrow::Cow;

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::space::MetricSpace;

use netsim::bits::FieldWidths;
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::Label;
use searchtree::TreeScan;
use treeroute::{PortLabel, RouterRecords};

/// A minimal-level ring hit: the lowest level `i` whose ring at the
/// querying node holds an entry `x` with the label in `Range(x, i)`, so
/// that `x = v(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingHit {
    /// The level `i` of the hit.
    pub level: u32,
    /// The net point `x = v(i)`.
    pub x: NodeId,
    /// The neighbour on the shortest path toward `x` (the node itself if
    /// it is `x`).
    pub next: NodeId,
}

/// What every labeled table answers, and the scheme's route over it.
pub trait LabeledView {
    /// The field widths the tables were sized with.
    fn widths(&self) -> FieldWidths;

    /// The label of node `u`. A departed node reports a value that no
    /// active node carries, so it never matches a live destination.
    fn label_at(&self, u: NodeId) -> Label;

    /// Moves the packet from `rec`'s current node to the node labeled
    /// `target` with this scheme's one routing procedure over this view,
    /// continuing `rec` (a caller's sub-route runs it inside
    /// [`RouteRecorder::nested`]).
    ///
    /// # Errors
    ///
    /// The procedure's lookup failures and hop-budget loops.
    fn walk_label(&self, rec: &mut RouteRecorder<'_>, target: Label) -> Result<(), RouteError>;

    /// Routes from `src` toward the node labeled `target`: one recorder,
    /// one [`Self::walk_label`].
    ///
    /// # Errors
    ///
    /// As [`Self::walk_label`].
    fn route_label(
        &self,
        m: &MetricSpace,
        src: NodeId,
        target: Label,
    ) -> Result<Route, RouteError> {
        let mut rec = RouteRecorder::new(m, src);
        self.walk_label(&mut rec, target)?;
        Ok(rec.finish())
    }
}

/// The tables of the non-scale-free scheme: a ring for every level.
pub trait NetLabeledView: LabeledView {
    /// The minimal-level ring hit for `label` at node `u`, if any.
    fn min_hit(&self, u: NodeId, label: Label) -> Option<RingHit>;
}

/// One Voronoi cell of the scale-free scheme: ball `k` of `ℬ_j`, its
/// shortest-path tree router and its local-label search tree.
#[derive(Debug, Clone)]
pub struct CellView<'a, R, S> {
    /// The ball center `c`.
    pub center: NodeId,
    /// Port field width of the cell's tree router.
    pub port_bits: u64,
    /// The center's own local tree label `l(c; c, j)`.
    pub root_label: Cow<'a, PortLabel>,
    /// The router records of `T_c(j)`.
    pub router: R,
    /// The search tree `T'(c, r_c(j))` of local labels.
    pub search: S,
}

/// The tables of the scale-free scheme (Theorem 1.2): rings on `R(u)`,
/// Voronoi rows, and per-cell routers and search trees.
pub trait ScaleFreeView: LabeledView {
    /// Router records of one cell.
    type Router<'a>: RouterRecords
    where
        Self: 'a;

    /// Local-label search tree of one cell.
    type Search<'a>: TreeScan<Item = PortLabel>
    where
        Self: 'a;

    /// `ε` as the exact ratio `(num, den)`.
    fn eps_ratio(&self) -> (u64, u64);

    /// `⌈log₂ n⌉`, the largest ball-packing size exponent.
    fn log2_n(&self) -> u32;

    /// The minimal-level ring hit among `R(u)`, with the stored
    /// `d(u, x)`.
    fn min_hit(&self, u: NodeId, label: Label) -> Option<(RingHit, Dist)>;

    /// Node `u`'s Voronoi row at size exponent `j`: its ball index `k` in
    /// `ℬ_j` and its local index in that cell's tree.
    fn voronoi_row(&self, u: NodeId, j: u32) -> (u32, u32);

    /// Ball `k`'s cell at size exponent `j`.
    fn cell(&self, j: u32, k: u32) -> CellView<'_, Self::Router<'_>, Self::Search<'_>>;
}

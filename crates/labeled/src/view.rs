//! The read-only table view: the state the labeled routing procedure reads.
//!
//! The labeled routing procedure exists once, Algorithm 5's walk in
//! [`crate::scale_free`], generic over [`LabeledView`]. The in-memory
//! scheme implements the trait over its vectors, and the forwarding plane
//! of [`crate::plane`] over packed bits, under either level policy. A
//! plane routes hop-identically to its scheme because both run the same
//! procedure; what remains to check is that the two views answer every
//! query alike, which the differential tests do accessor by accessor.
//!
//! The trait takes node ids and labels and returns small values (or a
//! borrowed cell view), so a per-hop step function can later reuse it
//! unchanged.

use std::borrow::Cow;

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use netsim::bits::FieldWidths;
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::Label;
use searchtree::TreeScan;
use treeroute::{PortLabel, RouterRecords};

use crate::scale_free::{walk, LevelPolicy};

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

/// One Voronoi cell of a scheme that packs balls: ball `k` of `ℬ_j`, its
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

/// What every labeled table answers — labels, rings on the stored levels
/// and, where the policy packs balls, `ε`, Voronoi rows and per-cell
/// routers and search trees — and the scheme's route over it.
///
/// The packing-phase accessors ([`Self::eps_ratio`], [`Self::voronoi_row`],
/// [`Self::cell`]) are read only by a walk that stalls, so only under a
/// policy that packs balls. Tables without packed balls store none of
/// their state, and their answers are unspecified (they may panic).
pub trait LabeledView {
    /// Which levels the tables store.
    type Policy: LevelPolicy;

    /// Router records of one cell.
    type Router<'a>: RouterRecords
    where
        Self: 'a;

    /// Local-label search tree of one cell.
    type Search<'a>: TreeScan<Item = PortLabel>
    where
        Self: 'a;

    /// The field widths the tables were sized with.
    fn widths(&self) -> FieldWidths;

    /// The label of node `u`. A departed node reports a value that no
    /// active node carries, so it never matches a live destination.
    fn label_at(&self, u: NodeId) -> Label;

    /// The minimal-level ring hit for `label` among `u`'s stored levels,
    /// with what the policy stores beside it ([`LevelPolicy::HitDist`]).
    fn min_hit(
        &self,
        u: NodeId,
        label: Label,
    ) -> Option<(RingHit, <Self::Policy as LevelPolicy>::HitDist)>;

    /// `ε` as the exact ratio `(num, den)`.
    fn eps_ratio(&self) -> (u64, u64);

    /// Node `u`'s Voronoi row at size exponent `j`: its ball index `k` in
    /// `ℬ_j` and its local index in that cell's tree.
    fn voronoi_row(&self, u: NodeId, j: u32) -> (u32, u32);

    /// Ball `k`'s cell at size exponent `j`.
    fn cell(&self, j: u32, k: u32) -> CellView<'_, Self::Router<'_>, Self::Search<'_>>;

    /// Moves the packet from `rec`'s current node to the node labeled
    /// `target` with the one labeled walk over this view, continuing `rec`
    /// (a caller's sub-route runs it inside [`RouteRecorder::nested`]).
    ///
    /// # Errors
    ///
    /// The walk's lookup failures and hop-budget loops.
    fn walk_label(&self, rec: &mut RouteRecorder<'_>, target: Label) -> Result<(), RouteError> {
        walk(self, rec, target)
    }

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

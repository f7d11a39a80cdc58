//! Read-only name-resolution views and the one name-independent routing
//! procedure that runs over them.
//!
//! Both name-independent schemes route the same way (Algorithm 3): walk
//! the source's zooming sequence and, at each round's host, search the
//! round's facility for the name — directly in the host's own tree
//! (Algorithm 2), or by a detour through a packed ball's tree (Algorithm
//! 4's `H(y, k)` link). Every movement is a real route of the underlying
//! labeled scheme. That round loop is written once over a
//! [`NameIndependentView`]; [`route_named`] runs it for a node name, and
//! [`crate::ObjectDirectory::locate`] for an object key. The in-memory
//! schemes, their forwarding planes and the object directory all implement
//! the view, and [`go`] runs every sub-route through whichever
//! [`LabeledView`] the view wraps.
//!
//! A query owns one [`RouteRecorder`]. Each underlying leg walks inside
//! it through [`RouteRecorder::nested`], folding into the open zoom,
//! search or final segment, and each search tree is descended as a stream
//! ([`descend`]): the packet reaches a tree node, the node's record is
//! scanned there, and the next leg starts. No sub-route or search walk is
//! materialized.

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use labeled_routing::LabeledView;
use netsim::route::{Route, RouteError, RouteRecorder};
use netsim::scheme::{Label, Name};
use searchtree::{descend, TreeScan};

/// A round host's search facility, as a view yields it.
#[derive(Debug, Clone, Copy)]
pub enum Facility<T> {
    /// The host keeps its own search tree over `B_y(ρ_k)` (member of 𝒜).
    Own(T),
    /// `H(y, k)`: the ℬ-type tree of ball `ball` in `ℬ_j` indexes
    /// everything `B_y(ρ_k)` would, so the packet detours to that tree's
    /// center, searches it, and returns.
    Link {
        /// Size exponent of the packing holding the linked tree.
        j: u32,
        /// Ball index within `ℬ_j`.
        ball: u32,
        /// The linked ℬ-type tree.
        tree: T,
    },
}

/// The name-resolution tables of a name-independent scheme.
pub trait NameIndependentView {
    /// The underlying labeled tables every movement routes over.
    type Labeled: LabeledView;

    /// A search tree of `(name, label)` pairs.
    type Tree<'a>: TreeScan<Item = Label>
    where
        Self: 'a;

    /// The underlying labeled view.
    fn underlying(&self) -> &Self::Labeled;

    /// The name of node `u`.
    fn name_at(&self, u: NodeId) -> Name;

    /// Number of search rounds.
    fn round_count(&self) -> usize;

    /// Number of hosts (members of the hosting net level) of round `k`.
    fn hosts(&self, k: usize) -> usize;

    /// Node `u`'s row for round `k`: its zoom `y = u(i_k)` at the round's
    /// hosting level and `y`'s index in that level. A departed node has no
    /// zooming sequence; its row names the level's first host.
    fn zoom_row(&self, u: NodeId, k: usize) -> (NodeId, usize);

    /// The facility of the `j`-th host of round `k`.
    fn facility(&self, k: usize, j: usize) -> Facility<Self::Tree<'_>>;
}

/// Moves the packet to the node labeled `target` with the underlying
/// labeled scheme, as a sub-route nested in `rec` (a no-op when already
/// there).
///
/// # Errors
///
/// The underlying route's errors.
pub fn go<L: LabeledView + ?Sized>(
    underlying: &L,
    rec: &mut RouteRecorder<'_>,
    target: Label,
) -> Result<(), RouteError> {
    if underlying.label_at(rec.current()) == target {
        return Ok(());
    }
    rec.nested(|rec| underlying.walk_label(rec, target))
}

/// Searches one facility for `key` from its host (the current node),
/// returning the label if found, with the packet back at the host.
fn search<L: LabeledView + ?Sized, T: TreeScan<Item = Label>>(
    underlying: &L,
    rec: &mut RouteRecorder<'_>,
    facility: &Facility<T>,
    key: u32,
) -> Result<Option<Label>, RouteError> {
    let (tree, host) = match facility {
        Facility::Own(tree) => (tree, None),
        Facility::Link { tree, .. } => {
            // Go to the packed ball's center first, and come back after.
            let host = rec.current();
            go(underlying, rec, underlying.label_at(tree.node_of(0)))?;
            (tree, Some(host))
        }
    };
    let found = descend(tree, key, |x| go(underlying, rec, underlying.label_at(x)))?;
    if let Some(y) = host {
        go(underlying, rec, underlying.label_at(y))?;
    }
    Ok(found)
}

/// Algorithm 3's rounds over any [`NameIndependentView`], with the packet
/// at `src`: for each round `k`, zoom to the host `u(i_k)`, search its
/// facility for `key`, and on the first hit route to the returned label.
/// Returns whether a round found the key; the packet then stands at the
/// label's node, and otherwise at the last round's host.
///
/// # Errors
///
/// A sub-route's errors.
pub(crate) fn search_rounds<V: NameIndependentView + ?Sized>(
    view: &V,
    rec: &mut RouteRecorder<'_>,
    src: NodeId,
    key: u32,
) -> Result<bool, RouteError> {
    let underlying = view.underlying();
    for k in 0..view.round_count() {
        // Go to the round's host u(i_k) — reached by netting-tree hops
        // whose labels the intermediate net points store.
        let (y, j) = view.zoom_row(src, k);
        rec.begin_segment("zoom", Some(k as u32));
        go(underlying, rec, underlying.label_at(y))?;

        rec.begin_segment("search", Some(k as u32));
        if let Some(label) = search(underlying, rec, &view.facility(k, j), key)? {
            rec.begin_segment("final", Some(k as u32));
            go(underlying, rec, label)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Algorithm 3 over any [`NameIndependentView`]: the search rounds for
/// `name`, from `src`. The header carries the name and the round.
///
/// # Errors
///
/// A sub-route's errors, or [`RouteError::LookupFailed`] if no round
/// finds the name.
pub fn route_named<V: NameIndependentView + ?Sized>(
    view: &V,
    m: &MetricSpace,
    src: NodeId,
    name: Name,
) -> Result<Route, RouteError> {
    let widths = view.underlying().widths();
    let mut rec = RouteRecorder::new(m, src);
    // Name-independent header: the destination name plus the current
    // round; the nested underlying legs fold their headers in.
    rec.note_header_bits(widths.node + widths.level);

    if view.name_at(src) == name || search_rounds(view, &mut rec, src, name)? {
        return Ok(rec.finish());
    }
    Err(RouteError::LookupFailed {
        at: rec.current(),
        detail: format!("name {name} not found at any round (top ball must cover V)"),
    })
}

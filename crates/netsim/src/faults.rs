//! Fault injection: failure plans, adversarial removal strategies, and the
//! surviving subnetwork used to measure rebuild cost.
//!
//! The paper proves its guarantees on *static* networks; a deployed
//! routing scheme meets churn. This module supplies the vocabulary the
//! churn experiments need:
//!
//! * A [`FaultPlan`] is a set of dead nodes and dead edges. Plans are built
//!   by removal strategies — uniformly random ([`FaultPlan::random_nodes`]),
//!   targeted at high-degree nodes ([`FaultPlan::targeted_by_degree`]), or
//!   targeted at the net centers of the paper's hierarchies
//!   ([`FaultPlan::targeted_net_centers`]) — the natural adversarial
//!   target, since a level-`i` net center carries the search-tree and zoom
//!   traffic of its whole level-`i` cell.
//! * **The casualty rule** is written once, in [`FaultPlan::blocks`]: a
//!   hop is refused if it enters a dead node or crosses a dead edge. The
//!   recovery runtime's drive loop and its surviving-graph searches ask
//!   it, and so does [`FaultTimeline::check_route`], the oracle that
//!   re-verifies a delivered route.
//! * **Stale-table routing** is the recovery runtime's
//!   [`RecoveryPolicy::Drop`](crate::recovery::RecoveryPolicy::Drop) on
//!   [`FaultTimeline::from_plan`]: the scheme routes with its pre-failure
//!   tables, and the packet is delivered only if that route avoids every
//!   casualty; otherwise it is lost at the first one.
//! * **Rebuild**: [`SurvivingNetwork`] extracts the largest connected
//!   component of the post-failure graph with a fresh [`MetricSpace`], so
//!   callers can re-run preprocessing and measure its wall-clock cost and
//!   the recovered reachability.
//! * **Dynamic faults**: a [`FaultTimeline`] strings cumulative plans into
//!   epochs that advance with the packet's hop count, so failures can land
//!   *mid-route*; the [`crate::recovery`] runtime drives deliveries
//!   against it. Plans and timelines serialize via
//!   [`FaultPlan::to_json`] / [`FaultTimeline::to_json`], which is how the
//!   chaos campaign's worst-case fault sets stay reproducible from
//!   `results/recovery.json`.
//!
//! # Example
//!
//! ```rust
//! use doubling_metric::{gen, MetricSpace};
//! use netsim::baseline::FullTable;
//! use netsim::faults::{FaultPlan, FaultTimeline};
//! use netsim::recovery::{DeliveryOutcome, RecoveryPolicy, ResilientRouter};
//! use netsim::scheme::Labeled;
//!
//! let m = MetricSpace::new(&gen::grid(4, 4));
//! let scheme = FullTable::new(&m);
//! let mut plan = FaultPlan::none(m.n());
//! plan.kill_node(5); // on the shortest 0 → 15 route's path? replay decides
//! let timeline = FaultTimeline::from_plan(plan);
//! let labeled = Labeled(&scheme);
//! let stale = ResilientRouter::without_hierarchy(&m, &labeled, RecoveryPolicy::Drop);
//! // Either the packet got through on a survivor path, or it was lost at a
//! // dead element — never silently misdelivered.
//! match stale.deliver(0, 15, &timeline, &mut |_| {}) {
//!     DeliveryOutcome::Delivered { route, .. } => timeline.check_route(&route).unwrap(),
//!     DeliveryOutcome::Lost { .. } => {}
//! }
//! ```

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::nets::NetHierarchy;
use doubling_metric::space::MetricSpace;

use crate::json::Value;
use crate::route::{Route, RouteError};

/// Why a [`FaultTimeline`] schedule is invalid.
///
/// Produced by [`FaultTimeline::new`]; [`FaultTimeline::from_json`] wraps
/// it in [`FaultJsonError::InvalidTimeline`] when a decoded document
/// parses but fails these semantic checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// The epoch list is empty — a timeline needs at least one plan.
    NoEpochs,
    /// More than one epoch was given with `hops_per_epoch == 0`, so the
    /// later epochs could never activate.
    ZeroHopsPerEpoch,
    /// Consecutive epochs cover different node counts.
    NodeCountMismatch {
        /// Node count of the earlier epoch in the offending pair.
        prev: usize,
        /// Node count of the later epoch.
        next: usize,
    },
    /// A casualty of an earlier epoch is alive again in a later one;
    /// failures must accumulate, nothing resurrects.
    NotCumulative {
        /// Index of the later epoch that dropped a casualty.
        epoch: usize,
    },
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineError::NoEpochs => write!(f, "timeline needs at least one epoch"),
            TimelineError::ZeroHopsPerEpoch => {
                write!(f, "multi-epoch timeline needs hops_per_epoch >= 1")
            }
            TimelineError::NodeCountMismatch { prev, next } => {
                write!(f, "timeline epochs cover different node counts ({prev} then {next})")
            }
            TimelineError::NotCumulative { epoch } => {
                write!(
                    f,
                    "timeline epoch {epoch} resurrects a casualty of the epoch before it \
                     (failures must be cumulative)"
                )
            }
        }
    }
}

impl std::error::Error for TimelineError {}

/// Why a fault JSON document failed to decode.
///
/// Produced by [`FaultPlan::from_json`] and [`FaultTimeline::from_json`].
/// Structural problems (missing fields, wrong shapes, out-of-range ids)
/// get their own variants; a document that parses but encodes an invalid
/// schedule surfaces as [`FaultJsonError::InvalidTimeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultJsonError {
    /// A required field is missing or has the wrong JSON type.
    MissingField {
        /// Name of the absent or mistyped field.
        field: &'static str,
    },
    /// An entry of `dead_nodes` is not a non-negative integer.
    NodeNotIntegral,
    /// A dead node id is outside `0..n`.
    NodeOutOfRange {
        /// The offending node id as written in the document.
        node: u64,
        /// The plan's node count.
        n: usize,
    },
    /// An entry of `dead_edges` is not a two-element `[u, v]` array of
    /// non-negative integers.
    MalformedEdge,
    /// A dead edge names an endpoint outside `0..n`.
    EdgeOutOfRange {
        /// First endpoint as written in the document.
        u: u64,
        /// Second endpoint.
        v: u64,
        /// The plan's node count.
        n: usize,
    },
    /// The decoded epochs do not form a valid [`FaultTimeline`].
    InvalidTimeline(TimelineError),
}

impl std::fmt::Display for FaultJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultJsonError::MissingField { field } => {
                write!(f, "fault JSON missing or mistyped field `{field}`")
            }
            FaultJsonError::NodeNotIntegral => write!(f, "dead node is not integral"),
            FaultJsonError::NodeOutOfRange { node, n } => {
                write!(f, "dead node {node} out of range (n = {n})")
            }
            FaultJsonError::MalformedEdge => write!(f, "dead edge is not a [u, v] pair"),
            FaultJsonError::EdgeOutOfRange { u, v, n } => {
                write!(f, "dead edge ({u}, {v}) out of range (n = {n})")
            }
            FaultJsonError::InvalidTimeline(e) => write!(f, "decoded timeline is invalid: {e}"),
        }
    }
}

impl std::error::Error for FaultJsonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultJsonError::InvalidTimeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TimelineError> for FaultJsonError {
    fn from(e: TimelineError) -> Self {
        FaultJsonError::InvalidTimeline(e)
    }
}

/// A set of failed nodes and edges to inject into routing.
///
/// The plan is independent of any scheme: the same plan can be applied to
/// every scheme under test, which is what makes per-scheme degradation
/// curves comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// `dead[v]` — node `v` has failed.
    dead_nodes: Vec<bool>,
    /// Dead edges in canonical `(min, max)` form. Edges incident to dead
    /// nodes are implicitly dead and not stored here.
    dead_edges: HashSet<(NodeId, NodeId)>,
    dead_node_count: usize,
}

impl FaultPlan {
    /// The empty plan on `n` nodes: nothing fails, and fault-aware routing
    /// is byte-identical to plain routing.
    pub fn none(n: usize) -> Self {
        FaultPlan { dead_nodes: vec![false; n], dead_edges: HashSet::new(), dead_node_count: 0 }
    }

    /// Number of nodes the plan covers.
    pub fn n(&self) -> usize {
        self.dead_nodes.len()
    }

    /// `true` if nothing fails under this plan.
    pub fn is_empty(&self) -> bool {
        self.dead_node_count == 0 && self.dead_edges.is_empty()
    }

    /// Marks node `v` failed.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn kill_node(&mut self, v: NodeId) {
        if !self.dead_nodes[v as usize] {
            self.dead_nodes[v as usize] = true;
            self.dead_node_count += 1;
        }
    }

    /// Marks the undirected edge `(u, v)` failed.
    pub fn kill_edge(&mut self, u: NodeId, v: NodeId) {
        self.dead_edges.insert((u.min(v), u.max(v)));
    }

    /// Whether node `v` has failed.
    #[inline]
    pub fn is_node_dead(&self, v: NodeId) -> bool {
        self.dead_nodes[v as usize]
    }

    /// Whether the edge `(u, v)` has failed — directly, or because an
    /// endpoint is dead.
    #[inline]
    pub fn is_edge_dead(&self, u: NodeId, v: NodeId) -> bool {
        self.is_node_dead(u)
            || self.is_node_dead(v)
            || self.dead_edges.contains(&(u.min(v), u.max(v)))
    }

    /// The casualty rule for one hop `cur → next` (`cur ≠ next`): the
    /// loss it causes, or `None` if the hop survives. Entering a dead node
    /// is [`RouteError::NodeFailed`]; otherwise crossing a dead edge is
    /// [`RouteError::EdgeFailed`].
    #[inline]
    pub fn blocks(&self, cur: NodeId, next: NodeId) -> Option<RouteError> {
        if self.is_node_dead(next) {
            Some(RouteError::NodeFailed { node: next })
        } else if self.is_edge_dead(cur, next) {
            Some(RouteError::EdgeFailed { u: cur, v: next })
        } else {
            None
        }
    }

    /// Number of failed nodes.
    pub fn dead_node_count(&self) -> usize {
        self.dead_node_count
    }

    /// Number of directly failed edges (not counting edges lost to dead
    /// endpoints).
    pub fn dead_edge_count(&self) -> usize {
        self.dead_edges.len()
    }

    /// The surviving node ids, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.n() as NodeId).filter(|&v| !self.is_node_dead(v)).collect()
    }

    /// How many nodes a `fraction` in `[0, 1]` removes from `n` (rounded,
    /// capped at `n`).
    fn removal_count(n: usize, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction), "removal fraction out of [0, 1]");
        ((n as f64 * fraction).round() as usize).min(n)
    }

    /// Kills a uniformly random `fraction` of the `n` nodes (deterministic
    /// in `seed`).
    pub fn random_nodes(n: usize, fraction: f64, seed: u64) -> Self {
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        Self::targeted_by_order(&order, n, fraction)
    }

    /// Kills the `fraction` of nodes with the highest degree (ties broken
    /// by least id) — the classic "targeted attack" of the scale-free
    /// robustness literature.
    pub fn targeted_by_degree(g: &Graph, fraction: f64) -> Self {
        let mut order: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        Self::targeted_by_order(&order, g.node_count(), fraction)
    }

    /// Kills the `fraction` of nodes that appear in the highest net levels
    /// (ties broken by least id). Net centers are where the paper's
    /// hierarchies concentrate responsibility, so this is the adversarial
    /// strategy tailored to these schemes.
    pub fn targeted_net_centers(nets: &NetHierarchy, n: usize, fraction: f64) -> Self {
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(nets.max_level_of(v)), v));
        Self::targeted_by_order(&order, n, fraction)
    }

    /// Kills the first `fraction · n` nodes of an explicit priority order.
    /// The building block behind the targeted strategies; exposed so
    /// experiments can plug in their own orderings.
    ///
    /// # Panics
    ///
    /// Panics if `order` has fewer entries than the number to remove.
    pub fn targeted_by_order(order: &[NodeId], n: usize, fraction: f64) -> Self {
        let k = Self::removal_count(n, fraction);
        assert!(order.len() >= k, "priority order shorter than removal count");
        let mut plan = Self::none(n);
        for &v in &order[..k] {
            plan.kill_node(v);
        }
        plan
    }

    /// Whether every casualty of `self` is also a casualty of `other`.
    /// This is the invariant [`FaultTimeline::new`] enforces between
    /// consecutive epochs: failures accumulate, nothing resurrects.
    pub fn is_subset_of(&self, other: &FaultPlan) -> bool {
        self.n() == other.n()
            && (0..self.n() as NodeId).all(|v| !self.is_node_dead(v) || other.is_node_dead(v))
            && self.dead_edges.iter().all(|&(u, v)| other.is_edge_dead(u, v))
    }

    /// The directly-killed edges in canonical `(min, max)` form, ascending.
    pub fn dead_edges_sorted(&self) -> Vec<(NodeId, NodeId)> {
        let mut es: Vec<(NodeId, NodeId)> = self.dead_edges.iter().copied().collect();
        es.sort_unstable();
        es
    }

    /// Encodes the plan as
    /// `{"n": …, "dead_nodes": […], "dead_edges": [[u, v], …]}` (both
    /// lists ascending, so equal plans encode identically).
    pub fn to_json(&self) -> Value {
        let nodes: Vec<Value> =
            (0..self.n() as NodeId).filter(|&v| self.is_node_dead(v)).map(Value::from).collect();
        let edges: Vec<Value> = self
            .dead_edges_sorted()
            .into_iter()
            .map(|(u, v)| Value::Array(vec![u.into(), v.into()]))
            .collect();
        Value::Object(vec![
            ("n".into(), self.n().into()),
            ("dead_nodes".into(), Value::Array(nodes)),
            ("dead_edges".into(), Value::Array(edges)),
        ])
    }

    /// Decodes a plan written by [`FaultPlan::to_json`].
    ///
    /// # Errors
    ///
    /// A [`FaultJsonError`] naming the structural problem: a missing or
    /// mistyped field, a malformed edge pair, or an id outside `0..n`.
    pub fn from_json(v: &Value) -> Result<Self, FaultJsonError> {
        let n =
            v.get("n").and_then(Value::as_u64).ok_or(FaultJsonError::MissingField { field: "n" })?
                as usize;
        let mut plan = FaultPlan::none(n);
        let nodes = v
            .get("dead_nodes")
            .and_then(Value::as_array)
            .ok_or(FaultJsonError::MissingField { field: "dead_nodes" })?;
        for x in nodes {
            let node = x.as_u64().ok_or(FaultJsonError::NodeNotIntegral)?;
            if node as usize >= n {
                return Err(FaultJsonError::NodeOutOfRange { node, n });
            }
            plan.kill_node(node as NodeId);
        }
        let edges = v
            .get("dead_edges")
            .and_then(Value::as_array)
            .ok_or(FaultJsonError::MissingField { field: "dead_edges" })?;
        for e in edges {
            let pair = e.as_array().ok_or(FaultJsonError::MalformedEdge)?;
            if pair.len() != 2 {
                return Err(FaultJsonError::MalformedEdge);
            }
            let u = pair[0].as_u64().ok_or(FaultJsonError::MalformedEdge)?;
            let w = pair[1].as_u64().ok_or(FaultJsonError::MalformedEdge)?;
            if u as usize >= n || w as usize >= n {
                return Err(FaultJsonError::EdgeOutOfRange { u, v: w, n });
            }
            plan.kill_edge(u as NodeId, w as NodeId);
        }
        Ok(plan)
    }
}

/// A dynamic fault schedule: *cumulative* [`FaultPlan`] epochs that
/// advance with a packet's hop count, so failures land mid-route.
///
/// Epoch `k` is active while the packet has taken `k·hops_per_epoch ..
/// (k+1)·hops_per_epoch` hops; the last epoch stays active forever. Every
/// epoch must contain all casualties of the one before it (checked by
/// [`FaultTimeline::new`] via [`FaultPlan::is_subset_of`]): failures
/// accumulate, nothing resurrects.
///
/// The single-epoch form ([`FaultTimeline::from_plan`], with
/// `hops_per_epoch == 0`) reproduces static [`FaultPlan`] semantics
/// exactly — the equivalence the recovery test-suite pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTimeline {
    epochs: Vec<FaultPlan>,
    hops_per_epoch: usize,
}

impl FaultTimeline {
    /// The static timeline: one epoch, active for the whole delivery.
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultTimeline { epochs: vec![plan], hops_per_epoch: 0 }
    }

    /// A timeline from explicit epochs, each active for `hops_per_epoch`
    /// hops (the last one indefinitely).
    ///
    /// # Errors
    ///
    /// Rejects an empty epoch list, a multi-epoch schedule with
    /// `hops_per_epoch == 0`, epochs covering different node counts, and
    /// non-cumulative epochs (a casualty that resurrects).
    pub fn new(epochs: Vec<FaultPlan>, hops_per_epoch: usize) -> Result<Self, TimelineError> {
        if epochs.is_empty() {
            return Err(TimelineError::NoEpochs);
        }
        if epochs.len() > 1 && hops_per_epoch == 0 {
            return Err(TimelineError::ZeroHopsPerEpoch);
        }
        for (i, w) in epochs.windows(2).enumerate() {
            if w[0].n() != w[1].n() {
                return Err(TimelineError::NodeCountMismatch { prev: w[0].n(), next: w[1].n() });
            }
            if !w[0].is_subset_of(&w[1]) {
                return Err(TimelineError::NotCumulative { epoch: i + 1 });
            }
        }
        Ok(FaultTimeline { epochs, hops_per_epoch })
    }

    /// Number of nodes every epoch covers.
    pub fn n(&self) -> usize {
        self.epochs[0].n()
    }

    /// Number of epochs.
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Hops per epoch (0 = static single epoch).
    pub fn hops_per_epoch(&self) -> usize {
        self.hops_per_epoch
    }

    /// The epochs, in activation order.
    pub fn epochs(&self) -> &[FaultPlan] {
        &self.epochs
    }

    /// The epoch index active after `hops_taken` hops.
    pub fn epoch_at(&self, hops_taken: usize) -> usize {
        match hops_taken.checked_div(self.hops_per_epoch) {
            Some(epoch) => epoch.min(self.epochs.len() - 1),
            None => 0,
        }
    }

    /// The plan active after `hops_taken` hops.
    pub fn active(&self, hops_taken: usize) -> &FaultPlan {
        &self.epochs[self.epoch_at(hops_taken)]
    }

    /// The plan active when a packet departs (epoch 0).
    pub fn initial(&self) -> &FaultPlan {
        &self.epochs[0]
    }

    /// The last epoch's plan — the full accumulated damage.
    pub fn final_plan(&self) -> &FaultPlan {
        self.epochs.last().expect("timeline has at least one epoch")
    }

    /// Replays a finished route epoch-aware: hop number `i` (0-based) is
    /// checked by [`FaultPlan::blocks`] of [`FaultTimeline::active`]`(i)`.
    /// Zero-cost stays (`hops[i] == hops[i+1]`) advance no epoch, matching
    /// the recovery runtime's hop accounting. Adjacency and cost are
    /// [`Route::verify`]'s job, not this one's.
    ///
    /// # Errors
    ///
    /// [`RouteError::NodeFailed`] / [`RouteError::EdgeFailed`] at the first
    /// hop that enters a dead node or crosses a dead edge of its epoch
    /// (including a source dead at departure).
    pub fn check_route(&self, route: &Route) -> Result<(), RouteError> {
        if self.initial().is_node_dead(route.src) {
            return Err(RouteError::NodeFailed { node: route.src });
        }
        let mut hops_taken = 0usize;
        for w in route.hops.windows(2) {
            let (cur, next) = (w[0], w[1]);
            if cur == next {
                continue;
            }
            if let Some(casualty) = self.active(hops_taken).blocks(cur, next) {
                return Err(casualty);
            }
            hops_taken += 1;
        }
        Ok(())
    }

    /// Encodes the timeline as
    /// `{"hops_per_epoch": …, "epochs": [plan, …]}`.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("hops_per_epoch".into(), self.hops_per_epoch.into()),
            ("epochs".into(), Value::Array(self.epochs.iter().map(FaultPlan::to_json).collect())),
        ])
    }

    /// Decodes a timeline written by [`FaultTimeline::to_json`].
    ///
    /// # Errors
    ///
    /// As [`FaultPlan::from_json`] for each epoch, plus
    /// [`FaultJsonError::InvalidTimeline`] when the decoded epochs fail
    /// the [`FaultTimeline::new`] validity checks.
    pub fn from_json(v: &Value) -> Result<Self, FaultJsonError> {
        let hops_per_epoch = v
            .get("hops_per_epoch")
            .and_then(Value::as_u64)
            .ok_or(FaultJsonError::MissingField { field: "hops_per_epoch" })?
            as usize;
        let epochs = v
            .get("epochs")
            .and_then(Value::as_array)
            .ok_or(FaultJsonError::MissingField { field: "epochs" })?
            .iter()
            .map(FaultPlan::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultTimeline::new(epochs, hops_per_epoch)?)
    }
}

/// The largest connected component of the graph that survives a
/// [`FaultPlan`], with id mappings between the original and rebuilt
/// networks.
///
/// Rebuilding a scheme means re-running its preprocessing on
/// [`SurvivingNetwork::metric`]; the churn experiment times exactly that.
pub struct SurvivingNetwork {
    /// Metric of the surviving component (node ids are re-compacted).
    pub metric: MetricSpace,
    to_new: Vec<Option<NodeId>>,
    to_old: Vec<NodeId>,
}

impl SurvivingNetwork {
    /// Extracts the largest surviving component (ties broken toward the
    /// component containing the smallest node id). Returns `None` if every
    /// node failed.
    pub fn build(g: &Graph, plan: &FaultPlan) -> Option<Self> {
        let n = g.node_count();
        assert_eq!(plan.n(), n, "plan covers a different node count than the graph");
        // Connected components over surviving nodes and edges.
        let mut comp = vec![usize::MAX; n];
        let mut comp_sizes: Vec<usize> = Vec::new();
        for start in 0..n as NodeId {
            if plan.is_node_dead(start) || comp[start as usize] != usize::MAX {
                continue;
            }
            let id = comp_sizes.len();
            let mut size = 0usize;
            let mut stack = vec![start];
            comp[start as usize] = id;
            while let Some(u) = stack.pop() {
                size += 1;
                for nb in g.neighbors(u) {
                    if comp[nb.node as usize] == usize::MAX && !plan.is_edge_dead(u, nb.node) {
                        comp[nb.node as usize] = id;
                        stack.push(nb.node);
                    }
                }
            }
            comp_sizes.push(size);
        }
        let best =
            comp_sizes.iter().enumerate().max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))?.0;
        let to_old: Vec<NodeId> = (0..n as NodeId).filter(|&v| comp[v as usize] == best).collect();
        let mut to_new = vec![None; n];
        for (new, &old) in to_old.iter().enumerate() {
            to_new[old as usize] = Some(new as NodeId);
        }
        let mut b = GraphBuilder::new(to_old.len());
        for (u, v, w) in g.edges() {
            if let (Some(nu), Some(nv)) = (to_new[u as usize], to_new[v as usize]) {
                if !plan.is_edge_dead(u, v) {
                    b.edge(nu, nv, w).expect("surviving edge is valid");
                }
            }
        }
        let graph = b.build().expect("largest surviving component is connected");
        Some(SurvivingNetwork { metric: MetricSpace::from_graph(graph), to_new, to_old })
    }

    /// Nodes in the surviving component.
    pub fn n(&self) -> usize {
        self.to_old.len()
    }

    /// The rebuilt id of original node `old`, if it survived into the
    /// largest component.
    pub fn new_id(&self, old: NodeId) -> Option<NodeId> {
        self.to_new[old as usize]
    }

    /// The original id of rebuilt node `new`.
    ///
    /// # Panics
    ///
    /// Panics if `new` is out of range.
    pub fn old_id(&self, new: NodeId) -> NodeId {
        self.to_old[new as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteRecorder;
    use doubling_metric::gen;

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::none(10);
        assert!(plan.is_empty());
        assert_eq!(plan.dead_node_count(), 0);
        assert_eq!(plan.alive_nodes().len(), 10);
        assert!(!plan.is_edge_dead(0, 1));
    }

    #[test]
    fn node_kill_implies_incident_edges_dead() {
        let mut plan = FaultPlan::none(4);
        plan.kill_node(2);
        plan.kill_node(2); // idempotent
        assert_eq!(plan.dead_node_count(), 1);
        assert!(plan.is_node_dead(2));
        assert!(plan.is_edge_dead(2, 3));
        assert!(plan.is_edge_dead(1, 2));
        assert!(!plan.is_edge_dead(0, 1));
    }

    #[test]
    fn edge_kill_is_undirected() {
        let mut plan = FaultPlan::none(4);
        plan.kill_edge(3, 1);
        assert!(plan.is_edge_dead(1, 3));
        assert!(plan.is_edge_dead(3, 1));
        assert!(!plan.is_node_dead(1));
        assert_eq!(plan.dead_edge_count(), 1);
    }

    #[test]
    fn random_removal_hits_requested_fraction() {
        let plan = FaultPlan::random_nodes(100, 0.2, 7);
        assert_eq!(plan.dead_node_count(), 20);
        // Deterministic in the seed.
        assert_eq!(plan, FaultPlan::random_nodes(100, 0.2, 7));
        assert_ne!(plan, FaultPlan::random_nodes(100, 0.2, 8));
    }

    #[test]
    fn degree_targeting_kills_hubs_first() {
        // A star: node 0 has degree 5, everyone else degree 1.
        let mut b = doubling_metric::graph::GraphBuilder::new(6);
        for v in 1..6 {
            b.edge(0, v, 1).unwrap();
        }
        let g = b.build().unwrap();
        let plan = FaultPlan::targeted_by_degree(&g, 0.2); // 1 node
        assert!(plan.is_node_dead(0));
        assert_eq!(plan.dead_node_count(), 1);
    }

    #[test]
    fn surviving_network_takes_largest_component() {
        // Path 0-1-2-3-4; killing 1 leaves {0} and {2,3,4}.
        let m = MetricSpace::new(&gen::path(5));
        let mut plan = FaultPlan::none(5);
        plan.kill_node(1);
        let s = SurvivingNetwork::build(m.graph(), &plan).unwrap();
        assert_eq!(s.n(), 3);
        assert_eq!(s.new_id(0), None);
        assert_eq!(s.new_id(1), None);
        assert_eq!(s.new_id(2), Some(0));
        assert_eq!(s.old_id(2), 4);
        assert_eq!(s.metric.dist(0, 2), 2);
    }

    #[test]
    fn surviving_network_respects_dead_edges() {
        // Ring of 6; killing edges (0,1) and (3,4) splits it into two arcs.
        let m = MetricSpace::new(&gen::ring(6));
        let mut plan = FaultPlan::none(6);
        plan.kill_edge(0, 1);
        plan.kill_edge(3, 4);
        let s = SurvivingNetwork::build(m.graph(), &plan).unwrap();
        assert_eq!(s.n(), 3); // arcs {1,2,3} and {4,5,0}: tie → smaller id
        assert!(s.new_id(0).is_some());
    }

    #[test]
    fn total_failure_yields_none() {
        let m = MetricSpace::new(&gen::path(3));
        let plan = FaultPlan::targeted_by_order(&[0, 1, 2], 3, 1.0);
        assert!(SurvivingNetwork::build(m.graph(), &plan).is_none());
    }

    #[test]
    fn plan_json_round_trips() {
        let mut plan = FaultPlan::none(8);
        plan.kill_node(3);
        plan.kill_node(6);
        plan.kill_edge(5, 1);
        let v = plan.to_json();
        assert_eq!(FaultPlan::from_json(&v).unwrap(), plan);
        // Equal plans encode identically (lists are sorted).
        let text = v.to_string_pretty();
        assert_eq!(text, plan.clone().to_json().to_string_pretty());
        assert_eq!(FaultPlan::from_json(&Value::parse(&text).unwrap()).unwrap(), plan);
        // Out-of-range nodes are rejected, not silently dropped.
        let bad = Value::parse(r#"{"n": 2, "dead_nodes": [5], "dead_edges": []}"#).unwrap();
        assert!(FaultPlan::from_json(&bad).is_err());
    }

    #[test]
    fn plan_json_errors_are_structured() {
        let parse = |s: &str| FaultPlan::from_json(&Value::parse(s).unwrap());
        assert_eq!(
            parse(r#"{"dead_nodes": [], "dead_edges": []}"#),
            Err(FaultJsonError::MissingField { field: "n" })
        );
        assert_eq!(
            parse(r#"{"n": 3, "dead_edges": []}"#),
            Err(FaultJsonError::MissingField { field: "dead_nodes" })
        );
        assert_eq!(
            parse(r#"{"n": 3, "dead_nodes": [], "dead_edges": 7}"#),
            Err(FaultJsonError::MissingField { field: "dead_edges" })
        );
        assert_eq!(
            parse(r#"{"n": 3, "dead_nodes": ["x"], "dead_edges": []}"#),
            Err(FaultJsonError::NodeNotIntegral)
        );
        assert_eq!(
            parse(r#"{"n": 2, "dead_nodes": [5], "dead_edges": []}"#),
            Err(FaultJsonError::NodeOutOfRange { node: 5, n: 2 })
        );
        assert_eq!(
            parse(r#"{"n": 3, "dead_nodes": [], "dead_edges": [[0, 1, 2]]}"#),
            Err(FaultJsonError::MalformedEdge)
        );
        assert_eq!(
            parse(r#"{"n": 3, "dead_nodes": [], "dead_edges": [[0, 9]]}"#),
            Err(FaultJsonError::EdgeOutOfRange { u: 0, v: 9, n: 3 })
        );
        // Every variant renders a human-readable message.
        let e = FaultJsonError::EdgeOutOfRange { u: 0, v: 9, n: 3 };
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn timeline_json_errors_are_structured() {
        let parse = |s: &str| FaultTimeline::from_json(&Value::parse(s).unwrap());
        assert_eq!(
            parse(r#"{"epochs": []}"#),
            Err(FaultJsonError::MissingField { field: "hops_per_epoch" })
        );
        assert_eq!(
            parse(r#"{"hops_per_epoch": 2}"#),
            Err(FaultJsonError::MissingField { field: "epochs" })
        );
        // Structural plan errors surface from the inner decode...
        assert_eq!(
            parse(r#"{"hops_per_epoch": 2, "epochs": [{"n": 1}]}"#),
            Err(FaultJsonError::MissingField { field: "dead_nodes" })
        );
        // ...and a well-formed but semantically invalid schedule wraps the
        // TimelineError, reachable through Error::source.
        let bad = parse(
            r#"{"hops_per_epoch": 2, "epochs": [
                {"n": 3, "dead_nodes": [1], "dead_edges": []},
                {"n": 3, "dead_nodes": [], "dead_edges": []}]}"#,
        );
        assert_eq!(
            bad,
            Err(FaultJsonError::InvalidTimeline(TimelineError::NotCumulative { epoch: 1 }))
        );
        let err = bad.unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(
            parse(r#"{"hops_per_epoch": 2, "epochs": []}"#),
            Err(FaultJsonError::InvalidTimeline(TimelineError::NoEpochs))
        );
    }

    #[test]
    fn timeline_construction_errors_are_structured() {
        let a = FaultPlan::none(4);
        let mut b = FaultPlan::none(4);
        b.kill_node(1);
        assert_eq!(FaultTimeline::new(vec![], 2), Err(TimelineError::NoEpochs));
        assert_eq!(
            FaultTimeline::new(vec![a.clone(), b.clone()], 0),
            Err(TimelineError::ZeroHopsPerEpoch)
        );
        assert_eq!(
            FaultTimeline::new(vec![FaultPlan::none(3), a.clone()], 1),
            Err(TimelineError::NodeCountMismatch { prev: 3, next: 4 })
        );
        assert_eq!(
            FaultTimeline::new(vec![b, a], 2),
            Err(TimelineError::NotCumulative { epoch: 1 })
        );
    }

    #[test]
    fn timeline_validation_catches_bad_schedules() {
        let a = FaultPlan::none(4);
        let mut b = FaultPlan::none(4);
        b.kill_node(1);
        // Cumulative ordering holds a ⊆ b, fails b ⊆ a.
        assert!(FaultTimeline::new(vec![a.clone(), b.clone()], 2).is_ok());
        assert!(FaultTimeline::new(vec![b.clone(), a.clone()], 2).is_err());
        assert!(FaultTimeline::new(vec![], 2).is_err());
        assert!(FaultTimeline::new(vec![a.clone(), b.clone()], 0).is_err());
        assert!(FaultTimeline::new(vec![FaultPlan::none(3), a.clone()], 1).is_err());
        // Dead edges must persist too, including when an endpoint dies
        // later (the edge stays dead implicitly).
        let mut e1 = FaultPlan::none(4);
        e1.kill_edge(0, 1);
        let mut e2 = FaultPlan::none(4);
        e2.kill_node(0);
        assert!(FaultTimeline::new(vec![e1.clone(), e2], 3).is_ok());
        assert!(FaultTimeline::new(vec![e1, FaultPlan::none(4)], 3).is_err());
    }

    #[test]
    fn timeline_epochs_advance_with_hops() {
        let mut late = FaultPlan::none(6);
        late.kill_node(4);
        let tl = FaultTimeline::new(vec![FaultPlan::none(6), late], 3).unwrap();
        assert_eq!(tl.epoch_at(0), 0);
        assert_eq!(tl.epoch_at(2), 0);
        assert_eq!(tl.epoch_at(3), 1);
        assert_eq!(tl.epoch_at(1000), 1); // last epoch persists
        assert!(!tl.active(0).is_node_dead(4));
        assert!(tl.active(3).is_node_dead(4));
        // Static plans never advance.
        let st = FaultTimeline::from_plan(FaultPlan::none(6));
        assert_eq!(st.epoch_at(1000), 0);
        assert_eq!(st.hops_per_epoch(), 0);
    }

    #[test]
    fn timeline_check_route_is_epoch_aware() {
        // Path 0-1-2-3-4-5: node 4 dies after 3 hops. Walking 0 → 5 takes
        // its 4th hop (index 3) into node 4, which by then is dead; walking
        // only 0 → 3 stays inside epoch 0 and survives.
        let m = MetricSpace::new(&gen::path(6));
        let mut late = FaultPlan::none(6);
        late.kill_node(4);
        let tl = FaultTimeline::new(vec![FaultPlan::none(6), late.clone()], 3).unwrap();

        let mut rec = RouteRecorder::new(&m, 0);
        rec.walk_shortest(5).unwrap();
        let long = rec.finish();
        assert_eq!(tl.check_route(&long), Err(RouteError::NodeFailed { node: 4 }));
        // The same plan applied statically kills the route as well, but a
        // static *initial* plan (no faults yet) lets it through.
        assert!(FaultTimeline::from_plan(late).check_route(&long).is_err());

        let mut rec = RouteRecorder::new(&m, 0);
        rec.walk_shortest(3).unwrap();
        let short = rec.finish();
        assert_eq!(tl.check_route(&short), Ok(()));
    }

    #[test]
    fn timeline_json_round_trips() {
        let mut a = FaultPlan::none(5);
        a.kill_node(2);
        let mut b = a.clone();
        b.kill_edge(0, 1);
        let tl = FaultTimeline::new(vec![a, b], 4).unwrap();
        let v = tl.to_json();
        assert_eq!(FaultTimeline::from_json(&v).unwrap(), tl);
        let reparsed = Value::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(FaultTimeline::from_json(&reparsed).unwrap(), tl);
        // A tampered document that breaks cumulativity is rejected.
        let bad = Value::parse(
            r#"{"hops_per_epoch": 2, "epochs": [
                {"n": 3, "dead_nodes": [1], "dead_edges": []},
                {"n": 3, "dead_nodes": [], "dead_edges": []}]}"#,
        )
        .unwrap();
        assert!(FaultTimeline::from_json(&bad).is_err());
    }
}

//! Self-healing routing runtime: hop-by-hop delivery with in-flight
//! recovery from failures.
//!
//! Routing with stale tables is all-or-nothing: a precomputed route
//! either avoids every casualty or the packet is dropped at the first
//! dead element. Real deployments — and the dynamic-doubling line of work
//! the paper cites — *recover* in flight. This module drives any scheme
//! behind the [`Deliver`] seam one hop at a time against a
//! [`FaultTimeline`] and, on hitting a dead node or edge, applies a
//! [`RecoveryPolicy`]. Whatever the policy, a delivery ends where the
//! scheme's plan ends, after any detour splice or fallback re-plan: a
//! name-independent search that passes `dst` before it finds it walks
//! on, exactly as the scheme's own route does.
//!
//! * [`RecoveryPolicy::Drop`] — the baseline, and the one stale-table
//!   replay: the packet follows [`Deliver::route_to`]'s plan and is lost
//!   at the first hop [`FaultPlan::blocks`]. With no faults the
//!   delivered route is the scheme's own, hop for hop.
//! * [`RecoveryPolicy::LocalDetour`] — breadth-first search of the
//!   surviving graph around the casualty, bounded by a TTL, re-entering
//!   the scheme's planned route at the furthest reachable planned hop.
//!   With `ttl = 0` this degrades to `Drop` exactly.
//! * [`RecoveryPolicy::LevelFallback`] — re-issue the lookup from the
//!   next-coarser net level: climb the current node's zooming sequence
//!   (the scheme's own hierarchy, via [`FallbackHierarchy`]) to the first
//!   surviving landmark, walk there, and re-plan from it. Each fallback
//!   consumes one climb from the per-delivery budget and climbs one level
//!   higher than the last.
//! * [`RecoveryPolicy::Chained`] — try a list of policies in order at
//!   each casualty; the first that finds a way out wins.
//!
//! Every delivery produces a [`DeliveryOutcome`]: either
//! `Delivered { stretch, detour_hops, recoveries, route }` — with the
//! route re-checkable against the timeline via
//! [`FaultTimeline::check_route`] — or `Lost { reason, progress }`, where
//! [`LossReason::Unreachable`] is distinguished from an exhausted
//! recovery budget by an exact reachability check on the surviving graph
//! (a disconnected destination is reported as such, never spun on).
//!
//! Recovery decisions are surfaced through an observer hook
//! ([`RecoveryEvent`]), which the `obs` crate translates into
//! `recovery-detour` / `recovery-fallback` / `recovery-exhausted` trace
//! events — the same pattern the evaluation observers use, so `netsim`
//! stays free of an `obs` dependency.
//!
//! Finally, [`greedy_chaos`] runs an adversarial campaign: greedily grow
//! a fault set one node at a time, always killing the candidate that
//! maximizes packet loss under a given policy, then prune kills that turn
//! out redundant — a minimal worst-case fault set, serializable via
//! [`FaultPlan::to_json`] for reproduction.
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
//! plan.kill_node(5);
//! let timeline = FaultTimeline::from_plan(plan);
//! let labeled = Labeled(&scheme);
//! let router =
//!     ResilientRouter::without_hierarchy(&m, &labeled, RecoveryPolicy::LocalDetour { ttl: 4 });
//! let outcome = router.deliver(0, 10, &timeline, &mut |_| {});
//! assert!(matches!(outcome, DeliveryOutcome::Delivered { .. }));
//! ```

use std::fmt;

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::nets::NetHierarchy;
use doubling_metric::space::MetricSpace;

use crate::faults::{FaultPlan, FaultTimeline};
use crate::route::{Route, RouteError, RouteRecorder};
use crate::scheme::{Deliver, Labeled, Named};

/// What to do when an in-flight packet hits a dead node or edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Give up: the packet is lost at the first casualty of the scheme's
    /// plan, and delivered where that plan ends (stale-table routing).
    Drop,
    /// Bounded breadth-first search of the surviving graph to bypass the
    /// casualty and re-enter the planned route. `ttl` bounds the BFS
    /// depth; `ttl = 0` degrades to [`RecoveryPolicy::Drop`] exactly.
    LocalDetour {
        /// Maximum BFS depth (hops) a single detour may explore.
        ttl: usize,
    },
    /// Re-issue the lookup from the next-coarser net level: climb the
    /// current node's zooming sequence to a surviving landmark and
    /// re-plan from there. `max_climbs` bounds the climbs per delivery.
    LevelFallback {
        /// Total fallback climbs allowed over one delivery.
        max_climbs: usize,
    },
    /// Try each policy in order at every casualty; the first that finds a
    /// way out wins, and the loss reason of the last is reported if none
    /// does.
    Chained(Vec<RecoveryPolicy>),
}

impl RecoveryPolicy {
    /// The default detour TTL used by [`RecoveryPolicy::parse`] when
    /// `"detour"` is given without a bound.
    pub const DEFAULT_TTL: usize = 8;
    /// The default climb budget used by [`RecoveryPolicy::parse`] when
    /// `"fallback"` is given without a bound.
    pub const DEFAULT_CLIMBS: usize = 4;

    /// Parses the CLI / JSON spelling produced by the `Display` impl:
    /// `"drop"`, `"detour"` / `"detour:TTL"`, `"fallback"` /
    /// `"fallback:CLIMBS"`, or a `+`-joined chain such as
    /// `"detour:8+fallback:4"`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unrecognized component.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split('+').collect();
        let mut parsed = Vec::with_capacity(parts.len());
        for part in &parts {
            parsed.push(Self::parse_atom(part.trim())?);
        }
        match parsed.len() {
            0 => Err("empty policy".into()),
            1 => Ok(parsed.pop().expect("one element")),
            _ => Ok(RecoveryPolicy::Chained(parsed)),
        }
    }

    fn parse_atom(s: &str) -> Result<Self, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let num = |default: usize| -> Result<usize, String> {
            match arg {
                None => Ok(default),
                Some(a) => a.parse().map_err(|_| format!("bad policy bound {a:?} in {s:?}")),
            }
        };
        match head {
            "drop" if arg.is_none() => Ok(RecoveryPolicy::Drop),
            "detour" => Ok(RecoveryPolicy::LocalDetour { ttl: num(Self::DEFAULT_TTL)? }),
            "fallback" => Ok(RecoveryPolicy::LevelFallback { max_climbs: num(Self::DEFAULT_CLIMBS)? }),
            _ => Err(format!(
                "unknown recovery policy {s:?} (expected drop, detour[:TTL], fallback[:CLIMBS], or a +-chain)"
            )),
        }
    }

    /// Whether any component of this policy climbs a net hierarchy.
    pub fn needs_hierarchy(&self) -> bool {
        match self {
            RecoveryPolicy::LevelFallback { .. } => true,
            RecoveryPolicy::Chained(list) => list.iter().any(RecoveryPolicy::needs_hierarchy),
            _ => false,
        }
    }
}

impl fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryPolicy::Drop => write!(f, "drop"),
            RecoveryPolicy::LocalDetour { ttl } => write!(f, "detour:{ttl}"),
            RecoveryPolicy::LevelFallback { max_climbs } => write!(f, "fallback:{max_climbs}"),
            RecoveryPolicy::Chained(list) => {
                for (i, p) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
        }
    }
}

/// Why a resilient delivery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LossReason {
    /// The source was already dead when the packet departed.
    SourceDead,
    /// The packet hit a dead element and the policy provided no way out
    /// (the [`RecoveryPolicy::Drop`] outcome, and `LocalDetour { ttl: 0 }`'s).
    Casualty {
        /// The fault that stopped the packet.
        error: RouteError,
    },
    /// The destination is not reachable from where the packet stands in
    /// the surviving graph of the current epoch — no policy could have
    /// delivered it.
    Unreachable,
    /// The destination is still reachable, but the policy's budget (TTL,
    /// climbs) was spent before a way around was found.
    RecoveryExhausted,
    /// The recorder's hop budget tripped — a recovery loop.
    HopBudget,
    /// The underlying scheme itself errored (a scheme bug, not a fault).
    SchemeError {
        /// The scheme's error.
        error: RouteError,
    },
}

impl LossReason {
    /// Short machine-readable tag (used in trace events and JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            LossReason::SourceDead => "source-dead",
            LossReason::Casualty { .. } => "casualty",
            LossReason::Unreachable => "unreachable",
            LossReason::RecoveryExhausted => "recovery-exhausted",
            LossReason::HopBudget => "hop-budget",
            LossReason::SchemeError { .. } => "scheme-error",
        }
    }
}

/// How far a lost packet got before it died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// The node the packet last stood at.
    pub reached: NodeId,
    /// Hops taken (edge traversals).
    pub hops: usize,
    /// Cost accrued.
    pub cost: Dist,
    /// Successful recoveries before the loss.
    pub recoveries: usize,
}

/// The result of one resilient delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum DeliveryOutcome {
    /// The packet arrived.
    Delivered {
        /// `cost / d(src, dst)` of the realized (possibly detoured) path.
        stretch: f64,
        /// Extra hops spent inside detours.
        detour_hops: usize,
        /// Recovery interventions (detours + fallbacks) that succeeded.
        recoveries: usize,
        /// The full realized route; replays cleanly under
        /// [`FaultTimeline::check_route`] and [`Route::verify`].
        route: Route,
    },
    /// The packet was lost.
    Lost {
        /// Why.
        reason: LossReason,
        /// How far it got.
        progress: Progress,
    },
}

impl DeliveryOutcome {
    /// Whether the packet arrived.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }
}

/// One recovery decision, surfaced to an observer hook so a tracing layer
/// can attach without `netsim` depending on it (see `obs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A local detour bypassed a casualty.
    Detour {
        /// Node where the casualty was hit.
        at: NodeId,
        /// Planned-route node the detour re-entered at.
        rejoin: NodeId,
        /// Hops the detour path takes.
        detour_hops: usize,
    },
    /// A fallback climbed to a coarser landmark and re-planned.
    Fallback {
        /// Node where the casualty was hit.
        at: NodeId,
        /// The surviving landmark re-planned from.
        landmark: NodeId,
        /// The net level the landmark was taken from.
        level: usize,
    },
    /// Recovery failed and the packet is about to be reported lost.
    Exhausted {
        /// Node where the final casualty was hit.
        at: NodeId,
        /// [`LossReason::kind`] of the loss being reported.
        reason: &'static str,
    },
}

impl RecoveryEvent {
    /// The trace-event name for this decision.
    pub fn kind(&self) -> &'static str {
        match self {
            RecoveryEvent::Detour { .. } => "recovery-detour",
            RecoveryEvent::Fallback { .. } => "recovery-fallback",
            RecoveryEvent::Exhausted { .. } => "recovery-exhausted",
        }
    }
}

/// Scheme-side hook for [`RecoveryPolicy::LevelFallback`]: the net
/// hierarchy whose zooming sequence the runtime climbs for coarser
/// landmarks. All four of the workspace's hierarchical schemes expose the
/// hierarchy they already own; schemes without one (e.g. the full-table
/// baseline) use [`ResilientRouter::without_hierarchy`] instead.
pub trait FallbackHierarchy {
    /// The hierarchy used to pick fallback landmarks.
    fn fallback_hierarchy(&self) -> &NetHierarchy;
}

impl<S: FallbackHierarchy + ?Sized> FallbackHierarchy for Labeled<'_, S> {
    fn fallback_hierarchy(&self) -> &NetHierarchy {
        self.0.fallback_hierarchy()
    }
}

impl<S: FallbackHierarchy + ?Sized> FallbackHierarchy for Named<'_, S> {
    fn fallback_hierarchy(&self) -> &NetHierarchy {
        self.0.fallback_hierarchy()
    }
}

/// A successful recovery action, internal to the drive loop.
enum Recovered {
    /// Splice `via` (`cur ..= rejoin`) in front of the planned tail after
    /// position `rejoin_idx`.
    Detour { via: Vec<NodeId>, rejoin_idx: usize },
    /// Walk to `landmark` and continue on `replanned`.
    Fallback { landmark: NodeId, level: usize, replanned: Route },
}

/// Drives a scheme hop-by-hop against a [`FaultTimeline`], applying a
/// [`RecoveryPolicy`] at each casualty. See the [module docs](self) for
/// the policy semantics and the outcome taxonomy.
pub struct ResilientRouter<'a, D: ?Sized> {
    m: &'a MetricSpace,
    scheme: &'a D,
    policy: RecoveryPolicy,
    nets: Option<&'a NetHierarchy>,
    hop_budget: Option<usize>,
}

impl<'a, D: ?Sized> ResilientRouter<'a, D> {
    /// A router over `scheme`, climbing the scheme's own hierarchy on
    /// fallbacks.
    pub fn new(m: &'a MetricSpace, scheme: &'a D, policy: RecoveryPolicy) -> Self
    where
        D: FallbackHierarchy,
    {
        let nets = Some(scheme.fallback_hierarchy());
        ResilientRouter { m, scheme, policy, nets, hop_budget: None }
    }

    /// A router with no hierarchy: [`RecoveryPolicy::LevelFallback`] has
    /// no landmarks to climb to and fails like an exhausted budget.
    pub fn without_hierarchy(m: &'a MetricSpace, scheme: &'a D, policy: RecoveryPolicy) -> Self {
        ResilientRouter { m, scheme, policy, nets: None, hop_budget: None }
    }

    /// Caps the *total* hops of one delivery, independent of any per-policy
    /// TTL or climb budget: a delivery that takes more than `budget` edge
    /// traversals is reported lost with [`LossReason::HopBudget`]. Without
    /// this cap, only the recorder's generous `64·n + 64` loop guard
    /// terminates a plan that cycles; a deployment-style budget makes the
    /// loss deterministic and cheap. Ending the plan exactly on the budget
    /// still counts as delivered.
    pub fn with_hop_budget(mut self, budget: usize) -> Self {
        self.hop_budget = Some(budget);
        self
    }

    /// The policy this router applies.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// The wrapped scheme.
    pub fn scheme(&self) -> &D {
        self.scheme
    }

    /// The metric this router delivers over.
    pub fn metric(&self) -> &MetricSpace {
        self.m
    }

    /// The core drive loop: walk the planned path, re-checking every hop
    /// against the epoch active at that hop count; recover on casualties;
    /// deliver where the (possibly spliced or re-planned) path ends.
    fn drive(
        &self,
        src: NodeId,
        dst: NodeId,
        timeline: &FaultTimeline,
        plan_from: &mut dyn FnMut(NodeId) -> Result<Route, RouteError>,
        on_event: &mut dyn FnMut(&RecoveryEvent),
    ) -> DeliveryOutcome {
        assert_eq!(timeline.n(), self.m.n(), "timeline covers a different node count");
        let lost = |reason: LossReason, reached: NodeId, hops, cost, recoveries| {
            DeliveryOutcome::Lost { reason, progress: Progress { reached, hops, cost, recoveries } }
        };
        if timeline.initial().is_node_dead(src) {
            return lost(LossReason::SourceDead, src, 0, 0, 0);
        }
        let mut rec = RouteRecorder::new(self.m, src);
        let mut hops_taken = 0usize;
        let mut recoveries = 0usize;
        let mut detour_hops = 0usize;
        let mut climbs = 0usize;
        let mut path = match plan_from(src) {
            Ok(r) => {
                rec.note_header_bits(r.max_header_bits);
                r.hops
            }
            Err(e) => return lost(LossReason::SchemeError { error: e }, src, 0, 0, 0),
        };
        let mut idx = 0usize;

        loop {
            let cur = rec.current();
            if idx + 1 >= path.len() {
                // A delivery ends where the plan ends (after any splice or
                // re-plan), as every route the scheme itself returns does.
                if cur == dst {
                    let route = rec.finish();
                    let stretch = route.stretch(self.m);
                    return DeliveryOutcome::Delivered { stretch, detour_hops, recoveries, route };
                }
                // The planned route ended short of the destination — a
                // scheme bug (plans always claim to reach dst).
                let e = RouteError::Internal(format!(
                    "planned route ended at {cur}, short of destination {dst}"
                ));
                return lost(
                    LossReason::SchemeError { error: e },
                    cur,
                    hops_taken,
                    rec.cost(),
                    recoveries,
                );
            }
            let next = path[idx + 1];
            if next == cur {
                idx += 1;
                continue;
            }
            let plan = timeline.active(hops_taken);
            let Some(original) = plan.blocks(cur, next) else {
                match rec.hop(next) {
                    Ok(()) => {
                        hops_taken += 1;
                        idx += 1;
                        let plan_ends = idx + 1 >= path.len();
                        if self.hop_budget.is_some_and(|b| hops_taken >= b) && !plan_ends {
                            return lost(
                                LossReason::HopBudget,
                                next,
                                hops_taken,
                                rec.cost(),
                                recoveries,
                            );
                        }
                        continue;
                    }
                    Err(RouteError::HopBudgetExceeded { .. }) => {
                        return lost(
                            LossReason::HopBudget,
                            cur,
                            hops_taken,
                            rec.cost(),
                            recoveries,
                        );
                    }
                    Err(e) => {
                        // A non-edge hop in the plan: a scheme bug.
                        return lost(
                            LossReason::SchemeError { error: e },
                            cur,
                            hops_taken,
                            rec.cost(),
                            recoveries,
                        );
                    }
                }
            };
            match self.attempt(
                &self.policy,
                cur,
                dst,
                &path,
                idx,
                plan,
                &mut climbs,
                plan_from,
                &original,
            ) {
                Ok(Recovered::Detour { via, rejoin_idx }) => {
                    recoveries += 1;
                    detour_hops += via.len() - 1;
                    on_event(&RecoveryEvent::Detour {
                        at: cur,
                        rejoin: via[via.len() - 1],
                        detour_hops: via.len() - 1,
                    });
                    let mut rebased = via;
                    rebased.extend_from_slice(&path[rejoin_idx + 1..]);
                    path = rebased;
                    idx = 0;
                }
                Ok(Recovered::Fallback { landmark, level, replanned }) => {
                    recoveries += 1;
                    on_event(&RecoveryEvent::Fallback { at: cur, landmark, level });
                    rec.note_header_bits(replanned.max_header_bits);
                    let mut rebased = self.m.path(cur, landmark);
                    rebased.extend_from_slice(&replanned.hops[1..]);
                    path = rebased;
                    idx = 0;
                }
                Err(reason) => {
                    if !matches!(self.policy, RecoveryPolicy::Drop) {
                        on_event(&RecoveryEvent::Exhausted { at: cur, reason: reason.kind() });
                    }
                    return lost(reason, cur, hops_taken, rec.cost(), recoveries);
                }
            }
        }
    }

    /// Tries one policy (recursing through chains) at a casualty. `Ok` is
    /// a way out; `Err` is the loss reason to report if nothing upstream
    /// helps either.
    #[allow(clippy::too_many_arguments)] // one call site, mirrors drive-loop state
    fn attempt(
        &self,
        policy: &RecoveryPolicy,
        cur: NodeId,
        dst: NodeId,
        path: &[NodeId],
        idx: usize,
        plan: &FaultPlan,
        climbs: &mut usize,
        plan_from: &mut dyn FnMut(NodeId) -> Result<Route, RouteError>,
        original: &RouteError,
    ) -> Result<Recovered, LossReason> {
        match policy {
            RecoveryPolicy::Drop => Err(LossReason::Casualty { error: original.clone() }),
            RecoveryPolicy::LocalDetour { ttl } => {
                if *ttl == 0 {
                    // Degrades to Drop exactly: same reason, no
                    // reachability probe.
                    return Err(LossReason::Casualty { error: original.clone() });
                }
                match self.bfs_detour(plan, cur, path, idx, *ttl) {
                    Some((via, rejoin_idx)) => Ok(Recovered::Detour { via, rejoin_idx }),
                    None => Err(self.classify_loss(plan, cur, dst)),
                }
            }
            RecoveryPolicy::LevelFallback { max_climbs } => {
                let Some(nets) = self.nets else {
                    return Err(self.classify_loss(plan, cur, dst));
                };
                if *climbs >= *max_climbs {
                    return Err(self.classify_loss(plan, cur, dst));
                }
                *climbs += 1;
                // Climb k re-plans from level k of the zooming sequence:
                // each consecutive fallback looks one level coarser.
                let top = nets.num_levels() - 1;
                let start = (*climbs).min(top);
                let found = (start..=top)
                    .map(|lvl| (nets.zoom(cur, lvl), lvl))
                    .find(|&(y, _)| !plan.is_node_dead(y));
                match found {
                    Some((landmark, level)) => {
                        let replanned = plan_from(landmark)
                            .map_err(|e| LossReason::SchemeError { error: e })?;
                        Ok(Recovered::Fallback { landmark, level, replanned })
                    }
                    None => Err(self.classify_loss(plan, cur, dst)),
                }
            }
            RecoveryPolicy::Chained(list) => {
                let mut last = None;
                for p in list {
                    match self.attempt(p, cur, dst, path, idx, plan, climbs, plan_from, original) {
                        Ok(r) => return Ok(r),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.unwrap_or(LossReason::Casualty { error: original.clone() }))
            }
        }
    }

    /// Bounded BFS on the surviving graph from `cur`, looking for planned
    /// nodes strictly ahead of position `idx`. Returns the detour path
    /// `cur ..= rejoin` and the rejoin position: the shallowest BFS layer
    /// wins, and within a layer the target furthest along the plan (then
    /// the smallest node id).
    fn bfs_detour(
        &self,
        plan: &FaultPlan,
        cur: NodeId,
        path: &[NodeId],
        idx: usize,
        ttl: usize,
    ) -> Option<(Vec<NodeId>, usize)> {
        let n = self.m.n();
        // node -> furthest planned position it re-enters at
        let mut target_idx: Vec<Option<usize>> = vec![None; n];
        for (j, &x) in path.iter().enumerate().skip(idx + 1) {
            if !plan.is_node_dead(x) {
                target_idx[x as usize] = Some(j);
            }
        }
        let g = self.m.graph();
        let mut parent: Vec<NodeId> = vec![NodeId::MAX; n];
        let mut visited = vec![false; n];
        visited[cur as usize] = true;
        let mut frontier = vec![cur];
        for _depth in 1..=ttl {
            let mut next_frontier = Vec::new();
            let mut best: Option<(usize, NodeId)> = None;
            for &u in &frontier {
                for nb in g.neighbors(u) {
                    let v = nb.node;
                    if visited[v as usize] || plan.blocks(u, v).is_some() {
                        continue;
                    }
                    visited[v as usize] = true;
                    parent[v as usize] = u;
                    if let Some(j) = target_idx[v as usize] {
                        best = match best {
                            None => Some((j, v)),
                            Some((bj, bv)) if j > bj || (j == bj && v < bv) => Some((j, v)),
                            keep => keep,
                        };
                    }
                    next_frontier.push(v);
                }
            }
            if let Some((j, node)) = best {
                let mut via = vec![node];
                let mut x = node;
                while x != cur {
                    x = parent[x as usize];
                    via.push(x);
                }
                via.reverse();
                return Some((via, j));
            }
            if next_frontier.is_empty() {
                return None;
            }
            frontier = next_frontier;
        }
        None
    }

    /// Distinguishes a destination that recovery *could not* have reached
    /// from one the budget merely missed, by exact BFS on the surviving
    /// graph of the current epoch.
    fn classify_loss(&self, plan: &FaultPlan, cur: NodeId, dst: NodeId) -> LossReason {
        if self.reachable_surviving(plan, cur, dst) {
            LossReason::RecoveryExhausted
        } else {
            LossReason::Unreachable
        }
    }

    fn reachable_surviving(&self, plan: &FaultPlan, from: NodeId, to: NodeId) -> bool {
        if plan.is_node_dead(from) || plan.is_node_dead(to) {
            return false;
        }
        if from == to {
            return true;
        }
        let g = self.m.graph();
        let mut visited = vec![false; self.m.n()];
        visited[from as usize] = true;
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            for nb in g.neighbors(u) {
                let v = nb.node;
                if visited[v as usize] || plan.blocks(u, v).is_some() {
                    continue;
                }
                if v == to {
                    return true;
                }
                visited[v as usize] = true;
                stack.push(v);
            }
        }
        false
    }
}

impl<D: Deliver + ?Sized> ResilientRouter<'_, D> {
    /// Delivers a packet from `src` to node `dst`, recovering per the
    /// policy. Every re-plan issues a fresh lookup (by label or by name,
    /// as the seam addresses `dst`) from wherever the packet stands.
    /// `on_event` observes every recovery decision.
    pub fn deliver(
        &self,
        src: NodeId,
        dst: NodeId,
        timeline: &FaultTimeline,
        on_event: &mut dyn FnMut(&RecoveryEvent),
    ) -> DeliveryOutcome {
        let (scheme, m) = (self.scheme, self.m);
        self.drive(src, dst, timeline, &mut |from| scheme.route_to(m, from, dst), on_event)
    }
}

/// One greedy step of a chaos campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosStep {
    /// The node killed at this step.
    pub kill: NodeId,
    /// Packet losses after this kill.
    pub lost: usize,
}

/// The result of a [`greedy_chaos`] campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The final (pruned) fault set — serialize with
    /// [`FaultPlan::to_json`] to make the worst case reproducible.
    pub plan: FaultPlan,
    /// The greedy trajectory, in kill order (pre-pruning).
    pub steps: Vec<ChaosStep>,
    /// Losses under the final plan.
    pub lost: usize,
}

/// Adversarial chaos campaign: greedily grow a fault set that maximizes
/// packet loss, then prune it to a minimal set.
///
/// At each of up to `budget` steps, every still-alive candidate is
/// trial-killed and `lost_under` (the caller's loss oracle — typically a
/// resilient evaluation over a pair sample under one policy) scores the
/// result; the candidate with the highest loss is killed for real (first
/// candidate wins ties, so the search is deterministic). The campaign
/// stops early once no candidate strictly increases the loss. A final
/// backward pass removes kills whose absence does not reduce the loss,
/// leaving a minimal fault set with the same damage.
pub fn greedy_chaos(
    n: usize,
    candidates: &[NodeId],
    budget: usize,
    mut lost_under: impl FnMut(&FaultPlan) -> usize,
) -> ChaosOutcome {
    let mut plan = FaultPlan::none(n);
    let mut steps = Vec::new();
    let mut current = lost_under(&plan);
    for _ in 0..budget {
        let mut best: Option<(usize, NodeId)> = None;
        for &c in candidates {
            if plan.is_node_dead(c) {
                continue;
            }
            let mut trial = plan.clone();
            trial.kill_node(c);
            let l = lost_under(&trial);
            if best.is_none_or(|(bl, _)| l > bl) {
                best = Some((l, c));
            }
        }
        let Some((l, c)) = best else { break };
        if l <= current {
            break;
        }
        plan.kill_node(c);
        steps.push(ChaosStep { kill: c, lost: l });
        current = l;
    }
    // Minimality prune, oldest kills first: a kill whose removal keeps
    // the loss is redundant given the later ones.
    let kills: Vec<NodeId> = steps.iter().map(|s| s.kill).collect();
    let mut kept = kills.clone();
    for &c in &kills {
        if kept.len() <= 1 {
            break;
        }
        let mut trial = FaultPlan::none(n);
        for &k in kept.iter().filter(|&&k| k != c) {
            trial.kill_node(k);
        }
        if lost_under(&trial) >= current {
            kept.retain(|&k| k != c);
        }
    }
    if kept.len() < kills.len() {
        let mut pruned = FaultPlan::none(n);
        for &k in &kept {
            pruned.kill_node(k);
        }
        current = lost_under(&pruned);
        plan = pruned;
    }
    ChaosOutcome { plan, steps, lost: current }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::FullTable;
    use doubling_metric::gen;

    fn deliver_on_grid(
        policy: RecoveryPolicy,
        kill: &[NodeId],
        src: NodeId,
        dst: NodeId,
    ) -> DeliveryOutcome {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let mut plan = FaultPlan::none(m.n());
        for &k in kill {
            plan.kill_node(k);
        }
        let timeline = FaultTimeline::from_plan(plan);
        let router = ResilientRouter::without_hierarchy(&m, &scheme, policy);
        router.deliver(src, dst, &timeline, &mut |_| {})
    }

    #[test]
    fn empty_timeline_delivers_at_scheme_stretch() {
        let out = deliver_on_grid(RecoveryPolicy::Drop, &[], 0, 15);
        match out {
            DeliveryOutcome::Delivered { stretch, detour_hops, recoveries, route } => {
                assert!((stretch - 1.0).abs() < 1e-12);
                assert_eq!(detour_hops, 0);
                assert_eq!(recoveries, 0);
                assert_eq!(route.dst, 15);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn drop_loses_where_detour_recovers() {
        // Grid 4×4: FullTable's 0 → 3 shortest path runs along the top
        // row through 1 and 2; killing 1 forces a detour through row 1.
        let dropped = deliver_on_grid(RecoveryPolicy::Drop, &[1], 0, 3);
        match &dropped {
            DeliveryOutcome::Lost { reason, progress } => {
                assert!(matches!(
                    reason,
                    LossReason::Casualty { error: RouteError::NodeFailed { node: 1 } }
                ));
                assert_eq!(progress.reached, 0);
                assert_eq!(progress.recoveries, 0);
            }
            other => panic!("expected loss, got {other:?}"),
        }
        let mut events = Vec::new();
        let m = MetricSpace::new(&gen::grid(4, 4));
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let mut plan = FaultPlan::none(16);
        plan.kill_node(1);
        let timeline = FaultTimeline::from_plan(plan);
        let router =
            ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::LocalDetour { ttl: 4 });
        let out = router.deliver(0, 3, &timeline, &mut |e| events.push(e.clone()));
        match out {
            DeliveryOutcome::Delivered { stretch, detour_hops, recoveries, route } => {
                assert_eq!(recoveries, 1);
                assert!(detour_hops > 0);
                assert!(stretch > 1.0);
                route.verify(&m).unwrap();
                timeline.check_route(&route).unwrap();
            }
            other => panic!("expected recovered delivery, got {other:?}"),
        }
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], RecoveryEvent::Detour { at: 0, .. }));
    }

    #[test]
    fn ttl_zero_detour_equals_drop() {
        for dst in [3, 5, 15] {
            let a = deliver_on_grid(RecoveryPolicy::Drop, &[1, 4], 0, dst);
            let b = deliver_on_grid(RecoveryPolicy::LocalDetour { ttl: 0 }, &[1, 4], 0, dst);
            assert_eq!(a, b, "ttl=0 must degrade to Drop for dst {dst}");
        }
    }

    #[test]
    fn disconnected_target_is_unreachable_not_spun_on() {
        // Kill 1 and 4: node 0 is cut off from the rest of the 4×4 grid.
        let out = deliver_on_grid(RecoveryPolicy::LocalDetour { ttl: 1000 }, &[1, 4], 0, 15);
        match out {
            DeliveryOutcome::Lost { reason: LossReason::Unreachable, progress } => {
                assert_eq!(progress.reached, 0);
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
        // A dead destination is unreachable too.
        let out = deliver_on_grid(RecoveryPolicy::LocalDetour { ttl: 1000 }, &[15], 0, 15);
        assert!(matches!(out, DeliveryOutcome::Lost { reason: LossReason::Unreachable, .. }));
    }

    #[test]
    fn exhausted_is_distinguished_from_unreachable() {
        // Killing the whole second column except the bottom row forces a
        // long way around; ttl 1 cannot find it, but it exists.
        let out = deliver_on_grid(RecoveryPolicy::LocalDetour { ttl: 1 }, &[1, 5, 9], 0, 3);
        assert!(matches!(out, DeliveryOutcome::Lost { reason: LossReason::RecoveryExhausted, .. }));
    }

    #[test]
    fn dead_source_is_reported() {
        let out = deliver_on_grid(RecoveryPolicy::Drop, &[0], 0, 3);
        assert!(matches!(out, DeliveryOutcome::Lost { reason: LossReason::SourceDead, .. }));
    }

    #[test]
    fn policy_parsing_round_trips() {
        for s in ["drop", "detour:8", "fallback:4", "detour:2+fallback:1", "detour:0"] {
            let p = RecoveryPolicy::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert_eq!(
            RecoveryPolicy::parse("detour").unwrap(),
            RecoveryPolicy::LocalDetour { ttl: RecoveryPolicy::DEFAULT_TTL }
        );
        assert_eq!(
            RecoveryPolicy::parse("fallback").unwrap(),
            RecoveryPolicy::LevelFallback { max_climbs: RecoveryPolicy::DEFAULT_CLIMBS }
        );
        assert!(RecoveryPolicy::parse("teleport").is_err());
        assert!(RecoveryPolicy::parse("drop:3").is_err());
        assert!(RecoveryPolicy::parse("detour:x").is_err());
        assert!(RecoveryPolicy::Chained(vec![
            RecoveryPolicy::Drop,
            RecoveryPolicy::LevelFallback { max_climbs: 1 }
        ])
        .needs_hierarchy());
        assert!(!RecoveryPolicy::parse("detour:8").unwrap().needs_hierarchy());
    }

    #[test]
    fn mid_route_fault_triggers_recovery() {
        // Path 0..7: node 5 dies after 3 hops. Drop loses the packet at
        // 4→5; a detour cannot exist on a path graph (Unreachable).
        let m = MetricSpace::new(&gen::path(8));
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let mut late = FaultPlan::none(8);
        late.kill_node(5);
        let tl = FaultTimeline::new(vec![FaultPlan::none(8), late], 3).unwrap();
        let router = ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop);
        let out = router.deliver(0, 7, &tl, &mut |_| {});
        match out {
            DeliveryOutcome::Lost { reason, progress } => {
                assert!(matches!(
                    reason,
                    LossReason::Casualty { error: RouteError::NodeFailed { node: 5 } }
                ));
                assert_eq!(progress.reached, 4);
                assert_eq!(progress.hops, 4);
            }
            other => panic!("expected mid-route loss, got {other:?}"),
        }
        // The same delivery departing later (shorter remaining route)
        // still dies; but a destination on the near side of the casualty
        // is fine.
        let ok = router.deliver(0, 4, &tl, &mut |_| {});
        assert!(ok.is_delivered());
    }

    #[test]
    fn global_hop_budget_stops_a_crafted_cycle() {
        // A scheme whose plan circles the 6-cycle three times before
        // heading to the destination: legal hop-by-hop (every hop is a
        // real edge), so only a *global* budget can call it a loop — the
        // per-policy TTLs never fire (policy is Drop, no faults at all).
        struct CyclingScheme;
        impl crate::scheme::LabeledScheme for CyclingScheme {
            fn scheme_name(&self) -> &'static str {
                "crafted-cycle"
            }
            fn label_of(&self, v: NodeId) -> crate::scheme::Label {
                v
            }
            fn label_bits(&self) -> u64 {
                8
            }
            fn table_bits(&self, _u: NodeId) -> u64 {
                0
            }
            fn route(
                &self,
                m: &MetricSpace,
                src: NodeId,
                target: crate::scheme::Label,
            ) -> Result<Route, RouteError> {
                let n = m.n() as NodeId;
                let mut rec = RouteRecorder::new(m, src);
                // Bounce on the src—(src+1) edge, never touching the
                // destination, before finally walking the ring to it.
                for _ in 0..3 * n {
                    let cur = rec.current();
                    rec.hop(if cur == src { (src + 1) % n } else { src })?;
                }
                while rec.current() != target {
                    rec.hop((rec.current() + 1) % n)?;
                }
                Ok(rec.finish())
            }
        }

        let m = MetricSpace::new(&gen::ring(6));
        let scheme = Labeled(&CyclingScheme);
        let timeline = FaultTimeline::from_plan(FaultPlan::none(6));
        // Without a budget the 18-lap prelude stays under the recorder's
        // 64·n + 64 guard and the packet arrives (at absurd stretch).
        let free = ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop).deliver(
            0,
            3,
            &timeline,
            &mut |_| {},
        );
        assert!(free.is_delivered(), "got {free:?}");
        // A deployment-style budget cuts the loop off deterministically.
        let capped = ResilientRouter::without_hierarchy(&m, &scheme, RecoveryPolicy::Drop)
            .with_hop_budget(6)
            .deliver(0, 3, &timeline, &mut |_| {});
        match capped {
            DeliveryOutcome::Lost { reason: LossReason::HopBudget, progress } => {
                assert_eq!(progress.hops, 6);
            }
            other => panic!("expected HopBudget loss, got {other:?}"),
        }
        // Arriving exactly on the budget still delivers: 0 → 3 on the
        // cycle is 3 hops for the full-table baseline.
        let ft = FullTable::new(&m);
        let exact = ResilientRouter::without_hierarchy(&m, &Labeled(&ft), RecoveryPolicy::Drop)
            .with_hop_budget(3)
            .deliver(0, 3, &timeline, &mut |_| {});
        assert!(exact.is_delivered(), "got {exact:?}");
    }

    #[test]
    fn greedy_chaos_finds_the_cut_vertex() {
        // Two 4-cliques joined through node 3 (a bridge vertex): killing 3
        // disconnects every cross pair. The campaign must find exactly it.
        let mut b = doubling_metric::graph::GraphBuilder::new(7);
        for u in 0..3u32 {
            for v in (u + 1)..4 {
                b.edge(u, v, 1).unwrap();
            }
        }
        for u in 3..6u32 {
            for v in (u + 1)..7 {
                b.edge(u, v, 1).unwrap();
            }
        }
        let m = MetricSpace::new(&b.build().unwrap());
        let full = FullTable::new(&m);
        let scheme = Labeled(&full);
        let pairs = [(0u32, 6u32), (1, 5), (2, 4), (6, 0), (5, 2)];
        let candidates: Vec<NodeId> = (0..7).collect();
        let outcome = greedy_chaos(7, &candidates, 3, |plan| {
            let tl = FaultTimeline::from_plan(plan.clone());
            let router = ResilientRouter::without_hierarchy(
                &m,
                &scheme,
                RecoveryPolicy::LocalDetour { ttl: 8 },
            );
            pairs
                .iter()
                .filter(|&&(u, v)| !plan.is_node_dead(u) && !plan.is_node_dead(v))
                .filter(|&&(u, v)| !router.deliver(u, v, &tl, &mut |_| {}).is_delivered())
                .count()
        });
        assert!(outcome.plan.is_node_dead(3), "chaos must kill the bridge vertex");
        assert_eq!(outcome.lost, 5);
        // Minimality: node 3 alone already loses all 5 pairs, so the
        // pruned plan is exactly {3}.
        assert_eq!(outcome.plan.dead_node_count(), 1);
        assert!(!outcome.steps.is_empty());
        // Deterministic: same inputs, same campaign.
        let again = greedy_chaos(7, &candidates, 3, |plan| {
            let tl = FaultTimeline::from_plan(plan.clone());
            let router = ResilientRouter::without_hierarchy(
                &m,
                &scheme,
                RecoveryPolicy::LocalDetour { ttl: 8 },
            );
            pairs
                .iter()
                .filter(|&&(u, v)| !plan.is_node_dead(u) && !plan.is_node_dead(v))
                .filter(|&&(u, v)| !router.deliver(u, v, &tl, &mut |_| {}).is_delivered())
                .count()
        });
        assert_eq!(outcome, again);
    }
}

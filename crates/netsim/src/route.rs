//! Verified route traces.
//!
//! A [`Route`] is the full record of one packet delivery: the sequence of
//! nodes visited (over real graph edges), the exact total cost, the maximum
//! header size observed, and a segment decomposition used to regenerate the
//! paper's Figure 1 / Figure 2 route anatomies.
//!
//! Schemes build routes through a [`RouteRecorder`], which *enforces* that
//! consecutive hops are graph edges and charges their exact weights — a
//! scheme cannot accidentally teleport or undercount cost.
//!
//! One recorder serves one query. A procedure that moves the packet with
//! another scheme's route (a name-independent scheme's underlying labeled
//! legs) runs that route *inside* the same recorder through
//! [`RouteRecorder::nested`]: every hop is validated and charged once, as
//! it happens, and no sub-route is built or replayed. The recorder sizes
//! its buffers once, so on a typical query the returned [`Route`]'s two
//! vectors are its only allocations.

use std::fmt;

use doubling_metric::graph::{Dist, NodeId};
use doubling_metric::space::MetricSpace;

/// Why a route failed. Without fault injection, any failure is a bug in a
/// scheme (the paper's schemes always deliver); surfacing them as errors
/// rather than panics lets the test suite assert their absence over large
/// samples. Under a [`crate::faults::FaultPlan`], the `NodeFailed` / `EdgeFailed`
/// variants are expected outcomes — a packet lost to churn — and are
/// counted by the reachability statistics rather than treated as bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The destination's label/name was not found where the scheme expected
    /// it (e.g. a search-tree lookup failed).
    LookupFailed {
        /// Node at which the lookup failed.
        at: NodeId,
        /// Human-readable description of what was missing.
        detail: String,
    },
    /// The scheme exceeded its hop budget — a routing loop.
    HopBudgetExceeded {
        /// The budget that was exhausted.
        budget: usize,
    },
    /// The packet tried to enter (or originate at) a failed node.
    NodeFailed {
        /// The dead node.
        node: NodeId,
    },
    /// The packet tried to cross a failed edge.
    EdgeFailed {
        /// One endpoint of the dead edge.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Internal invariant violation.
    Internal(String),
}

impl RouteError {
    /// Whether this error is an expected fault-injection loss (as opposed
    /// to a scheme bug).
    pub fn is_fault(&self) -> bool {
        matches!(self, RouteError::NodeFailed { .. } | RouteError::EdgeFailed { .. })
    }
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::LookupFailed { at, detail } => {
                write!(f, "lookup failed at node {at}: {detail}")
            }
            RouteError::HopBudgetExceeded { budget } => {
                write!(f, "hop budget of {budget} exceeded (routing loop?)")
            }
            RouteError::NodeFailed { node } => write!(f, "node {node} has failed"),
            RouteError::EdgeFailed { u, v } => write!(f, "edge ({u}, {v}) has failed"),
            RouteError::Internal(s) => write!(f, "internal routing invariant violated: {s}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// One phase of a route, for figure-style decompositions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Phase tag, e.g. `"zoom"`, `"search"`, `"final"`, `"ring-walk"`.
    pub label: &'static str,
    /// The hierarchy level the phase operated at, if meaningful.
    pub level: Option<u32>,
    /// Exact cost incurred during the phase.
    pub cost: Dist,
    /// Edge traversals during the phase. Edge weights are positive, so
    /// segment hop counts partition [`Route::hop_count`] exactly as
    /// segment costs partition [`Route::cost`].
    pub hops: usize,
}

/// A completed, verified route.
///
/// # Examples
///
/// ```rust
/// use doubling_metric::{gen, MetricSpace};
/// use netsim::RouteRecorder;
///
/// let m = MetricSpace::new(&gen::path(4));
/// let mut rec = RouteRecorder::new(&m, 0);
/// rec.walk_shortest(3).unwrap();
/// let route = rec.finish();
/// assert_eq!(route.cost, 3);
/// assert_eq!(route.stretch(&m), 1.0);
/// route.verify(&m).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source node.
    pub src: NodeId,
    /// Destination node actually reached.
    pub dst: NodeId,
    /// Every node visited, in order (`hops[0] == src`,
    /// `hops.last() == dst`; nodes may repeat).
    pub hops: Vec<NodeId>,
    /// Exact total cost (sum of traversed edge weights).
    pub cost: Dist,
    /// Maximum header size (bits) over all hops.
    pub max_header_bits: u64,
    /// Phase decomposition; segment costs sum to `cost`.
    pub segments: Vec<Segment>,
}

impl Route {
    /// `cost / d(src, dst)` — the stretch of this route. Returns 1.0 for
    /// `src == dst`.
    pub fn stretch(&self, m: &MetricSpace) -> f64 {
        if self.src == self.dst {
            return 1.0;
        }
        self.cost as f64 / m.dist(self.src, self.dst) as f64
    }

    /// Number of edge traversals.
    pub fn hop_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// The `(segment label, level)` governing each edge traversal, in
    /// travel order — length [`Route::hop_count`]. Segment hop counts
    /// partition the route's hops exactly (the recorder invariant), but
    /// routes built without a recorder may carry no segments; any
    /// uncovered tail is labeled `"route"` with no level. Flight
    /// recorders use this to attribute each hop to its Figure-1/2 phase.
    pub fn hop_labels(&self) -> Vec<(&'static str, Option<u32>)> {
        let mut out = Vec::with_capacity(self.hop_count());
        for s in &self.segments {
            for _ in 0..s.hops {
                out.push((s.label, s.level));
            }
        }
        while out.len() < self.hop_count() {
            out.push(("route", None));
        }
        out
    }

    /// A human-readable one-route summary: endpoints, cost vs optimum,
    /// and the segment decomposition — used by examples and debugging
    /// sessions.
    pub fn describe(&self, m: &MetricSpace) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "route {} -> {}: cost {} (optimal {}), stretch {:.2}, {} hops, header {} b",
            self.src,
            self.dst,
            self.cost,
            m.dist(self.src, self.dst),
            self.stretch(m),
            self.hop_count(),
            self.max_header_bits
        );
        for s in &self.segments {
            match s.level {
                Some(l) => {
                    let _ = write!(out, "\n  {:>12}[{l}] cost {}", s.label, s.cost);
                }
                None => {
                    let _ = write!(out, "\n  {:>12}    cost {}", s.label, s.cost);
                }
            }
        }
        out
    }

    /// Re-verifies the trace against the graph: consecutive hops must be
    /// edges, the cost must equal the sum of weights, and segment costs
    /// must sum to the total.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn verify(&self, m: &MetricSpace) -> Result<(), String> {
        if self.hops.first() != Some(&self.src) {
            return Err("route does not start at src".into());
        }
        if self.hops.last() != Some(&self.dst) {
            return Err("route does not end at dst".into());
        }
        let mut total: Dist = 0;
        for w in self.hops.windows(2) {
            if w[0] == w[1] {
                continue; // zero-cost stay (allowed for bookkeeping)
            }
            match m.graph().edge_weight(w[0], w[1]) {
                Some(wt) => total += wt,
                None => return Err(format!("hop {} -> {} is not an edge", w[0], w[1])),
            }
        }
        if total != self.cost {
            return Err(format!("cost mismatch: recorded {} actual {}", self.cost, total));
        }
        let seg_total: Dist = self.segments.iter().map(|s| s.cost).sum();
        if !self.segments.is_empty() && seg_total != self.cost {
            return Err(format!("segment costs sum to {seg_total}, route cost is {}", self.cost));
        }
        let seg_hops: usize = self.segments.iter().map(|s| s.hops).sum();
        if !self.segments.is_empty() && seg_hops != self.hop_count() {
            return Err(format!(
                "segment hops sum to {seg_hops}, route has {} hops",
                self.hop_count()
            ));
        }
        Ok(())
    }
}

/// Hops a recorder reserves up front, so a route's hop vector is
/// allocated once: above the longest route any of the four schemes takes
/// between two nodes of a 24×24 grid at ε = 1/8 (229 hops, a named query).
const HOP_CAPACITY: usize = 256;

/// Segments a recorder reserves up front: above the most any route of
/// that grid opens (10, on a named query).
const SEGMENT_CAPACITY: usize = 16;

/// Incremental builder for [`Route`], used inside scheme implementations.
///
/// The recorder borrows the metric so that every movement is validated and
/// exactly costed as it happens.
pub struct RouteRecorder<'m> {
    m: &'m MetricSpace,
    hops: Vec<NodeId>,
    cost: Dist,
    max_header_bits: u64,
    segments: Vec<Segment>,
    seg_start_cost: Dist,
    seg_start_hops: usize,
    seg_label: &'static str,
    seg_level: Option<u32>,
    hop_budget: usize,
    /// Open [`Self::nested`] scopes; segments only open at depth 0.
    depth: u32,
}

impl<'m> RouteRecorder<'m> {
    /// Starts a route at `src`. The default hop budget is `64·n + 64`,
    /// far above any compact scheme's worst case; exceeding it means a loop.
    pub fn new(m: &'m MetricSpace, src: NodeId) -> Self {
        let mut hops = Vec::with_capacity(HOP_CAPACITY);
        hops.push(src);
        RouteRecorder {
            m,
            hops,
            cost: 0,
            max_header_bits: 0,
            segments: Vec::with_capacity(SEGMENT_CAPACITY),
            seg_start_cost: 0,
            seg_start_hops: 0,
            seg_label: "route",
            seg_level: None,
            hop_budget: 64 * m.n() + 64,
            depth: 0,
        }
    }

    /// The metric every hop is validated and charged against.
    #[inline]
    pub fn metric(&self) -> &'m MetricSpace {
        self.m
    }

    /// The node the packet currently sits at.
    #[inline]
    pub fn current(&self) -> NodeId {
        *self.hops.last().expect("recorder always has at least the source")
    }

    /// Exact cost so far.
    #[inline]
    pub fn cost(&self) -> Dist {
        self.cost
    }

    /// Declares the serialized header size (bits) carried from now on; the
    /// route records the maximum.
    pub fn note_header_bits(&mut self, bits: u64) {
        self.max_header_bits = self.max_header_bits.max(bits);
    }

    /// Closes the current segment (if it accrued cost) and opens a new one.
    /// Inside a [`Self::nested`] scope this does nothing: the sub-route's
    /// phases fold into the segment the enclosing route has open.
    pub fn begin_segment(&mut self, label: &'static str, level: Option<u32>) {
        if self.depth > 0 {
            return;
        }
        self.flush_segment();
        self.seg_label = label;
        self.seg_level = level;
    }

    fn flush_segment(&mut self) {
        let spent = self.cost - self.seg_start_cost;
        // Zero-cost phases are dropped (keeps single-phase zero-cost
        // routes clean); edge weights are positive, so a dropped phase
        // also made no hops.
        if spent > 0 {
            self.segments.push(Segment {
                label: self.seg_label,
                level: self.seg_level,
                cost: spent,
                hops: self.hops.len() - 1 - self.seg_start_hops,
            });
        }
        self.seg_start_cost = self.cost;
        self.seg_start_hops = self.hops.len() - 1;
    }

    /// Moves one hop to an adjacent node, charging the edge weight.
    ///
    /// # Errors
    ///
    /// Returns an error if `next` is not adjacent or the hop budget is
    /// exhausted.
    pub fn hop(&mut self, next: NodeId) -> Result<(), RouteError> {
        let cur = self.current();
        if cur == next {
            return Ok(());
        }
        let w = self.m.graph().edge_weight(cur, next).ok_or_else(|| {
            RouteError::Internal(format!("scheme attempted non-edge hop {cur} -> {next}"))
        })?;
        if self.hops.len() > self.hop_budget {
            return Err(RouteError::HopBudgetExceeded { budget: self.hop_budget });
        }
        self.hops.push(next);
        self.cost += w;
        Ok(())
    }

    /// Walks the deterministic shortest path from the current node to
    /// `target`, charging `d(current, target)`.
    ///
    /// This is the primitive used to realize a stored "next hop toward x"
    /// chain or a search-tree virtual edge whose endpoints hold each other's
    /// underlying labels: the paper charges exactly the metric distance for
    /// such traversals (times the underlying scheme's `1+ε`, which callers
    /// model explicitly when they route via an underlying scheme instead).
    ///
    /// # Errors
    ///
    /// Propagates hop-budget exhaustion.
    pub fn walk_shortest(&mut self, target: NodeId) -> Result<(), RouteError> {
        let cur = self.current();
        if cur == target {
            return Ok(());
        }
        let path = self.m.path(cur, target);
        for &x in &path[1..] {
            self.hop(x)?;
        }
        Ok(())
    }

    /// Runs `walk` as a sub-route of this route (e.g. a leg of an
    /// underlying labeled scheme), starting at the current node. The
    /// sub-route moves the packet through this recorder, so its hops are
    /// validated, charged and budgeted here as they happen; its
    /// [`Self::begin_segment`] calls fold into the segment open here, and
    /// its header bits into this route's maximum.
    pub fn nested<T>(&mut self, walk: impl FnOnce(&mut Self) -> T) -> T {
        self.depth += 1;
        let out = walk(self);
        self.depth -= 1;
        out
    }

    /// Finishes the route at the current node.
    pub fn finish(mut self) -> Route {
        self.flush_segment();
        Route {
            src: self.hops[0],
            dst: self.current(),
            hops: self.hops,
            cost: self.cost,
            max_header_bits: self.max_header_bits,
            segments: self.segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::gen;

    #[test]
    fn recorder_walks_and_verifies() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let mut r = RouteRecorder::new(&m, 0);
        r.begin_segment("out", Some(1));
        r.walk_shortest(15).unwrap();
        r.begin_segment("back", None);
        r.walk_shortest(3).unwrap();
        r.note_header_bits(12);
        let route = r.finish();
        assert_eq!(route.src, 0);
        assert_eq!(route.dst, 3);
        assert_eq!(route.cost, m.dist(0, 15) + m.dist(15, 3));
        assert_eq!(route.max_header_bits, 12);
        route.verify(&m).unwrap();
        assert_eq!(route.segments.len(), 2);
        assert_eq!(route.segments[0].cost, m.dist(0, 15));
        // Segment hop counts partition the route's hops, like costs do.
        let seg_hops: usize = route.segments.iter().map(|s| s.hops).sum();
        assert_eq!(seg_hops, route.hop_count());
        assert!(route.segments.iter().all(|s| s.hops > 0));
    }

    #[test]
    fn non_edge_hop_rejected() {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let mut r = RouteRecorder::new(&m, 0);
        assert!(matches!(r.hop(15), Err(RouteError::Internal(_))));
    }

    #[test]
    fn self_hop_is_free() {
        let m = MetricSpace::new(&gen::grid(3, 3));
        let mut r = RouteRecorder::new(&m, 4);
        r.hop(4).unwrap();
        let route = r.finish();
        assert_eq!(route.cost, 0);
        assert_eq!(route.hop_count(), 0);
        assert_eq!(route.stretch(&m), 1.0);
    }

    #[test]
    fn nested_folds_segments_and_headers() {
        let m = MetricSpace::new(&gen::path(6));
        let mut r = RouteRecorder::new(&m, 0);
        r.note_header_bits(5);
        r.begin_segment("zoom", Some(0));
        r.walk_shortest(1).unwrap();
        r.nested(|r| {
            // A sub-route's phases and headers, as an underlying scheme
            // would declare them.
            r.begin_segment("ring-walk", Some(2));
            r.note_header_bits(9);
            r.walk_shortest(3).unwrap();
            r.begin_segment("ring-walk", Some(1));
            r.note_header_bits(4);
            r.walk_shortest(4).unwrap();
        });
        r.begin_segment("final", Some(0));
        r.walk_shortest(5).unwrap();
        let route = r.finish();
        route.verify(&m).unwrap();
        assert_eq!(route.hops, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(route.max_header_bits, 9);
        let phases: Vec<_> = route.segments.iter().map(|s| (s.label, s.level, s.hops)).collect();
        assert_eq!(phases, vec![("zoom", Some(0), 4), ("final", Some(0), 1)]);
    }

    #[test]
    fn nested_hops_are_still_validated() {
        let m = MetricSpace::new(&gen::path(3));
        let mut r = RouteRecorder::new(&m, 0);
        assert!(matches!(r.nested(|r| r.hop(2)), Err(RouteError::Internal(_))));
        // The hop budget spans the nested scope and the enclosing route.
        let result = r.nested(|r| {
            (0..10_000).try_for_each(|_| {
                r.hop(1)?;
                r.hop(0)
            })
        });
        assert!(matches!(result, Err(RouteError::HopBudgetExceeded { .. })));
    }

    #[test]
    fn verify_catches_cost_mismatch() {
        let m = MetricSpace::new(&gen::path(4));
        let mut r = RouteRecorder::new(&m, 0);
        r.walk_shortest(3).unwrap();
        let mut route = r.finish();
        route.cost += 1;
        assert!(route.verify(&m).is_err());
    }

    #[test]
    fn stretch_of_detour() {
        let m = MetricSpace::new(&gen::ring(8));
        let mut r = RouteRecorder::new(&m, 0);
        // Go the long way around to node 1: 7 hops instead of 1.
        for x in [7, 6, 5, 4, 3, 2, 1] {
            r.hop(x).unwrap();
        }
        let route = r.finish();
        assert_eq!(route.cost, 7);
        assert!((route.stretch(&m) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn hop_budget_catches_loops() {
        let m = MetricSpace::new(&gen::path(3));
        let mut r = RouteRecorder::new(&m, 0);
        let result = (0..10_000).try_for_each(|_| {
            r.hop(1)?;
            r.hop(0)
        });
        assert!(matches!(result, Err(RouteError::HopBudgetExceeded { .. })));
    }
}

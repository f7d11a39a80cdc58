//! Route-level observability: segment span trees and route metrics.
//!
//! A delivered [`Route`] carries its Figure-1/2 phase decomposition as
//! [`netsim::Segment`]s; [`route_span_tree`] lifts it into a span tree
//! whose children partition the route's exact cost (see the crate docs for
//! the segment-label ↔ figure correspondence), and [`RouteMetrics`]
//! aggregates whole route populations into the histograms the `profile`
//! binary reports.

use std::collections::BTreeMap;

use netsim::json::Value;
use netsim::stats::UNDERSTRETCH_TOL;
use netsim::Route;

use crate::metrics::{Counter, Log2Histogram};

/// The cost-domain span tree of one route: a root span covering the whole
/// delivery whose children are the segments in travel order.
///
/// Invariant (enforced by `Route::verify` and asserted by this crate's
/// golden test): the children's `cost` values sum exactly to the root's
/// `cost`. Spans here measure *metric cost*, not wall-clock — the route
/// anatomy of Figures 1 and 2.
pub fn route_span_tree(route: &Route) -> Value {
    let children: Vec<Value> = route
        .segments
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), s.label.into()),
                ("level".into(), s.level.map_or(Value::Null, Value::from)),
                ("cost".into(), s.cost.into()),
                ("hops".into(), s.hops.into()),
            ])
        })
        .collect();
    Value::Object(vec![
        ("name".into(), "route".into()),
        ("src".into(), route.src.into()),
        ("dst".into(), route.dst.into()),
        ("cost".into(), route.cost.into()),
        ("hops".into(), route.hop_count().into()),
        ("header_bits".into(), route.max_header_bits.into()),
        ("spans".into(), Value::Array(children)),
    ])
}

/// Sum of the route's segment-span costs (equals `route.cost` whenever the
/// route has segments — the golden-test invariant).
pub fn segment_span_sum(route: &Route) -> u64 {
    route.segments.iter().map(|s| s.cost).sum()
}

/// Aggregated route-population metrics: cost, hop-count, and header-bit
/// histograms, plus per-level search-tree lookup tallies and the
/// under-stretch error counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteMetrics {
    /// Route costs (metric units).
    pub cost: Log2Histogram,
    /// Edge traversals per route.
    pub hops: Log2Histogram,
    /// Maximum header bits per route.
    pub header_bits: Log2Histogram,
    /// Search-tree lookups per hierarchy level: counts every `search` /
    /// `tree-search` segment, keyed by its level (round `k` for Figure 1,
    /// packing index `j` for Figure 2).
    pub search_lookups_by_level: BTreeMap<u32, u64>,
    /// Routes whose recorded stretch fell below 1 (impossible for a sound
    /// recorder; any nonzero value is an under-charging bug surfaced by
    /// the satellite fix in `EvalResult`).
    pub understretch: Counter,
}

impl RouteMetrics {
    /// An empty metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one delivered route into the histograms.
    pub fn record(&mut self, route: &Route) {
        self.cost.record(route.cost);
        self.hops.record(route.hop_count() as u64);
        self.header_bits.record(route.max_header_bits);
        for s in &route.segments {
            if matches!(s.label, "search" | "tree-search") {
                *self.search_lookups_by_level.entry(s.level.unwrap_or(0)).or_insert(0) += 1;
            }
        }
    }

    /// Records a route's measured stretch, counting under-stretch
    /// violations (stretch below `1 − UNDERSTRETCH_TOL`).
    pub fn record_stretch(&mut self, stretch: f64) {
        if stretch < 1.0 - UNDERSTRETCH_TOL {
            self.understretch.inc();
        }
    }

    /// These metrics as a JSON object.
    pub fn to_json(&self) -> Value {
        let lookups: Vec<(String, Value)> = self
            .search_lookups_by_level
            .iter()
            .map(|(lvl, n)| (lvl.to_string(), Value::from(*n)))
            .collect();
        Value::Object(vec![
            ("cost".into(), self.cost.to_json()),
            ("hops".into(), self.hops.to_json()),
            ("header_bits".into(), self.header_bits.to_json()),
            ("search_lookups_by_level".into(), Value::Object(lookups)),
            ("understretch".into(), self.understretch.get().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doubling_metric::{gen, MetricSpace};
    use netsim::RouteRecorder;

    fn two_segment_route() -> (MetricSpace, Route) {
        let m = MetricSpace::new(&gen::grid(4, 4));
        let mut rec = RouteRecorder::new(&m, 0);
        rec.begin_segment("zoom", Some(1));
        rec.walk_shortest(15).unwrap();
        rec.begin_segment("search", Some(2));
        rec.walk_shortest(3).unwrap();
        rec.note_header_bits(9);
        let route = rec.finish();
        (m, route)
    }

    #[test]
    fn span_tree_partitions_cost() {
        let (m, route) = two_segment_route();
        route.verify(&m).unwrap();
        assert_eq!(segment_span_sum(&route), route.cost);
        let tree = route_span_tree(&route);
        let spans = tree.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        let child_sum: u64 =
            spans.iter().map(|s| s.get("cost").and_then(Value::as_u64).unwrap()).sum();
        assert_eq!(child_sum, tree.get("cost").and_then(Value::as_u64).unwrap());
        let child_hops: u64 =
            spans.iter().map(|s| s.get("hops").and_then(Value::as_u64).unwrap()).sum();
        assert_eq!(child_hops, route.hop_count() as u64);
    }

    #[test]
    fn metrics_aggregate_routes() {
        let (m, route) = two_segment_route();
        let mut rm = RouteMetrics::new();
        rm.record(&route);
        rm.record_stretch(route.stretch(&m));
        assert_eq!(rm.cost.count(), 1);
        assert_eq!(rm.hops.max(), Some(route.hop_count() as u64));
        assert_eq!(rm.header_bits.max(), Some(9));
        assert_eq!(rm.search_lookups_by_level.get(&2), Some(&1));
        assert_eq!(rm.understretch.get(), 0);
        rm.record_stretch(0.5);
        assert_eq!(rm.understretch.get(), 1);
        // JSON round-trips.
        let json = rm.to_json();
        assert_eq!(Value::parse(&json.to_string()).unwrap(), json);
    }
}

//! Observers for the `netsim` evaluation harness.
//!
//! [`route_observer`] is the per-pair hook [`netsim::stats::eval`] takes:
//! it (a) folds every delivered route into a [`RouteMetrics`] set, the
//! shared [`MetricsRegistry`] and a [`FlightRecorder`], and (b) — only
//! when the tracer is recording — emits one `"route"` event carrying the
//! full [`crate::spans::route_span_tree`]. With [`Tracer::noop`] and
//! disabled sinks the per-route work reduces to the metrics fold plus a
//! few branches: no allocation, no clock reads, no assertions (the
//! zero-overhead path the acceptance criteria pin down). The remaining
//! helpers translate maintenance batches, recovery decisions and
//! conformance clauses into trace events and registry counters.

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;

use netsim::json::Value;
use netsim::recovery::RecoveryEvent;
use netsim::{Route, RouteError};

use crate::flight::FlightRecorder;
use crate::registry::MetricsRegistry;
use crate::spans::{route_span_tree, RouteMetrics};
use crate::trace::Tracer;

/// The observer to pass to [`netsim::stats::eval`]: every route is folded
/// into `metrics`, into `registry` (counters `eval.routes` /
/// `eval.route_failures` / `eval.understretch`, histograms
/// `eval.route_cost` / `eval.route_hops` / `eval.header_bits` — shared
/// across all concurrent evaluations holding a clone of the registry) and
/// into `flight` for per-hop forensics; when `tracer` is recording, each
/// route also becomes a `"route"` span-tree event (a failure, a
/// `"route-error"` event). Registry handles are resolved once, here, not
/// per route.
pub fn route_observer<'a>(
    m: &'a MetricSpace,
    tracer: &'a Tracer,
    metrics: &'a mut RouteMetrics,
    registry: &MetricsRegistry,
    flight: &'a mut FlightRecorder,
) -> impl FnMut(NodeId, NodeId, &Result<Route, RouteError>) + 'a {
    let routes = registry.counter("eval.routes");
    let failures = registry.counter("eval.route_failures");
    let understretch = registry.counter("eval.understretch");
    let cost = registry.histogram("eval.route_cost");
    let hops = registry.histogram("eval.route_hops");
    let header_bits = registry.histogram("eval.header_bits");
    move |u, v, res| match res {
        Ok(r) => {
            let stretch = r.stretch(m);
            metrics.record(r);
            metrics.record_stretch(stretch);
            routes.inc();
            cost.record(r.cost);
            hops.record(r.hop_count() as u64);
            header_bits.record(r.max_header_bits);
            if stretch < 1.0 - netsim::stats::UNDERSTRETCH_TOL {
                understretch.inc();
            }
            flight.record_route(u, v, r, stretch);
            tracer.event_lazy("route", || vec![("route", route_span_tree(r))]);
        }
        Err(e) => {
            failures.inc();
            flight.record_error(u, v, e);
            if tracer.enabled() {
                tracer.event("route-error", vec![("src", u.into()), ("dst", v.into())]);
            }
        }
    }
}

/// Counts one committed maintenance batch in `registry`: the
/// `maintain.batches` total, a per-action counter under
/// `maintain.<action tag>` (e.g. `maintain.repaired`,
/// `maintain.rebuilt-blast`), `maintain.fallbacks` when the batch
/// degraded to a whole-scheme rebuild, `maintain.audit_failures` when the
/// committed tables failed their spot-audit, and the
/// `maintain.table_bits` histogram tracking the per-batch re-price. Free
/// with a disabled registry — one branch per batch.
pub fn meter_maintain_batch(registry: &MetricsRegistry, report: &netsim::maintain::BatchReport) {
    if !registry.enabled() {
        return;
    }
    registry.counter("maintain.batches").inc();
    registry.counter(&format!("maintain.{}", report.action.tag())).inc();
    if report.action.is_fallback() {
        registry.counter("maintain.fallbacks").inc();
    }
    if !report.audit_ok {
        registry.counter("maintain.audit_failures").inc();
    }
    registry.histogram("maintain.table_bits").record(report.table_bits);
}

/// Emits one `"maintain-batch"` trace event for a committed maintenance
/// batch: `base` fields (experiment context such as scheme, n, churn
/// cell) come first, then the batch's epoch, action tag, blast fraction,
/// audit verdict, table bits and active count. Free with a noop tracer —
/// the registry-side companion is [`meter_maintain_batch`].
pub fn trace_maintain_batch(
    tracer: &Tracer,
    base: impl FnOnce() -> Vec<(&'static str, Value)>,
    report: &netsim::maintain::BatchReport,
) {
    tracer.event_lazy("maintain-batch", || {
        let mut fields = base();
        fields.push(("epoch", report.epoch.into()));
        fields.push(("action", report.action.tag().into()));
        fields.push(("blast", report.stats.blast_fraction().into()));
        fields.push(("audit_ok", report.audit_ok.into()));
        fields.push(("table_bits", report.table_bits.into()));
        fields.push(("active", report.active.into()));
        fields
    });
}

/// Counts one recovery decision in `registry` under its
/// [`RecoveryEvent::kind`] name (`recovery-detour` / `recovery-fallback` /
/// `recovery-exhausted`). The registry-side companion of
/// [`trace_recovery_event`]; free with a disabled registry.
pub fn meter_recovery_event(registry: &MetricsRegistry, ev: &RecoveryEvent) {
    if registry.enabled() {
        registry.counter(ev.kind()).inc();
    }
}

/// Emits one trace event for a recovery decision made mid-delivery by a
/// [`netsim::recovery::ResilientRouter`]. The event name is the decision's
/// [`RecoveryEvent::kind`] (`recovery-detour` / `recovery-fallback` /
/// `recovery-exhausted`); `base` fields (experiment context such as
/// strategy, fraction, scheme, src, dst) come first, followed by the
/// decision's own fields. Free with a noop tracer — this is the
/// `on_event` hook the resilient evaluations expose, so `netsim` itself
/// never learns about tracing.
pub fn trace_recovery_event(
    tracer: &Tracer,
    base: impl FnOnce() -> Vec<(&'static str, Value)>,
    ev: &RecoveryEvent,
) {
    tracer.event_lazy(ev.kind(), || {
        let mut fields = base();
        match ev {
            RecoveryEvent::Detour { at, rejoin, detour_hops } => {
                fields.push(("at", (*at).into()));
                fields.push(("rejoin", (*rejoin).into()));
                fields.push(("detour_hops", (*detour_hops).into()));
            }
            RecoveryEvent::Fallback { at, landmark, level } => {
                fields.push(("at", (*at).into()));
                fields.push(("landmark", (*landmark).into()));
                fields.push(("level", (*level).into()));
            }
            RecoveryEvent::Exhausted { at, reason } => {
                fields.push(("at", (*at).into()));
                fields.push(("reason", (*reason).into()));
            }
        }
        fields
    });
}

/// Emits one trace event per audited conformance clause:
/// `"conformance-pass"` or `"conformance-violation"` depending on the
/// verdict, with the clause name, its evaluated bound, and the measured
/// value. `base` fields (family, n, ε, seed, scheme, theorem) come first,
/// as in [`trace_recovery_event`]. Free with a noop tracer — the `conform`
/// crate stays tracing-agnostic and the conformance experiment calls this
/// from the bench layer.
pub fn trace_conformance_clause(
    tracer: &Tracer,
    base: impl FnOnce() -> Vec<(&'static str, Value)>,
    clause: &str,
    bound: f64,
    measured: f64,
    pass: bool,
) {
    let name = if pass { "conformance-pass" } else { "conformance-violation" };
    tracer.event_lazy(name, || {
        let mut fields = base();
        fields.push(("clause", clause.into()));
        fields.push(("bound", bound.into()));
        fields.push(("measured", measured.into()));
        fields
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::maintain::{BatchAction, BatchReport, RepairStats};

    fn report(action: BatchAction, audit_ok: bool) -> BatchReport {
        BatchReport {
            epoch: 3,
            action,
            stats: RepairStats { rings_rebuilt: 1, rings_refreshed: 3, ..Default::default() },
            audit_ok,
            table_bits: 4096,
            active: 30,
        }
    }

    #[test]
    fn maintain_batches_are_metered_by_action() {
        let registry = MetricsRegistry::new();
        meter_maintain_batch(&registry, &report(BatchAction::Repaired, true));
        meter_maintain_batch(&registry, &report(BatchAction::RebuiltBlast, true));
        meter_maintain_batch(&registry, &report(BatchAction::RebuiltAudit, false));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("maintain.batches"), Some(3));
        assert_eq!(snap.counter("maintain.repaired"), Some(1));
        assert_eq!(snap.counter("maintain.rebuilt-blast"), Some(1));
        assert_eq!(snap.counter("maintain.rebuilt-audit"), Some(1));
        assert_eq!(snap.counter("maintain.fallbacks"), Some(2));
        assert_eq!(snap.counter("maintain.audit_failures"), Some(1));
        assert_eq!(snap.histogram("maintain.table_bits").map(|h| h.count()), Some(3));
        // Disabled registry: one branch, no counters.
        let off = MetricsRegistry::disabled();
        meter_maintain_batch(&off, &report(BatchAction::Repaired, true));
        assert!(off.snapshot().counter("maintain.batches").is_none());
    }

    #[test]
    fn maintain_batches_are_traced_with_context_first() {
        let tracer = Tracer::recording();
        trace_maintain_batch(
            &tracer,
            || vec![("scheme", "net-labeled".into())],
            &report(BatchAction::RepairedScoped, true),
        );
        let log = tracer.finish();
        assert_eq!(log.events.len(), 1);
        let e = &log.events[0];
        assert_eq!(e.name, "maintain-batch");
        let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            ["scheme", "epoch", "action", "blast", "audit_ok", "table_bits", "active"]
        );
        assert_eq!(e.fields[2].1, Value::from("repaired-scoped"));
        // Noop tracer: the closure never runs.
        trace_maintain_batch(
            &Tracer::noop(),
            || unreachable!(),
            &report(BatchAction::Repaired, true),
        );
    }
}

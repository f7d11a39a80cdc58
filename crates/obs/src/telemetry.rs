//! The one telemetry value every experiment threads through its run.
//!
//! A [`Telemetry`] bundles the three sinks — the span/event [`Tracer`],
//! the shared [`MetricsRegistry`] and the [`FlightRecorder`] ring — and
//! turns each experiment event into all three at once: [`Telemetry::route`]
//! for an evaluated route, [`Telemetry::delivery`] for a resilient
//! delivery, [`Telemetry::recovery_event`] for a mid-delivery recovery
//! decision, [`Telemetry::maintain_batch`] for a committed maintenance
//! batch and [`Telemetry::conformance_clause`] for an audited theorem
//! clause. Each sink can be off on its own ([`Tracer::noop`],
//! [`MetricsRegistry::disabled`], [`FlightRecorder::disabled`]); with all
//! three off ([`Telemetry::off`]) every method reduces to a few branches —
//! no allocation, no clock read.
//!
//! The fields are public: threaded code (the serving workers) borrows the
//! `Sync` [`Telemetry::registry`] directly, and span scopes open on
//! [`Telemetry::tracer`].

use std::cell::RefCell;

use doubling_metric::graph::NodeId;
use doubling_metric::space::MetricSpace;
use netsim::json::Value;
use netsim::maintain::{BatchAction, BatchReport};
use netsim::recovery::{DeliveryOutcome, RecoveryEvent};
use netsim::{Route, RouteError};

use crate::flight::{FlightRecorder, DEFAULT_CAPACITY};
use crate::registry::MetricsRegistry;
use crate::spans::route_span_tree;
use crate::trace::Tracer;

/// Experiment context fields leading an event (scheme, cell, pair, …);
/// built only when the tracer records.
pub type Fields = Vec<(&'static str, Value)>;

/// The tracer, registry and flight ring of one run; see the
/// [module docs](self).
pub struct Telemetry {
    /// Span/event tracer.
    pub tracer: Tracer,
    /// Shared counters and histograms (`Send + Sync`).
    pub registry: MetricsRegistry,
    /// Per-hop forensics of the last routes; a `RefCell` so several
    /// observer closures of one evaluation can feed it.
    pub flight: RefCell<FlightRecorder>,
}

impl Telemetry {
    /// All three sinks off: tests and callers nobody watches.
    pub fn off() -> Self {
        Telemetry {
            tracer: Tracer::noop(),
            registry: MetricsRegistry::disabled(),
            flight: RefCell::new(FlightRecorder::disabled()),
        }
    }

    /// `tracer` plus an enabled registry and a flight ring of
    /// [`DEFAULT_CAPACITY`] — what the experiment binaries run with.
    pub fn on(tracer: Tracer) -> Self {
        Telemetry {
            tracer,
            registry: MetricsRegistry::new(),
            flight: RefCell::new(FlightRecorder::new(DEFAULT_CAPACITY)),
        }
    }

    /// One evaluated route, the per-pair hook of
    /// [`netsim::stats::eval`] and [`netsim::stats::sampled_stretch`].
    ///
    /// A delivered route counts in `eval.routes` (and `eval.understretch`
    /// below stretch 1), records `eval.route_cost` / `eval.route_hops` /
    /// `eval.header_bits`, enters the flight ring with its stretch against
    /// `m`, and — when tracing — becomes a `"route"` event carrying its
    /// [`route_span_tree`]. A failure counts in `eval.route_failures`,
    /// enters the ring as a loss and becomes a `"route-error"` event. All
    /// six `eval.*` metrics register on the first route, so a snapshot
    /// lists the zero counters too.
    pub fn route(&self, m: &MetricSpace, u: NodeId, v: NodeId, res: &Result<Route, RouteError>) {
        match res {
            Ok(r) => {
                let stretch = r.stretch(m);
                self.meter_route(Some((r, stretch)));
                self.flight.borrow_mut().record_route(u, v, r, stretch);
                self.tracer.event_lazy("route", || vec![("route", route_span_tree(r))]);
            }
            Err(e) => {
                self.meter_route(None);
                self.flight.borrow_mut().record_error(u, v, e);
                self.tracer
                    .event_lazy("route-error", || vec![("src", u.into()), ("dst", v.into())]);
            }
        }
    }

    /// The registry side of [`Telemetry::route`]: `delivered` is the route
    /// and its stretch, `None` for a failure.
    fn meter_route(&self, delivered: Option<(&Route, f64)>) {
        let reg = &self.registry;
        if !reg.enabled() {
            return;
        }
        let (routes, failures) = (reg.counter("eval.routes"), reg.counter("eval.route_failures"));
        let understretch = reg.counter("eval.understretch");
        let cost = reg.histogram("eval.route_cost");
        let hops = reg.histogram("eval.route_hops");
        let header_bits = reg.histogram("eval.header_bits");
        let Some((r, stretch)) = delivered else { return failures.inc() };
        routes.inc();
        cost.record(r.cost);
        hops.record(r.hop_count() as u64);
        header_bits.record(r.max_header_bits);
        if stretch < 1.0 - netsim::stats::UNDERSTRETCH_TOL {
            understretch.inc();
        }
    }

    /// One resilient delivery by a [`netsim::recovery::ResilientRouter`]:
    /// counts `recovery.delivered` or `recovery.lost` and enters the
    /// flight ring (losses flagged), carrying the recovery decisions
    /// [`Telemetry::recovery_event`] noted on the way.
    pub fn delivery(&self, u: NodeId, v: NodeId, outcome: &DeliveryOutcome) {
        if self.registry.enabled() {
            let name = if outcome.is_delivered() { "recovery.delivered" } else { "recovery.lost" };
            self.registry.counter(name).inc();
        }
        self.flight.borrow_mut().record_outcome(u, v, outcome);
    }

    /// One recovery decision made mid-delivery. The trace event is named
    /// by [`RecoveryEvent::kind`] (`recovery-detour` / `recovery-fallback`
    /// / `recovery-exhausted`), with the `base` context fields first and
    /// the decision's own fields after; the registry counts it under the
    /// same name, and the flight ring attaches it to the delivery it
    /// belongs to.
    pub fn recovery_event(&self, base: impl FnOnce() -> Fields, ev: &RecoveryEvent) {
        self.tracer.event_lazy(ev.kind(), || {
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
        if self.registry.enabled() {
            self.registry.counter(ev.kind()).inc();
        }
        self.flight.borrow_mut().note_recovery(ev);
    }

    /// One committed maintenance batch. The `"maintain-batch"` event
    /// carries the `base` context first, then epoch, action tag, blast
    /// fraction, first-audit verdict (false for a `rebuilt-audit` batch),
    /// table bits and active count. The registry counts
    /// `maintain.batches`, `maintain.<action tag>` (e.g.
    /// `maintain.repaired`), `maintain.fallbacks` for whole-scheme
    /// rebuilds and `maintain.audit_failures` for `rebuilt-audit` batches,
    /// and records the `maintain.table_bits` histogram. A batch whose
    /// repaired tables failed their spot audit is an `"audit-failure"`
    /// anomaly in the flight ring.
    pub fn maintain_batch(&self, base: impl FnOnce() -> Fields, report: &BatchReport) {
        let audit_failed = report.action == BatchAction::RebuiltAudit;
        self.tracer.event_lazy("maintain-batch", || {
            let mut fields = base();
            fields.push(("epoch", report.epoch.into()));
            fields.push(("action", report.action.tag().into()));
            fields.push(("blast", report.stats.blast_fraction().into()));
            fields.push(("audit_ok", (!audit_failed).into()));
            fields.push(("table_bits", report.table_bits.into()));
            fields.push(("active", report.active.into()));
            fields
        });
        let reg = &self.registry;
        if reg.enabled() {
            reg.counter("maintain.batches").inc();
            reg.counter(&format!("maintain.{}", report.action.tag())).inc();
            if report.action.is_fallback() {
                reg.counter("maintain.fallbacks").inc();
            }
            if audit_failed {
                reg.counter("maintain.audit_failures").inc();
            }
            reg.histogram("maintain.table_bits").record(report.table_bits);
        }
        if audit_failed {
            self.flight.borrow_mut().note_anomaly("audit-failure");
        }
    }

    /// One audited theorem clause: a `"conformance-pass"` or
    /// `"conformance-violation"` event (the `base` context, then clause,
    /// bound and measured value), the `conformance.clauses` /
    /// `conformance.violations` counters, and — on a violation — a
    /// `"conformance-failure"` anomaly flagged on the latest flight record
    /// (record the certificate's witness route first).
    pub fn conformance_clause(
        &self,
        base: impl FnOnce() -> Fields,
        clause: &str,
        bound: f64,
        measured: f64,
        pass: bool,
    ) {
        let name = if pass { "conformance-pass" } else { "conformance-violation" };
        self.tracer.event_lazy(name, || {
            let mut fields = base();
            fields.push(("clause", clause.into()));
            fields.push(("bound", bound.into()));
            fields.push(("measured", measured.into()));
            fields
        });
        if self.registry.enabled() {
            self.registry.counter("conformance.clauses").inc();
            if !pass {
                self.registry.counter("conformance.violations").inc();
            }
        }
        if !pass {
            self.flight.borrow_mut().note_anomaly("conformance-failure");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::maintain::RepairStats;

    fn report(action: BatchAction) -> BatchReport {
        BatchReport {
            epoch: 3,
            action,
            stats: RepairStats { rings_rebuilt: 1, rings_refreshed: 3, ..Default::default() },
            table_bits: 4096,
            active: 30,
        }
    }

    #[test]
    fn maintain_batches_are_metered_by_action() {
        let tel = Telemetry::on(Tracer::noop());
        tel.maintain_batch(Vec::new, &report(BatchAction::Repaired));
        tel.maintain_batch(Vec::new, &report(BatchAction::RebuiltBlast));
        tel.maintain_batch(Vec::new, &report(BatchAction::RebuiltAudit));
        let snap = tel.registry.snapshot();
        assert_eq!(snap.counter("maintain.batches"), Some(3));
        assert_eq!(snap.counter("maintain.repaired"), Some(1));
        assert_eq!(snap.counter("maintain.rebuilt-blast"), Some(1));
        assert_eq!(snap.counter("maintain.rebuilt-audit"), Some(1));
        assert_eq!(snap.counter("maintain.fallbacks"), Some(2));
        // Only the batch whose first audit failed counts as a failure.
        assert_eq!(snap.counter("maintain.audit_failures"), Some(1));
        assert_eq!(snap.histogram("maintain.table_bits").map(|h| h.count()), Some(3));
        // The failed audit is a flight anomaly.
        assert_eq!(tel.flight.borrow().anomalies(), 1);
        // Everything off: one branch per sink, no counters.
        let off = Telemetry::off();
        off.maintain_batch(|| unreachable!(), &report(BatchAction::RebuiltAudit));
        assert!(off.registry.snapshot().counter("maintain.batches").is_none());
        assert_eq!(off.flight.borrow().anomalies(), 0);
    }

    #[test]
    fn maintain_batches_are_traced_with_context_first() {
        let tel = Telemetry::on(Tracer::recording());
        tel.maintain_batch(
            || vec![("scheme", "net-labeled".into())],
            &report(BatchAction::RebuiltBlast),
        );
        tel.maintain_batch(Vec::new, &report(BatchAction::RebuiltAudit));
        let log = tel.tracer.finish();
        assert_eq!(log.events.len(), 2);
        let e = &log.events[0];
        assert_eq!(e.name, "maintain-batch");
        let keys: Vec<&str> = e.fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            ["scheme", "epoch", "action", "blast", "audit_ok", "table_bits", "active"]
        );
        assert_eq!(e.fields[2].1, Value::from("rebuilt-blast"));
        assert_eq!(e.fields[4].1, Value::from(true));
        // The verdict is derived from the action: a rebuilt-audit batch
        // failed its first audit.
        assert_eq!(log.events[1].fields[3], ("audit_ok", Value::from(false)));
    }

    #[test]
    fn recovery_events_reach_all_three_sinks() {
        let tel = Telemetry::on(Tracer::recording());
        let ev = RecoveryEvent::Detour { at: 1, rejoin: 2, detour_hops: 3 };
        tel.recovery_event(|| vec![("scheme", "x".into())], &ev);
        assert_eq!(tel.registry.snapshot().counter("recovery-detour"), Some(1));
        assert_eq!(tel.flight.borrow().anomalies(), 0);
        let log = tel.tracer.finish();
        let keys: Vec<&str> = log.events[0].fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["scheme", "at", "rejoin", "detour_hops"]);
    }

    #[test]
    fn conformance_violations_are_counted_and_flagged() {
        let tel = Telemetry::on(Tracer::recording());
        tel.conformance_clause(Vec::new, "stretch", 3.0, 2.5, true);
        tel.conformance_clause(Vec::new, "table-bits", 100.0, 120.0, false);
        let snap = tel.registry.snapshot();
        assert_eq!(snap.counter("conformance.clauses"), Some(2));
        assert_eq!(snap.counter("conformance.violations"), Some(1));
        assert_eq!(tel.flight.borrow().anomalies(), 1);
        let names: Vec<&str> = tel.tracer.finish().events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["conformance-pass", "conformance-violation"]);
    }
}

//! Churn: one batch applied to all four maintainers (validate → repair →
//! conform spot audit → epoch stamp), then the four planes recompiled and
//! epoch-checked, with the stale planes' refusal checked on the way.

use std::cell::Cell;
use std::time::Instant;

use doubling_metric::graph::NodeId;
use doubling_metric::MetricSpace;
use netsim::maintain::{MaintainError, Maintainable, Maintainer};
use netsim::route::{Route, RouteError};
use netsim::scheme::{Certifiable, LabeledScheme, NameIndependentScheme};
use netsim::Naming;

use crate::setup::{compile_planes, Tables};
use crate::workload::Unit;

/// Seconds one unit spent per scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitCost {
    /// `Maintainer::apply_batch`, including its spot audit.
    pub apply_s: [f64; 4],
    /// The spot audit inside `apply_s`.
    pub audit_s: [f64; 4],
    /// Plane `compile` plus its epoch check.
    pub compile_s: [f64; 4],
}

/// Counts over every applied batch.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Maintainer batches committed (four per unit).
    pub batches: u64,
    /// Spot audits run (one per batch, two when a repair is rebuilt).
    pub audits: u64,
    /// Spot audits that rejected the tables.
    pub audit_failures: u64,
    /// Batches that fell back to a whole-scheme rebuild.
    pub fallbacks: u64,
    /// Stale planes correctly refused by the epoch check.
    pub stale_refusals: u64,
    /// Stale planes the epoch check wrongly accepted.
    pub stale_accepted: u64,
    /// Sum of the repairs' blast fractions.
    pub blast_sum: f64,
}

/// Applies `unit.batch` to one maintainer with a spot audit of the unit's
/// pairs; returns (seconds in `apply_batch`, seconds in the audit).
fn apply_one<S>(
    mt: &mut Maintainer<S>,
    m: &MetricSpace,
    unit: &Unit,
    tally: &mut Tally,
    table_bits: impl Fn(&S, NodeId) -> u64,
    route: impl Fn(&S, NodeId, NodeId) -> Result<Route, RouteError> + Sync,
) -> Result<(f64, f64), String>
where
    S: Maintainable + Certifiable + Sync,
{
    let audit_s = Cell::new(0.0f64);
    let verdicts = Cell::new((0u64, 0u64));
    let t = Instant::now();
    let report = mt
        .apply_batch(m, &unit.batch, |s| {
            let ta = Instant::now();
            let ok = conform::spot_audit(
                m,
                s,
                |u| table_bits(s, u),
                &unit.audit_pairs,
                1,
                |u, v| route(s, u, v),
            )
            .ok();
            audit_s.set(audit_s.get() + ta.elapsed().as_secs_f64());
            let (runs, failed) = verdicts.get();
            verdicts.set((runs + 1, failed + u64::from(!ok)));
            ok
        })
        .map_err(|e| format!("{}: {e}", mt.scheme().maintain_name()))?;
    let apply_s = t.elapsed().as_secs_f64();
    let (runs, failed) = verdicts.get();
    tally.batches += 1;
    tally.audits += runs;
    tally.audit_failures += failed;
    tally.fallbacks += u64::from(report.action.is_fallback());
    tally.blast_sum += report.stats.blast_fraction();
    Ok((apply_s, audit_s.get()))
}

/// Counts an epoch check of a plane the last batch made stale.
fn expect_stale(result: Result<(), MaintainError>, tally: &mut Tally) {
    match result {
        Err(MaintainError::StalePlane { .. }) => tally.stale_refusals += 1,
        _ => tally.stale_accepted += 1,
    }
}

/// Applies one unit end to end: the batch on all four maintainers, the
/// stale-plane checks, and the four recompiles.
///
/// # Errors
///
/// A batch the maintainer rejects (invalid, or failing its audit even
/// after a rebuild), or a recompiled plane failing its epoch check.
pub fn apply_unit(
    t: &mut Tables,
    naming: &Naming,
    unit: &Unit,
    tally: &mut Tally,
) -> Result<UnitCost, String> {
    let mut cost = UnitCost::default();
    let m = &t.m;
    (cost.apply_s[0], cost.audit_s[0]) = apply_one(
        &mut t.nl,
        m,
        unit,
        tally,
        |s, u| s.table_bits(u),
        |s, u, v| s.route_to_node(m, u, v),
    )?;
    (cost.apply_s[1], cost.audit_s[1]) = apply_one(
        &mut t.sfl,
        m,
        unit,
        tally,
        |s, u| s.table_bits(u),
        |s, u, v| s.route_to_node(m, u, v),
    )?;
    (cost.apply_s[2], cost.audit_s[2]) = apply_one(
        &mut t.sni,
        m,
        unit,
        tally,
        |s, u| s.table_bits(u),
        |s, u, v| s.route(m, u, naming.name_of(v)),
    )?;
    (cost.apply_s[3], cost.audit_s[3]) = apply_one(
        &mut t.sfni,
        m,
        unit,
        tally,
        |s, u| s.table_bits(u),
        |s, u, v| s.route(m, u, naming.name_of(v)),
    )?;

    expect_stale(t.nl.check_plane(&t.planes.nl), tally);
    expect_stale(t.sfl.check_plane(&t.planes.sfl), tally);
    expect_stale(t.sni.check_plane(&t.planes.sni), tally);
    expect_stale(t.sfni.check_plane(&t.planes.sfni), tally);

    let (planes, compile_s, _) = compile_planes(m, &t.nl, &t.sfl, &t.sni, &t.sfni, naming)?;
    t.planes = planes;
    cost.compile_s = compile_s;
    Ok(cost)
}

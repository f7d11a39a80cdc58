//! Serving: closed-loop, one in-process client on one thread, no think
//! time. Queries are timed one by one (consecutive `Instant` readings, so
//! a slice's samples add up to its wall time) and checked afterwards,
//! untimed, against the reference schemes.

use std::time::Instant;

use doubling_metric::graph::NodeId;
use netsim::plane::ForwardingPlane;
use netsim::route::{Route, RouteError};
use netsim::scheme::{Label, LabeledScheme, Name, NameIndependentScheme};
use netsim::Naming;

use crate::setup::Tables;
use crate::workload::Query;

/// How a resolved query enters its plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingress {
    /// Labeled ingress: the destination's routing label.
    Label(Label),
    /// Name-independent ingress: the destination's flat name.
    Name(Name),
}

/// A query resolved against the current tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// Plane index ([`crate::workload::SCHEMES`] order).
    pub scheme: usize,
    /// Source node.
    pub src: NodeId,
    /// Ingress and destination handle.
    pub ingress: Ingress,
}

/// Resolves each query's destination to the serving scheme's label or to
/// its flat name (untimed: a client knows the handle before sending).
pub fn resolve(t: &Tables, naming: &Naming, queries: &[Query]) -> Vec<Resolved> {
    queries
        .iter()
        .map(|q| {
            let ingress = if q.named {
                Ingress::Name(naming.name_of(q.dst))
            } else {
                Ingress::Label(match q.scheme {
                    0 => t.nl.scheme().label_of(q.dst),
                    1 => t.sfl.scheme().label_of(q.dst),
                    2 => t.sni.scheme().underlying().label_of(q.dst),
                    _ => t.sfni.scheme().underlying().label_of(q.dst),
                })
            };
            Resolved { scheme: q.scheme, src: q.src, ingress }
        })
        .collect()
}

/// Routes `q` on its compiled plane.
pub fn route_plane(
    t: &Tables,
    planes: &[&dyn ForwardingPlane; 4],
    q: &Resolved,
) -> Result<Route, RouteError> {
    let p = planes[q.scheme];
    match q.ingress {
        Ingress::Label(l) => p.route(&t.m, q.src, l),
        Ingress::Name(name) => p.route_named(&t.m, q.src, name),
    }
}

/// Routes `q` on the reference (unpacked) scheme the plane was compiled
/// from. The labeled schemes serve named ingress by resolving the name
/// through the naming first, as their planes' packed directories do.
pub fn route_reference(t: &Tables, naming: &Naming, q: &Resolved) -> Result<Route, RouteError> {
    let m = &t.m;
    match (q.scheme, q.ingress) {
        (0, Ingress::Label(l)) => t.nl.scheme().route(m, q.src, l),
        (0, Ingress::Name(name)) => t.nl.scheme().route_to_node(m, q.src, naming.node_of(name)),
        (1, Ingress::Label(l)) => t.sfl.scheme().route(m, q.src, l),
        (1, Ingress::Name(name)) => t.sfl.scheme().route_to_node(m, q.src, naming.node_of(name)),
        (2, Ingress::Label(l)) => t.sni.scheme().underlying().route(m, q.src, l),
        (2, Ingress::Name(name)) => t.sni.scheme().route(m, q.src, name),
        (_, Ingress::Label(l)) => t.sfni.scheme().underlying().route(m, q.src, l),
        (_, Ingress::Name(name)) => t.sfni.scheme().route(m, q.src, name),
    }
}

/// What one timed slice returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOutcome {
    /// Sum of the per-query samples (the slice's wall time).
    pub ns: u64,
    /// Order-sensitive digest of (cost, hop count) of every route, so
    /// replays of a slice can be compared for identical results.
    pub digest: u64,
    /// Queries that returned a route error.
    pub errors: u64,
}

/// Serves `queries` back to back, writing each query's service time (ns)
/// into `lat`.
pub fn time_slice(t: &Tables, queries: &[Resolved], lat: &mut [u32]) -> SliceOutcome {
    let planes = t.planes.all();
    let mut digest = 0u64;
    let mut errors = 0u64;
    let start = Instant::now();
    let mut prev = start;
    for (q, slot) in queries.iter().zip(lat.iter_mut()) {
        match route_plane(t, &planes, q) {
            Ok(r) => {
                digest = digest.rotate_left(7) ^ r.cost ^ ((r.hops.len() as u64) << 40);
            }
            Err(_) => errors += 1,
        }
        let now = Instant::now();
        *slot = u32::try_from((now - prev).as_nanos()).unwrap_or(u32::MAX);
        prev = now;
    }
    SliceOutcome { ns: (prev - start).as_nanos() as u64, digest, errors }
}

/// Untimed checks of a served slice, and the per-query facts the traced
/// metrics need.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Queries checked.
    pub queries: u64,
    /// Plane route errors, plane/reference divergences, wrong
    /// destinations and `Route::verify` failures.
    pub failures: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// Sum of route stretch over the checked queries.
    pub stretch_sum: f64,
    /// Hop count of each checked query (0 for a failed one).
    pub hops: Vec<u32>,
    /// Hops per route segment label, summed.
    pub segment_hops: Vec<(&'static str, u64)>,
}

impl Check {
    fn fail(&mut self, why: String) {
        self.failures += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// Replays every query on its plane and on the reference scheme: routes
/// must be identical (hop for hop), reach the intended destination, and
/// every `verify_every`-th route must pass `Route::verify`.
pub fn differential(
    t: &Tables,
    naming: &Naming,
    queries: &[Query],
    resolved: &[Resolved],
    verify_every: usize,
) -> Check {
    let planes = t.planes.all();
    let mut check = Check::default();
    for (i, (q, r)) in queries.iter().zip(resolved).enumerate() {
        check.queries += 1;
        let got = route_plane(t, &planes, r);
        let want = route_reference(t, naming, r);
        let route = match got {
            Ok(route) => route,
            Err(e) => {
                check.fail(format!(
                    "plane {} query {i} {q:?}: {e}; reference: {:?}",
                    q.scheme,
                    want.as_ref().map(|r| r.cost)
                ));
                check.hops.push(0);
                continue;
            }
        };
        if want.as_ref() != Ok(&route) {
            check.fail(format!(
                "plane {} query {i} {q:?} diverges from its reference scheme",
                q.scheme
            ));
        }
        if route.dst != q.dst {
            check.fail(format!("plane {} query {i} {q:?} delivered to {}", q.scheme, route.dst));
        }
        if i % verify_every.max(1) == 0 {
            if let Err(e) = route.verify(&t.m) {
                check.fail(format!("plane {} query {i} {q:?} fails verify: {e}", q.scheme));
            }
        }
        check.stretch_sum += route.stretch(&t.m);
        check.hops.push(route.hop_count() as u32);
        for s in &route.segments {
            match check.segment_hops.iter_mut().find(|(l, _)| *l == s.label) {
                Some((_, h)) => *h += s.hops as u64,
                None => check.segment_hops.push((s.label, s.hops as u64)),
            }
        }
    }
    check
}

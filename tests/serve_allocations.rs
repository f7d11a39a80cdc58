//! Allocations per served query on the forwarding planes.
//!
//! A query runs in one route recorder whose buffers are sized once, and
//! every sub-route and search-tree descent streams through it, so a
//! delivered query allocates exactly the returned route's hop and segment
//! vectors. This binary installs the counting allocator and holds a single
//! test: the counters are process-global, and a second test running
//! beside it would be counted too.

use compact_routing::labeled::{NetLabeledPlane, ScaleFreeLabeledPlane};
use compact_routing::nameind::{ScaleFreeNiPlane, SimpleNiPlane};
use compact_routing::netsim::{ForwardingPlane, Route, RouteError};
use compact_routing::obs::alloc::{allocation_count, CountingAlloc};
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{
    LabeledScheme, NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent, SimpleNameIndependent,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The returned route's `hops` and `segments` vectors.
const ALLOCS_PER_QUERY: u64 = 2;

/// Runs `query`, returning its result and the allocations it made.
fn counted(query: impl FnOnce() -> Result<Route, RouteError>) -> (Result<Route, RouteError>, u64) {
    let before = allocation_count();
    let out = query();
    (out, allocation_count() - before)
}

#[test]
fn plane_queries_allocate_only_their_route() {
    let m = MetricSpace::new(&gen::grid(10, 10));
    let n = m.n() as u32;
    let naming = Naming::random(m.n(), 3);
    let eps = Eps::one_over(8);
    let nl = NetLabeled::new(&m, eps).unwrap();
    let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let planes: [(&dyn ForwardingPlane, &dyn LabeledScheme); 4] = [
        (&NetLabeledPlane::compile(&m, &nl, Some(&naming), 0), &nl),
        (&ScaleFreeLabeledPlane::compile(&m, &sfl, Some(&naming), 0), &sfl),
        (&SimpleNiPlane::compile(&m, &sni, 0), sni.underlying()),
        (&ScaleFreeNiPlane::compile(&m, &sfni, 0), sfni.underlying()),
    ];
    assert!(allocation_count() > 0, "the counting allocator is installed");
    for (plane, labels) in planes {
        for u in 0..n {
            for v in 0..n {
                let (label, name) = (labels.label_of(v), naming.name_of(v));
                for (what, (route, allocs)) in [
                    ("route", counted(|| plane.route(&m, u, label))),
                    ("route_named", counted(|| plane.route_named(&m, u, name))),
                ] {
                    assert_eq!(
                        route.map(|r| r.dst),
                        Ok(v),
                        "{} {what} {u}->{v}",
                        plane.plane_name()
                    );
                    assert!(
                        allocs <= ALLOCS_PER_QUERY,
                        "{} {what} {u}->{v}: {allocs} allocations",
                        plane.plane_name()
                    );
                }
            }
        }
    }
}

//! Differential tests of the bit-packed forwarding planes.
//!
//! Each scheme's routing procedure exists once and runs over a table view
//! that both the in-memory scheme and its plane implement, so the primary
//! check is **view equality**: with and without departed nodes, the scheme
//! view and the plane view must answer every accessor alike — labels,
//! ring hits and Voronoi rows for every node (departed ones included) ×
//! label, router records and next hops for every cell record × cell label,
//! search-tree scans for every tree × key, and names, zoom rows and
//! facilities for every node × round. Route-level checks stay as smoke
//! tests: on every active pair each plane returns exactly the reference
//! outcome (equal `Route`, or the same error) for labeled and named
//! ingress, also when the reference forwards through a departed node.
//! Every compiled plane is a decoded plane (`compile = decode(encode)`),
//! so these checks cover the index each `decode` derives from the bytes;
//! decoding an arena again yields the same epoch and routes, and a decode
//! must consume exactly its arena.

// The vendored proptest macro expands deeply for multi-property blocks.
#![recursion_limit = "1024"]

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::nets::ChurnBatch;
use doubling_metric::space::MetricSpace;
use doubling_metric::{gen, Eps};
use labeled_routing::{
    LabeledView, NetLabeled, NetLabeledPlane, ScaleFreeLabeled, ScaleFreeLabeledPlane,
};
use name_independent::{
    Facility, NameIndependentView, ScaleFreeNameIndependent, ScaleFreeNiPlane,
    SimpleNameIndependent, SimpleNiPlane,
};
use netsim::maintain::{Maintainable, Maintainer, MaintainerConfig};
use netsim::naming::Naming;
use netsim::plane::{BitArena, ForwardingPlane};
use netsim::route::{Route, RouteError};
use netsim::scheme::{LabeledScheme, NameIndependentScheme};
use searchtree::{SearchTree, TreeScan};
use treeroute::RouterRecords;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0usize..usize::MAX, 1u64..20), n - 1),
            proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..20), 0..2 * n),
        )
            .prop_map(|(n, tree, extra)| {
                let mut b = GraphBuilder::new(n);
                for (c, (praw, w)) in tree.into_iter().enumerate() {
                    let child = c + 1;
                    b.edge(child as u32, (praw % child) as u32, w).unwrap();
                }
                for (u, v, w) in extra {
                    if u != v {
                        b.edge(u, v, w).unwrap();
                    }
                }
                b.build().expect("connected by construction")
            })
    })
}

/// `scheme` after `departed` left through a [`Maintainer`].
fn after_leaves<S: Maintainable + Clone>(m: &MetricSpace, scheme: S, departed: &[NodeId]) -> S {
    if departed.is_empty() {
        return scheme;
    }
    let mut mt = Maintainer::new(m.n(), scheme, MaintainerConfig::default());
    let batch = ChurnBatch::new(Vec::new(), departed.to_vec());
    mt.apply_batch(m, &batch, |_| true).expect("valid leave batch");
    mt.scheme().clone()
}

/// A leave batch of distinct nodes drawn from `raw`, keeping at least two
/// nodes active.
fn leavers(n: usize, raw: &[usize]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for &r in raw {
        let v = (r % n) as NodeId;
        if !out.contains(&v) && out.len() + 2 < n {
            out.push(v);
        }
    }
    out
}

/// Asserts the plane's outcome equals the reference's; returns whether
/// the reference route forwarded through a departed node.
fn same_outcome(
    got: Result<Route, RouteError>,
    want: &Result<Route, RouteError>,
    departed: &[NodeId],
    what: &str,
) -> usize {
    assert_eq!(&got, want, "{what}");
    want.as_ref().is_ok_and(|r| {
        let inner = r.hops.len().saturating_sub(2);
        r.hops.iter().skip(1).take(inner).any(|h| departed.contains(h))
    }) as usize
}

fn assert_scans_agree<A, B>(a: &A, b: &B, len: usize, keys: u32)
where
    A: TreeScan,
    B: TreeScan<Item = A::Item>,
    A::Item: PartialEq + std::fmt::Debug,
{
    for local in 0..len as u32 {
        assert_eq!(a.node_of(local), b.node_of(local), "tree node {local}");
        for key in 0..keys {
            assert_eq!(a.scan(local, key), b.scan(local, key), "scan of {local} for {key}");
        }
    }
}

/// Both labeled planes against their schemes with `departed` away: views,
/// every active pair's outcome via the label and the name directory, and
/// a second decode of each arena. Returns how many reference routes passed
/// a departed node.
fn check_labeled(m: &MetricSpace, eps: Eps, naming: &Naming, departed: &[NodeId]) -> usize {
    let nl = after_leaves(m, NetLabeled::new(m, eps).expect("eps within range"), departed);
    let sfl = after_leaves(m, ScaleFreeLabeled::new(m, eps).expect("eps within range"), departed);
    let (nlp, sflp) = (
        NetLabeledPlane::compile(m, &nl, Some(naming), 3),
        ScaleFreeLabeledPlane::compile(m, &sfl, Some(naming), 5),
    );
    let n = m.n() as NodeId;
    let active: Vec<NodeId> = (0..n).filter(|v| !departed.contains(v)).collect();
    let live: Vec<u32> = active.iter().map(|&v| nl.label_of(v)).collect();

    for u in 0..n {
        // A departed node's packed label matches no live label.
        for (want, got) in [(nl.label_at(u), nlp.label_at(u)), (sfl.label_at(u), sflp.label_at(u))]
        {
            if departed.contains(&u) {
                assert!(!live.contains(&got), "departed {u} packs live label {got}");
            } else {
                assert_eq!(want, got, "label of {u}");
            }
        }
        for label in 0..n {
            let (a, b) = (LabeledView::min_hit(&nl, u, label), nlp.min_hit(u, label));
            assert_eq!(a, b, "net-labeled ring hit at {u} for {label}");
            let (a, b) = (LabeledView::min_hit(&sfl, u, label), sflp.min_hit(u, label));
            assert_eq!(a, b, "scale-free ring hit at {u} for {label}");
        }
        for j in 0..=sfl.log2_n() {
            assert_eq!(sfl.voronoi_row(u, j), sflp.voronoi_row(u, j), "Voronoi row {u} j={j}");
        }
    }
    for j in 0..=sfl.log2_n() {
        for k in 0..sfl.packings().at(j).balls().len() as u32 {
            let (a, b) = (LabeledView::cell(&sfl, j, k), sflp.cell(j, k));
            assert_eq!(
                (a.center, a.port_bits, &a.root_label),
                (b.center, b.port_bits, &b.root_label)
            );
            let members = a.router.tree().nodes();
            for i in 0..members.len() as u32 {
                let rec = |r: &dyn RouterRecords| {
                    (r.node(i), r.dfs(i), r.interval(i), r.parent_node(i), r.heavy(i))
                };
                assert_eq!(rec(&a.router), rec(&b.router), "record {i} of cell ({j}, {k})");
                for &v in members {
                    let (from, target) = (a.router.node(i), a.router.label_of(v));
                    assert_eq!(
                        treeroute::next_hop(&a.router, m.graph(), from, i, target),
                        treeroute::next_hop(&b.router, m.graph(), from, i, target),
                        "next hop at record {i} of cell ({j}, {k}) toward {v}"
                    );
                }
            }
            assert_scans_agree(&a.search, &b.search, a.search.tree().len(), n as u32 + 1);
        }
    }

    let mut through = 0;
    for &u in &active {
        for &v in &active {
            let name = naming.name_of(v);
            let want = nl.route(m, u, nl.label_of(v));
            through += same_outcome(nlp.route(m, u, nl.label_of(v)), &want, departed, "net");
            same_outcome(nlp.route_named(m, u, name), &want, departed, "net directory");
            let want = sfl.route(m, u, sfl.label_of(v));
            through += same_outcome(sflp.route(m, u, sfl.label_of(v)), &want, departed, "sf");
            same_outcome(sflp.route_named(m, u, name), &want, departed, "sf directory");
        }
    }

    // Decoding the arena alone serves the same plane again.
    let (u, v) = (active[0], active[active.len() - 1]);
    let nld = NetLabeledPlane::decode(nlp.arena().clone());
    assert_eq!(nld.epoch(), 3);
    assert_eq!(nld.route(m, u, nl.label_of(v)), nl.route(m, u, nl.label_of(v)));
    let sfld = ScaleFreeLabeledPlane::decode(sflp.arena().clone());
    assert_eq!(sfld.epoch(), 5);
    assert_eq!(sfld.route(m, u, sfl.label_of(v)), sfl.route(m, u, sfl.label_of(v)));
    through
}

/// One name-independent plane against its scheme: names, zoom rows and
/// facilities for every node × round and host, every active pair's named
/// outcome, and label ingress through the underlying plane. Returns how
/// many reference routes passed a departed node.
fn check_ni<S, P>(m: &MetricSpace, s: &S, p: &P, departed: &[NodeId]) -> usize
where
    S: NameIndependentView + NameIndependentScheme,
    for<'a> S::Tree<'a>: std::ops::Deref<Target = SearchTree<u32>>,
    P: NameIndependentView + ForwardingPlane,
{
    let n = m.n() as NodeId;
    assert_eq!(s.round_count(), p.round_count());
    for u in 0..n {
        assert_eq!(s.name_at(u), p.name_at(u), "name of {u}");
        for k in 0..s.round_count() {
            assert_eq!(s.zoom_row(u, k), p.zoom_row(u, k), "zoom row {u} k={k}");
        }
    }
    for k in 0..s.round_count() {
        assert_eq!(s.hosts(k), p.hosts(k), "hosts of round {k}");
        for j in 0..s.hosts(k) {
            let (a, b) = match (s.facility(k, j), p.facility(k, j)) {
                (Facility::Own(a), Facility::Own(b)) => (a, b),
                (
                    Facility::Link { j: x, ball: y, tree: a },
                    Facility::Link { j: bx, ball: by, tree: b },
                ) => {
                    assert_eq!((x, y), (bx, by), "link of host {j} round {k}");
                    (a, b)
                }
                _ => panic!("facility kind of host {j} round {k} differs"),
            };
            assert_scans_agree(&a, &b, a.tree().len(), n as u32 + 1);
        }
    }

    let active: Vec<NodeId> = (0..n).filter(|v| !departed.contains(v)).collect();
    let mut through = 0;
    for &u in &active {
        for &v in &active {
            let label = s.underlying().label_at(v);
            let want = s.underlying().route_label(m, u, label);
            same_outcome(p.route(m, u, label), &want, departed, "label ingress");
            let name = s.name_at(v);
            through +=
                same_outcome(p.route_named(m, u, name), &s.route(m, u, name), departed, "ni");
        }
    }
    through
}

/// Both name-independent planes against their schemes with `departed`
/// away, plus a second decode of each plane from its two arenas.
fn check_name_independent(
    m: &MetricSpace,
    eps: Eps,
    naming: &Naming,
    departed: &[NodeId],
) -> usize {
    let sni = SimpleNameIndependent::new(m, eps, naming.clone()).expect("eps within range");
    let sni = after_leaves(m, sni, departed);
    let sfni = ScaleFreeNameIndependent::new(m, eps, naming.clone()).expect("eps within range");
    let sfni = after_leaves(m, sfni, departed);
    let (snip, sfnip) =
        (SimpleNiPlane::compile(m, &sni, 7), ScaleFreeNiPlane::compile(m, &sfni, 9));
    let through = check_ni(m, &sni, &snip, departed) + check_ni(m, &sfni, &sfnip, departed);

    let active: Vec<NodeId> = (0..m.n() as NodeId).filter(|v| !departed.contains(v)).collect();
    let (u, v) = (active[0], naming.name_of(active[active.len() - 1]));
    let u_dec = NetLabeledPlane::decode(snip.underlying().arena().clone());
    let snid = SimpleNiPlane::decode(snip.arena().clone(), u_dec);
    assert_eq!(snid.epoch(), 7);
    assert_eq!(snid.route_named(m, u, v), sni.route(m, u, v));
    let u_dec = ScaleFreeLabeledPlane::decode(sfnip.underlying().arena().clone());
    let sfnid = ScaleFreeNiPlane::decode(sfnip.arena().clone(), u_dec);
    assert_eq!(sfnid.epoch(), 9);
    assert_eq!(sfnid.route_named(m, u, v), sfni.route(m, u, v));
    through
}

proptest! {
    // Scheme preprocessing dominates; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Both labeled planes agree with their schemes view by view and
    /// route by route, before and after a random leave batch, and decode
    /// again from their arenas.
    #[test]
    fn labeled_planes_are_hop_identical(
        g in arb_connected_graph(12),
        eps_pick in 0u64..2,
        name_seed in 0u64..1000,
        raw in proptest::collection::vec(0usize..usize::MAX, 1..4),
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(m.n(), name_seed);
        check_labeled(&m, eps, &naming, &[]);
        check_labeled(&m, eps, &naming, &leavers(m.n(), &raw));
    }

    /// Both name-independent planes agree with their schemes view by view
    /// and route by route (named and label ingress), before and after a
    /// random leave batch, and decode again from their arenas.
    #[test]
    fn name_independent_planes_are_hop_identical(
        g in arb_connected_graph(10),
        eps_pick in 0u64..2,
        name_seed in 0u64..1000,
        raw in proptest::collection::vec(0usize..usize::MAX, 1..4),
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(m.n(), name_seed);
        check_name_independent(&m, eps, &naming, &[]);
        check_name_independent(&m, eps, &naming, &leavers(m.n(), &raw));
    }
}

/// A fixed post-leave instance where reference routes of every scheme
/// family forward through departed nodes: the recompiled planes must
/// return the same outcome on every active pair.
#[test]
fn post_leave_planes_route_through_departed_nodes() {
    let m = MetricSpace::new(&gen::grid(5, 5));
    let naming = Naming::random(25, 17);
    let departed = [1, 6, 12, 18];
    assert!(check_labeled(&m, Eps::one_over(8), &naming, &departed) > 0);
    assert!(check_name_independent(&m, Eps::one_over(8), &naming, &departed) > 0);
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("no panic");
    err.downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string())
}

/// `a` without its last bit.
fn truncated(a: &BitArena) -> BitArena {
    let (mut t, len) = (BitArena::new(), a.len_bits() - 1);
    for off in (0..len).step_by(64) {
        let w = (len - off).min(64);
        t.push(a.read(off, w), w);
    }
    t
}

/// Decoding `arena` as `layout` succeeds, fails the end check with one
/// extra trailing field, and reads past the end with one bit missing.
fn assert_consumes_exactly(layout: &str, arena: &BitArena, decode: impl Fn(BitArena)) {
    decode(arena.clone());
    let mut longer = arena.clone();
    longer.push(1, 1);
    let want = format!(
        "decode must end at the arena's end: {layout} stopped at bit {} of {}",
        arena.len_bits(),
        longer.len_bits()
    );
    assert_eq!(panic_message(|| decode(longer)), want);
    assert_eq!(panic_message(|| decode(truncated(arena))), "read past end of arena", "{layout}");
}

/// Every decode consumes exactly its arena, on all four planes and the
/// name-independent planes' underlying arenas.
#[test]
fn decode_consumes_exactly_its_arena() {
    let m = MetricSpace::new(&gen::grid(4, 4));
    let (eps, naming) = (Eps::one_over(8), Naming::random(16, 5));
    let nlp = NetLabeledPlane::compile(&m, &NetLabeled::new(&m, eps).unwrap(), Some(&naming), 0);
    let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
    let sflp = ScaleFreeLabeledPlane::compile(&m, &sfl, Some(&naming), 0);
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let snip = SimpleNiPlane::compile(&m, &sni, 0);
    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming).unwrap();
    let sfnip = ScaleFreeNiPlane::compile(&m, &sfni, 0);

    let nl = |a| drop(NetLabeledPlane::decode(a));
    let sf = |a| drop(ScaleFreeLabeledPlane::decode(a));
    assert_consumes_exactly(nlp.plane_name(), nlp.arena(), nl);
    assert_consumes_exactly(sflp.plane_name(), sflp.arena(), sf);
    assert_consumes_exactly(nlp.plane_name(), snip.underlying().arena(), nl);
    assert_consumes_exactly(sflp.plane_name(), sfnip.underlying().arena(), sf);
    assert_consumes_exactly(snip.plane_name(), snip.arena(), |a| {
        drop(SimpleNiPlane::decode(a, snip.underlying().clone()))
    });
    assert_consumes_exactly(sfnip.plane_name(), sfnip.arena(), |a| {
        drop(ScaleFreeNiPlane::decode(a, sfnip.underlying().clone()))
    });
}

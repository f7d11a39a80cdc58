//! What the reference schemes keep on the heap.
//!
//! A scheme must hold its tables at their working size: no vector with
//! spare capacity, rings at 24 bytes per entry plus their slice headers,
//! and search trees at a fixed number of bytes per member, per stored pair
//! and per Lemma 4.3 relay entry. A leave → rejoin cycle through the
//! [`Maintainer`] must leave each scheme holding exactly the bytes of a
//! fresh build, so ring patches and pair refreshes never accumulate slack.
//!
//! A scheme built with no spare capacity retains exactly what its clone
//! retains (a clone allocates every vector at its length). The test checks
//! that first; the clone's bytes of any part are then that part's bytes
//! inside the scheme.
//!
//! This binary installs the counting allocator and holds a single test.
//! Every measurement reads the test thread's own live-byte count: the
//! global counters also see the harness's threads, and a second test
//! running beside this one would be counted in them too.

use std::mem::size_of;

use compact_routing::labeled::rings::RingEntry;
use compact_routing::labeled::LabeledView;
use compact_routing::metric::nets::{ChurnBatch, NetHierarchy};
use compact_routing::metric::packing::Packings;
use compact_routing::nameind::{Facility, NameIndependentView};
use compact_routing::netsim::maintain::{Maintainable, Maintainer, MaintainerConfig};
use compact_routing::obs::alloc::{thread_live_bytes, CountingAlloc};
use compact_routing::searchtree::SearchTree;
use compact_routing::treeroute::{PortLabel, PortTreeRouter};
use compact_routing::{gen, Eps, Label, MetricSpace, Naming};
use compact_routing::{
    NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent, SimpleNameIndependent,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// One ring entry: node, range, next hop and distance.
const ENTRY: u64 = 24;
/// A search tree's bytes per member: the skeleton's node id, parent,
/// child-list slot and start, edge weight and subtree size (28 B), then
/// the net level, share start and subtree key range (16 B).
const PER_MEMBER: u64 = 44;
/// One Lemma 4.3 relay entry: the relay node and its next-hop count.
const RELAY: u64 = 8;
/// One light edge of a [`PortLabel`]'s trail.
const LIGHT: u64 = 8;

/// Runs `build`, returning its value and the live heap it retains: the
/// calling thread's own count, so whatever the test harness's other
/// threads allocate meanwhile stays out.
fn retained<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_live_bytes();
    let value = build();
    (value, (thread_live_bytes() - before) as u64)
}

/// The heap bytes `value` holds: what dropping it frees.
fn freed<T>(value: T) -> u64 {
    let before = thread_live_bytes();
    drop(value);
    (before - thread_live_bytes()) as u64
}

/// Builds a scheme, asserts it holds no spare capacity, and returns it
/// with its retained bytes.
fn build_exact<S: Clone>(what: &str, build: impl FnOnce() -> S) -> (S, u64) {
    let (s, bytes) = retained(build);
    let (copy, exact) = retained(|| s.clone());
    drop(copy);
    assert_eq!(bytes, exact, "{what} retains {bytes} B, its exact-size clone {exact} B");
    (s, bytes)
}

/// Asserts each tree retains at most `PER_MEMBER` per member, its pairs'
/// own size plus `payload` heap bytes per pair, and `RELAY` per relay.
fn check_trees<'a, D: Clone + 'a>(
    what: &str,
    n: usize,
    trees: impl Iterator<Item = &'a SearchTree<D>>,
    payload: impl Fn(&D) -> u64,
) {
    for (t, tree) in trees.enumerate() {
        let skeleton = tree.tree();
        let members = skeleton.len() as u64;
        let pairs: u64 = skeleton
            .nodes()
            .iter()
            .flat_map(|&v| tree.pairs_at(v))
            .map(|(_, d)| size_of::<(u32, D)>() as u64 + payload(d))
            .sum();
        let relays = (0..n as u32).filter(|&v| tree.relay_bits(v, 1) > 0).count() as u64;
        let bound = PER_MEMBER * members + pairs + RELAY * relays;
        let (copy, bytes) = retained(|| tree.clone());
        drop(copy);
        assert!(
            bytes <= bound,
            "{what} tree {t}: {bytes} B over {PER_MEMBER}·{members} members + {pairs} B of pairs \
             + {RELAY}·{relays} relays = {bound} B"
        );
    }
}

/// The own search trees of every round facility.
fn own_trees<'a, S>(s: &'a S) -> impl Iterator<Item = &'a SearchTree<Label>> + 'a
where
    S: NameIndependentView<Tree<'a> = &'a SearchTree<Label>>,
{
    (0..s.round_count()).flat_map(move |k| {
        (0..s.hosts(k)).filter_map(move |j| match s.facility(k, j) {
            Facility::Own(tree) => Some(tree),
            Facility::Link { .. } => None,
        })
    })
}

/// Takes `leaves` out through a maintainer and brings them back, then
/// asserts the scheme holds exactly `fresh` bytes.
fn check_cycle<S: Maintainable>(what: &str, m: &MetricSpace, s: S, leaves: &[u32], fresh: u64) {
    let mut mt = Maintainer::new(m.n(), s, MaintainerConfig::default());
    for batch in
        [ChurnBatch::new(vec![], leaves.to_vec()), ChurnBatch::new(leaves.to_vec(), vec![])]
    {
        let report = mt.apply_batch(m, &batch, |_| true).expect("valid batch");
        assert!(!report.action.is_fallback(), "{what}: the cycle must be repaired, not rebuilt");
    }
    let held = freed(mt);
    assert_eq!(held, fresh, "{what} after leave → rejoin holds {held} B, a fresh build {fresh} B");
}

#[test]
fn reference_tables_retain_their_working_size() {
    let m = MetricSpace::new(&gen::grid(12, 12));
    let n = m.n();
    let eps = Eps::one_over(8);
    let naming = Naming::random(n, 3);
    // Search-tree construction grows one scratch per thread to `n` once;
    // let that happen outside the measurements.
    drop(ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap());

    let (nl, nl_bytes) = build_exact("net-labeled", || NetLabeled::new(&m, eps).unwrap());
    let (sfl, sfl_bytes) =
        build_exact("scale-free-labeled", || ScaleFreeLabeled::new(&m, eps).unwrap());
    let (sni, sni_bytes) =
        build_exact("simple-NI", || SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap());
    let (sfni, sfni_bytes) = build_exact("scale-free-NI", || {
        ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap()
    });
    // The name-independent schemes hold these same two ring sets.
    assert_eq!(sni.underlying(), &nl);
    assert_eq!(sfni.underlying(), &sfl);
    assert_eq!(size_of::<RingEntry>() as u64, ENTRY);

    // Net-labeled: the hierarchy plus, per node, one slice header per
    // level and the ring entries.
    let nets = retained(|| NetHierarchy::new(&m)).1;
    let levels = nl.num_levels();
    let entries: u64 = (0..n as u32)
        .flat_map(|u| (0..levels).map(move |i| (u, i)))
        .map(|(u, i)| nl.ring(u, i).len() as u64)
        .sum();
    let want = ENTRY * entries + 24 * n as u64 + 16 * (n * levels) as u64;
    assert_eq!(nl_bytes - nets, want, "net-labeled rings: {entries} entries");

    // Scale-free labeled: the hierarchy, packings, cells (router and search
    // tree per packed ball) and per-node search shares; what remains is
    // the rings, one `(level, ring)` slot per stored level.
    let packings = retained(|| Packings::new(&m)).1;
    let mut cells = 24 * (sfl.log2_n() as u64 + 1);
    for j in 0..=sfl.log2_n() {
        for k in 0..sfl.packings().at(j).balls().len() as u32 {
            let cell = sfl.cell(j, k);
            cells += (size_of::<PortTreeRouter>() + size_of::<SearchTree<PortLabel>>()) as u64;
            cells += retained(|| cell.router.clone()).1 + retained(|| cell.search.clone()).1;
        }
    }
    let (mut entries, mut stored) = (0u64, 0u64);
    for u in 0..n as u32 {
        for (_, ring) in sfl.rings_of(u) {
            entries += ring.len() as u64;
            stored += 1;
        }
    }
    let rings = sfl_bytes - nets - packings - cells - 8 * n as u64;
    let want = ENTRY * entries + 16 * n as u64 + 24 * stored;
    assert_eq!(rings, want, "scale-free-labeled rings: {entries} entries on {stored} levels");

    // Search trees.
    let cells = (0..=sfl.log2_n()).flat_map(|j| {
        let sfl = &sfl;
        (0..sfl.packings().at(j).balls().len() as u32).map(move |k| sfl.cell(j, k).search)
    });
    check_trees("scale-free-labeled", n, cells, |l: &PortLabel| LIGHT * l.lights.len() as u64);
    check_trees("simple-NI", n, own_trees(&sni), |_| 0);
    let pools = (0..=sfl.log2_n()).flat_map(|j| sfni.btrees_at(j));
    check_trees("scale-free-NI", n, pools.chain(own_trees(&sfni)), |_| 0);

    // A leave → rejoin cycle ends where a fresh build starts.
    let leaves = [5, 40, 77, 130];
    check_cycle("net-labeled", &m, nl, &leaves, nl_bytes);
    check_cycle("scale-free-labeled", &m, sfl, &leaves, sfl_bytes);
    check_cycle("simple-NI", &m, sni, &leaves, sni_bytes);
    check_cycle("scale-free-NI", &m, sfni, &leaves, sfni_bytes);
}

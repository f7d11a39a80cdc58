//! What the serving state keeps on the heap.
//!
//! A decoded plane must retain its packed arena words and its offset index
//! and nothing else: no spare arena capacity left over from encoding, and
//! 4 bytes per packed search-tree record. A built metric must retain
//! `16·n²` bytes (distances, shortest-path parents and id-only sorted
//! rows) plus its shared graph. The index bound below is derived from the
//! plane's own counts, read off the scheme it was compiled from.
//!
//! This binary installs the counting allocator and holds a single test.
//! Every measurement reads the test thread's own live-byte count: the
//! global counters also see the harness's threads, and a second test
//! running beside this one would be counted in them too.

use compact_routing::labeled::{LabeledView, NetLabeledPlane, ScaleFreeLabeledPlane};
use compact_routing::nameind::{Facility, NameIndependentView, ScaleFreeNiPlane, SimpleNiPlane};
use compact_routing::obs::alloc::{thread_live_bytes, CountingAlloc};
use compact_routing::searchtree::SearchTree;
use compact_routing::{gen, Eps, Label, MetricSpace, Naming};
use compact_routing::{
    NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent, SimpleNameIndependent,
};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// One offset index entry: a node section or ring start.
const OFFSET: u64 = 8;
/// One packed search-tree record's offset, relative to its tree.
const RECORD: u64 = 4;
/// One packed tree's fixed part (codec, widths, base offset and the
/// record-offset vector's header); a facility that links to a shared tree
/// takes the same slot.
const PER_TREE: u64 = 64;
/// One scale-free cell: its center, port width, router and root-label
/// offsets, and its packed tree's fixed part (a wider codec).
const PER_CELL: u64 = 112;
/// The header of one per-level (or per-round) vector of trees.
const PER_LIST: u64 = 24;

/// Runs `build`, returning its value and the live heap it retains: the
/// calling thread's own count, so whatever the test harness's other
/// threads allocate meanwhile stays out.
fn retained<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_live_bytes();
    let value = build();
    (value, (thread_live_bytes() - before) as u64)
}

/// The index bytes of one list of packed trees, `fixed` bytes each plus
/// each tree's record count (`None` for a facility that links to a shared
/// tree).
fn tree_list(fixed: u64, sizes: impl Iterator<Item = Option<usize>>) -> u64 {
    PER_LIST + sizes.map(|len| fixed + RECORD * len.unwrap_or(0) as u64).sum::<u64>()
}

/// The record count of every facility of round `k`.
fn facilities<'a, S>(s: &'a S, k: usize) -> impl Iterator<Item = Option<usize>> + 'a
where
    S: NameIndependentView<Tree<'a> = &'a SearchTree<Label>>,
{
    (0..s.hosts(k)).map(move |j| match s.facility(k, j) {
        Facility::Own(tree) => Some(tree.tree().len()),
        Facility::Link { .. } => None,
    })
}

/// Asserts `plane` retained at most `packed` bytes plus `index`.
fn check(what: &str, n: usize, retained: u64, packed: u64, index: u64) {
    assert!(
        retained <= packed + index,
        "{what} at n = {n}: retains {retained} B, over {packed} packed + {index} index"
    );
}

#[test]
fn serving_state_retains_only_what_it_serves() {
    for side in [16, 24] {
        let g = gen::grid(side, side);
        let (n, edges) = (g.node_count() as u64, g.edge_count() as u64);
        let (m, metric) = retained(|| MetricSpace::new(&g));
        // Distances (8 B), parents (4 B) and sorted-row ids (4 B) per pair;
        // the shared graph clone is O(n): one adjacency vector per node,
        // two 16-byte neighbour entries per edge, and the Arc's header.
        let graph = 24 * n + 32 * edges + 64;
        assert!(
            (16 * n * n..=16 * n * n + graph).contains(&metric),
            "metric at n = {n} retains {metric} B, want 16·n² = {} plus at most {graph}",
            16 * n * n
        );

        let naming = Naming::random(m.n(), 3);
        let eps = Eps::one_over(8);
        let nl = NetLabeled::new(&m, eps).unwrap();
        let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let n = m.n();
        let nodes = OFFSET * n as u64;

        let nl_index = |s: &NetLabeled| nodes + OFFSET * (n * s.num_levels()) as u64;
        let (plane, bytes) = retained(|| NetLabeledPlane::compile(&m, &nl, Some(&naming), 0));
        check("net-labeled", n, bytes, plane.arena().size_bytes(), nl_index(&nl));

        let sfl_index = |s: &ScaleFreeLabeled| {
            nodes
                + (0..=s.log2_n())
                    .map(|j| {
                        let balls = s.packings().at(j).balls().len() as u32;
                        tree_list(
                            PER_CELL,
                            (0..balls).map(|k| Some(s.cell(j, k).search.tree().len())),
                        )
                    })
                    .sum::<u64>()
        };
        let (plane, bytes) =
            retained(|| ScaleFreeLabeledPlane::compile(&m, &sfl, Some(&naming), 0));
        check("scale-free-labeled", n, bytes, plane.arena().size_bytes(), sfl_index(&sfl));

        let (plane, bytes) = retained(|| SimpleNiPlane::compile(&m, &sni, 0));
        let packed = plane.arena().size_bytes() + plane.underlying().arena().size_bytes();
        let own: u64 =
            (0..sni.round_count()).map(|k| tree_list(PER_TREE, facilities(&sni, k))).sum();
        check("simple-NI", n, bytes, packed, nodes + own + nl_index(sni.underlying()));

        let (plane, bytes) = retained(|| ScaleFreeNiPlane::compile(&m, &sfni, 0));
        let packed = plane.arena().size_bytes() + plane.underlying().arena().size_bytes();
        let pools: u64 = (0..=sfni.underlying().log2_n())
            .map(|j| tree_list(PER_TREE, sfni.btrees_at(j).iter().map(|t| Some(t.tree().len()))))
            .sum();
        let own: u64 =
            (0..sfni.round_count()).map(|k| tree_list(PER_TREE, facilities(&sfni, k))).sum();
        let index = nodes + pools + own + sfl_index(sfni.underlying());
        check("scale-free-NI", n, bytes, packed, index);
    }
}

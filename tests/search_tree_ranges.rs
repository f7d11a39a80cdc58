//! The precondition of the packed search-tree scan's early exit.
//!
//! `PackedTreeView::scan` stops at the first child range that starts above
//! the key. That is exact only if, at every tree node, the children's
//! subtree key ranges ascend and are disjoint in record order (Algorithm 1
//! hands the sorted keys out in DFS order). This test builds every search
//! tree the four schemes make — own trees, ℬ-type trees and the PortLabel
//! cell trees — over every core family at n = 40 and checks that order,
//! also after `refresh_pairs`.

use compact_routing::labeled::LabeledView;
use compact_routing::nameind::{Facility, NameIndependentView};
use compact_routing::searchtree::SearchTree;
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{ScaleFreeNameIndependent, SimpleNameIndependent};

/// Asserts that every node's ranged children ascend and are disjoint.
fn assert_children_ascend<D: Clone>(st: &SearchTree<D>, what: &str) {
    let t = st.tree();
    for u in 0..t.len() as u32 {
        let ranges: Vec<(u32, u32)> =
            t.children(u).iter().filter_map(|&c| st.subtree_range_of(c)).collect();
        assert!(ranges.iter().all(|&(lo, hi)| lo <= hi), "{what}: inverted range at {u}");
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "{what}: children of {u} out of order: {w:?}");
        }
    }
}

/// Checks `st` as built, then after a `refresh_pairs` with every third of
/// its pairs.
fn check_tree<D: Clone>(st: &SearchTree<D>, what: &str) {
    assert_children_ascend(st, what);
    let t = st.tree();
    let mut pairs: Vec<(u32, D)> =
        (0..t.len() as u32).flat_map(|u| st.pairs_at(t.node(u)).to_vec()).collect();
    pairs.sort_by_key(|&(k, _)| k);
    let mut refreshed = st.clone();
    refreshed.refresh_pairs(pairs.into_iter().step_by(3).collect());
    assert_children_ascend(&refreshed, &format!("{what} after refresh_pairs"));
}

#[test]
fn child_ranges_ascend_in_record_order() {
    let (mut own, mut btype, mut cells) = (0, 0, 0);
    for &family in gen::Family::all() {
        let m = MetricSpace::new(&family.build(40, 1));
        let naming = Naming::random(m.n(), 5);
        for eps in [Eps::one_over(4), Eps::one_over(8)] {
            let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let at = format!("{family:?} {eps:?}");
            for k in 0..sni.round_count() {
                for j in 0..sni.hosts(k) {
                    let Facility::Own(tree) = sni.facility(k, j) else {
                        panic!("{at}: the simple scheme links host {j} of round {k}");
                    };
                    check_tree(tree, &format!("{at} simple own tree ({k}, {j})"));
                    own += 1;
                }
            }
            for k in 0..sfni.round_count() {
                for j in 0..sfni.hosts(k) {
                    if let Facility::Own(tree) = sfni.facility(k, j) {
                        check_tree(tree, &format!("{at} scale-free own tree ({k}, {j})"));
                        own += 1;
                    }
                }
            }
            let sfl = sfni.underlying();
            for j in 0..=sfl.log2_n() {
                for (k, tree) in sfni.btrees_at(j).iter().enumerate() {
                    check_tree(tree, &format!("{at} ℬ-type tree ({j}, {k})"));
                    btype += 1;
                }
                for k in 0..sfl.packings().at(j).balls().len() as u32 {
                    check_tree(sfl.cell(j, k).search, &format!("{at} cell tree ({j}, {k})"));
                    cells += 1;
                }
            }
        }
    }
    assert!(own > 0 && btype > 0 && cells > 0, "trees checked: {own} / {btype} / {cells}");
}

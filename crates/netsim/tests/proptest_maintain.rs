//! Property-based repair-vs-rebuild equivalence: on random connected
//! graphs under random join/leave churn, every scheme repaired in place
//! through a [`Maintainer`] must be **byte-identical** (`PartialEq`) to a
//! from-scratch build over the same post-batch active set — and, since
//! the schemes claim byte-identity, the repaired and rebuilt copies must
//! agree on every sampled route and on total table bits after every
//! batch.

// The vendored proptest macro expands deeply for multi-property blocks.
#![recursion_limit = "1024"]

use proptest::prelude::*;

use doubling_metric::graph::{Graph, GraphBuilder, NodeId};
use doubling_metric::nets::ChurnBatch;
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::maintain::{BatchAction, Maintainable, Maintainer, MaintainerConfig};
use netsim::naming::Naming;
use netsim::scheme::{LabeledScheme, NameIndependentScheme};
use netsim::stats::sample_pairs;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (6usize..=max_n).prop_flat_map(|n| {
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

/// Turns a raw index list into a churn script: two leave batches over
/// distinct nodes (always keeping ≥ 2 active), then one rejoin batch
/// bringing everyone back.
fn churn_script(n: usize, raw: &[usize]) -> Vec<ChurnBatch> {
    let mut leavers: Vec<NodeId> = Vec::new();
    for &r in raw {
        let v = (r % n) as NodeId;
        if !leavers.contains(&v) && leavers.len() + 2 < n {
            leavers.push(v);
        }
    }
    let mid = leavers.len() / 2;
    let (a, b) = leavers.split_at(mid);
    let mut script = vec![
        ChurnBatch::new(Vec::new(), a.to_vec()),
        ChurnBatch::new(Vec::new(), b.to_vec()),
        ChurnBatch::new(leavers.clone(), Vec::new()),
    ];
    script.retain(|batch| !batch.is_empty());
    script
}

/// Drives `scheme` through `script`, asserting after every batch that the
/// repaired copy equals a from-scratch rebuild over the post-batch active
/// set, that both price their tables identically, and that both produce
/// identical routes on `pairs_per_batch` sampled active pairs.
fn assert_repair_equals_rebuild<S, R>(
    m: &MetricSpace,
    scheme: S,
    script: &[ChurnBatch],
    pairs_per_batch: usize,
    route: R,
) where
    S: Maintainable + Clone + PartialEq + std::fmt::Debug,
    R: Fn(&S, NodeId, NodeId) -> netsim::route::Route,
{
    let mut baseline = scheme.clone();
    let mut mt = Maintainer::new(m.n(), scheme, MaintainerConfig::default());
    for (i, batch) in script.iter().enumerate() {
        let report = mt.apply_batch(m, batch, |_| true).expect("script batches are valid");
        // The repair itself was committed, not a fallback rebuild.
        prop_assert_eq!(report.action, BatchAction::Repaired);

        let active = mt.scheme().active_nodes();
        baseline.rebuild(m, &active);
        prop_assert_eq!(mt.scheme(), &baseline, "repair != rebuild after batch {}", i);
        prop_assert_eq!(
            mt.scheme().total_table_bits(),
            baseline.total_table_bits(),
            "table re-price diverged after batch {}",
            i
        );
        for (a, b) in sample_pairs(active.len(), pairs_per_batch, 0xC0FFEE ^ i as u64) {
            let (u, v) = (active[a as usize], active[b as usize]);
            prop_assert_eq!(
                route(mt.scheme(), u, v),
                route(&baseline, u, v),
                "route {} -> {} diverged after batch {}",
                u,
                v,
                i
            );
        }
    }
}

proptest! {
    // Four schemes × per-batch rebuilds dominate; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Labeled schemes: repair ≡ rebuild on routes, bits, and bytes.
    #[test]
    fn labeled_repair_equals_rebuild(
        g in arb_connected_graph(12),
        raw in proptest::collection::vec(0usize..usize::MAX, 1..8),
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(8);
        let script = churn_script(m.n(), &raw);
        assert_repair_equals_rebuild(
            &m,
            NetLabeled::new(&m, eps).unwrap(),
            &script,
            6,
            |s: &NetLabeled, u, v| s.route_to_node(&m, u, v).expect("active pair routes"),
        );
        assert_repair_equals_rebuild(
            &m,
            ScaleFreeLabeled::new(&m, eps).unwrap(),
            &script,
            6,
            |s: &ScaleFreeLabeled, u, v| s.route_to_node(&m, u, v).expect("active pair routes"),
        );
    }

    /// Name-independent schemes: repair ≡ rebuild on routes, bits, bytes.
    #[test]
    fn name_independent_repair_equals_rebuild(
        g in arb_connected_graph(10),
        raw in proptest::collection::vec(0usize..usize::MAX, 1..6),
        name_seed in 0u64..1000,
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(8);
        let naming = Naming::random(m.n(), name_seed);
        let script = churn_script(m.n(), &raw);
        assert_repair_equals_rebuild(
            &m,
            SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap(),
            &script,
            4,
            |s: &SimpleNameIndependent, u, v| {
                s.route(&m, u, naming.name_of(v)).expect("active pair routes")
            },
        );
        assert_repair_equals_rebuild(
            &m,
            ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap(),
            &script,
            4,
            |s: &ScaleFreeNameIndependent, u, v| {
                s.route(&m, u, naming.name_of(v)).expect("active pair routes")
            },
        );
    }
}

/// Both name-independent schemes at the shape of a benchmark churn cycle:
/// a 16×16 grid at ε = 1/8, two 4-node leave batches, then their rejoins.
/// Most search trees there are rebuilt or refreshed by every batch, so
/// this pins repair ≡ rebuild on balls far larger than the random graphs
/// above reach.
#[test]
fn name_independent_repair_equals_rebuild_on_a_churned_grid() {
    let m = MetricSpace::new(&doubling_metric::gen::grid(16, 16));
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 7);
    let (a, b) = (vec![3, 70, 161, 250], vec![17, 119, 136, 204]);
    let script = [
        ChurnBatch::new(Vec::new(), a.clone()),
        ChurnBatch::new(Vec::new(), b.clone()),
        ChurnBatch::new(a, Vec::new()),
        ChurnBatch::new(b, Vec::new()),
    ];
    assert_repair_equals_rebuild(
        &m,
        SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap(),
        &script,
        8,
        |s: &SimpleNameIndependent, u, v| {
            s.route(&m, u, naming.name_of(v)).expect("active pair routes")
        },
    );
    assert_repair_equals_rebuild(
        &m,
        ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap(),
        &script,
        8,
        |s: &ScaleFreeNameIndependent, u, v| {
            s.route(&m, u, naming.name_of(v)).expect("active pair routes")
        },
    );
}

/// Facility decisions of scale-free-NI under batches that move them: one
/// batch takes out the center a round host `y` links to (`H(y, k)` must
/// move elsewhere), the next rejoins it while another node leaves (the
/// rejoined center beats the decision then in effect), the last rejoins
/// the rest. Every batch but the last mixes joins and leaves. Both
/// name-independent schemes must equal a rebuild after every batch.
#[test]
fn facility_repair_follows_leaving_and_rejoining_centers() {
    let m = MetricSpace::new(&doubling_metric::gen::grid(12, 12));
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 5);
    let sf = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();

    // The first round host whose link points at another node's ball.
    let (k, y, j, c) = (0..sf.rounds().count())
        .flat_map(|k| {
            let hosts = sf.underlying().nets().level(sf.rounds().host_level(k)).to_vec();
            hosts.into_iter().map(move |y| (k, y))
        })
        .find_map(|(k, y)| sf.link(k, y).filter(|&(_, c)| c != y).map(|(j, c)| (k, y, j, c)))
        .expect("some host links to another node's ball");
    // Two bystanders far from y and c, never y itself.
    let others: Vec<NodeId> =
        [0, 143, 11, 132].into_iter().filter(|&v| v != y && v != c).take(2).collect();
    let (a, b) = (others[0], others[1]);
    let script = [
        ChurnBatch::new(vec![], vec![c, a]),
        ChurnBatch::new(vec![c], vec![b]),
        ChurnBatch::new(vec![a, b], vec![]),
    ];

    // The script does move the decision: away from c, then back to it.
    let mut probe = sf.clone();
    probe.repair(&m, &script[0]);
    assert_ne!(probe.link(k, y), Some((j, c)), "H(y, k) must leave the departed center");
    probe.repair(&m, &script[1]);
    assert_eq!(probe.link(k, y), Some((j, c)), "the rejoined center must win H(y, k) back");

    assert_repair_equals_rebuild(&m, sf, &script, 8, |s: &ScaleFreeNameIndependent, u, v| {
        s.route(&m, u, naming.name_of(v)).expect("active pair routes")
    });
    assert_repair_equals_rebuild(
        &m,
        SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap(),
        &script,
        8,
        |s: &SimpleNameIndependent, u, v| {
            s.route(&m, u, naming.name_of(v)).expect("active pair routes")
        },
    );
}

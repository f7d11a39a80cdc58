//! Property-based tests of the conformance engine: on random connected
//! graphs with random adversarial namings, the theorem certificates must
//! *pass* for honestly-built schemes — and, crucially, the checker must
//! not be vacuous: a scheme whose claimed table bits are widened by a
//! single entry, or whose route for one pair has its final next-hop
//! swapped out, must *fail* its certificate.

// The vendored proptest macro expands deeply for multi-property blocks.
#![recursion_limit = "1024"]

use proptest::prelude::*;

use conform::{certify, BitWiden, Guarantee, NextHopSwap, Params};
use doubling_metric::graph::{Graph, GraphBuilder};
use doubling_metric::space::MetricSpace;
use doubling_metric::Eps;
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::naming::Naming;
use netsim::scheme::{Labeled, Named};
use netsim::stats::all_pairs;

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

proptest! {
    // Scheme preprocessing dominates; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All four theorem certificates hold on arbitrary connected graphs,
    /// arbitrary ε ∈ {1/4, 1/8}, and arbitrary adversarial namings.
    #[test]
    fn certificates_hold_on_random_graphs(
        g in arb_connected_graph(14),
        eps_pick in 0u64..2,
        name_seed in 0u64..1000,
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(if eps_pick == 0 { 4 } else { 8 });
        let naming = Naming::random(m.n(), name_seed);
        let pairs = all_pairs(m.n());
        let p = Params::measure(&m, eps);

        let nl = NetLabeled::new(&m, eps).expect("eps within range");
        let cert = certify(&m, &m, &Labeled(&nl), &Guarantee::lemma_3_1(), &p, &pairs, 2);
        prop_assert!(cert.pass(), "lemma-3.1 failed: {:?}", cert.violations);

        let sfl = ScaleFreeLabeled::new(&m, eps).expect("eps within range");
        let cert = certify(&m, &m, &Labeled(&sfl), &Guarantee::theorem_1_2(), &p, &pairs, 2);
        prop_assert!(cert.pass(), "theorem 1.2 failed: {:?}", cert.violations);

        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let g = Guarantee::theorem_1_4();
        let cert = certify(&m, &m, &Named(&sni, &naming), &g, &p, &pairs, 2);
        prop_assert!(cert.pass(), "theorem 1.4 failed: {:?}", cert.violations);

        let sfni =
            ScaleFreeNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
        let g = Guarantee::theorem_1_1();
        let cert = certify(&m, &m, &Named(&sfni, &naming), &g, &p, &pairs, 2);
        prop_assert!(cert.pass(), "theorem 1.1 failed: {:?}", cert.violations);
    }

    /// Non-vacuity, property form: widening any single node's claimed
    /// table bits must break the double-entry `table-consistency` clause.
    #[test]
    fn widened_claim_fails_table_consistency(
        g in arb_connected_graph(12),
        node_pick in 0usize..usize::MAX,
        extra in 1u64..64,
    ) {
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(8);
        let nl = NetLabeled::new(&m, eps).expect("eps within range");
        let bad = BitWiden { inner: &nl, node: (node_pick % m.n()) as u32, extra_bits: extra };
        let cert = certify(
            &m,
            &m,
            &Labeled(&bad),
            &Guarantee::lemma_3_1(),
            &Params::measure(&m, eps),
            &all_pairs(m.n()),
            1,
        );
        prop_assert!(!cert.pass(), "widened table claim must not certify");
        let clause = cert
            .clauses
            .iter()
            .find(|c| c.name == "table-consistency")
            .expect("table-consistency clause present");
        prop_assert!(!clause.pass(), "the table-consistency clause specifically must fail");
        prop_assert!(cert.violation_count > 0);
    }
}

/// Non-vacuity for the differential route oracle: swapping out the final
/// next-hop for one multi-hop pair (the packet silently never arrives)
/// must be flagged by the hop-by-hop replay, for both scheme kinds.
#[test]
fn swapped_next_hop_fails_route_oracle() {
    // A 4×4 grid: opposite corners are guaranteed multi-hop.
    let m = MetricSpace::new(&doubling_metric::gen::grid(4, 4));
    let eps = Eps::one_over(8);
    let pairs = all_pairs(m.n());
    let p = Params::measure(&m, eps);
    let pair = (0u32, (m.n() - 1) as u32);

    let nl = NetLabeled::new(&m, eps).expect("eps within range");
    let bad = NextHopSwap { inner: &nl, pair };
    let cert = certify(&m, &m, &Labeled(&bad), &Guarantee::lemma_3_1(), &p, &pairs, 2);
    assert!(!cert.pass(), "corrupted labeled route must not certify");
    assert!(
        cert.violations.iter().any(|v| v.contains("replay") || v.contains("end")),
        "expected a replay violation, got {:?}",
        cert.violations
    );

    let naming = Naming::random(m.n(), 3);
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
    let bad = NextHopSwap { inner: &sni, pair };
    let cert = certify(&m, &m, &Named(&bad, &naming), &Guarantee::theorem_1_4(), &p, &pairs, 2);
    assert!(!cert.pass(), "corrupted name-independent route must not certify");
    assert!(cert.violation_count > 0);
}

/// The honest schemes on the same grid do certify — the negative tests
/// above fail because of the sabotage, not the configuration.
#[test]
fn honest_grid_baseline_certifies() {
    let m = MetricSpace::new(&doubling_metric::gen::grid(4, 4));
    let eps = Eps::one_over(8);
    let pairs = all_pairs(m.n());
    let p = Params::measure(&m, eps);

    let nl = NetLabeled::new(&m, eps).expect("eps within range");
    assert!(certify(&m, &m, &Labeled(&nl), &Guarantee::lemma_3_1(), &p, &pairs, 2).pass());

    let naming = Naming::random(m.n(), 3);
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).expect("eps within range");
    let g = Guarantee::theorem_1_4();
    assert!(certify(&m, &m, &Named(&sni, &naming), &g, &p, &pairs, 2).pass());
}

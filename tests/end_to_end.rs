//! End-to-end integration: every scheme, every graph family, verified
//! hop-by-hop delivery and the paper's stretch envelopes.

use compact_routing::netsim::baseline::FullTable;
use compact_routing::netsim::scheme::{Labeled, Named};
use compact_routing::netsim::stats::{eval, sample_pairs};
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{
    LabeledScheme, NameIndependentScheme, NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent,
    SimpleNameIndependent,
};

#[test]
fn all_schemes_deliver_on_all_families() {
    let eps = Eps::one_over(8);
    for f in gen::Family::extended() {
        let g = f.build(72, 17);
        let m = MetricSpace::new(&g);
        let naming = Naming::random(m.n(), 23);
        let pairs = sample_pairs(m.n(), 150, 31);

        let nl = NetLabeled::new(&m, eps).unwrap();
        let r = eval(&Labeled(&nl), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r.failures, 0, "{} on {}", r.scheme, f.name());
        assert!(r.max_stretch < 4.0, "{} stretch {} on {}", r.scheme, r.max_stretch, f.name());

        let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
        let r = eval(&Labeled(&sfl), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r.failures, 0, "{} on {}", r.scheme, f.name());
        assert!(r.max_stretch < 4.0, "{} stretch {} on {}", r.scheme, r.max_stretch, f.name());

        let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let r = eval(&Named(&sni, &naming), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r.failures, 0, "{} on {}", r.scheme, f.name());
        assert!(
            r.max_stretch < name_independent::stretch_envelope(eps),
            "{} stretch {} on {}",
            r.scheme,
            r.max_stretch,
            f.name()
        );

        let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let r = eval(&Named(&sfni, &naming), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r.failures, 0, "{} on {}", r.scheme, f.name());
        assert!(
            r.max_stretch < name_independent::stretch_envelope(eps) + 1.0,
            "{} stretch {} on {}",
            r.scheme,
            r.max_stretch,
            f.name()
        );

        let full = FullTable::with_naming(&m, naming.clone());
        let r = eval(&Named(&full, &naming), &m, &pairs, 1, |_, _, _| {});
        assert!((r.max_stretch - 1.0).abs() < 1e-12);
    }
}

#[test]
fn labeled_beats_name_independent_stretch() {
    // The fundamental separation: labeled 1+O(ε) vs name-independent
    // 9+O(ε) (optimal). On an adversarial naming, the name-independent
    // schemes must pay search costs the labeled schemes never see.
    let g = gen::grid(10, 10);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 5);
    let pairs = sample_pairs(m.n(), 400, 7);

    let labeled = ScaleFreeLabeled::new(&m, eps).unwrap();
    let rl = eval(&Labeled(&labeled), &m, &pairs, 1, |_, _, _| {});

    let ni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let rn = eval(&Named(&ni, &naming), &m, &pairs, 1, |_, _, _| {});

    assert!(rl.max_stretch < 2.0, "labeled should be near-optimal: {}", rl.max_stretch);
    assert!(
        rn.avg_stretch > rl.avg_stretch,
        "name resolution must cost something: {} vs {}",
        rn.avg_stretch,
        rl.avg_stretch
    );
}

#[test]
fn identity_and_adversarial_namings_both_work() {
    let g = gen::spider(6, 6);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    for naming in [Naming::identity(m.n()), Naming::random(m.n(), 1), Naming::random(m.n(), 2)] {
        let s = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        for v in 0..m.n() as u32 {
            let r = s.route(&m, 0, naming.name_of(v)).unwrap();
            assert_eq!(r.dst, v);
            r.verify(&m).unwrap();
        }
    }
}

#[test]
fn headers_are_polylogarithmic() {
    let g = gen::grid(10, 10);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 3);
    let pairs = sample_pairs(m.n(), 200, 9);

    let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
    let r = eval(&Labeled(&sfl), &m, &pairs, 1, |_, _, _| {});
    // O(log² n) bits: for n = 100, log n = 7; allow a generous constant.
    assert!(r.max_header_bits <= 7 * 7 * 4, "labeled header {} bits", r.max_header_bits);

    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let r = eval(&Named(&sfni, &naming), &m, &pairs, 1, |_, _, _| {});
    assert!(r.max_header_bits <= 7 * 7 * 4, "NI header {} bits", r.max_header_bits);
}

#[test]
fn labels_are_exactly_ceil_log_n_bits() {
    // Theorem 1.2's headline: optimal ⌈log n⌉-bit labels.
    for n in [24usize, 64, 100] {
        let g = gen::Family::Geometric.build(n, 3);
        let m = MetricSpace::new(&g);
        let s = ScaleFreeLabeled::new(&m, Eps::one_over(4)).unwrap();
        let expected = (m.n() as f64).log2().ceil() as u64;
        assert_eq!(s.label_bits(), expected.max(1));
    }
}

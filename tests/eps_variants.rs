//! Non-unit-fraction ε values (2/7, 3/16, 5/32, …) exercise every exact
//! cross-multiplied comparison in the stack; all schemes must keep their
//! guarantees for any rational ε in range. Out of range, and on a graph
//! with unreachable pairs, every constructor returns an error instead.

use compact_routing::metric::graph::GraphBuilder;
use compact_routing::netsim::scheme::{Labeled, Named};
use compact_routing::netsim::stats::{eval, sample_pairs};
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{
    LabeledScheme, NameIndependentScheme, NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent,
    SchemeError, SimpleNameIndependent,
};

#[test]
fn labeled_schemes_accept_rational_eps() {
    let m = MetricSpace::new(&gen::grid(7, 7));
    let pairs = sample_pairs(m.n(), 150, 3);
    for (num, den) in [(2u64, 7u64), (3, 16), (5, 32), (1, 3), (7, 64)] {
        let eps = Eps::new(num, den).unwrap();
        let nl = NetLabeled::new(&m, eps).unwrap();
        let r = eval(&Labeled(&nl), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r.failures, 0, "net-labeled at eps {eps}");
        assert!(r.max_stretch <= 3.0, "stretch {} at eps {eps}", r.max_stretch);

        if eps.mul_le(4, 1) {
            // ε ≤ 1/4: the scale-free scheme accepts it.
            let sf = ScaleFreeLabeled::new(&m, eps).unwrap();
            let r = eval(&Labeled(&sf), &m, &pairs, 1, |_, _, _| {});
            assert_eq!(r.failures, 0, "scale-free-labeled at eps {eps}");
            assert!(r.max_stretch <= 3.0);
        }
    }
}

#[test]
fn name_independent_schemes_accept_rational_eps() {
    let m = MetricSpace::new(&gen::random_geometric(60, 240, 9));
    let naming = Naming::random(m.n(), 13);
    let pairs = sample_pairs(m.n(), 120, 4);
    for (num, den) in [(2u64, 9u64), (3, 16), (1, 5)] {
        let eps = Eps::new(num, den).unwrap();
        let si = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let r = eval(&Named(&si, &naming), &m, &pairs, 1, |_, _, _| {});
        assert_eq!(r.failures, 0, "simple NI at eps {eps}");
        assert!(
            r.max_stretch <= name_independent::stretch_envelope(eps),
            "stretch {} at eps {eps}",
            r.max_stretch
        );

        if eps.mul_le(4, 1) {
            let sf = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
            let r = eval(&Named(&sf, &naming), &m, &pairs, 1, |_, _, _| {});
            assert_eq!(r.failures, 0, "scale-free NI at eps {eps}");
        }
    }
}

#[test]
fn boundary_eps_values() {
    let m = MetricSpace::new(&gen::grid(5, 5));
    // Exactly ε = 1/2: accepted by the non-scale-free pair.
    assert!(NetLabeled::new(&m, Eps::one_over(2)).is_ok());
    assert!(SimpleNameIndependent::new(&m, Eps::one_over(2), Naming::identity(25)).is_ok());
    // Exactly ε = 1/4: accepted by the scale-free pair.
    assert!(ScaleFreeLabeled::new(&m, Eps::one_over(4)).is_ok());
    // Just above the bounds: rejected.
    assert!(NetLabeled::new(&m, Eps::new(33, 64).unwrap()).is_err());
    assert!(ScaleFreeLabeled::new(&m, Eps::new(17, 64).unwrap()).is_err());
}

#[test]
fn disconnected_graphs_are_rejected_by_every_constructor() {
    // 0-1-2-3 and 4-5-6: the diameter is infinite, so no scale covers it.
    let mut b = GraphBuilder::new(7);
    for (u, v, w) in [(0, 1, 1), (1, 2, 1), (2, 3, 2), (4, 5, 1), (5, 6, 1)] {
        b.edge(u, v, w).unwrap();
    }
    let m = MetricSpace::new(&b.build_any().unwrap());
    let (eps, naming) = (Eps::one_over(4), Naming::identity(m.n()));
    let want = Some(SchemeError::Disconnected);
    assert_eq!(NetLabeled::new(&m, eps).err(), want);
    assert_eq!(ScaleFreeLabeled::new(&m, eps).err(), want);
    assert_eq!(SimpleNameIndependent::new(&m, eps, naming.clone()).err(), want);
    assert_eq!(ScaleFreeNameIndependent::new(&m, eps, naming).err(), want);
}

#[test]
fn tiny_graphs_with_all_schemes() {
    // n = 2 and n = 3: degenerate hierarchies must still work.
    for g in [gen::path(2), gen::path(3), gen::ring(3)] {
        let m = MetricSpace::new(&g);
        let naming = Naming::identity(m.n());
        let eps = Eps::one_over(8);
        let nl = NetLabeled::new(&m, eps).unwrap();
        let sf = ScaleFreeLabeled::new(&m, eps).unwrap();
        let si = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let sn = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        for u in 0..m.n() as u32 {
            for v in 0..m.n() as u32 {
                assert_eq!(nl.route(&m, u, nl.label_of(v)).unwrap().dst, v);
                assert_eq!(sf.route(&m, u, sf.label_of(v)).unwrap().dst, v);
                assert_eq!(si.route(&m, u, v).unwrap().dst, v);
                assert_eq!(sn.route(&m, u, v).unwrap().dst, v);
            }
        }
    }
}

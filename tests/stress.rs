//! Heavy stress tests — run explicitly with
//! `cargo test --release --test stress -- --ignored`.
//!
//! These push the schemes to sizes and sample counts the default suite
//! avoids for runtime reasons; they are the long-haul confidence runs
//! behind the EXPERIMENTS.md numbers.

use compact_routing::netsim::scheme::{Labeled, Named};
use compact_routing::netsim::stats::{eval, sample_pairs};
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{ScaleFreeLabeled, ScaleFreeNameIndependent};

#[test]
#[ignore = "heavy: ~1 minute in release"]
fn thousand_node_grid_full_sweep() {
    let g = gen::grid(32, 32);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 99);
    let pairs = sample_pairs(m.n(), 5_000, 7);

    let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
    let r = eval(&Labeled(&sfl), &m, &pairs, 8, |_, _, _| {});
    assert_eq!(r.failures, 0);
    assert!(r.max_stretch <= 1.5, "labeled stretch {}", r.max_stretch);

    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let r = eval(&Named(&sfni, &naming), &m, &pairs, 8, |_, _, _| {});
    assert_eq!(r.failures, 0);
    assert!(
        r.max_stretch <= name_independent::stretch_envelope(eps),
        "NI stretch {}",
        r.max_stretch
    );
}

#[test]
#[ignore = "heavy: many namings"]
fn fifty_adversarial_namings() {
    let g = gen::random_geometric(120, 200, 3);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    for seed in 0..50u64 {
        let naming = Naming::random(m.n(), seed);
        let s = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
        let pairs = sample_pairs(m.n(), 100, seed);
        let r = eval(&Named(&s, &naming), &m, &pairs, 4, |_, _, _| {});
        assert_eq!(r.failures, 0, "seed {seed}");
        assert!(
            r.max_stretch <= name_independent::stretch_envelope(eps) + 1.0,
            "seed {seed}: stretch {}",
            r.max_stretch
        );
    }
}

#[test]
#[ignore = "heavy: eps sweep at scale"]
fn deep_eps_sweep_on_exp_path() {
    // The scale-free regime across five ε values, all pairs.
    let m = MetricSpace::new(&gen::exp_weight_path(48));
    for inv in [4u64, 6, 8, 12, 16] {
        let eps = Eps::one_over(inv);
        let s = ScaleFreeLabeled::new(&m, eps).unwrap();
        for u in 0..48u32 {
            for v in 0..48u32 {
                if u == v {
                    continue;
                }
                use compact_routing::LabeledScheme;
                let r = s.route(&m, u, s.label_of(v)).unwrap();
                assert_eq!(r.dst, v);
                assert!(
                    r.stretch(&m) <= 1.0 + 8.0 / inv as f64,
                    "eps 1/{inv}: stretch {} for {u}->{v}",
                    r.stretch(&m)
                );
            }
        }
    }
}

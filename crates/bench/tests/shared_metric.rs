//! Property tests for the parallel preprocessing engine and the shared
//! metric cache:
//!
//! 1. `MetricSpace` built with any thread count is **bit-identical**
//!    (`==` over every table, including the APSP matrix and sorted rows)
//!    to the sequential build, across random geometric graphs.
//! 2. All four routing schemes constructed from one shared
//!    `Arc<MetricSpace>` equal the schemes constructed from private,
//!    independently built copies of the same metric — sharing the
//!    substrate behind the cache cannot change any routing table.

use std::sync::Arc;

use proptest::prelude::*;

use bench::MetricCache;
use doubling_metric::{gen, Eps, MetricSpace};
use labeled_routing::{NetLabeled, ScaleFreeLabeled};
use name_independent::{ScaleFreeNameIndependent, SimpleNameIndependent};
use netsim::Naming;
use obs::Tracer;

/// Property 1 body: a `threads`-way build equals the sequential one.
fn check_parallel_identical(n: usize, radius: u64, seed: u64, threads: usize) {
    let g = Arc::new(gen::random_geometric(n, radius, seed));
    let sequential = MetricSpace::from_shared(Arc::clone(&g), 1);
    let parallel = MetricSpace::from_shared(g, threads);
    assert_eq!(sequential, parallel, "n={n} radius={radius} seed={seed} threads={threads}");
}

/// Property 2 body: every scheme built on the cache's shared metric
/// equals the same scheme built on a private sequential metric.
fn check_schemes_from_shared_metric(n: usize, radius: u64, seed: u64, threads: usize) {
    let g = gen::random_geometric(n, radius, seed);
    let eps = Eps::one_over(8);
    let naming = Naming::random(g.node_count(), seed ^ 0xA5);

    // One cached metric shared by all four schemes...
    let cache = MetricCache::new(threads);
    let shared = cache.get_or_build_traced("geo", n, seed, &Tracer::noop(), || g.clone());
    // ...versus a private sequential metric per scheme.
    let private = MetricSpace::new(&g);
    assert_eq!(&private, shared.as_ref());

    let nl = NetLabeled::new(&shared, eps).unwrap();
    assert_eq!(nl, NetLabeled::new(&private, eps).unwrap());

    let sf = ScaleFreeLabeled::new(&shared, eps).unwrap();
    assert_eq!(sf, ScaleFreeLabeled::new(&private, eps).unwrap());

    let ni = SimpleNameIndependent::new(&shared, eps, naming.clone()).unwrap();
    assert_eq!(ni, SimpleNameIndependent::new(&private, eps, naming.clone()).unwrap());

    let sfni = ScaleFreeNameIndependent::new(&shared, eps, naming.clone()).unwrap();
    assert_eq!(sfni, ScaleFreeNameIndependent::new(&private, eps, naming).unwrap());

    // The four scheme constructions hit the cache's single build.
    let again =
        cache.get_or_build_traced("geo", n, seed, &Tracer::noop(), || unreachable!("must hit"));
    assert_eq!(again.as_ref(), shared.as_ref());
    assert_eq!(cache.stats().builds, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `random_geometric` links nodes within `radius` on a 1000×1000 grid
    // and adds a path fallback, so any (n, radius, seed) triple is valid.
    #[test]
    fn parallel_build_is_bit_identical(
        n in 4usize..=32,
        radius in 150u64..=500,
        seed in 0u64..=u64::MAX,
        threads in 2usize..=8,
    ) {
        check_parallel_identical(n, radius, seed, threads);
    }

    #[test]
    fn schemes_from_shared_metric_equal_private_builds(
        n in 4usize..=24,
        radius in 150u64..=500,
        seed in 0u64..=u64::MAX,
        threads in 1usize..=4,
    ) {
        check_schemes_from_shared_metric(n, radius, seed, threads);
    }
}

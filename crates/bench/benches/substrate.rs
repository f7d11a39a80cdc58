//! Substrate benchmarks: the geometric data structures everything is
//! built on — all-pairs shortest paths, net hierarchies, ball packings,
//! search-tree construction and lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doubling_metric::nets::NetHierarchy;
use doubling_metric::packing::Packings;
use doubling_metric::{gen, Eps, MetricSpace};
use searchtree::{SearchTree, SearchTreeConfig};

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    for &n in &[100usize, 256] {
        let g = gen::Family::Geometric.build(n, 5);
        group.bench_with_input(BenchmarkId::new("apsp+metric", n), &n, |b, _| {
            b.iter(|| MetricSpace::new(&g))
        });
        let m = MetricSpace::new(&g);
        group.bench_with_input(BenchmarkId::new("net-hierarchy", n), &n, |b, _| {
            b.iter(|| NetHierarchy::new(&m))
        });
        group.bench_with_input(BenchmarkId::new("ball-packings", n), &n, |b, _| {
            b.iter(|| Packings::new(&m))
        });

        let eps = Eps::one_over(8);
        let r = m.diameter() / 2;
        let ball = m.ball(0, r);
        let pairs: Vec<(u32, u32)> = ball.iter().map(|&x| (x, x)).collect();
        group.bench_with_input(BenchmarkId::new("search-tree-build", n), &n, |b, _| {
            b.iter(|| {
                SearchTree::new(
                    &m,
                    0,
                    ball,
                    SearchTreeConfig { eps_r: eps.mul_floor(r).max(1), max_levels: None },
                    pairs.clone(),
                )
            })
        });
        let st = SearchTree::new(
            &m,
            0,
            ball,
            SearchTreeConfig { eps_r: eps.mul_floor(r).max(1), max_levels: None },
            pairs.clone(),
        );
        group.bench_with_input(BenchmarkId::new("search-tree-lookup", n), &n, |b, _| {
            b.iter(|| {
                for &x in ball {
                    st.search(x);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);

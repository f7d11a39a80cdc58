//! Routing-latency benchmarks: per-route simulation cost for each scheme
//! (this times the simulator's execution of the hop-by-hop algorithm, not
//! wire latency — the paper's cost metric is the path length, reported by
//! the table/figure binaries instead).

use bench::schemes::{Built, SHORT_NAMES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doubling_metric::{gen, Eps, MetricSpace};
use netsim::baseline::FullTable;
use netsim::scheme::LabeledScheme;
use netsim::stats::sample_pairs;
use netsim::Naming;

fn bench_routing(c: &mut Criterion) {
    let n = 144usize;
    let g = gen::Family::Grid.build(n, 7);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 3);
    let pairs = sample_pairs(m.n(), 64, 9);

    let full = FullTable::with_naming(&m, naming.clone());
    let built = Built::all(&m, eps, &naming);

    let mut group = c.benchmark_group("routing");
    group.bench_with_input(BenchmarkId::new("full-table", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                LabeledScheme::route(&full, &m, u, LabeledScheme::label_of(&full, v)).unwrap();
            }
        })
    });
    for (s, name) in built.iter().zip(SHORT_NAMES) {
        let seam = s.seam();
        group.bench_with_input(BenchmarkId::new(name.to_lowercase(), n), &n, |b, _| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    seam.route_to(&m, u, v).unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);

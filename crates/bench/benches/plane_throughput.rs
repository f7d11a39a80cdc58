//! Forwarding-plane benchmarks: single-thread full-route cost, packed
//! versus unpacked, per scheme.
//!
//! "Unpacked" is the reference scheme's route through its pointer-rich
//! tables; "packed-route" is the plane's hop-identical route
//! ([`netsim::plane::ForwardingPlane::route`] for the labeled planes,
//! [`netsim::plane::ForwardingPlane::route_named`] for the
//! name-independent ones) — the ns/op number the serving engine's
//! throughput rests on.

use bench::schemes::{Built, SHORT_NAMES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doubling_metric::{gen, Eps, MetricSpace};
use netsim::stats::sample_pairs;
use netsim::Naming;

fn bench_plane_throughput(c: &mut Criterion) {
    let n = 144usize;
    let g = gen::Family::Grid.build(n, 7);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 3);
    let pairs = sample_pairs(m.n(), 64, 9);

    let mut group = c.benchmark_group("plane_throughput");
    for (s, name) in Built::all(&m, eps, &naming).iter().zip(SHORT_NAMES) {
        let (seam, plane) = (s.seam(), s.compile(&m, &naming, 0));
        let name = name.to_lowercase();
        group.bench_with_input(BenchmarkId::new(format!("{name}/unpacked"), n), &n, |b, _| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    seam.route_to(&m, u, v).unwrap();
                }
            })
        });
        group.bench_with_input(BenchmarkId::new(format!("{name}/packed-route"), n), &n, |b, _| {
            b.iter(|| {
                for &(u, v) in &pairs {
                    match seam.label_of(v) {
                        Some(label) => plane.route(&m, u, label),
                        None => plane.route_named(&m, u, naming.name_of(v)),
                    }
                    .unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plane_throughput);
criterion_main!(benches);

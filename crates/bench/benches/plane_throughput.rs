//! Forwarding-plane benchmarks: single-thread full-route cost, packed
//! versus unpacked, per scheme.
//!
//! "Unpacked" is the reference scheme's route through its pointer-rich
//! tables; "packed-route" is the plane's hop-identical route
//! ([`netsim::plane::ForwardingPlane::route`] for the labeled planes,
//! [`netsim::plane::ForwardingPlane::route_named`] for the
//! name-independent ones) — the ns/op number the serving engine's
//! throughput rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doubling_metric::{gen, Eps, MetricSpace};
use labeled_routing::{NetLabeled, NetLabeledPlane, ScaleFreeLabeled, ScaleFreeLabeledPlane};
use name_independent::{
    ScaleFreeNameIndependent, ScaleFreeNiPlane, SimpleNameIndependent, SimpleNiPlane,
};
use netsim::plane::ForwardingPlane;
use netsim::scheme::{LabeledScheme, NameIndependentScheme};
use netsim::stats::sample_pairs;
use netsim::Naming;

fn bench_plane_throughput(c: &mut Criterion) {
    let n = 144usize;
    let g = gen::Family::Grid.build(n, 7);
    let m = MetricSpace::new(&g);
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 3);
    let pairs = sample_pairs(m.n(), 64, 9);

    let nl = NetLabeled::new(&m, eps).unwrap();
    let nl_plane = NetLabeledPlane::compile(&m, &nl, Some(&naming), 0);
    let sfl = ScaleFreeLabeled::new(&m, eps).unwrap();
    let sfl_plane = ScaleFreeLabeledPlane::compile(&m, &sfl, Some(&naming), 0);
    let sni = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let sni_plane = SimpleNiPlane::compile(&m, &sni, 0);
    let sfni = ScaleFreeNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let sfni_plane = ScaleFreeNiPlane::compile(&m, &sfni, 0);

    let mut group = c.benchmark_group("plane_throughput");

    group.bench_with_input(BenchmarkId::new("net-labeled/unpacked", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                nl.route(&m, u, nl.label_of(v)).unwrap();
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("net-labeled/packed-route", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                nl_plane.route(&m, u, nl.label_of(v)).unwrap();
            }
        })
    });

    group.bench_with_input(BenchmarkId::new("scale-free-labeled/unpacked", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                sfl.route(&m, u, sfl.label_of(v)).unwrap();
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("scale-free-labeled/packed-route", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                sfl_plane.route(&m, u, sfl.label_of(v)).unwrap();
            }
        })
    });

    group.bench_with_input(BenchmarkId::new("simple-ni/unpacked", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                sni.route(&m, u, naming.name_of(v)).unwrap();
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("simple-ni/packed-route", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                sni_plane.route_named(&m, u, naming.name_of(v)).unwrap();
            }
        })
    });

    group.bench_with_input(BenchmarkId::new("scale-free-ni/unpacked", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                sfni.route(&m, u, naming.name_of(v)).unwrap();
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("scale-free-ni/packed-route", n), &n, |b, _| {
        b.iter(|| {
            for &(u, v) in &pairs {
                sfni_plane.route_named(&m, u, naming.name_of(v)).unwrap();
            }
        })
    });

    group.finish();
}

criterion_group!(benches, bench_plane_throughput);
criterion_main!(benches);

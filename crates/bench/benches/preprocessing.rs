//! Preprocessing-time benchmarks: how long each scheme takes to build its
//! tables (the "preprocessing step" of the paper's model).

use bench::schemes::{Built, SHORT_NAMES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doubling_metric::graph::NodeId;
use doubling_metric::nets::ChurnBatch;
use doubling_metric::{gen, Eps, MetricSpace};
use name_independent::SimpleNameIndependent;
use netsim::maintain::Maintainable;
use netsim::{LabeledScheme, Naming};
use obs::Tracer;
use searchtree::{SearchTree, SearchTreeConfig};

fn bench_preprocessing(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    for &n in &[64usize, 144] {
        let g = gen::Family::Grid.build(n, 7);
        let m = MetricSpace::new(&g);
        let eps = Eps::one_over(8);
        let naming = Naming::random(m.n(), 3);
        group.bench_with_input(BenchmarkId::new("metric", n), &n, |b, _| {
            b.iter(|| MetricSpace::new(&g))
        });
        for (i, name) in SHORT_NAMES.iter().enumerate() {
            group.bench_with_input(BenchmarkId::new(name.to_lowercase(), n), &n, |b, _| {
                b.iter(|| Built::new(i, &m, eps, &naming, &Tracer::noop()))
            });
        }
    }
    group.finish();
}

/// The search-tree kernel alone: every simple-NI round tree `T(y, ρ_k)`
/// (every host `y`, every round `k`) of a 24×24 grid at ε = 1/8, from
/// prepared balls and `(name, label)` pairs.
fn bench_search_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    let n = 576;
    let m = MetricSpace::new(&gen::Family::Grid.build(n, 7));
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 3);
    let s = SimpleNameIndependent::new(&m, eps, naming.clone()).unwrap();
    let mut inputs = Vec::new();
    for k in 0..s.rounds().count() {
        let radius = s.rounds().radius(k);
        let config = SearchTreeConfig { eps_r: eps.mul_floor(radius).max(1), max_levels: None };
        for &y in s.underlying().nets().level(s.rounds().host_level(k)) {
            let ball = m.ball(y, radius);
            let pairs: Vec<(u32, u32)> =
                ball.iter().map(|&v| (naming.name_of(v), s.underlying().label_of(v))).collect();
            inputs.push((y, ball, config, pairs));
        }
    }
    group.bench_with_input(BenchmarkId::new("search-trees", n), &inputs, |b, inputs| {
        b.iter(|| {
            inputs
                .iter()
                .map(|(y, ball, config, pairs)| {
                    SearchTree::new(&m, *y, ball, *config, pairs.clone()).tree().len()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

/// The churn-repair kernel alone: one 4-node leave and its rejoin,
/// repaired in place on all four schemes of a 24×24 grid at ε = 1/8 (the
/// `churn` workload's instance shape, without its plane recompiles and
/// audits). Repair equals rebuild, so every iteration returns each scheme
/// to its starting tables.
fn bench_churn_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    let n = 576;
    let m = MetricSpace::new(&gen::Family::Grid.build(n, 7));
    let eps = Eps::one_over(8);
    let naming = Naming::random(m.n(), 3);
    let mut schemes = Built::all(&m, eps, &naming);
    let leaving: Vec<NodeId> = vec![61, 212, 347, 498];
    let batches =
        [ChurnBatch::new(Vec::new(), leaving.clone()), ChurnBatch::new(leaving, Vec::new())];
    group.bench_with_input(BenchmarkId::new("churn-repair", n), &batches, |b, batches| {
        b.iter(|| {
            let mut rings = 0;
            for s in schemes.iter_mut() {
                for batch in batches {
                    rings += s.repair(&m, batch).rings_rebuilt;
                }
            }
            rings
        })
    });
    group.finish();
}

criterion_group!(benches, bench_preprocessing, bench_search_trees, bench_churn_repair);
criterion_main!(benches);

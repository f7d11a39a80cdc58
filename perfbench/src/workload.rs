//! The two workloads and the inputs each one generates from `--seed`.
//!
//! A workload is a fixed *instance* — a grid graph, its node naming and
//! (for `hot`) the popularity ranking of pairs, all drawn from a constant
//! per-workload instance seed — plus *traffic* drawn from the run's seed:
//! the query stream, the churn batches, the queries served after each
//! rejoin and the pairs each post-batch audit samples. Keeping the
//! instance fixed means the table-building work is identical for every
//! seed, so the run-to-run spread of `setup_s` and of the byte metrics
//! measures the host, not graph-to-graph variance; the seed still changes
//! every routed query and every churned node.

use std::sync::Arc;

use doubling_metric::gen::Family;
use doubling_metric::graph::{Graph, NodeId};
use doubling_metric::nets::ChurnBatch;
use netsim::Naming;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

/// The four schemes, in the order every per-scheme array uses.
pub const SCHEMES: [&str; 4] = ["net-labeled", "scale-free-labeled", "simple-NI", "scale-free-NI"];

/// Queries per timed slice, in the stream and after each rejoin. A
/// multiple of 8, so every slice holds exactly the same number of queries
/// per (scheme, ingress) pair.
pub const SLICE: usize = 512;

/// Active pairs the spot audit inside each churn batch routes.
const AUDIT_PAIRS: usize = 32;

/// How (source, destination) pairs are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Uniform over all ordered pairs of distinct active nodes.
    Uniform,
    /// Zipf(θ = 1) over pair ranks; the ranking is part of the instance.
    Zipf,
}

/// Distinct churn batches per cycle; each is a leave, then its rejoin.
const BATCHES: usize = 2;

/// Nodes leaving (and rejoining) per batch.
const BATCH_SIZE: usize = 4;

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Requested node count of the square grid.
    pub n: usize,
    /// Seed of the fixed instance (naming, pair ranking).
    pub instance_seed: u64,
    /// Pair distribution of every served query.
    pub traffic: Traffic,
    /// Queries in the serving stream (a multiple of [`SLICE`]).
    pub stream_len: usize,
    /// Shares of `--seconds` given to setup, serving and churn.
    pub shares: [f64; 3],
}

impl Spec {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "hot" => Spec {
                name: "hot",
                n: 256,
                instance_seed: 0x407,
                traffic: Traffic::Zipf,
                stream_len: 64 * SLICE,
                shares: [0.10, 0.50, 0.40],
            },
            "churn" => Spec {
                name: "churn",
                n: 576,
                instance_seed: 0xC4A2,
                traffic: Traffic::Uniform,
                stream_len: 32 * SLICE,
                shares: [0.15, 0.15, 0.70],
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Every workload name, in the order `BENCHMARK.json` lists them.
    pub fn names() -> [&'static str; 2] {
        ["hot", "churn"]
    }
}

/// One query of a stream, before it is resolved against a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Index into [`SCHEMES`] of the plane that serves it.
    pub scheme: usize,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Name-independent ingress (flat name) rather than labeled ingress.
    pub named: bool,
}

/// One churn batch of a cycle, with what follows it.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The batch every maintainer applies.
    pub batch: ChurnBatch,
    /// Active pairs the post-batch spot audit routes.
    pub audit_pairs: Vec<(NodeId, NodeId)>,
    /// Queries served after the batch. Empty after a leave: a plane
    /// compiled while nodes are away packs empty rings for them, so routes
    /// the reference scheme forwards *through* a departed node fail on
    /// the plane (see `README.md`); a rejoin restores every node.
    pub slice: Vec<Query>,
}

/// Everything a run feeds the program, generated before any timing.
pub struct Inputs {
    /// The instance graph.
    pub graph: Arc<Graph>,
    /// The instance naming (flat names of the name-independent ingress).
    pub naming: Naming,
    /// The serving stream.
    pub stream: Vec<Query>,
    /// One churn cycle: each batch's leave, then its rejoin, so a cycle
    /// returns the tables to their starting state.
    pub units: Vec<Unit>,
}

/// Draws (source, destination) pairs over the active nodes.
enum PairSampler {
    Uniform { n: usize },
    Zipf { pairs: Vec<(NodeId, NodeId)>, cdf: Vec<f64> },
}

impl PairSampler {
    fn new(traffic: Traffic, n: usize, instance_seed: u64) -> Self {
        match traffic {
            Traffic::Uniform => PairSampler::Uniform { n },
            Traffic::Zipf => {
                let mut rng = StdRng::seed_from_u64(instance_seed ^ 0x21_9F);
                let mut pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
                    .flat_map(|u| (0..n as NodeId).filter(move |&v| v != u).map(move |v| (u, v)))
                    .collect();
                pairs.shuffle(&mut rng);
                let mut acc = 0.0f64;
                let cdf = (0..pairs.len())
                    .map(|r| {
                        acc += 1.0 / (r + 1) as f64;
                        acc
                    })
                    .collect();
                PairSampler::Zipf { pairs, cdf }
            }
        }
    }

    /// One pair of distinct active nodes (rejection-sampled).
    fn draw(&self, active: &[bool], rng: &mut StdRng) -> (NodeId, NodeId) {
        loop {
            let (u, v) = match self {
                PairSampler::Uniform { n } => {
                    (rng.gen_range(0..*n as NodeId), rng.gen_range(0..*n as NodeId))
                }
                PairSampler::Zipf { pairs, cdf } => {
                    let total = cdf[cdf.len() - 1];
                    let x = ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) * total;
                    pairs[cdf.partition_point(|&c| c <= x).min(pairs.len() - 1)]
                }
            };
            if u != v && active[u as usize] && active[v as usize] {
                return (u, v);
            }
        }
    }

    /// `count` queries, the `i`-th served by scheme `i % 4` through ingress
    /// `(i / 4) % 2` — so every run of 8 queries covers each (scheme,
    /// ingress) pair once.
    fn stream(&self, active: &[bool], count: usize, rng: &mut StdRng) -> Vec<Query> {
        (0..count)
            .map(|i| {
                let (src, dst) = self.draw(active, rng);
                Query { scheme: i % 4, src, dst, named: (i / 4) % 2 == 1 }
            })
            .collect()
    }
}

/// Generates a run's inputs. The instance depends only on `spec`; the
/// traffic only on `(spec, seed)`.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let graph = Arc::new(Family::Grid.build(spec.n, spec.instance_seed));
    let n = graph.node_count();
    let naming = Naming::random(n, spec.instance_seed ^ 0xA5);
    let sampler = PairSampler::new(spec.traffic, n, spec.instance_seed);

    let all = vec![true; n];
    let stream = sampler.stream(&all, spec.stream_len, &mut StdRng::seed_from_u64(seed ^ 0x57EA));

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2_0000);
    let mut units = Vec::with_capacity(2 * BATCHES);
    for _ in 0..BATCHES {
        let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
        nodes.shuffle(&mut rng);
        let leaving = nodes[..BATCH_SIZE.min(n - 2)].to_vec();
        let mut after_leave = all.clone();
        for &v in &leaving {
            after_leave[v as usize] = false;
        }
        let audit_pairs = (0..AUDIT_PAIRS).map(|_| sampler.draw(&after_leave, &mut rng)).collect();
        units.push(Unit {
            batch: ChurnBatch::new(Vec::new(), leaving.clone()),
            audit_pairs,
            slice: Vec::new(),
        });
        let audit_pairs = (0..AUDIT_PAIRS).map(|_| sampler.draw(&all, &mut rng)).collect();
        let slice = sampler.stream(&all, SLICE, &mut rng);
        units.push(Unit { batch: ChurnBatch::new(leaving, Vec::new()), audit_pairs, slice });
    }
    Inputs { graph, naming, stream, units }
}

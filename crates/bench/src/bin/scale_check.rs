//! Scale smoke test: builds and evaluates the scale-free NI scheme on a
//! larger instance to confirm preprocessing and routing remain tractable.
//!
//! Usage: `cargo run --release -p bench --bin scale_check [n] [--seed N] [--json]`

use std::time::Instant;

use bench::cli::Cli;
use std::sync::Arc;

use doubling_metric::{gen, Eps, MetricSpace};
use name_independent::ScaleFreeNameIndependent;
use netsim::scheme::Named;
use netsim::stats::{eval, sample_pairs};
use netsim::{NameIndependentScheme, Naming};

fn main() {
    let cli = Cli::parse_env(3);
    let n: usize = cli.pos(0, 400);
    let t0 = Instant::now();
    let g = gen::Family::Grid.build(n, cli.seed);
    let m = MetricSpace::from_shared(Arc::new(g), cli.threads);
    if !cli.json {
        println!("metric built: n={} in {:.1?}", m.n(), t0.elapsed());
    }

    let t1 = Instant::now();
    let naming = Naming::random(m.n(), cli.seed ^ 0xA5);
    let s = ScaleFreeNameIndependent::new(&m, Eps::one_over(8), naming.clone()).unwrap();
    if !cli.json {
        println!("scheme preprocessed in {:.1?}", t1.elapsed());
    }

    let t2 = Instant::now();
    let pairs = sample_pairs(m.n(), 500, cli.seed ^ 0x5A);
    let res = eval(&Named(&s, &naming), &m, &pairs, 8, |_, _, _| {});
    println!(
        "500 routes in {:.1?}: max stretch {:.2}, avg {:.2}, failures {}, max table {} b",
        t2.elapsed(),
        res.max_stretch,
        res.avg_stretch,
        res.failures,
        res.max_table_bits
    );
    let _ = s.table_bits(0);
}

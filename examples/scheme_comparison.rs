//! Side-by-side comparison of all four schemes plus the full-table
//! baseline on two contrasting networks: a polynomial-diameter grid and
//! an exponential-diameter weighted path (the scale-free regime).
//!
//! Run with: `cargo run --example scheme_comparison`

use compact_routing::netsim::baseline::FullTable;
use compact_routing::netsim::scheme::{Deliver, Labeled, Named};
use compact_routing::netsim::stats::{eval, sample_pairs};
use compact_routing::{gen, Eps, MetricSpace, Naming};
use compact_routing::{
    NetLabeled, ScaleFreeLabeled, ScaleFreeNameIndependent, SimpleNameIndependent,
};

fn main() {
    let eps = Eps::one_over(8);
    for (name, graph) in [
        ("grid 12x12 (Δ = poly n)", gen::grid(12, 12)),
        ("exp-path 40 (Δ = 2^n)", gen::exp_weight_path(40)),
    ] {
        let metric = MetricSpace::new(&graph);
        let naming = Naming::random(metric.n(), 5);
        let pairs = sample_pairs(metric.n(), 300, 11);
        println!(
            "\n=== {name}: n={}, log2(Δ)≈{:.0} ===",
            metric.n(),
            (metric.diameter() as f64 / metric.min_dist() as f64).log2()
        );
        println!(
            "{:<28} {:>11} {:>11} {:>14} {:>10}",
            "scheme", "max-stretch", "avg-stretch", "max-table(b)", "header(b)"
        );

        let nl = NetLabeled::new(&metric, eps).unwrap();
        let sfl = ScaleFreeLabeled::new(&metric, eps).unwrap();
        let sni = SimpleNameIndependent::new(&metric, eps, naming.clone()).unwrap();
        let sfni = ScaleFreeNameIndependent::new(&metric, eps, naming.clone()).unwrap();
        let full = FullTable::with_naming(&metric, naming.clone());
        // Labeled schemes are addressed by label, the others by name; the
        // evaluation driver sees them all through the same seam.
        let schemes: [&dyn Deliver; 5] = [
            &Labeled(&nl),
            &Labeled(&sfl),
            &Named(&sni, &naming),
            &Named(&sfni, &naming),
            &Named(&full, &naming),
        ];
        for d in schemes {
            let r = eval(d, &metric, &pairs, 1, |_, _, _| {});
            let scheme = if r.scheme == "full-table" { "full-table (baseline)" } else { r.scheme };
            println!(
                "{scheme:<28} {:>11.2} {:>11.2} {:>14} {:>10}",
                r.max_stretch, r.avg_stretch, r.max_table_bits, r.max_header_bits
            );
        }
    }

    println!("\nreading guide: labeled schemes hit 1+O(eps); name-independent hit");
    println!("9+O(eps) (optimal, Theorem 1.3); on the exp-path the scale-free");
    println!("schemes' tables stay flat while the log Δ schemes blow up.");
}

//! `perfbench --workload <hot|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints diagnostics, then, as the last line of
//! standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}`.
//! Exits 1 if any output failed its check, 2 on bad arguments.

use netsim::json::Value;
use perfbench::run::{run, Options};
use perfbench::workload::Spec;

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        Spec::names().join("|")
    );
    std::process::exit(2);
}

fn bad<T>(flag: &str, value: &str) -> T {
    usage(&format!("bad value {value:?} for {flag}"))
}

fn main() {
    let mut workload = None;
    let mut opts = Options { seed: 1, seconds: 30.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::named(&value).unwrap_or_else(|| bad(&flag, &value)))
            }
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| bad(&flag, &value))
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let spec = workload.unwrap_or_else(|| usage("--workload is required"));

    let out = run(&spec, &opts);
    println!(
        "perfbench {} seed {} seconds {} trace {} (host parallelism {})",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &out.metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("  FAILURE: {f}");
    }
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), m.value.into()),
                ("unit".into(), m.unit.into()),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), out.correct().into()),
        ("attempted".into(), out.attempted.into()),
        ("failed".into(), out.failed.into()),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{result}");
    if !out.correct() {
        std::process::exit(1);
    }
}

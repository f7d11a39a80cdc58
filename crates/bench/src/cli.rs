//! Shared command-line parsing for the experiment binaries.
//!
//! Every binary accepts the same flag vocabulary on top of its positional
//! arguments:
//!
//! * `--seed N` / `--seed=N` — the experiment's RNG seed (graph
//!   generation, namings, pair samples). Each binary supplies its own
//!   default (historically `42`), so existing invocations keep producing
//!   byte-identical output.
//! * `--json` — machine-readable output; [`crate::table::emit`] also
//!   checks for this flag, so the tables switch automatically, and the
//!   binaries use [`Cli::json`] to suppress their prose footers.
//! * `--trace` — record a trace and write it, with the registry
//!   snapshot, as `results/<name>_trace.jsonl` and
//!   `results/<name>_metrics.prom` (see [`Cli::finish`]).
//! * `--chrome-trace PATH` / `--chrome-trace=PATH` — additionally render
//!   the recorded trace, with the registry counters, as Chrome
//!   trace-event / Perfetto JSON (see
//!   [`obs::export::chrome_trace_with_metrics`]) at `PATH`. Implies
//!   recording even without `--trace`.
//! * `--threads N` / `--threads=N` — worker threads for parallel metric
//!   preprocessing (default: available parallelism; `1` recovers the
//!   sequential build, which is byte-identical anyway).
//! * `--policy P` / `--policy=P` — a recovery policy for binaries that
//!   deliver under faults (`churn`), in
//!   [`netsim::recovery::RecoveryPolicy::parse`] syntax: `drop`,
//!   `detour[:TTL]`, `fallback[:CLIMBS]`, or a `+`-chain. The spelling is
//!   validated at parse time; binaries that ignore it simply never read
//!   [`Cli::policy`].
//! * `--n LIST` / `--n=LIST` — a comma-separated list of instance sizes
//!   for sweep binaries (`conformance`), e.g. `--n 64,196`.
//! * `--seeds K` / `--seeds=K` — how many consecutive seeds (starting at
//!   `--seed`) a sweep binary runs per cell.
//! * `--pairs K` / `--pairs=K` — how many sampled source/destination
//!   pairs an evaluation binary routes per cell (`scale`); binaries that
//!   evaluate exhaustively never read [`Cli::pairs`].
//! * `--stable` — pin volatile fields (wall times, allocator bytes) in
//!   JSON artifacts to `0` so two same-seed runs produce byte-identical
//!   files; used by CI's determinism checks. Semantic fields (stretch,
//!   sizes, determinism flags) are never affected.
//! * `--min-delivery F` / `--min-delivery=F` — a delivered-fraction
//!   floor in `[0, 1]` for gating binaries (`churn`): when any cell's
//!   delivered fraction falls below `F`, the binary exits non-zero so CI
//!   catches the regression.
//!
//! Unknown `--flags` are rejected loudly rather than silently treated as
//! positionals, so a typo like `--sed 7` cannot quietly run with the
//! default seed.
//!
//! Telemetry goes through one seam: a binary takes its
//! [`obs::Telemetry`] from [`Cli::telemetry`], threads it through its
//! run, and hands it to [`Cli::finish`], the one artifact writer. This
//! file is the only place in the crate that serializes a trace, a
//! registry snapshot or a flight ring.

use std::path::Path;

use obs::Telemetry;

/// Parsed command line: positionals plus the shared flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    positionals: Vec<String>,
    /// The `--seed` value, or the binary's default.
    pub seed: u64,
    /// Whether `--json` was passed (machine-readable output).
    pub json: bool,
    /// Whether `--trace` was passed (record and dump a trace).
    pub trace: bool,
    /// The `--chrome-trace` output path — `None` when the flag was not
    /// passed. A `Some` implies recording, like `--trace`.
    pub chrome_trace: Option<String>,
    /// The `--threads` value, defaulting to the machine's available
    /// parallelism. Always ≥ 1.
    pub threads: usize,
    /// The `--policy` value, already parsed — `None` when the flag was
    /// not passed (binaries fall back to their historical behavior).
    pub policy: Option<netsim::recovery::RecoveryPolicy>,
    /// The `--n` list of instance sizes — `None` when the flag was not
    /// passed (sweep binaries fall back to their default grid).
    pub n_list: Option<Vec<usize>>,
    /// The `--seeds` count — `None` when the flag was not passed.
    pub seeds: Option<usize>,
    /// The `--pairs` count — `None` when the flag was not passed
    /// (evaluation binaries fall back to their default sample size).
    pub pairs: Option<usize>,
    /// Whether `--stable` was passed (pin volatile timing/allocation
    /// fields in JSON artifacts to `0` for byte-identity checks).
    pub stable: bool,
    /// The `--min-delivery` threshold in `[0, 1]` — `None` when the flag
    /// was not passed. Binaries that gate on delivered fraction (`churn`)
    /// exit non-zero when any cell falls below it.
    pub min_delivery: Option<f64>,
}

/// The machine's available parallelism (≥ 1), the default for
/// [`Cli::threads`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

impl Cli {
    /// Parses the process arguments (skipping `argv[0]`).
    ///
    /// # Panics
    ///
    /// Exits with a message on an unknown flag or a malformed `--seed`
    /// value — a mistyped flag must not silently fall back to defaults.
    pub fn parse_env(default_seed: u64) -> Self {
        Self::parse(std::env::args().skip(1), default_seed)
    }

    /// Parses an explicit argument iterator; see [`Cli::parse_env`].
    ///
    /// # Panics
    ///
    /// As [`Cli::parse_env`].
    pub fn parse(args: impl Iterator<Item = String>, default_seed: u64) -> Self {
        let mut cli = Cli {
            positionals: Vec::new(),
            seed: default_seed,
            json: false,
            trace: false,
            chrome_trace: None,
            threads: default_threads(),
            policy: None,
            n_list: None,
            seeds: None,
            pairs: None,
            stable: false,
            min_delivery: None,
        };
        let parse_threads = |v: &str| -> usize {
            let t: usize = v.parse().unwrap_or_else(|_| panic!("invalid --threads value: {v:?}"));
            if t == 0 {
                panic!("invalid --threads value: must be >= 1");
            }
            t
        };
        let parse_policy = |v: &str| -> netsim::recovery::RecoveryPolicy {
            netsim::recovery::RecoveryPolicy::parse(v)
                .unwrap_or_else(|e| panic!("invalid --policy value: {e}"))
        };
        let parse_n_list = |v: &str| -> Vec<usize> {
            let ns: Vec<usize> = v
                .split(',')
                .map(|s| {
                    s.trim().parse().unwrap_or_else(|_| panic!("invalid --n value: {s:?} in {v:?}"))
                })
                .collect();
            if ns.is_empty() || ns.contains(&0) {
                panic!("invalid --n value: sizes must be >= 1");
            }
            ns
        };
        let parse_seeds = |v: &str| -> usize {
            let k: usize = v.parse().unwrap_or_else(|_| panic!("invalid --seeds value: {v:?}"));
            if k == 0 {
                panic!("invalid --seeds value: must be >= 1");
            }
            k
        };
        let parse_min_delivery = |v: &str| -> f64 {
            let f: f64 =
                v.parse().unwrap_or_else(|_| panic!("invalid --min-delivery value: {v:?}"));
            if !(0.0..=1.0).contains(&f) {
                panic!("invalid --min-delivery value: must be in [0, 1]");
            }
            f
        };
        let parse_pairs = |v: &str| -> usize {
            let k: usize = v.parse().unwrap_or_else(|_| panic!("invalid --pairs value: {v:?}"));
            if k == 0 {
                panic!("invalid --pairs value: must be >= 1");
            }
            k
        };
        let mut args = args;
        while let Some(a) = args.next() {
            if a == "--json" {
                cli.json = true;
            } else if a == "--trace" {
                cli.trace = true;
            } else if a == "--chrome-trace" {
                let v = args.next().expect("--chrome-trace requires a path");
                cli.chrome_trace = Some(v);
            } else if let Some(v) = a.strip_prefix("--chrome-trace=") {
                cli.chrome_trace = Some(v.to_string());
            } else if a == "--seed" {
                let v = args.next().expect("--seed requires a value");
                cli.seed = v.parse().unwrap_or_else(|_| panic!("invalid --seed value: {v:?}"));
            } else if let Some(v) = a.strip_prefix("--seed=") {
                cli.seed = v.parse().unwrap_or_else(|_| panic!("invalid --seed value: {v:?}"));
            } else if a == "--threads" {
                let v = args.next().expect("--threads requires a value");
                cli.threads = parse_threads(&v);
            } else if let Some(v) = a.strip_prefix("--threads=") {
                cli.threads = parse_threads(v);
            } else if a == "--policy" {
                let v = args.next().expect("--policy requires a value");
                cli.policy = Some(parse_policy(&v));
            } else if let Some(v) = a.strip_prefix("--policy=") {
                cli.policy = Some(parse_policy(v));
            } else if a == "--n" {
                let v = args.next().expect("--n requires a value");
                cli.n_list = Some(parse_n_list(&v));
            } else if let Some(v) = a.strip_prefix("--n=") {
                cli.n_list = Some(parse_n_list(v));
            } else if a == "--seeds" {
                let v = args.next().expect("--seeds requires a value");
                cli.seeds = Some(parse_seeds(&v));
            } else if let Some(v) = a.strip_prefix("--seeds=") {
                cli.seeds = Some(parse_seeds(v));
            } else if a == "--pairs" {
                let v = args.next().expect("--pairs requires a value");
                cli.pairs = Some(parse_pairs(&v));
            } else if let Some(v) = a.strip_prefix("--pairs=") {
                cli.pairs = Some(parse_pairs(v));
            } else if a == "--stable" {
                cli.stable = true;
            } else if a == "--min-delivery" {
                let v = args.next().expect("--min-delivery requires a value");
                cli.min_delivery = Some(parse_min_delivery(&v));
            } else if let Some(v) = a.strip_prefix("--min-delivery=") {
                cli.min_delivery = Some(parse_min_delivery(v));
            } else if a.starts_with("--") {
                panic!(
                    "unknown flag {a:?} (expected --seed, --json, --trace, --chrome-trace, \
                     --threads, --policy, --n, --seeds, --pairs, --stable, --min-delivery)"
                );
            } else {
                cli.positionals.push(a);
            }
        }
        cli
    }

    /// The `idx`-th positional argument parsed as `T`, or `default` when
    /// absent or unparsable (matching the binaries' historical lenience
    /// for positionals).
    pub fn pos<T: std::str::FromStr>(&self, idx: usize, default: T) -> T {
        self.positionals.get(idx).and_then(|s| s.parse().ok()).unwrap_or(default)
    }

    /// The run's telemetry: an enabled registry, a flight ring, and a
    /// tracer that records iff `--trace` or `--chrome-trace` was passed.
    pub fn telemetry(&self) -> Telemetry {
        let recording = self.trace || self.chrome_trace.is_some();
        Telemetry::on(if recording { obs::Tracer::recording() } else { obs::Tracer::noop() })
    }

    /// Writes the artifacts of `tel` for the binary `name`, the same set
    /// for every binary:
    ///
    /// * under `--trace`, the trace as `<dir>/<name>_trace.jsonl` and the
    ///   registry snapshot as `<dir>/<name>_metrics.prom`;
    /// * under `--chrome-trace PATH`, the trace plus the registry counters
    ///   as Chrome trace-event JSON at `PATH`;
    /// * when the flight ring saw an anomaly, the ring as
    ///   `<dir>/<name>_flight.jsonl` — and on a clean run, no such file:
    ///   a dump left by an earlier run is removed.
    ///
    /// Every file written is announced on stdout unless `--json`.
    pub fn finish(&self, name: &str, dir: &Path, tel: Telemetry) {
        let Telemetry { tracer, registry, flight } = tel;
        let (log, snapshot, flight) = (tracer.finish(), registry.snapshot(), flight.into_inner());
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
        let write = |path: &Path, body: String| {
            std::fs::write(path, body).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
            if !self.json {
                println!("wrote {}", path.display());
            }
        };
        if self.trace {
            write(&dir.join(format!("{name}_trace.jsonl")), log.to_jsonl());
            let prom = obs::export::prometheus_text(&snapshot);
            write(&dir.join(format!("{name}_metrics.prom")), prom);
        }
        if let Some(path) = &self.chrome_trace {
            let doc = obs::export::chrome_trace_with_metrics(&log, Some(&snapshot));
            write(Path::new(path), doc.to_string_pretty() + "\n");
        }
        let dump = dir.join(format!("{name}_flight.jsonl"));
        let dumped = flight
            .dump_if_anomalous(&dump)
            .unwrap_or_else(|e| panic!("cannot write {dump:?}: {e}"));
        if dumped {
            eprintln!("{} anomalies: flight ring dumped to {}", flight.anomalies(), dump.display());
        } else if let Err(e) = std::fs::remove_file(&dump) {
            if e.kind() != std::io::ErrorKind::NotFound {
                panic!("cannot remove stale {dump:?}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], default_seed: u64) -> Cli {
        Cli::parse(args.iter().map(|s| s.to_string()), default_seed)
    }

    #[test]
    fn defaults_apply_when_nothing_is_passed() {
        let c = parse(&[], 42);
        assert_eq!(c.seed, 42);
        assert!(!c.json);
        assert!(!c.trace);
        assert_eq!(c.pos(0, 196usize), 196);
    }

    #[test]
    fn positionals_and_flags_mix_in_any_order() {
        let c = parse(&["100", "--seed", "7", "8", "--json", "50", "--trace"], 42);
        assert_eq!(c.seed, 7);
        assert!(c.json);
        assert!(c.trace);
        assert_eq!(c.pos(0, 0usize), 100);
        assert_eq!(c.pos(1, 0u64), 8);
        assert_eq!(c.pos(2, 0usize), 50);
        assert_eq!(c.pos(3, 9usize), 9); // absent → default
    }

    #[test]
    fn seed_equals_form() {
        assert_eq!(parse(&["--seed=123"], 42).seed, 123);
    }

    #[test]
    fn threads_flag_both_forms() {
        assert_eq!(parse(&[], 42).threads, default_threads());
        assert_eq!(parse(&["--threads", "4"], 42).threads, 4);
        assert_eq!(parse(&["--threads=2"], 42).threads, 2);
    }

    #[test]
    #[should_panic(expected = "invalid --threads")]
    fn zero_threads_is_rejected() {
        parse(&["--threads", "0"], 42);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flags_are_rejected() {
        parse(&["--sed", "7"], 42);
    }

    #[test]
    fn policy_flag_both_forms() {
        use netsim::recovery::RecoveryPolicy;
        assert_eq!(parse(&[], 42).policy, None);
        assert_eq!(
            parse(&["--policy", "detour:3"], 42).policy,
            Some(RecoveryPolicy::LocalDetour { ttl: 3 })
        );
        assert_eq!(
            parse(&["--policy=detour:8+fallback:4"], 42).policy,
            Some(RecoveryPolicy::Chained(vec![
                RecoveryPolicy::LocalDetour { ttl: 8 },
                RecoveryPolicy::LevelFallback { max_climbs: 4 },
            ]))
        );
    }

    #[test]
    #[should_panic(expected = "invalid --policy")]
    fn malformed_policy_is_rejected() {
        parse(&["--policy", "teleport"], 42);
    }

    #[test]
    fn n_list_and_seeds_flags_both_forms() {
        let c = parse(&[], 42);
        assert_eq!(c.n_list, None);
        assert_eq!(c.seeds, None);
        assert_eq!(parse(&["--n", "64"], 42).n_list, Some(vec![64]));
        assert_eq!(parse(&["--n=64,196,400"], 42).n_list, Some(vec![64, 196, 400]));
        assert_eq!(parse(&["--seeds", "3"], 42).seeds, Some(3));
        assert_eq!(parse(&["--seeds=1"], 42).seeds, Some(1));
    }

    #[test]
    fn pairs_and_stable_flags() {
        let c = parse(&[], 42);
        assert_eq!(c.pairs, None);
        assert!(!c.stable);
        assert_eq!(parse(&["--pairs", "500"], 42).pairs, Some(500));
        assert_eq!(parse(&["--pairs=2000"], 42).pairs, Some(2000));
        assert!(parse(&["--stable"], 42).stable);
    }

    #[test]
    fn chrome_trace_flag_both_forms_and_implies_recording() {
        let c = parse(&[], 42);
        assert_eq!(c.chrome_trace, None);
        assert!(!c.telemetry().tracer.enabled());
        let c = parse(&["--chrome-trace", "out.json"], 42);
        assert_eq!(c.chrome_trace.as_deref(), Some("out.json"));
        assert!(c.telemetry().tracer.enabled());
        let c = parse(&["--chrome-trace=/tmp/t.json"], 42);
        assert_eq!(c.chrome_trace.as_deref(), Some("/tmp/t.json"));
        assert!(parse(&["--trace"], 42).telemetry().tracer.enabled());
    }

    /// A fresh, empty directory for one test's artifacts.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn finish_writes_every_artifact_the_flags_ask_for() {
        let dir = scratch_dir("artifacts");
        let chrome = dir.join("x_chrome.json");
        let c = parse(&["--json", "--trace", "--chrome-trace", chrome.to_str().unwrap()], 42);
        let tel = c.telemetry();
        {
            let _s = tel.tracer.span("phase");
        }
        tel.registry.counter("x.count").add(3);
        c.finish("x", &dir, tel);
        let trace = std::fs::read_to_string(dir.join("x_trace.jsonl")).unwrap();
        assert!(trace.contains("\"phase\""));
        let prom = std::fs::read_to_string(dir.join("x_metrics.prom")).unwrap();
        assert!(prom.contains("x_count 3"), "{prom}");
        let doc = std::fs::read_to_string(&chrome).unwrap();
        assert!(doc.contains("traceEvents") && doc.contains("x.count"));
        assert!(!dir.join("x_flight.jsonl").exists());
        // Without flags nothing but the (absent) flight dump is touched.
        let dir2 = scratch_dir("no-flags");
        parse(&["--json"], 42).finish("x", &dir2, Telemetry::off());
        assert_eq!(std::fs::read_dir(&dir2).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn finish_dumps_the_flight_ring_on_anomaly_and_removes_a_stale_dump() {
        let dir = scratch_dir("flight");
        let dump = dir.join("x_flight.jsonl");
        let c = parse(&["--json"], 42);
        // A red run dumps the ring.
        let tel = c.telemetry();
        tel.flight.borrow_mut().record_error(
            0,
            1,
            &netsim::RouteError::HopBudgetExceeded { budget: 7 },
        );
        c.finish("x", &dir, tel);
        let text = std::fs::read_to_string(&dump).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"loss\""));
        // A later green run leaves no file behind.
        c.finish("x", &dir, c.telemetry());
        assert!(!dump.exists(), "stale flight dump survived a clean run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn min_delivery_flag_both_forms() {
        assert_eq!(parse(&[], 42).min_delivery, None);
        assert_eq!(parse(&["--min-delivery", "0.9"], 42).min_delivery, Some(0.9));
        assert_eq!(parse(&["--min-delivery=0.5"], 42).min_delivery, Some(0.5));
        assert_eq!(parse(&["--min-delivery=1"], 42).min_delivery, Some(1.0));
    }

    #[test]
    #[should_panic(expected = "invalid --min-delivery")]
    fn out_of_range_min_delivery_is_rejected() {
        parse(&["--min-delivery", "1.5"], 42);
    }

    #[test]
    #[should_panic(expected = "invalid --min-delivery")]
    fn malformed_min_delivery_is_rejected() {
        parse(&["--min-delivery=lots"], 42);
    }

    #[test]
    #[should_panic(expected = "invalid --pairs")]
    fn zero_pairs_is_rejected() {
        parse(&["--pairs", "0"], 42);
    }

    #[test]
    #[should_panic(expected = "invalid --n")]
    fn malformed_n_list_is_rejected() {
        parse(&["--n", "64,banana"], 42);
    }

    #[test]
    #[should_panic(expected = "invalid --seeds")]
    fn zero_seeds_is_rejected() {
        parse(&["--seeds", "0"], 42);
    }

    #[test]
    #[should_panic(expected = "invalid --seed")]
    fn malformed_seed_is_rejected() {
        parse(&["--seed", "banana"], 42);
    }
}

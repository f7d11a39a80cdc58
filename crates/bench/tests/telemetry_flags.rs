//! The trace flags reach every binary: `serve` and the `paper`
//! subcommands run with `--trace` / `--chrome-trace` write their trace,
//! registry and Chrome-trace artifacts, and `paper` rejects an unknown
//! subcommand by listing the valid ones. Each test runs the binary in its
//! own temporary working directory, so `results/` never touches the
//! checkout.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one test.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-flags-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(bin).args(args).current_dir(dir).output().expect("binary runs")
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} missing: {e}", path.display()))
}

#[test]
fn serve_writes_its_registry_and_spans_under_the_trace_flags() {
    let dir = workdir("serve");
    let args = ["36", "--pairs", "200", "--stable", "--trace", "--chrome-trace", "chrome.json"];
    let out = run(env!("CARGO_BIN_EXE_serve"), &dir, &args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let chrome = read(dir.join("chrome.json"));
    assert!(chrome.contains("traceEvents"));
    assert!(chrome.contains("serve.queries.net-labeled"), "registry counters missing");
    assert!(chrome.contains("plane-compile"), "serve spans missing");
    let prom = read(dir.join("results/serve_metrics.prom"));
    assert!(prom.contains("serve_latency_ns_scale_free_NI_count"), "{prom}");
    assert!(read(dir.join("results/serve_trace.jsonl")).contains("\"differential\""));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paper_subcommands_record_their_metric_builds() {
    let dir = workdir("paper");
    let args = ["table1", "49", "8", "20", "--trace", "--chrome-trace", "chrome.json"];
    let out = run(env!("CARGO_BIN_EXE_paper"), &dir, &args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("\n== Table 1"));
    let chrome = read(dir.join("chrome.json"));
    assert!(chrome.contains("traceEvents") && chrome.contains("metric-build"));
    assert!(read(dir.join("results/table1_trace.jsonl")).contains("metric-cache-build"));
    assert!(dir.join("results/table1_metrics.prom").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn paper_rejects_an_unknown_subcommand_listing_the_valid_ones() {
    let dir = workdir("unknown");
    for args in [&["table3"][..], &[]] {
        let out = run(env!("CARGO_BIN_EXE_paper"), &dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for (name, _) in bench::paper::SUBCOMMANDS {
            assert!(stderr.contains(name), "{name} not listed in {stderr:?}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

//! The CI perf-regression gate: diff current results against committed
//! baselines.
//!
//! [`run_report`] reads `results/{scale,bench_build,profile,maintain,serve}.json`
//! and the same documents from `baselines/`, matches their cells by stable
//! keys — scale cells by `(n, scheme)`, scale instances by `n`,
//! bench-build cells by `(n, threads)`, profile entries by
//! `(family, scheme)`, serve cells by `(scheme, workers)` — and checks
//! each measured value against a tolerance:
//!
//! * **wall time** (`build_us`, `apsp_us`, `total_us`, `build_ms`): the
//!   current value may not exceed `max(baseline, floor) × 4` — the floor
//!   ([`WALL_FLOOR_US`]) keeps sub-50 ms cells, which are dominated by
//!   scheduler noise on shared CI runners, from ever tripping the gate;
//! * **allocation** (`peak_bytes`, `alloc_bytes`): ratio ≤ 1.5 over a
//!   1 MiB floor — allocation is deterministic, so the band is tighter;
//! * **stretch** (`stretch_mean`): absolute increase ≤ [`STRETCH_TOL`] —
//!   stretch is a correctness-adjacent quantity, a ratio would be far too
//!   loose;
//! * **invariants**: any `failures > 0` or `deterministic: false` in the
//!   current document is a regression outright, no tolerance.
//!
//! Cells present in only one document are reported as `skipped` (the grid
//! legitimately changes shape when sweep parameters change), as are
//! sections whose file is missing on either side. The verdict document —
//! `schema_version` **first key**, like every other results document — is
//! written to `results/report.json`, and [`report_main`] exits non-zero
//! when any cell regressed, which is what makes it a CI gate.

use std::path::Path;

use netsim::json::Value;

/// Version of the `results/report.json` document layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Wall-time ratio bound: current ≤ max(baseline, floor) × this.
pub const WALL_RATIO: f64 = 4.0;
/// Wall-time noise floor in microseconds (50 ms).
pub const WALL_FLOOR_US: f64 = 50_000.0;
/// Allocation ratio bound.
pub const BYTES_RATIO: f64 = 1.5;
/// Allocation noise floor in bytes (1 MiB).
pub const BYTES_FLOOR: f64 = 1024.0 * 1024.0;
/// Maximum tolerated absolute increase of a cell's mean stretch.
pub const STRETCH_TOL: f64 = 0.05;

/// How one measured value is compared against its baseline.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Ratio bound over a noise floor, in µs.
    WallUs,
    /// Ratio bound over a noise floor, in ms.
    WallMs,
    /// Ratio bound over a 1 MiB floor.
    Bytes,
    /// Absolute increase bound.
    StretchAbs,
    /// Zero-tolerance invariant: any increase over 0 regresses.
    Invariant,
}

impl Kind {
    fn verdict(self, baseline: f64, current: f64) -> &'static str {
        let regressed = match self {
            Kind::WallUs => current > baseline.max(WALL_FLOOR_US) * WALL_RATIO,
            Kind::WallMs => current > baseline.max(WALL_FLOOR_US / 1e3) * WALL_RATIO,
            Kind::Bytes => current > baseline.max(BYTES_FLOOR) * BYTES_RATIO,
            Kind::StretchAbs => current > baseline + STRETCH_TOL,
            Kind::Invariant => current > 0.0,
        };
        if regressed {
            "regress"
        } else {
            "pass"
        }
    }
}

/// One compared (cell, metric) pair.
struct Finding {
    key: String,
    metric: &'static str,
    baseline: f64,
    current: f64,
    verdict: &'static str,
}

impl Finding {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("key".into(), self.key.clone().into()),
            ("metric".into(), self.metric.into()),
            ("baseline".into(), self.baseline.into()),
            ("current".into(), self.current.into()),
            ("verdict".into(), self.verdict.into()),
        ])
    }
}

/// One section (source document) of the report.
struct Section {
    name: &'static str,
    findings: Vec<Finding>,
    skipped: Vec<String>,
    /// Set when the whole section could not be compared.
    note: Option<String>,
}

impl Section {
    fn new(name: &'static str) -> Self {
        Section { name, findings: Vec::new(), skipped: Vec::new(), note: None }
    }

    fn regressions(&self) -> usize {
        self.findings.iter().filter(|f| f.verdict == "regress").count()
    }

    fn compare(&mut self, key: &str, metric: &'static str, kind: Kind, base: f64, cur: f64) {
        self.findings.push(Finding {
            key: key.to_string(),
            metric,
            baseline: base,
            current: cur,
            verdict: kind.verdict(base, cur),
        });
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), Value::from(self.name)),
            ("compared".into(), self.findings.len().into()),
            ("regressions".into(), self.regressions().into()),
            (
                "skipped".into(),
                Value::Array(self.skipped.iter().map(|s| s.clone().into()).collect()),
            ),
        ];
        if let Some(n) = &self.note {
            fields.push(("note".into(), n.clone().into()));
        }
        fields.push((
            "findings".into(),
            Value::Array(self.findings.iter().map(Finding::to_json).collect()),
        ));
        Value::Object(fields)
    }
}

/// The gate's outcome: the JSON document plus the counts `report_main`
/// turns into an exit code.
pub struct Report {
    /// The full verdict document (written to `results/report.json`).
    pub doc: Value,
    /// Cells compared across all sections.
    pub compared: usize,
    /// Cells that regressed beyond tolerance.
    pub regressions: usize,
    /// Keys present on only one side, plus missing-file notes.
    pub skipped: usize,
}

/// Loads a JSON document, returning `None` (not an error) when the file
/// is missing or unparsable — the gate skips what it cannot compare.
fn load(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    Value::parse(&text).ok()
}

/// `v[field]` as f64, tolerating integer-typed values.
fn num(v: &Value, field: &str) -> Option<f64> {
    let f = v.get(field)?;
    f.as_f64().or_else(|| f.as_u64().map(|u| u as f64))
}

/// Indexes an array of objects by a string key derived from each element.
fn index(
    arr: Option<&[Value]>,
    key_of: impl Fn(&Value) -> Option<String>,
) -> Vec<(String, &Value)> {
    arr.unwrap_or(&[]).iter().filter_map(|v| key_of(v).map(|k| (k, v))).collect()
}

/// Walks two indexed cell lists: matched keys are compared via `compare`,
/// unmatched keys on either side are recorded as skipped.
fn diff_cells(
    section: &mut Section,
    base: &[(String, &Value)],
    cur: &[(String, &Value)],
    mut compare: impl FnMut(&mut Section, &str, &Value, &Value),
) {
    for (k, b) in base {
        match cur.iter().find(|(ck, _)| ck == k) {
            Some((_, c)) => compare(section, k, b, c),
            None => section.skipped.push(format!("{k} (baseline only)")),
        }
    }
    for (k, _) in cur {
        if !base.iter().any(|(bk, _)| bk == k) {
            section.skipped.push(format!("{k} (current only)"));
        }
    }
}

/// Diffs `scale.json`: per-(n, scheme) build wall / peak allocation /
/// mean stretch / failure and determinism invariants, plus per-instance
/// APSP wall time.
fn diff_scale(base: Option<&Value>, cur: Option<&Value>) -> Section {
    let mut s = Section::new("scale");
    let (Some(base), Some(cur)) = (base, cur) else {
        s.note = Some("scale.json missing on one side; section skipped".into());
        return s;
    };
    let cell_key = |v: &Value| {
        Some(format!("n={} scheme={}", num(v, "n")? as u64, v.get("scheme")?.as_str()?))
    };
    let b = index(base.get("cells").and_then(Value::as_array), cell_key);
    let c = index(cur.get("cells").and_then(Value::as_array), cell_key);
    diff_cells(&mut s, &b, &c, |s, k, b, c| {
        if let (Some(bv), Some(cv)) = (num(b, "build_us"), num(c, "build_us")) {
            s.compare(k, "build_us", Kind::WallUs, bv, cv);
        }
        if let (Some(bv), Some(cv)) = (num(b, "peak_bytes"), num(c, "peak_bytes")) {
            s.compare(k, "peak_bytes", Kind::Bytes, bv, cv);
        }
        if let (Some(bv), Some(cv)) = (num(b, "stretch_mean"), num(c, "stretch_mean")) {
            s.compare(k, "stretch_mean", Kind::StretchAbs, bv, cv);
        }
        if let Some(f) = num(c, "failures") {
            s.compare(k, "failures", Kind::Invariant, 0.0, f);
        }
        if c.get("deterministic").and_then(Value::as_bool) == Some(false) {
            s.compare(k, "deterministic", Kind::Invariant, 0.0, 1.0);
        }
    });
    let inst_key = |v: &Value| Some(format!("instance n={}", num(v, "n")? as u64));
    let b = index(base.get("instances").and_then(Value::as_array), inst_key);
    let c = index(cur.get("instances").and_then(Value::as_array), inst_key);
    diff_cells(&mut s, &b, &c, |s, k, b, c| {
        if let (Some(bv), Some(cv)) = (num(b, "apsp_us"), num(c, "apsp_us")) {
            s.compare(k, "apsp_us", Kind::WallUs, bv, cv);
        }
    });
    s
}

/// Diffs `bench_build.json`: per-(n, threads) total wall / allocation,
/// plus the whole-document determinism invariant.
fn diff_bench_build(base: Option<&Value>, cur: Option<&Value>) -> Section {
    let mut s = Section::new("bench_build");
    let (Some(base), Some(cur)) = (base, cur) else {
        s.note = Some("bench_build.json missing on one side; section skipped".into());
        return s;
    };
    let key = |v: &Value| {
        Some(format!("n={} threads={}", num(v, "n")? as u64, num(v, "threads")? as u64))
    };
    let b = index(base.get("cells").and_then(Value::as_array), key);
    let c = index(cur.get("cells").and_then(Value::as_array), key);
    diff_cells(&mut s, &b, &c, |s, k, b, c| {
        if let (Some(bv), Some(cv)) = (num(b, "total_us"), num(c, "total_us")) {
            s.compare(k, "total_us", Kind::WallUs, bv, cv);
        }
        if let (Some(bv), Some(cv)) = (num(b, "alloc_bytes"), num(c, "alloc_bytes")) {
            s.compare(k, "alloc_bytes", Kind::Bytes, bv, cv);
        }
    });
    if cur.get("all_deterministic").and_then(Value::as_bool) == Some(false) {
        s.compare("document", "all_deterministic", Kind::Invariant, 0.0, 1.0);
    }
    s
}

/// Diffs `profile.json`: per-(family, scheme) build wall time.
fn diff_profile(base: Option<&Value>, cur: Option<&Value>) -> Section {
    let mut s = Section::new("profile");
    let (Some(base), Some(cur)) = (base, cur) else {
        s.note = Some("profile.json missing on one side; section skipped".into());
        return s;
    };
    let key = |v: &Value| {
        Some(format!("family={} scheme={}", v.get("family")?.as_str()?, v.get("scheme")?.as_str()?))
    };
    let b = index(base.get("entries").and_then(Value::as_array), key);
    let c = index(cur.get("entries").and_then(Value::as_array), key);
    diff_cells(&mut s, &b, &c, |s, k, b, c| {
        if let (Some(bv), Some(cv)) = (num(b, "build_ms"), num(c, "build_ms")) {
            s.compare(k, "build_ms", Kind::WallMs, bv, cv);
        }
    });
    s
}

/// Diffs `maintain.json`: per-(n, scheme, per-batch) amortized repair
/// wall time and p99 repair latency, plus the certification,
/// repair-equals-rebuild, and sublinearity invariants — and the
/// adversarial cell's fired-and-recovered contract.
fn diff_maintain(base: Option<&Value>, cur: Option<&Value>) -> Section {
    let mut s = Section::new("maintain");
    let (Some(base), Some(cur)) = (base, cur) else {
        s.note = Some("maintain.json missing on one side; section skipped".into());
        return s;
    };
    let key = |v: &Value| {
        Some(format!(
            "n={} scheme={} per_batch={}",
            num(v, "n")? as u64,
            v.get("scheme")?.as_str()?,
            num(v, "per_batch")? as u64
        ))
    };
    let b = index(base.get("cells").and_then(Value::as_array), key);
    let c = index(cur.get("cells").and_then(Value::as_array), key);
    diff_cells(&mut s, &b, &c, |s, k, b, c| {
        if let (Some(bv), Some(cv)) = (num(b, "amortized_repair_us"), num(c, "amortized_repair_us"))
        {
            s.compare(k, "amortized_repair_us", Kind::WallUs, bv, cv);
        }
        if let (Some(bv), Some(cv)) = (num(b, "p99_repair_us"), num(c, "p99_repair_us")) {
            s.compare(k, "p99_repair_us", Kind::WallUs, bv, cv);
        }
        if let Some(f) = num(c, "audit_failures") {
            s.compare(k, "audit_failures", Kind::Invariant, 0.0, f);
        }
        if c.get("repair_equals_rebuild").and_then(Value::as_bool) == Some(false) {
            s.compare(k, "repair_equals_rebuild", Kind::Invariant, 0.0, 1.0);
        }
        if c.get("sublinear_ok").and_then(Value::as_bool) == Some(false) {
            s.compare(k, "sublinear_ok", Kind::Invariant, 0.0, 1.0);
        }
    });
    if let Some(adv) = cur.get("adversarial") {
        if num(adv, "fallbacks") == Some(0.0) {
            s.compare("adversarial", "fallback_fired", Kind::Invariant, 0.0, 1.0);
        }
        if adv.get("recovered").and_then(Value::as_bool) == Some(false) {
            s.compare("adversarial", "recovered", Kind::Invariant, 0.0, 1.0);
        }
    }
    s
}

/// Diffs `serve.json`: per-(scheme, workers) serving wall time plus the
/// per-cell failure/determinism invariants and the whole-document
/// divergence counter — a plane that disagrees with its reference scheme
/// on even one route regresses outright.
fn diff_serve(base: Option<&Value>, cur: Option<&Value>) -> Section {
    let mut s = Section::new("serve");
    let (Some(base), Some(cur)) = (base, cur) else {
        s.note = Some("serve.json missing on one side; section skipped".into());
        return s;
    };
    let key = |v: &Value| {
        Some(format!("scheme={} workers={}", v.get("scheme")?.as_str()?, num(v, "workers")? as u64))
    };
    let b = index(base.get("cells").and_then(Value::as_array), key);
    let c = index(cur.get("cells").and_then(Value::as_array), key);
    diff_cells(&mut s, &b, &c, |s, k, b, c| {
        if let (Some(bv), Some(cv)) = (num(b, "wall_us"), num(c, "wall_us")) {
            s.compare(k, "wall_us", Kind::WallUs, bv, cv);
        }
        if let Some(f) = num(c, "failures") {
            s.compare(k, "failures", Kind::Invariant, 0.0, f);
        }
        if c.get("deterministic").and_then(Value::as_bool) == Some(false) {
            s.compare(k, "deterministic", Kind::Invariant, 0.0, 1.0);
        }
    });
    if let Some(d) = num(cur, "divergences") {
        s.compare("document", "divergences", Kind::Invariant, 0.0, d);
    }
    if cur.get("all_deterministic").and_then(Value::as_bool) == Some(false) {
        s.compare("document", "all_deterministic", Kind::Invariant, 0.0, 1.0);
    }
    s
}

/// Runs the full gate: diffs the five documents under `results_dir`
/// against `baselines_dir` and assembles the verdict document.
pub fn run_report(results_dir: &Path, baselines_dir: &Path) -> Report {
    let sections = [
        diff_scale(
            load(&baselines_dir.join("scale.json")).as_ref(),
            load(&results_dir.join("scale.json")).as_ref(),
        ),
        diff_bench_build(
            load(&baselines_dir.join("bench_build.json")).as_ref(),
            load(&results_dir.join("bench_build.json")).as_ref(),
        ),
        diff_profile(
            load(&baselines_dir.join("profile.json")).as_ref(),
            load(&results_dir.join("profile.json")).as_ref(),
        ),
        diff_maintain(
            load(&baselines_dir.join("maintain.json")).as_ref(),
            load(&results_dir.join("maintain.json")).as_ref(),
        ),
        diff_serve(
            load(&baselines_dir.join("serve.json")).as_ref(),
            load(&results_dir.join("serve.json")).as_ref(),
        ),
    ];

    let compared: usize = sections.iter().map(|s| s.findings.len()).sum();
    let regressions: usize = sections.iter().map(Section::regressions).sum();
    let skipped: usize =
        sections.iter().map(|s| s.skipped.len() + usize::from(s.note.is_some())).sum();

    let doc = Value::Object(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("experiment".into(), "report".into()),
        (
            "tolerances".into(),
            Value::Object(vec![
                ("wall_ratio".into(), WALL_RATIO.into()),
                ("wall_floor_us".into(), WALL_FLOOR_US.into()),
                ("bytes_ratio".into(), BYTES_RATIO.into()),
                ("bytes_floor".into(), BYTES_FLOOR.into()),
                ("stretch_tol".into(), STRETCH_TOL.into()),
            ]),
        ),
        ("sections".into(), Value::Array(sections.iter().map(Section::to_json).collect())),
        (
            "summary".into(),
            Value::Object(vec![
                ("compared".into(), compared.into()),
                ("regressions".into(), regressions.into()),
                ("skipped".into(), skipped.into()),
                ("pass".into(), (regressions == 0).into()),
            ]),
        ),
    ]);
    Report { doc, compared, regressions, skipped }
}

/// Entry point for `cargo run --release --bin report` (the binary lives in
/// this crate): runs the gate, writes
/// `results/report.json`, prints the summary, and exits non-zero when any
/// cell regressed.
///
/// Usage: `report [results_dir] [baselines_dir]` (defaults: `results`,
/// `baselines`).
pub fn report_main() {
    let cli = crate::cli::Cli::parse_env(42);
    let results: String = cli.pos(0, "results".to_string());
    let baselines: String = cli.pos(1, "baselines".to_string());
    let rep = run_report(Path::new(&results), Path::new(&baselines));

    std::fs::create_dir_all(&results).expect("create results dir");
    let out = Path::new(&results).join("report.json");
    std::fs::write(&out, rep.doc.to_string_pretty() + "\n").expect("write report.json");

    // One line per regressed cell, then the verdict.
    if let Some(sections) = rep.doc.get("sections").and_then(Value::as_array) {
        for sec in sections {
            let name = sec.get("name").and_then(Value::as_str).unwrap_or("?");
            for f in sec.get("findings").and_then(Value::as_array).unwrap_or(&Vec::new()) {
                if f.get("verdict").and_then(Value::as_str) == Some("regress") {
                    eprintln!(
                        "REGRESSION [{name}] {} {}: {} -> {}",
                        f.get("key").and_then(Value::as_str).unwrap_or("?"),
                        f.get("metric").and_then(Value::as_str).unwrap_or("?"),
                        f.get("baseline").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        f.get("current").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    );
                }
            }
        }
    }
    println!(
        "perf gate: {} compared, {} regressions, {} skipped -> {}",
        rep.compared,
        rep.regressions,
        rep.skipped,
        if rep.regressions == 0 { "PASS" } else { "FAIL" }
    );
    println!("wrote {}", out.display());
    if rep.regressions > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique temp dir per test invocation (no `Date::now` in tests —
    /// the pid plus a name keeps parallel test binaries apart).
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("report-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn scale_doc(build_us: u64, stretch: f64, failures: u64) -> String {
        format!(
            r#"{{
  "schema_version": 1,
  "instances": [{{"n": 1024, "apsp_us": 40000}}],
  "cells": [
    {{"n": 1024, "scheme": "net-labeled", "build_us": {build_us},
      "peak_bytes": 46000000, "stretch_mean": {stretch},
      "failures": {failures}, "deterministic": true}}
  ]
}}
"#
        )
    }

    fn bench_build_doc(total_us: u64) -> String {
        format!(
            r#"{{
  "schema_version": 1,
  "all_deterministic": true,
  "cells": [{{"n": 400, "threads": 2, "total_us": {total_us}, "alloc_bytes": 2000000}}]
}}
"#
        )
    }

    fn profile_doc(build_ms: f64) -> String {
        format!(
            r#"{{
  "schema_version": 1,
  "entries": [{{"family": "grid", "scheme": "net-labeled", "build_ms": {build_ms}}}]
}}
"#
        )
    }

    fn maintain_doc(
        repair_us: f64,
        audit_failures: u64,
        fallbacks: u64,
        recovered: bool,
    ) -> String {
        format!(
            r#"{{
  "schema_version": 1,
  "cells": [
    {{"n": 256, "scheme": "net-labeled", "per_batch": 8,
      "amortized_repair_us": {repair_us}, "p99_repair_us": 900,
      "audit_failures": {audit_failures}, "repair_equals_rebuild": true,
      "sublinear_ok": true}}
  ],
  "adversarial": {{"fallbacks": {fallbacks}, "recovered": {recovered}}}
}}
"#
        )
    }

    fn serve_doc(wall_us: u64, divergences: u64, failures: u64, deterministic: bool) -> String {
        format!(
            r#"{{
  "schema_version": 1,
  "divergences": {divergences},
  "all_deterministic": {deterministic},
  "cells": [
    {{"scheme": "net-labeled", "workers": 8, "wall_us": {wall_us},
      "failures": {failures}, "deterministic": {deterministic}}}
  ]
}}
"#
        )
    }

    fn write_all(dir: &Path, scale: &str, bb: &str, profile: &str) {
        std::fs::write(dir.join("scale.json"), scale).unwrap();
        std::fs::write(dir.join("bench_build.json"), bb).unwrap();
        std::fs::write(dir.join("profile.json"), profile).unwrap();
        std::fs::write(dir.join("maintain.json"), maintain_doc(700.0, 0, 1, true)).unwrap();
        std::fs::write(dir.join("serve.json"), serve_doc(300_000, 0, 0, true)).unwrap();
    }

    #[test]
    fn identical_documents_pass_with_zero_regressions() {
        let base = temp_dir("identical-base");
        let cur = temp_dir("identical-cur");
        let (s, b, p) = (scale_doc(500_000, 1.02, 0), bench_build_doc(200_000), profile_doc(80.0));
        write_all(&base, &s, &b, &p);
        write_all(&cur, &s, &b, &p);

        let rep = run_report(&cur, &base);
        assert_eq!(rep.regressions, 0);
        assert_eq!(rep.skipped, 0);
        // build_us + peak_bytes + stretch_mean + failures + apsp_us +
        // total_us + alloc_bytes + build_ms +
        // amortized_repair_us + p99_repair_us + audit_failures +
        // serve wall_us + serve failures + serve divergences.
        assert_eq!(rep.compared, 14);
        assert_eq!(
            rep.doc.get("summary").and_then(|s| s.get("pass")).and_then(Value::as_bool),
            Some(true)
        );
        // schema_version leads the document (the CI guard greps the head).
        assert!(rep.doc.to_string_pretty().starts_with("{\n  \"schema_version\""));
        // The document round-trips.
        assert_eq!(Value::parse(&rep.doc.to_string_pretty()).unwrap(), rep.doc);
    }

    #[test]
    fn injected_regressions_fail_the_gate() {
        let base = temp_dir("inject-base");
        let cur = temp_dir("inject-cur");
        write_all(
            &base,
            &scale_doc(500_000, 1.02, 0),
            &bench_build_doc(200_000),
            &profile_doc(80.0),
        );
        // 10× build wall, +0.2 stretch, a route failure, and a 10× profile
        // build: four independent regressions.
        write_all(
            &cur,
            &scale_doc(5_000_000, 1.22, 3),
            &bench_build_doc(200_000),
            &profile_doc(800.0),
        );

        let rep = run_report(&cur, &base);
        assert_eq!(rep.regressions, 4);
        assert_eq!(
            rep.doc.get("summary").and_then(|s| s.get("pass")).and_then(Value::as_bool),
            Some(false)
        );
        let regressed: Vec<(String, String)> = rep
            .doc
            .get("sections")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .flat_map(|sec| sec.get("findings").and_then(Value::as_array).unwrap().iter())
            .filter(|f| f.get("verdict").and_then(Value::as_str) == Some("regress"))
            .map(|f| {
                (
                    f.get("metric").and_then(Value::as_str).unwrap().to_string(),
                    f.get("key").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let metrics: Vec<&str> = regressed.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(metrics, ["build_us", "stretch_mean", "failures", "build_ms"]);
    }

    #[test]
    fn sub_floor_noise_never_regresses() {
        let base = temp_dir("floor-base");
        let cur = temp_dir("floor-cur");
        // 600 µs baseline, 9 ms current: a 15× blowup, but both sit under
        // the 50 ms floor × 4 bound — scheduler noise, not a regression.
        write_all(&base, &scale_doc(600, 1.02, 0), &bench_build_doc(600), &profile_doc(0.6));
        write_all(&cur, &scale_doc(9_000, 1.02, 0), &bench_build_doc(9_000), &profile_doc(9.0));
        let rep = run_report(&cur, &base);
        assert_eq!(rep.regressions, 0);
    }

    #[test]
    fn shape_changes_are_skipped_not_failed() {
        let base = temp_dir("shape-base");
        let cur = temp_dir("shape-cur");
        write_all(
            &base,
            &scale_doc(500_000, 1.02, 0),
            &bench_build_doc(200_000),
            &profile_doc(80.0),
        );
        // Current run dropped bench_build.json and renamed the scale cell.
        std::fs::write(
            cur.join("scale.json"),
            scale_doc(500_000, 1.02, 0).replace("net-labeled", "renamed-scheme"),
        )
        .unwrap();
        std::fs::write(cur.join("profile.json"), profile_doc(80.0)).unwrap();
        let rep = run_report(&cur, &base);
        assert_eq!(rep.regressions, 0);
        // One baseline-only + one current-only scale cell, plus the
        // missing bench_build, maintain, and serve section notes.
        assert_eq!(rep.skipped, 5);
    }

    #[test]
    fn maintain_invariants_and_regressions_fail_the_gate() {
        let base = temp_dir("maintain-base");
        let cur = temp_dir("maintain-cur");
        write_all(
            &base,
            &scale_doc(500_000, 1.02, 0),
            &bench_build_doc(200_000),
            &profile_doc(80.0),
        );
        write_all(
            &cur,
            &scale_doc(500_000, 1.02, 0),
            &bench_build_doc(200_000),
            &profile_doc(80.0),
        );
        // 100× amortized repair above the floor, an audit failure, a
        // broken equivalence claim, and an adversarial cell that neither
        // fired nor recovered.
        let bad = maintain_doc(90_000_000.0, 2, 0, false)
            .replace(r#""repair_equals_rebuild": true"#, r#""repair_equals_rebuild": false"#)
            .replace(r#""sublinear_ok": true"#, r#""sublinear_ok": false"#);
        std::fs::write(cur.join("maintain.json"), bad).unwrap();
        let rep = run_report(&cur, &base);
        // amortized_repair_us blowup + audit_failures + equivalence +
        // sublinearity + fallback_fired + recovered.
        assert_eq!(rep.regressions, 6);
    }

    #[test]
    fn serve_divergences_and_failures_fail_the_gate() {
        let base = temp_dir("serve-base");
        let cur = temp_dir("serve-cur");
        write_all(
            &base,
            &scale_doc(500_000, 1.02, 0),
            &bench_build_doc(200_000),
            &profile_doc(80.0),
        );
        write_all(
            &cur,
            &scale_doc(500_000, 1.02, 0),
            &bench_build_doc(200_000),
            &profile_doc(80.0),
        );
        // A single route divergence, two query failures, a non-reproducing
        // worker sweep, and a 100× serving-wall blowup: five regressions
        // (per-cell deterministic plus document all_deterministic).
        std::fs::write(cur.join("serve.json"), serve_doc(30_000_000, 1, 2, false)).unwrap();
        let rep = run_report(&cur, &base);
        let serve_regressions: Vec<&str> = rep
            .doc
            .get("sections")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter(|sec| sec.get("name").and_then(Value::as_str) == Some("serve"))
            .flat_map(|sec| sec.get("findings").and_then(Value::as_array).unwrap().iter())
            .filter(|f| f.get("verdict").and_then(Value::as_str) == Some("regress"))
            .map(|f| f.get("metric").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(
            serve_regressions,
            ["wall_us", "failures", "deterministic", "divergences", "all_deterministic"]
        );
        assert_eq!(rep.regressions, 5);
    }

    #[test]
    fn committed_baselines_pass_against_committed_results() {
        // The acceptance criterion: the gate exits clean on the shipped
        // tree. Committed results and baselines are identical copies, so
        // any nonzero verdict here means the gate itself is broken.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rep = run_report(&root.join("results"), &root.join("baselines"));
        assert_eq!(rep.regressions, 0, "doc: {}", rep.doc.to_string_pretty());
        assert!(rep.compared > 50, "expected a full grid, got {}", rep.compared);
        assert_eq!(rep.skipped, 0);
    }
}

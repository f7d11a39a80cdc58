//! Structural rules of the source tree, checked as tests.
//!
//! Each rule says that something is written once. The checks read the
//! workspace's own Rust files from `CARGO_MANIFEST_DIR`, line by line, with
//! std only, and each failure prints the offending lines.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, in path order; none if `dir`
/// does not exist.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("readable entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Every line of the `.rs` files under the workspace-relative `dirs`, as
/// `path:line: text`, for which `hit` holds.
fn lines_where(dirs: &[PathBuf], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    for file in dirs.iter().flat_map(|d| rs_files(&root().join(d))) {
        let text = fs::read_to_string(&file).expect("readable source file");
        for (k, line) in text.lines().enumerate() {
            if hit(line) {
                let rel = file.strip_prefix(root()).unwrap_or(&file);
                out.push(format!("{}:{}: {}", rel.display(), k + 1, line.trim()));
            }
        }
    }
    out
}

/// Whether byte `i` of `s` starts or ends a word (`\b`): the bytes on its
/// two sides differ in being word characters.
fn boundary(s: &str, i: usize) -> bool {
    let word = |b: Option<&u8>| b.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
    let b = s.as_bytes();
    word(i.checked_sub(1).and_then(|j| b.get(j))) != word(b.get(i))
}

/// Whether `s` contains `word` as a whole word.
fn has_word(s: &str, word: &str) -> bool {
    s.match_indices(word).any(|(i, _)| boundary(s, i) && boundary(s, i + word.len()))
}

/// Whether `line` opens an impl of `tr` (`impl … tr for …`), indented or
/// not.
fn impl_of(line: &str, tr: &str) -> bool {
    let line = line.trim_start();
    line.starts_with("impl") && boundary(line, 4) && has_word(line, &format!("{tr} for"))
}

/// Every crate's library source, plus the root crate's, tests, examples,
/// and each crate's tests and benches.
fn every_source_dir() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = ["src", "tests", "examples"].map(PathBuf::from).to_vec();
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates directory")
        .map(|e| e.expect("readable entry").path())
        .collect();
    crates.sort();
    for krate in crates {
        let name = krate.file_name().expect("crate directory name").to_owned();
        for sub in ["src", "tests", "benches"] {
            dirs.push(Path::new("crates").join(&name).join(sub));
        }
    }
    dirs
}

/// Asserts at most one impl of each of `traits` in the library source
/// `dir`.
fn one_impl_each(dir: &str, traits: &[&str], why: &str) {
    for tr in traits {
        let found = lines_where(&[PathBuf::from(dir)], |l| impl_of(l, tr));
        assert!(
            found.len() <= 1,
            "{} impls of {tr} in {dir}; {why}:\n{}",
            found.len(),
            found.join("\n")
        );
    }
}

/// The labeled scheme is written once, `Labeled<P>` over a level policy:
/// each scheme trait has one impl, and the per-policy view trait of the
/// all-levels scheme is gone.
#[test]
fn one_labeled_scheme() {
    one_impl_each(
        "crates/labeled/src",
        &["LabeledScheme", "Certifiable", "Maintainable", "FallbackHierarchy", "PlaneTables"],
        "write the scheme once, generic over its level policy",
    );
    let old_view = ["NetLabeled", "View"].concat();
    let found = lines_where(&every_source_dir(), |l| has_word(l, &old_view));
    assert!(found.is_empty(), "{old_view} is gone; use LabeledView:\n{}", found.join("\n"));
}

/// The labeled walk is written once: one place opens its ring-walk
/// segments.
#[test]
fn one_labeled_walk() {
    let opens = |l: &str| l.contains("begin_segment(\"ring-walk\"");
    let found = lines_where(&[PathBuf::from("crates/labeled/src")], opens);
    assert_eq!(
        found.len(),
        1,
        "ring-walk segments opened in several places:\n{}",
        found.join("\n")
    );
}

/// Theorem 1.4's scheme is Theorem 1.1's over a labeled layer with no
/// packed balls: one generic `NameIndependent<P>` routes, certifies and
/// repairs both, so nameind implements each scheme trait once.
#[test]
fn one_name_independent_scheme() {
    one_impl_each(
        "crates/nameind/src",
        &["NameIndependentScheme", "Certifiable", "Maintainable", "FallbackHierarchy"],
        "write the scheme once, generic over its labeled layer",
    );
}

#[test]
fn the_matchers_see_words_and_impls() {
    assert!(impl_of("impl<P: LevelPolicy> Maintainable for Labeled<P> {", "Maintainable"));
    assert!(impl_of("    impl netsim::maintain::Maintainable for X {", "Maintainable"));
    assert!(impl_of("impl Maintainable for X {", "Maintainable"));
    assert!(!impl_of("impl NotMaintainable for X {", "Maintainable"));
    assert!(!impl_of("impl Maintainable for_each X", "Maintainable"));
    assert!(!impl_of("implement Maintainable for X", "Maintainable"));
    assert!(!impl_of("// impl Maintainable for X", "Maintainable"));
    assert!(has_word("use a::{OldView, B};", "OldView"));
    assert!(!has_word("OldViews", "OldView"));
    assert!(!has_word("AnOldView", "OldView"));
}

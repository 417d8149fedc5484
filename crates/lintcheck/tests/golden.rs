//! Golden `--json` snapshots per lint against the seeded fixture workspace
//! under `tests/fixtures/ws`.
//!
//! Each test sweeps the fixture tree with exactly one lint enabled and
//! compares the rendered JSON byte-for-byte against a committed snapshot.
//! After an intentional output change, regenerate with:
//!
//! ```text
//! LINTCHECK_UPDATE_GOLDEN=1 cargo test -p lintcheck --test golden
//! ```
//!
//! and review the diff like any other source change.

use lintcheck::baseline::Baseline;
use lintcheck::{jsonout, Config, LintId, MetricSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_config(lints: Vec<LintId>) -> Config {
    let mut metric_table = BTreeMap::new();
    for (name, kind) in [
        ("commgraph_fx_records_total", "counter"), // lint:allow(metric-registry) fixture table, not an emission site
        ("commgraph_fx_wait_seconds", "histogram"), // lint:allow(metric-registry) fixture table, not an emission site
        ("commgraph_fx_unused_total", "counter"), // lint:allow(metric-registry) fixture table, not an emission site
        ("commgraph_fx_badsuffix", "counter"), // lint:allow(metric-registry) malformed on purpose: bad suffix
    ] {
        metric_table.insert(
            name.to_string(),
            MetricSpec { name: name.into(), kind: kind.into(), labels: vec![] },
        );
    }
    Config {
        root: manifest_dir().join("tests/fixtures/ws"),
        lints,
        metric_table,
        metric_table_file: "crates/obs/src/names.rs".into(),
        nondet_prefixes: vec!["crates/algos/".into()],
        unsafe_allowed: Vec::new(),
        det_prefixes: vec!["crates/det/".into()],
    }
}

fn check_golden(lint: LintId, file: &str) {
    let cfg = fixture_config(vec![lint]);
    let report = lintcheck::run(&cfg, &Baseline::default()).expect("fixture sweep succeeds");
    let got = jsonout::report_json(&report);
    let path = manifest_dir().join("tests/fixtures/golden").join(file);
    if std::env::var_os("LINTCHECK_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, format!("{got}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        got,
        want.trim_end(),
        "golden mismatch for {lint}; if intentional, regenerate with \
         LINTCHECK_UPDATE_GOLDEN=1 cargo test -p lintcheck --test golden"
    );
}

#[test]
fn nondet_iter_golden() {
    check_golden(LintId::NondetIter, "nondet_iter.json");
}

#[test]
fn panic_path_golden() {
    check_golden(LintId::PanicPath, "panic_path.json");
}

#[test]
fn metric_registry_golden() {
    check_golden(LintId::MetricRegistry, "metric_registry.json");
}

#[test]
fn dependency_policy_golden() {
    check_golden(LintId::DependencyPolicy, "dependency_policy.json");
}

#[test]
fn clock_hygiene_golden() {
    check_golden(LintId::ClockHygiene, "clock_hygiene.json");
}

#[test]
fn panic_propagation_golden() {
    check_golden(LintId::PanicPropagation, "panic_propagation.json");
}

/// Every seeded violation class is detected in one full sweep: the lint
/// totals stay pinned so a regression in any single rule is caught even
/// before the per-lint goldens are consulted.
#[test]
fn full_sweep_detects_every_seeded_class() {
    let cfg = fixture_config(LintId::all().to_vec());
    let report = lintcheck::run(&cfg, &Baseline::default()).expect("fixture sweep succeeds");
    assert!(report.baselined.is_empty());
    let count = |lint: LintId| report.fresh.iter().filter(|f| f.lint == lint).count();
    // algos: for-in loop + .values() product; BTreeMap sink and marker exempt.
    assert_eq!(count(LintId::NondetIter), 2);
    // graph: unwrap, expect, panic!, unreachable!; chain: the leaf unwrap.
    // Marker + test mod exempt.
    assert_eq!(count(LintId::PanicPath), 5);
    // app/table: kind mismatch, typo, malformed entry, unreferenced entry.
    assert_eq!(count(LintId::MetricRegistry), 4);
    // evil: registry dep, escaping path, git dep, and two `unsafe` tokens.
    assert_eq!(count(LintId::DependencyPolicy), 5);
    // det: one direct read, one taint through the cross-crate helper;
    // the marker-suppressed read stays quiet.
    assert_eq!(count(LintId::ClockHygiene), 2);
    // chain: mid calls the panicking leaf, top calls mid.
    assert_eq!(count(LintId::PanicPropagation), 2);
    assert_eq!(count(LintId::LintMarker), 0, "fixture markers are well-formed");
    assert_eq!(report.files_scanned, 7);
}

/// The baseline closes the loop: rendering the fixture findings and feeding
/// them back as the baseline leaves nothing fresh.
#[test]
fn baseline_round_trip_suppresses_everything() {
    let cfg = fixture_config(LintId::all().to_vec());
    let report = lintcheck::run(&cfg, &Baseline::default()).expect("fixture sweep succeeds");
    let baseline = Baseline::parse(&Baseline::render(&report.fresh));
    let again = lintcheck::run(&cfg, &baseline).expect("fixture sweep succeeds");
    assert!(again.fresh.is_empty(), "{:?}", again.fresh);
    assert_eq!(again.baselined.len(), report.fresh.len());
}

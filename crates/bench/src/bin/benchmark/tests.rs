//! Smoke tests: every workload at `--smoke` size, both run kinds, plus the
//! contract between `spec.rs` and `BENCHMARK.json`.

use crate::run::{run, RunCfg};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::workloads::{build, Size};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

fn smoke(trace: bool) -> RunCfg {
    RunCfg { seed: 11, seconds: 0.02, trace, size: Size::Smoke }
}

/// Each expected `(name, unit)` appears exactly once, finite, and nothing
/// else appears; no operation failed.
fn assert_emits(trace: bool, expected: &[(&str, &str)]) {
    for &(workload, _) in WORKLOADS {
        let r = run(workload, smoke(trace)).expect("workload runs");
        assert_eq!(r.failed, 0, "{workload}: failed_share must be 0");
        assert!(r.attempted > 0 && r.correct(), "{workload}: incorrect result");
        assert_eq!(r.lines.len(), expected.len(), "{workload}: metric count");
        for &(name, unit) in expected {
            let hits: Vec<_> = r.lines.iter().filter(|l| l.name == name).collect();
            assert_eq!(hits.len(), 1, "{workload}: {name} emitted {} times", hits.len());
            assert_eq!(hits[0].unit, unit, "{workload}: unit of {name}");
            assert!(hits[0].value.is_finite(), "{workload}: {name} is not finite");
        }
        if trace {
            let json = r.chrome_trace.expect("traced runs keep their spans");
            let v: Value = serde_json::from_str(&json).expect("trace is valid JSON");
            assert!(v["traceEvents"].as_array().is_some_and(|e| !e.is_empty()));
        } else {
            // The contract asks for end-to-end metrics that are never 0.
            assert!(r.lines.iter().all(|l| l.value > 0.0), "{workload}: zero end-to-end metric");
        }
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_once_per_workload() {
    let expected: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_emits(false, &expected);
}

#[test]
fn every_per_layer_metric_is_emitted_once_per_workload() {
    let expected: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    assert_emits(true, &expected);
}

#[test]
fn generators_are_seed_deterministic() {
    for &(workload, _) in WORKLOADS {
        let digest = |seed| build(workload, seed, Size::Smoke).expect("known name").input_digest();
        assert_eq!(digest(11), digest(11), "{workload}: same seed, same inputs");
        assert_ne!(digest(11), digest(12), "{workload}: another seed, other inputs");
    }
    assert!(build("no_such_workload", 11, Size::Smoke).is_none());
}

/// The repo root (the nearest ancestor holding `BENCHMARK.json`; the bin
/// builds both as a `commgraph-bench` target and as its own package) and
/// the parsed file.
fn benchmark_json() -> (PathBuf, Value) {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("BENCHMARK.json").is_file() {
        assert!(dir.pop(), "BENCHMARK.json not found above the manifest directory");
    }
    let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).expect("readable");
    (dir, serde_json::from_str(&text).expect("BENCHMARK.json parses"))
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_matches_the_spec() {
    let (root, doc) = benchmark_json();
    let strs = |v: &Value, key: &str| v[key].as_str().map(str::to_string).unwrap_or_default();
    let rows = |key: &str| doc[key].as_array().cloned().unwrap_or_default();

    let workloads: Vec<_> =
        rows("workloads").iter().map(|w| (strs(w, "name"), strs(w, "why"))).collect();
    let spec: Vec<_> = WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
    assert_eq!(workloads, spec);

    let e2e: Vec<_> = rows("end_to_end")
        .iter()
        .map(|m| (strs(m, "name"), strs(m, "unit"), strs(m, "better"), m["bound"].as_f64()))
        .collect();
    let spec: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string(), Some(m.bound)))
        .collect();
    assert_eq!(e2e, spec);

    let layers: Vec<_> = rows("per_layer")
        .iter()
        .map(|m| (strs(m, "name"), strs(m, "unit"), strs(m, "better")))
        .collect();
    let spec: Vec<_> =
        PER_LAYER.iter().map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string())).collect();
    assert_eq!(layers, spec);

    assert_eq!(doc["run_seconds"].as_u64(), Some(RUN_SECONDS));
    let paths = rows("paths");
    assert_eq!(paths.len(), 1);
    let dir = root.join(paths[0].as_str().expect("paths holds strings"));
    assert!(dir.join("main.rs").is_file(), "paths must name the benchmark's directory");
    let command = rows("command");
    assert!(command
        .iter()
        .any(|a| a.as_str().is_some_and(|a| dir.join("Cargo.toml") == root.join(a))));
}

/// `key = value` lines of `[section]` in the manifest at `path`.
fn manifest_section(path: &Path, section: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).expect("manifest is readable");
    text.lines()
        .skip_while(|l| l.trim() != format!("[{section}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

/// The directory a `{ path = ".." }` dependency of a manifest in `dir` names.
fn dep_dir(dir: &Path, value: &str) -> PathBuf {
    let rel = value.split('"').nth(1).expect("a path dependency");
    dir.join(rel).canonicalize().expect("the dependency's directory exists")
}

/// The benchmark builds twice from one set of sources: as a bin target of
/// `commgraph-bench` (tests) and as the package the contract asks for
/// (measurements). Its own manifest must name only crates `commgraph-bench`
/// depends on, at the directories the workspace resolves them to, and build
/// with the workspace's release profile.
#[test]
fn own_manifest_mirrors_the_workspace() {
    let (root, doc) = benchmark_json();
    let dir = root.join(doc["paths"][0].as_str().expect("paths holds strings"));
    let own = manifest_section(&dir.join("Cargo.toml"), "dependencies");
    let bench = manifest_section(&root.join("crates/bench/Cargo.toml"), "dependencies");
    let workspace = manifest_section(&root.join("Cargo.toml"), "workspace.dependencies");
    assert!(!own.is_empty());
    for (name, value) in &own {
        assert!(bench.contains_key(name), "{name} is not a dependency of commgraph-bench");
        assert_eq!(dep_dir(&dir, value), dep_dir(&root, &workspace[name]), "{name}");
    }
    assert_eq!(
        manifest_section(&dir.join("Cargo.toml"), "profile.release"),
        manifest_section(&root.join("Cargo.toml"), "profile.release")
    );
}

#[test]
fn names_units_and_reasons_are_within_the_contract() {
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.0));
    for name in names {
        assert!(well_formed(name), "bad name {name}");
        assert!(seen.insert(name), "{name} is used twice");
    }
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END.iter().all(|m| ["higher", "lower"].contains(&m.better)));
    assert!(PER_LAYER.iter().all(|m| unit_ok(m.1) && ["higher", "lower"].contains(&m.2)));
    assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
}

#[test]
fn cli_accepts_the_driver_form_and_bare_trace() {
    let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let a = crate::parse(&argv("--workload role_churn --seed 7 --seconds 3 --trace 0"))
        .expect("parses");
    assert_eq!(
        (a.workload.as_deref(), a.cfg.seed, a.cfg.seconds, a.cfg.trace),
        (Some("role_churn"), 7, 3.0, false)
    );
    assert!(crate::parse(&argv("--workload x --trace 1")).expect("parses").cfg.trace);
    assert!(crate::parse(&argv("--all --trace")).expect("parses").cfg.trace);
    assert!(crate::parse(&argv("--all --workload x")).is_err());
    assert!(crate::parse(&argv("--frobnicate")).is_err());
}

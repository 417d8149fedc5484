//! `lintcheck` — the workspace's own static-analysis pass.
//!
//! Clippy checks Rust; this crate checks *this project's contracts*, the
//! invariants PRs 1–3 established but nothing enforced:
//!
//! * [`lints::nondet_iter`] (**L1** `nondet-iter`) — no `HashMap`/`HashSet`
//!   iteration in the determinism-contract crates (`algos`, `linalg`),
//!   where parallel kernels promise bit-for-bit serial-identical results.
//! * [`lints::panic_path`] (**L2** `panic-path`) — no
//!   `unwrap`/`expect`/`panic!`/`unreachable!` in non-test, non-bench
//!   library code; the always-on pipeline degrades, it does not abort.
//! * [`lints::metric_registry`] (**L3** `metric-registry`) — every
//!   `commgraph_*` metric literal matches the canonical table in
//!   `crates/obs/src/names.rs`, kinds agree, and every table entry is used.
//! * [`lints::dep_policy`] (**L4** `dependency-policy`) — manifests depend
//!   only on workspace crates or `shims/` path deps (hermetic offline
//!   build), and `unsafe` is forbidden outside an allow-list.
//!
//! L5 and L7 are *interprocedural*: the sweep indexes every library
//! function ([`symbols`]), resolves call sites into a workspace call graph
//! ([`callgraph`]), and propagates properties across it (L6 `lock-order`
//! is retired: `obs` never holds two locks at once, and its lock helper
//! asserts that at runtime in debug builds):
//!
//! * [`lints::clock_hygiene`] (**L5** `clock-hygiene`) — ambient clock and
//!   entropy reads (`Instant::now`, `SystemTime::now`, `thread_rng`,
//!   `RandomState`) must be unreachable from the deterministic-tick
//!   surfaces; taint flows backward through the graph.
//! * [`lints::panic_prop`] (**L7** `panic-propagation`) — a library
//!   function that can reach a panicking helper at any call depth is
//!   itself a finding, anchored at the propagating call site.
//!
//! Individual sites opt out with a justified marker on the same or the
//! preceding line:
//!
//! ```text
//! // lint:allow(panic-path) poisoned lock is unrecoverable by design
//! let guard = self.state.lock().expect("registry poisoned");
//! ```
//!
//! A reason is mandatory — reasonless or unknown-lint markers are
//! themselves findings. Pre-existing debt lives in a committed baseline
//! (see [`baseline`]) and is burned down incrementally; CI and the tier-1
//! test `tests/lintcheck_clean.rs` fail on any *fresh* finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod jsonout;
pub mod lexer;
pub mod lints;
pub mod source;
pub mod symbols;
pub mod walk;

use source::SourceFile;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::PathBuf;

/// The named lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// L1: hash-collection iteration in determinism-contract crates.
    NondetIter,
    /// L2: panic paths in library code.
    PanicPath,
    /// L3: metric names off the canonical table.
    MetricRegistry,
    /// L4: non-hermetic dependencies / forbidden `unsafe`.
    DependencyPolicy,
    /// L5: ambient clock/entropy reachable from deterministic surfaces.
    ClockHygiene,
    /// L7: panics reachable through the call graph.
    PanicPropagation,
    /// Malformed allow-markers (unknown lint name or missing reason).
    LintMarker,
}

impl LintId {
    /// The marker/CLI name of the lint.
    pub fn name(&self) -> &'static str {
        match self {
            LintId::NondetIter => "nondet-iter",
            LintId::PanicPath => "panic-path",
            LintId::MetricRegistry => "metric-registry",
            LintId::DependencyPolicy => "dependency-policy",
            LintId::ClockHygiene => "clock-hygiene",
            LintId::PanicPropagation => "panic-propagation",
            LintId::LintMarker => "lint-marker",
        }
    }

    /// All selectable lints, in L1..L7 order.
    pub fn all() -> [LintId; 6] {
        [
            LintId::NondetIter,
            LintId::PanicPath,
            LintId::MetricRegistry,
            LintId::DependencyPolicy,
            LintId::ClockHygiene,
            LintId::PanicPropagation,
        ]
    }

    /// Parse a CLI/marker name.
    pub fn from_name(name: &str) -> Option<LintId> {
        match name {
            "nondet-iter" => Some(LintId::NondetIter),
            "panic-path" => Some(LintId::PanicPath),
            "metric-registry" => Some(LintId::MetricRegistry),
            "dependency-policy" => Some(LintId::DependencyPolicy),
            "clock-hygiene" => Some(LintId::ClockHygiene),
            "panic-propagation" => Some(LintId::PanicPropagation),
            "lint-marker" => Some(LintId::LintMarker),
            _ => None,
        }
    }
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub lint: LintId,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable diagnosis with the remediation hint.
    pub message: String,
    /// Trimmed source line (the baseline key; empty for manifest/table
    /// findings).
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: [{}] {}", self.file, self.line, self.col, self.lint, self.message)
    }
}

/// One canonical metric family, decoupled from `obs` types so fixture
/// tests can supply their own tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Full metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Label keys.
    pub labels: Vec<String>,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root to sweep.
    pub root: PathBuf,
    /// Which lints to run.
    pub lints: Vec<LintId>,
    /// The canonical metric table, keyed by name.
    pub metric_table: BTreeMap<String, MetricSpec>,
    /// Workspace-relative path of the file defining the table (its own
    /// literals are definition sites, not references).
    pub metric_table_file: String,
    /// Workspace-relative prefixes of the determinism-contract crates.
    pub nondet_prefixes: Vec<String>,
    /// Files allowed to contain `unsafe`.
    pub unsafe_allowed: Vec<String>,
    /// Workspace-relative path prefixes of the deterministic-tick
    /// surfaces (L5): functions defined under these must not reach the
    /// ambient clock or process entropy.
    pub det_prefixes: Vec<String>,
}

impl Config {
    /// The default configuration for this workspace: all lints, the
    /// canonical table from `obs::names`, determinism contract
    /// on `algos` and `linalg`, empty `unsafe` allow-list.
    pub fn for_workspace(root: PathBuf) -> Config {
        let metric_table = obs::names::METRICS
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    MetricSpec {
                        name: d.name.to_string(),
                        kind: d.kind.name().to_string(),
                        labels: d.labels.iter().map(|l| l.to_string()).collect(),
                    },
                )
            })
            .collect();
        Config {
            root,
            lints: LintId::all().to_vec(),
            metric_table,
            metric_table_file: "crates/obs/src/names.rs".to_string(),
            nondet_prefixes: vec!["crates/algos/".to_string(), "crates/linalg/".to_string()],
            unsafe_allowed: Vec::new(),
            det_prefixes: vec![
                "crates/obs/src/tsdb.rs".to_string(),
                "crates/obs/src/alert.rs".to_string(),
                "crates/obs/src/query.rs".to_string(),
                "crates/cloudsim/src/net.rs".to_string(),
                "crates/analytics/".to_string(),
                "crates/algos/".to_string(),
                "crates/linalg/".to_string(),
            ],
        }
    }
}

/// The result of one sweep, after marker suppression (but before baseline
/// subtraction — see [`Report`]).
#[derive(Debug, Default)]
pub struct Sweep {
    /// Findings, sorted by (file, line, col, lint).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// Indexed library functions (0 when no interprocedural lint ran).
    pub callgraph_nodes: usize,
    /// Resolved call edges (0 when no interprocedural lint ran).
    pub callgraph_edges: usize,
}

/// A sweep partitioned against a baseline.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// Indexed library functions (0 when no interprocedural lint ran).
    pub callgraph_nodes: usize,
    /// Resolved call edges (0 when no interprocedural lint ran).
    pub callgraph_edges: usize,
    /// Findings matched by the baseline (tolerated debt).
    pub baselined: Vec<Finding>,
    /// Fresh findings — these fail CI.
    pub fresh: Vec<Finding>,
}

/// Run the configured lints over the workspace tree.
pub fn sweep(cfg: &Config) -> io::Result<Sweep> {
    let files = walk::walk(&cfg.root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut metric_scan = lints::metric_registry::MetricScan::default();
    let run = |l: LintId| cfg.lints.contains(&l);
    let interproc = run(LintId::ClockHygiene) || run(LintId::PanicPropagation);

    // Phase 1: read and parse every source file once. The interprocedural
    // lints need all files alive at the same time (the call graph crosses
    // them), so the sweep is no longer a streaming per-file loop.
    let mut texts: Vec<(String, String)> = Vec::with_capacity(files.sources.len());
    for rel_path in &files.sources {
        let text = fs::read_to_string(cfg.root.join(rel_path))?;
        texts.push((walk::rel_str(&cfg.root, rel_path), text));
    }
    let mut manifests: Vec<(String, String)> = Vec::with_capacity(files.manifests.len());
    for rel_path in &files.manifests {
        let text = fs::read_to_string(cfg.root.join(rel_path))?;
        manifests.push((walk::rel_str(&cfg.root, rel_path), text));
    }
    let parsed: Vec<SourceFile<'_>> =
        texts.iter().map(|(rel, text)| SourceFile::parse(rel.clone(), text)).collect();
    let files_scanned = parsed.len();

    // Phase 2: per-file lints, marker suppression, marker hygiene.
    for file in &parsed {
        let mut raw: Vec<Finding> = Vec::new();
        if run(LintId::NondetIter) && lints::nondet_iter::in_scope(file, &cfg.nondet_prefixes) {
            raw.extend(lints::nondet_iter::check(file));
        }
        if run(LintId::PanicPath) && lints::panic_path::in_scope(file) {
            raw.extend(lints::panic_path::check(file));
        }
        if run(LintId::DependencyPolicy) {
            raw.extend(lints::dep_policy::check_unsafe(file, &cfg.unsafe_allowed));
        }
        if run(LintId::MetricRegistry) && lints::metric_registry::in_scope(file) {
            lints::metric_registry::check_file(
                &mut metric_scan,
                file,
                &cfg.metric_table,
                &cfg.metric_table_file,
            );
        }
        findings.extend(raw.into_iter().filter(|f| !file.allowed(f.lint.name(), f.line)));
        findings.extend(marker_hygiene(file));
    }

    if run(LintId::MetricRegistry) {
        lints::metric_registry::finish(&mut metric_scan, &cfg.metric_table, &cfg.metric_table_file);
        // Metric findings are cross-file (unreferenced entries have no call
        // site to hang a marker on); the baseline is their escape hatch.
        findings.extend(metric_scan.findings);
    }

    if run(LintId::DependencyPolicy) {
        for (rel, text) in &manifests {
            findings.extend(lints::dep_policy::check_manifest(rel, text));
        }
    }

    // Phase 3: symbol index, call graph, interprocedural lints.
    let mut callgraph_nodes = 0usize;
    let mut callgraph_edges = 0usize;
    if interproc {
        let crates = symbols::crate_names(&manifests);
        let in_scope: Vec<bool> = parsed.iter().map(|f| f.kind == source::FileKind::Lib).collect();
        let index = symbols::index(&parsed, &in_scope, &crates);
        let graph = callgraph::build(&index);
        callgraph_nodes = graph.nodes();
        callgraph_edges = graph.edges;

        let mut raw: Vec<Finding> = Vec::new();
        if run(LintId::ClockHygiene) {
            raw.extend(lints::clock_hygiene::check(&index, &graph, &parsed, &cfg.det_prefixes));
        }
        if run(LintId::PanicPropagation) {
            raw.extend(lints::panic_prop::check(&index, &graph, &parsed));
        }
        let by_rel: BTreeMap<&str, &SourceFile<'_>> =
            parsed.iter().map(|f| (f.rel.as_str(), f)).collect();
        findings.extend(raw.into_iter().filter(|f| {
            by_rel.get(f.file.as_str()).is_none_or(|sf| !sf.allowed(f.lint.name(), f.line))
        }));
    }

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint)));
    Ok(Sweep { findings, files_scanned, callgraph_nodes, callgraph_edges })
}

/// Validate the markers themselves: unknown lint names and missing reasons
/// are findings (a silent typo in a marker would silently re-enable the
/// site it meant to justify — or silently suppress nothing).
fn marker_hygiene(file: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for m in &file.markers {
        if LintId::from_name(&m.lint).is_none() {
            out.push(Finding {
                lint: LintId::LintMarker,
                file: file.rel.clone(),
                line: m.line,
                col: 1,
                message: format!("allow-marker names unknown lint `{}`", m.lint),
                excerpt: file.line_text(m.line).to_string(),
            });
        } else if m.reason.is_empty() {
            out.push(Finding {
                lint: LintId::LintMarker,
                file: file.rel.clone(),
                line: m.line,
                col: 1,
                message: format!(
                    "allow-marker for `{}` has no reason; justify the exemption",
                    m.lint
                ),
                excerpt: file.line_text(m.line).to_string(),
            });
        }
    }
    out
}

/// Sweep, then partition against the baseline (pass an empty baseline for
/// strict mode).
pub fn run(cfg: &Config, baseline: &baseline::Baseline) -> io::Result<Report> {
    let s = sweep(cfg)?;
    let (baselined, fresh) = baseline.partition(s.findings);
    Ok(Report {
        files_scanned: s.files_scanned,
        callgraph_nodes: s.callgraph_nodes,
        callgraph_edges: s.callgraph_edges,
        baselined,
        fresh,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_round_trip() {
        for id in LintId::all() {
            assert_eq!(LintId::from_name(id.name()), Some(id));
        }
        assert_eq!(LintId::from_name("lint-marker"), Some(LintId::LintMarker));
        assert_eq!(LintId::from_name("nope"), None);
    }

    #[test]
    fn workspace_config_mirrors_the_obs_table() {
        let cfg = Config::for_workspace(PathBuf::from("."));
        assert_eq!(cfg.metric_table.len(), obs::names::METRICS.len());
        let stage = &cfg.metric_table["commgraph_stage_seconds"];
        assert_eq!(stage.kind, "histogram");
        assert_eq!(stage.labels, vec!["stage".to_string()]);
        assert!(cfg.nondet_prefixes.iter().any(|p| p.contains("algos")));
    }

    #[test]
    fn finding_display_is_clickable() {
        let f = Finding {
            lint: LintId::PanicPath,
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            message: "boom".into(),
            excerpt: String::new(),
        };
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:3:9: [panic-path] boom");
    }
}

//! Tier-1 gate: every manifest in the workspace keeps the dependency policy
//! (see `crates/lintcheck`): each dependency is a workspace crate or a path
//! under `crates/` or `shims/`. `tests/hermetic.rs` checks the lock file;
//! this checks the paths the lock file does not record.

use std::path::Path;

#[test]
fn workspace_has_no_fresh_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sweep = lintcheck::sweep(root).expect("workspace tree is readable");
    assert!(
        sweep.manifests > 10,
        "sweep read suspiciously few manifests ({}); wrong root?",
        sweep.manifests
    );
    let rendered: Vec<String> = sweep.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        sweep.findings.is_empty(),
        "{} dependency-policy finding(s):\n{}",
        sweep.findings.len(),
        rendered.join("\n")
    );
}

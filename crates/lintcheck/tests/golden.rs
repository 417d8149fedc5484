//! Golden sweep of the seeded fixture workspace under `tests/fixtures/ws`:
//! the rendered findings must match `tests/fixtures/golden/` byte for byte.
//! After an intentional output change, edit the snapshot by hand and review
//! the diff like any other source change.

use std::path::PathBuf;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

#[test]
fn dependency_policy_golden() {
    let sweep = lintcheck::sweep(&fixtures().join("ws")).expect("fixture sweep succeeds");
    assert_eq!(sweep.manifests, 2);
    let got: String = sweep.findings.iter().map(|f| format!("{f}\n")).collect();
    let path = fixtures().join("golden/dependency_policy.txt");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(got, want, "dependency-policy golden drifted");
}

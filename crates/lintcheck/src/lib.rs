//! `lintcheck` — the one project contract that neither rustc nor clippy
//! checks: the manifest dependency policy ([`lints::dep_policy`]).
//!
//! Every dependency in every `Cargo.toml` is another workspace crate or a
//! path dependency under `crates/` or `shims/`, so the workspace builds
//! offline from this repository alone. `tests/hermetic.rs` reads the
//! committed `Cargo.lock`, which names the source of every registry or git
//! package; but cargo writes no source for a path dependency, so a `path`
//! that leaves the repository passes it. This sweep refuses that path.
//! The other contracts are compiler lints (DESIGN §7).
//!
//! The root test `tests/lintcheck_clean.rs` sweeps this workspace with
//! [`sweep`] and fails on any finding.

#![warn(missing_docs)]

pub mod lints;
pub mod walk;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One dependency-policy finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative `/`-separated path of the manifest.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable diagnosis with the remediation hint.
    pub message: String,
    /// The trimmed manifest line.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [dependency-policy] {}", self.file, self.line, self.message)
    }
}

/// The result of one sweep.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Number of `Cargo.toml` files read.
    pub manifests: usize,
    /// Findings, sorted by (file, line).
    pub findings: Vec<Finding>,
}

/// Check every manifest under `root` (see [`walk::walk`] for what is
/// skipped).
pub fn sweep(root: &Path) -> io::Result<Sweep> {
    let manifests = walk::walk(root)?;
    let mut findings = Vec::new();
    for path in &manifests {
        let text = fs::read_to_string(root.join(path))?;
        findings.extend(lints::dep_policy::check_manifest(&walk::rel_str(root, path), &text));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Sweep { manifests: manifests.len(), findings })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_is_clickable() {
        let f = Finding {
            file: "crates/x/Cargo.toml".into(),
            line: 3,
            message: "boom".into(),
            excerpt: String::new(),
        };
        assert_eq!(f.to_string(), "crates/x/Cargo.toml:3: [dependency-policy] boom");
    }
}

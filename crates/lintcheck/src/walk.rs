//! Deterministic workspace tree walk.
//!
//! Collects `Cargo.toml` manifests under the root, skipping build output
//! (`target/`), VCS metadata, hidden directories, and lint fixture trees
//! (any `fixtures` directory under a `tests` directory — those contain
//! deliberately seeded violations). Results are sorted so every sweep and
//! golden output is reproducible.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Walk `root` and return every `Cargo.toml`, relative to `root`, sorted.
pub fn walk(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut manifests = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || is_fixture_dir(root, &path) {
                    continue;
                }
                stack.push(path);
            } else if name == "Cargo.toml" {
                manifests.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
    }
    manifests.sort();
    Ok(manifests)
}

/// A `fixtures` directory directly under a `tests` directory.
fn is_fixture_dir(root: &Path, path: &Path) -> bool {
    let rel = rel_str(root, path);
    rel.ends_with("tests/fixtures") || rel.contains("/tests/fixtures/")
}

/// `path` relative to `root` as a `/`-separated string.
pub fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_target_hidden_and_fixtures() {
        let base = std::env::temp_dir().join(format!("lintcheck-walk-{}", std::process::id()));
        let mk = |p: &str| {
            let full = base.join(p);
            if let Some(parent) = full.parent() {
                fs::create_dir_all(parent).expect("mkdir");
            }
            fs::write(&full, "[package]\n").expect("write");
        };
        mk("Cargo.toml");
        mk("crates/a/Cargo.toml");
        mk("crates/a/src/lib.rs");
        mk("crates/a/tests/fixtures/ws/Cargo.toml");
        mk("target/package/b/Cargo.toml");
        mk(".git/c/Cargo.toml");
        let manifests: Vec<String> =
            walk(&base).expect("walk").iter().map(|p| rel_str(&base, p)).collect();
        assert_eq!(manifests, vec!["Cargo.toml", "crates/a/Cargo.toml"]);
        fs::remove_dir_all(&base).ok();
    }
}

//! L4 `dependency-policy`, the manifest half: hermetic builds.
//!
//! The workspace builds offline: every dependency must be another workspace
//! crate (`workspace = true`) or a path dependency resolving under
//! `crates/` or `shims/`. Registry (`version = "..."`) and `git`
//! dependencies are findings — they would break the hermetic build the
//! moment someone runs `cargo build` without a network — and so is a path
//! that leaves the repository. (The `unsafe` half is the workspace's
//! `unsafe_code = "forbid"`.)

use crate::Finding;

/// Scan one `Cargo.toml` (`rel` is workspace-relative, `text` its
/// contents). Line-based: tracks `[section]` headers and judges each
/// `name = value` dependency line.
pub fn check_manifest(rel: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    let mut header_dep: Option<String> = None; // `[dependencies.foo]` form
    let mut header_ok = false;
    let mut header_line = 0u32;

    let flush_header = |out: &mut Vec<Finding>, name: &Option<String>, ok: bool, line: u32| {
        if let Some(name) = name {
            if !ok {
                out.push(manifest_finding(rel, text, line, name, "no workspace/path source"));
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            flush_header(&mut out, &header_dep, header_ok, header_line);
            header_dep = None;
            let section = line.trim_matches(|c| c == '[' || c == ']');
            let is_dep_table = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies"
                || section == "workspace.dependencies"
                || (section.starts_with("target.") && section.ends_with("dependencies"));
            in_dep_section = is_dep_table;
            // `[dependencies.foo]` / `[workspace.dependencies.foo]` form.
            for table in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                if let Some(name) = section
                    .strip_prefix("workspace.")
                    .unwrap_or(section)
                    .strip_prefix(table)
                    .filter(|n| !n.contains('.'))
                {
                    header_dep = Some(name.to_string());
                    header_ok = false;
                    header_line = line_no;
                    in_dep_section = false;
                }
            }
            continue;
        }
        if let Some(name) = header_dep.clone() {
            if line.starts_with("workspace") && line.contains("true") {
                header_ok = true;
            }
            if line.starts_with("path") {
                header_ok = path_value_ok(rel, line);
                if !header_ok {
                    out.push(manifest_finding(
                        rel,
                        text,
                        line_no,
                        &name,
                        "path escapes the workspace",
                    ));
                    header_dep = None;
                }
            }
            if line.starts_with("version") || line.starts_with("git") {
                out.push(manifest_finding(rel, text, line_no, &name, "registry/git source"));
                header_dep = None;
            }
            continue;
        }
        if !in_dep_section || line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if value.contains("workspace = true") || value.contains("workspace=true") {
            continue;
        }
        if value.contains("path") {
            if let Some(path_lit) = extract_path(value) {
                if path_ok(rel, &path_lit) {
                    continue;
                }
                out.push(manifest_finding(rel, text, line_no, name, "path escapes the workspace"));
                continue;
            }
        }
        out.push(manifest_finding(rel, text, line_no, name, "no workspace/path source"));
    }
    flush_header(&mut out, &header_dep, header_ok, header_line);
    out
}

fn manifest_finding(rel: &str, text: &str, line: u32, dep: &str, why: &str) -> Finding {
    let excerpt =
        text.lines().nth(line.saturating_sub(1) as usize).unwrap_or("").trim().to_string();
    Finding {
        file: rel.to_string(),
        line,
        message: format!(
            "dependency `{dep}` is not a workspace or shims/ path dependency ({why}); \
             the build must stay hermetic"
        ),
        excerpt,
    }
}

/// `path = "…"` inside an inline table: extract the quoted value.
fn extract_path(value: &str) -> Option<String> {
    let after = value.split("path").nth(1)?;
    let after = after.trim_start().strip_prefix('=')?.trim_start();
    let after = after.strip_prefix('"')?;
    Some(after.split('"').next().unwrap_or("").to_string())
}

/// A `path` dependency is fine when, resolved against the manifest's
/// directory, it stays inside the workspace `crates/` or `shims/` trees.
fn path_ok(manifest_rel: &str, dep_path: &str) -> bool {
    let mut parts: Vec<&str> = manifest_rel.split('/').collect();
    parts.pop(); // drop Cargo.toml
    for seg in dep_path.split('/') {
        match seg {
            "." | "" => {}
            ".." => {
                if parts.pop().is_none() {
                    return false; // escapes the workspace root
                }
            }
            s => parts.push(s),
        }
    }
    matches!(parts.first(), Some(&"crates") | Some(&"shims"))
}

/// `path = "…"` line in a `[dependencies.foo]` table body.
fn path_value_ok(manifest_rel: &str, line: &str) -> bool {
    extract_path(line).is_some_and(|p| path_ok(manifest_rel, &p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_and_path_deps_pass() {
        let toml = "\
[package]\nname = \"x\"\n\n[dependencies]\n\
serde = { workspace = true, features = [\"derive\"] }\n\
commgraph-obs = { workspace = true }\n\
sibling = { path = \"../sibling\" }\n\n[dev-dependencies]\n\
proptest = { workspace = true }\n";
        assert!(check_manifest("crates/x/Cargo.toml", toml).is_empty());
    }

    #[test]
    fn registry_and_git_deps_fail() {
        let toml = "[dependencies]\nserde = \"1.0\"\n\
                    rayon = { version = \"1.8\" }\n\
                    left-pad = { git = \"https://example.com/x\" }\n";
        let hits = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(hits.len(), 3);
        assert!(hits[0].message.contains("`serde`"));
    }

    #[test]
    fn escaping_paths_fail_but_shims_pass() {
        let toml = "[dependencies]\n\
                    evil = { path = \"../../../outside\" }\n\
                    shim = { path = \"../../shims/serde\" }\n";
        let hits = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`evil`"));
    }

    #[test]
    fn header_form_tables_are_judged() {
        let toml = "[dependencies.good]\nworkspace = true\n\n\
                    [dependencies.bad]\nversion = \"0.3\"\n\n\
                    [dependencies.trailing]\nfeatures = [\"x\"]\n";
        let hits = check_manifest("crates/x/Cargo.toml", toml);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].message.contains("`bad`"));
        assert!(hits[1].message.contains("`trailing`"));
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let toml = "[package]\nversion = \"1.0\"\n\n[features]\ndefault = []\n\
                    [profile.release]\ndebug = true\n";
        assert!(check_manifest("crates/x/Cargo.toml", toml).is_empty());
    }
}

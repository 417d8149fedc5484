//! Per-file source model: path classification, allow-marker parsing, and
//! `#[cfg(test)]` / `#[test]` region detection over the token stream.

use crate::lexer::{lex, Lexed, Tok};

/// What a `.rs` file is, judged from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under some crate's `src/` (or the workspace `src/`).
    Lib,
    /// A binary under `src/bin/` or `src/main.rs`.
    Bin,
    /// Integration tests under a `tests/` directory.
    Test,
    /// Benchmarks under a `benches/` directory.
    Bench,
    /// Examples under an `examples/` directory.
    Example,
    /// A vendored dependency stand-in under `shims/`.
    Shim,
}

/// Classify `rel` (a `/`-separated workspace-relative path).
pub fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.first() == Some(&"shims") {
        return FileKind::Shim;
    }
    if parts.contains(&"tests") {
        return FileKind::Test;
    }
    if parts.contains(&"benches") {
        return FileKind::Bench;
    }
    if parts.contains(&"examples") {
        return FileKind::Example;
    }
    if parts.contains(&"bin")
        || parts.last() == Some(&"main.rs")
        || parts.last() == Some(&"build.rs")
    {
        return FileKind::Bin;
    }
    FileKind::Lib
}

/// One `// lint:allow(<lint>) <reason>` marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// The lint name inside the parentheses.
    pub lint: String,
    /// The free-text justification after the closing paren.
    pub reason: String,
    /// 1-based line the marker comment starts on.
    pub line: u32,
}

/// Parse every allow-marker out of the lexed comments. Markers suppress
/// findings of the named lint on their own line and on the following line.
pub fn allow_markers(lexed: &Lexed<'_>) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let body = c
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_end_matches('/')
            .trim_end_matches('*')
            .trim();
        let Some(rest) = body.strip_prefix("lint:allow(") else { continue };
        let (lint, reason) = match rest.split_once(')') {
            Some((l, r)) => (l.trim().to_string(), r.trim().to_string()),
            None => (rest.trim().to_string(), String::new()),
        };
        out.push(AllowMarker { lint, reason, line: c.line });
    }
    out
}

/// A parsed source file ready for linting.
pub struct SourceFile<'a> {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Path-based classification.
    pub kind: FileKind,
    /// Raw source (for excerpts).
    pub text: &'a str,
    /// Token stream and comments.
    pub lexed: Lexed<'a>,
    /// Allow-markers found in the comments.
    pub markers: Vec<AllowMarker>,
    /// Token-index ranges `[start, end)` covered by `#[test]` /
    /// `#[cfg(test)]` items, ascending and non-overlapping at top level.
    pub test_regions: Vec<(usize, usize)>,
}

impl<'a> SourceFile<'a> {
    /// Lex and analyze one file.
    pub fn parse(rel: String, text: &'a str) -> SourceFile<'a> {
        let lexed = lex(text);
        let markers = allow_markers(&lexed);
        let test_regions = test_regions(&lexed.toks);
        SourceFile { kind: classify(&rel), rel, text, lexed, markers, test_regions }
    }

    /// True when token index `i` falls inside a test-gated item.
    pub fn in_test_region(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| s <= i && i < e)
    }

    /// True when a marker for `lint` covers `line` (marker on the same line
    /// or on the line immediately above).
    pub fn allowed(&self, lint: &str, line: u32) -> bool {
        self.markers.iter().any(|m| {
            m.lint == lint && (m.line == line || m.line + 1 == line) && !m.reason.is_empty()
        })
    }

    /// The trimmed source text of 1-based `line` (for excerpts/baselines).
    pub fn line_text(&self, line: u32) -> &'a str {
        self.text.lines().nth(line.saturating_sub(1) as usize).unwrap_or("").trim()
    }
}

/// Find token ranges belonging to `#[test]`-like items: an attribute that is
/// `#[test]`, `#[bench]`, or `#[cfg(test, ...)]`, extended through the end
/// of the item it decorates (its first balanced `{...}` block, or a
/// terminating `;` for brace-less items).
fn test_regions(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_end = match matching(toks, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            if is_test_attr(&toks[i + 2..attr_end]) {
                let mut j = attr_end + 1;
                let mut end = toks.len();
                while j < toks.len() {
                    if toks[j].is_punct(';') {
                        end = j + 1;
                        break;
                    }
                    if toks[j].is_punct('{') {
                        end = matching(toks, j, '{', '}').map_or(toks.len(), |e| e + 1);
                        break;
                    }
                    j += 1;
                }
                out.push((i, end));
                i = end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Token index of the delimiter matching `toks[open]` (which must be
/// `open_c`), or None when unbalanced.
fn matching(toks: &[Tok<'_>], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Attribute-content check: `test`, `bench`, or `cfg(test ...)`.
fn is_test_attr(content: &[Tok<'_>]) -> bool {
    match content.first() {
        Some(t) if t.is_ident("test") || t.is_ident("bench") => true,
        Some(t) if t.is_ident("cfg") => {
            content.get(1).is_some_and(|t| t.is_punct('('))
                && content.get(2).is_some_and(|t| t.is_ident("test"))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/graph/src/graph.rs"), FileKind::Lib);
        assert_eq!(classify("crates/graph/tests/properties.rs"), FileKind::Test);
        assert_eq!(classify("crates/bench/benches/bench_linalg.rs"), FileKind::Bench);
        assert_eq!(classify("crates/bench/src/bin/exp_pca.rs"), FileKind::Bin);
        assert_eq!(classify("examples/security_report.rs"), FileKind::Example);
        assert_eq!(classify("shims/serde/src/lib.rs"), FileKind::Shim);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
        assert_eq!(classify("tests/end_to_end.rs"), FileKind::Test);
    }

    #[test]
    fn marker_parsing_extracts_lint_and_reason() {
        let src = "\
// lint:allow(nondet-iter) summed into a float, order-insensitive\n\
let x = 1; // lint:allow(panic-path) poisoned lock is unrecoverable\n\
/* lint:allow(dependency-policy) vendored */\n\
// lint:allow(nondet-iter)\n";
        let lexed = lex(src);
        let m = allow_markers(&lexed);
        assert_eq!(m.len(), 4);
        assert_eq!(m[0].lint, "nondet-iter");
        assert_eq!(m[0].reason, "summed into a float, order-insensitive");
        assert_eq!(m[0].line, 1);
        assert_eq!(m[1].line, 2);
        assert_eq!(m[2].lint, "dependency-policy");
        assert_eq!(m[3].reason, "", "missing reason surfaces as empty");
    }

    #[test]
    fn test_regions_cover_cfg_test_mod_and_test_fns() {
        let src = "\
fn lib_code() { x.unwrap(); }\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { y.unwrap(); }\n\
}\n\
fn more_lib() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let unwraps: Vec<(usize, bool)> = f
            .lexed
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| (i, f.in_test_region(i)))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].1, "library unwrap not exempt");
        assert!(unwraps[1].1, "test-mod unwrap exempt");
        let more = f.lexed.toks.iter().position(|t| t.is_ident("more_lib")).unwrap();
        assert!(!f.in_test_region(more));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn guard() { x.unwrap(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let i = f.lexed.toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!f.in_test_region(i));
    }

    #[test]
    fn braceless_attr_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() { m.iter(); }\n";
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        let i = f.lexed.toks.iter().position(|t| t.is_ident("iter")).unwrap();
        assert!(!f.in_test_region(i), "region must stop at the use-item semicolon");
    }

    #[test]
    fn allowed_requires_reason_and_adjacency() {
        let src = "// lint:allow(panic-path) lock poisoning is fatal by design\nx.unwrap();\n\n\
                   // lint:allow(panic-path)\ny.unwrap();\n";
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), src);
        assert!(f.allowed("panic-path", 2));
        assert!(!f.allowed("panic-path", 3), "only same + next line");
        assert!(!f.allowed("panic-path", 5), "reasonless markers do not suppress");
        assert!(!f.allowed("nondet-iter", 2), "lint name must match");
    }
}

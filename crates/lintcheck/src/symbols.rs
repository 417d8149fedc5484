//! Workspace symbol index: every function and method in library code,
//! with its module path, owning `impl`/`trait` type, body token range, and
//! per-file `use`-import table.
//!
//! The index is the substrate for the interprocedural lints (L5, L7): the
//! call-graph builder ([`crate::callgraph`]) resolves call sites against
//! it. Extraction walks the flat token stream with an explicit scope stack
//! (`mod` blocks, `impl`/`trait` blocks, `fn` bodies) — no syntax tree —
//! and every container is a `BTreeMap` so index order, and therefore every
//! downstream finding list, is deterministic.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One indexed function or method.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Fully qualified name: `crate::module::fn` or
    /// `crate::module::Type::method`.
    pub qname: String,
    /// Lib crate name (`obs`, `algos`, `commgraph_graph`, ...).
    pub crate_name: String,
    /// Module path within the crate (empty segments joined with `::`),
    /// including the crate name head.
    pub module: String,
    /// Bare function name (last path segment).
    pub name: String,
    /// `impl`/`trait` type the function is defined on, if any.
    pub owner: Option<String>,
    /// Index into the parsed-file list this symbol came from.
    pub file_idx: usize,
    /// Workspace-relative path (denormalized for findings).
    pub file: String,
    /// 1-based line/col of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Token range `[start, end)` of the body block, braces included.
    pub body: (usize, usize),
    /// True when the definition sits inside a `#[cfg(test)]`/`#[test]`
    /// region — excluded from contract propagation.
    pub is_test: bool,
}

/// One call site extracted from a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallSite {
    /// `name(...)` — unqualified call.
    Free {
        /// Callee name.
        name: String,
        /// 1-based line of the call.
        line: u32,
    },
    /// `seg::seg::name(...)` — path-qualified call; `path` holds every
    /// segment before the final name.
    Path {
        /// Leading path segments.
        path: Vec<String>,
        /// Callee name.
        name: String,
        /// 1-based line of the call.
        line: u32,
    },
    /// `self.name(...)` / `Self::name(...)` — resolved against the
    /// enclosing `impl` type.
    SelfMethod {
        /// Method name.
        name: String,
        /// 1-based line of the call.
        line: u32,
    },
    /// `expr.name(...)` — receiver type unknown; resolved only when the
    /// method name is unambiguous workspace-wide.
    Method {
        /// Method name.
        name: String,
        /// 1-based line of the call.
        line: u32,
    },
}

impl CallSite {
    /// The callee's bare name.
    pub fn name(&self) -> &str {
        match self {
            CallSite::Free { name, .. }
            | CallSite::Path { name, .. }
            | CallSite::SelfMethod { name, .. }
            | CallSite::Method { name, .. } => name,
        }
    }

    /// 1-based source line of the call.
    pub fn line(&self) -> u32 {
        match self {
            CallSite::Free { line, .. }
            | CallSite::Path { line, .. }
            | CallSite::SelfMethod { line, .. }
            | CallSite::Method { line, .. } => *line,
        }
    }
}

/// The whole-workspace index.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    /// Symbols in deterministic (qname-sorted) order.
    pub fns: Vec<FnSym>,
    /// qname → index into `fns`.
    pub by_qname: BTreeMap<String, usize>,
    /// `module` → bare name → index (free functions only).
    pub by_module: BTreeMap<String, BTreeMap<String, usize>>,
    /// `(owner type, method name)` → indices (an owner name may be reused
    /// across crates).
    pub by_owner_method: BTreeMap<(String, String), Vec<usize>>,
    /// method name → indices of every method with that bare name.
    pub by_method_name: BTreeMap<String, Vec<usize>>,
    /// file index → import table: bare name → full `::`-joined path.
    pub imports: Vec<BTreeMap<String, String>>,
    /// Call sites per symbol (parallel to `fns`).
    pub calls: Vec<Vec<CallSite>>,
}

/// Derive the lib crate name for each source file from the manifest set:
/// `(manifest rel dir → crate name)`. The name comes from the `[lib]`
/// section's `name` when present, else the `[package]` name with `-`
/// mapped to `_`.
pub fn crate_names(manifests: &[(String, String)]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (rel, text) in manifests {
        let dir = rel.strip_suffix("Cargo.toml").unwrap_or(rel).trim_end_matches('/').to_string();
        if let Some(name) = manifest_lib_name(text) {
            out.insert(dir, name);
        }
    }
    out
}

/// Pull the lib name out of one manifest: prefer `[lib] name = "..."`,
/// fall back to `[package] name = "..."` (dashes normalized).
fn manifest_lib_name(text: &str) -> Option<String> {
    let mut section = "";
    let mut package: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']');
            continue;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                let name = v.trim().trim_matches('"').replace('-', "_");
                match section {
                    "lib" => return Some(name),
                    "package" if package.is_none() => package = Some(name),
                    _ => {}
                }
            }
        }
    }
    package
}

/// The crate name and module path for one source file, from its path:
/// `crates/obs/src/tsdb.rs` → (`obs`, `obs::tsdb`), `src/lib.rs` → the
/// root package. `mod.rs` and `lib.rs` map to their directory module.
fn file_module(rel: &str, crates: &BTreeMap<String, String>) -> Option<(String, String)> {
    // Longest manifest-dir prefix wins (the workspace root is "" and
    // matches everything).
    let mut best: Option<(&str, &str)> = None;
    for (dir, name) in crates {
        let matches = dir.is_empty() || rel.starts_with(&format!("{dir}/"));
        if matches && best.is_none_or(|(d, _)| dir.len() >= d.len()) {
            best = Some((dir.as_str(), name.as_str()));
        }
    }
    let (dir, crate_name) = best?;
    let tail = if dir.is_empty() { rel } else { rel.strip_prefix(dir)?.trim_start_matches('/') };
    let tail = tail.strip_prefix("src/")?;
    let mut mods: Vec<&str> = Vec::new();
    for part in tail.split('/') {
        if let Some(stem) = part.strip_suffix(".rs") {
            if stem != "lib" && stem != "mod" && stem != "main" {
                mods.push(stem);
            }
        } else {
            mods.push(part);
        }
    }
    let mut module = crate_name.to_string();
    for m in &mods {
        module.push_str("::");
        module.push_str(m);
    }
    Some((crate_name.to_string(), module))
}

/// Build the index over the parsed library files. `files` must be the
/// full parse list; non-lib files should be filtered by the caller via
/// `in_scope`.
pub fn index(
    files: &[SourceFile<'_>],
    in_scope: &[bool],
    crates: &BTreeMap<String, String>,
) -> SymbolIndex {
    let mut raw: Vec<(FnSym, Vec<CallSite>)> = Vec::new();
    let mut imports: Vec<BTreeMap<String, String>> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !in_scope[file_idx] {
            imports.push(BTreeMap::new());
            continue;
        }
        let Some((crate_name, module)) = file_module(&file.rel, crates) else {
            imports.push(BTreeMap::new());
            continue;
        };
        let (syms, imp) = extract_file(file, file_idx, &crate_name, &module);
        raw.extend(syms);
        imports.push(imp);
    }
    raw.sort_by(|a, b| (&a.0.qname, a.0.line).cmp(&(&b.0.qname, b.0.line)));

    let mut idx = SymbolIndex { imports, ..SymbolIndex::default() };
    for (sym, calls) in raw {
        let i = idx.fns.len();
        idx.by_qname.entry(sym.qname.clone()).or_insert(i);
        if let Some(owner) = &sym.owner {
            idx.by_owner_method.entry((owner.clone(), sym.name.clone())).or_default().push(i);
            idx.by_method_name.entry(sym.name.clone()).or_default().push(i);
        } else {
            idx.by_module
                .entry(sym.module.clone())
                .or_default()
                .entry(sym.name.clone())
                .or_insert(i);
        }
        idx.fns.push(sym);
        idx.calls.push(calls);
    }
    idx
}

/// One scope on the extraction stack.
enum Scope {
    /// `mod name {` — closes at token index `.1`.
    Module(String, usize),
    /// `impl Type {` / `trait Type {`.
    Impl(String, usize),
    /// A function body (nested items inherit its path).
    Fn(usize),
}

impl Scope {
    fn end(&self) -> usize {
        match self {
            Scope::Module(_, e) | Scope::Impl(_, e) | Scope::Fn(e) => *e,
        }
    }
}

/// One file's functions (each with its call sites) and its `use` imports.
type FileSymbols = (Vec<(FnSym, Vec<CallSite>)>, BTreeMap<String, String>);

fn extract_file(
    file: &SourceFile<'_>,
    file_idx: usize,
    crate_name: &str,
    module: &str,
) -> FileSymbols {
    let toks = &file.lexed.toks;
    let mut out: Vec<(FnSym, Vec<CallSite>)> = Vec::new();
    let mut imports: BTreeMap<String, String> = BTreeMap::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while stack.last().is_some_and(|s| s.end() <= i) {
            stack.pop();
        }
        let t = &toks[i];
        if t.is_ident("use") {
            i = parse_use(toks, i, module, &mut imports);
            continue;
        }
        if t.is_ident("mod") {
            // `mod name {` opens a scope; `mod name;` is a file reference.
            if let (Some(name), Some(open)) = (toks.get(i + 1), toks.get(i + 2)) {
                if name.kind == TokKind::Ident && open.is_punct('{') {
                    let end = match_brace(toks, i + 2);
                    stack.push(Scope::Module(name.text.to_string(), end));
                    i += 3;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            if let Some((owner, body_open)) = impl_owner(toks, i) {
                let end = match_brace(toks, body_open);
                stack.push(Scope::Impl(owner, end));
                i = body_open + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            if let Some((name_tok, body)) = fn_header(toks, i) {
                let owner = stack.iter().rev().find_map(|s| match s {
                    Scope::Impl(o, _) => Some(o.clone()),
                    _ => None,
                });
                let mod_path = full_module(module, &stack);
                let qname = match &owner {
                    Some(o) => format!("{mod_path}::{o}::{}", name_tok.text),
                    None => format!("{mod_path}::{}", name_tok.text),
                };
                let calls = match body {
                    Some((s, e)) => extract_calls(toks, s, e),
                    None => Vec::new(),
                };
                let (bs, be) = body.unwrap_or((i, i + 1));
                out.push((
                    FnSym {
                        qname,
                        crate_name: crate_name.to_string(),
                        module: mod_path,
                        name: name_tok.text.to_string(),
                        owner,
                        file_idx,
                        file: file.rel.clone(),
                        line: t.line,
                        col: t.col,
                        body: (bs, be),
                        is_test: file.in_test_region(i),
                    },
                    calls,
                ));
                if let Some((s, e)) = body {
                    stack.push(Scope::Fn(e));
                    i = s + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    (out, imports)
}

/// The module path including enclosing `mod` blocks (fn scopes do not
/// extend the path; nested items inside bodies are rare and keeping them
/// on the file module keeps resolution simple).
fn full_module(base: &str, stack: &[Scope]) -> String {
    let mut path = base.to_string();
    for s in stack {
        if let Scope::Module(name, _) = s {
            path.push_str("::");
            path.push_str(name);
        }
    }
    path
}

/// Token index of the `}` matching the `{` at `open` (or the end of the
/// stream when unbalanced, so extraction degrades instead of panicking).
fn match_brace(toks: &[Tok<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

/// For an `impl`/`trait` keyword at `kw`: the owning type name and the
/// body-open brace index. Skips `<...>` generic params (tolerating `->`
/// inside), takes the last depth-0 path ident before the body — which
/// handles `impl Type`, `impl Trait for Type`, and `impl x::y::Type<T>`.
fn impl_owner(toks: &[Tok<'_>], kw: usize) -> Option<(String, usize)> {
    let mut depth = 0i32;
    let mut last_ident: Option<&str> = None;
    let mut j = kw + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` return arrows inside generic bounds do not close a
            // bracket.
            if !(j >= 1 && toks[j - 1].is_punct('-')) {
                depth -= 1;
            }
        } else if depth == 0 {
            if t.is_punct('{') {
                return last_ident.map(|n| (n.to_string(), j));
            }
            if t.is_punct(';') {
                return None; // `impl Trait for Type;` / opaque forms
            }
            if t.is_ident("for") {
                last_ident = None; // the type follows; restart
            } else if t.kind == TokKind::Ident && !t.is_ident("where") {
                last_ident = Some(t.text);
            }
        }
        j += 1;
        if j > kw + 120 {
            return None;
        }
    }
    None
}

/// For a `fn` keyword at `kw`: the name token and, when the item has a
/// body, its `{`/`}` token range. Trait-method declarations end at `;`.
fn fn_header<'a, 't>(
    toks: &'a [Tok<'t>],
    kw: usize,
) -> Option<(&'a Tok<'t>, Option<(usize, usize)>)> {
    let name = toks.get(kw + 1)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    // Scan past generics/params/return type/where clause to `{` or `;`.
    let mut j = kw + 2;
    let mut angle = 0i32;
    let mut paren = 0i32;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if !(j >= 1 && toks[j - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if angle <= 0 && paren == 0 {
            if t.is_punct('{') {
                return Some((name, Some((j, match_brace(toks, j)))));
            }
            if t.is_punct(';') {
                return Some((name, None));
            }
        }
        j += 1;
    }
    None
}

/// Parse one `use` item starting at the `use` keyword; extends `imports`
/// and returns the index just past the terminating `;`. Handles paths,
/// `as` renames, nested `{...}` groups, and records globs as
/// `<path>::*`-keyed entries (consulted as a resolution fallback).
fn parse_use(
    toks: &[Tok<'_>],
    kw: usize,
    module: &str,
    imports: &mut BTreeMap<String, String>,
) -> usize {
    // Collect tokens to the `;`.
    let mut end = kw + 1;
    while end < toks.len() && !toks[end].is_punct(';') {
        end += 1;
    }
    let path_toks = &toks[kw + 1..end.min(toks.len())];
    collect_use(path_toks, &[], module, imports);
    end + 1
}

fn collect_use(
    toks: &[Tok<'_>],
    prefix: &[String],
    module: &str,
    imports: &mut BTreeMap<String, String>,
) {
    let mut segs: Vec<String> = prefix.to_vec();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(':') {
            i += 1;
        } else if t.is_punct('{') {
            // Split the group on its top-level commas and recurse with the
            // accumulated prefix.
            let mut depth = 0i32;
            let mut start = i + 1;
            for (j, u) in toks.iter().enumerate().skip(i) {
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        if start < j {
                            collect_use(&toks[start..j], &segs, module, imports);
                        }
                        return;
                    }
                } else if u.is_punct(',') && depth == 1 {
                    if start < j {
                        collect_use(&toks[start..j], &segs, module, imports);
                    }
                    start = j + 1;
                }
            }
            return;
        } else if t.is_punct('*') {
            segs.push("*".to_string());
            i += 1;
        } else if t.is_ident("as") {
            record_use(&segs, toks.get(i + 1).map(|r| r.text), module, imports);
            return;
        } else if t.kind == TokKind::Ident {
            segs.push(t.text.to_string());
            i += 1;
        } else {
            i += 1;
        }
    }
    if segs.len() > prefix.len() {
        record_use(&segs, None, module, imports);
    }
}

/// Record one resolved `use` path under its binding name, normalizing
/// `crate`/`self`/`super` heads against the file module.
fn record_use(
    segs: &[String],
    rename: Option<&str>,
    module: &str,
    imports: &mut BTreeMap<String, String>,
) {
    if segs.is_empty() {
        return;
    }
    let mut mod_parts: Vec<&str> = module.split("::").collect();
    let mut rest: &[String] = segs;
    match segs[0].as_str() {
        "crate" => {
            mod_parts.truncate(1);
            rest = &segs[1..];
        }
        "self" => {
            rest = &segs[1..];
        }
        "super" => {
            let mut k = 0;
            while rest.first().is_some_and(|s| s == "super") {
                k += 1;
                rest = &rest[1..];
            }
            mod_parts.truncate(mod_parts.len().saturating_sub(k).max(1));
        }
        _ => mod_parts.clear(),
    }
    let mut full: Vec<String> = mod_parts.iter().map(|s| s.to_string()).collect();
    full.extend(rest.iter().cloned());
    if full.is_empty() {
        return;
    }
    let name = match rename {
        Some(r) => r.to_string(),
        None => full.last().cloned().unwrap_or_default(),
    };
    if name == "*" {
        // Glob: remember the module under a reserved key for fallback
        // resolution.
        let path = full[..full.len() - 1].join("::");
        let key = format!("*{}", imports.len());
        imports.insert(key, path);
    } else if !name.is_empty() {
        imports.insert(name, full.join("::"));
    }
}

/// Extract call sites from the body token range `[start, end)`.
fn extract_calls(toks: &[Tok<'_>], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let end = end.min(toks.len());
    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Skip definitions and macros (`fn name(` never matches here
        // because `name` is followed by `(` only after generics; macro
        // calls are `name!(` so the `(` is not adjacent).
        if i >= 1 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('!')) {
            continue;
        }
        let line = t.line;
        let name = t.text.to_string();
        if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            // Path call: walk the `seg ::` pairs back from the name.
            let mut path: Vec<String> = Vec::new();
            let mut j = i; // index of the token after the current `::`
            while j >= 3
                && toks[j - 1].is_punct(':')
                && toks[j - 2].is_punct(':')
                && toks[j - 3].kind == TokKind::Ident
            {
                path.push(toks[j - 3].text.to_string());
                j -= 3;
            }
            path.reverse();
            if path.last().is_some_and(|s| s == "Self") {
                out.push(CallSite::SelfMethod { name, line });
            } else if !path.is_empty() {
                out.push(CallSite::Path { path, name, line });
            } else {
                out.push(CallSite::Free { name, line });
            }
        } else if i >= 1 && toks[i - 1].is_punct('.') {
            if i >= 2 && toks[i - 2].is_ident("self") && !(i >= 3 && toks[i - 3].is_punct('.')) {
                out.push(CallSite::SelfMethod { name, line });
            } else {
                out.push(CallSite::Method { name, line });
            }
        } else {
            out.push(CallSite::Free { name, line });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_crates() -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("crates/obs".to_string(), "obs".to_string());
        m.insert("crates/graph".to_string(), "commgraph_graph".to_string());
        m.insert(String::new(), "commgraph_root".to_string());
        m
    }

    fn parse_one<'a>(rel: &str, text: &'a str) -> SourceFile<'a> {
        SourceFile::parse(rel.to_string(), text)
    }

    #[test]
    fn file_module_maps_paths() {
        let c = ws_crates();
        assert_eq!(
            file_module("crates/obs/src/tsdb.rs", &c),
            Some(("obs".into(), "obs::tsdb".into()))
        );
        assert_eq!(file_module("crates/obs/src/lib.rs", &c), Some(("obs".into(), "obs".into())));
        assert_eq!(
            file_module("src/lib.rs", &c),
            Some(("commgraph_root".into(), "commgraph_root".into()))
        );
        assert_eq!(file_module("crates/obs/tests/t.rs", &c), None, "non-src files have no module");
    }

    #[test]
    fn manifest_lib_name_prefers_lib_section() {
        assert_eq!(
            manifest_lib_name("[package]\nname = \"commgraph-obs\"\n[lib]\nname = \"obs\"\n"),
            Some("obs".into())
        );
        assert_eq!(
            manifest_lib_name("[package]\nname = \"commgraph-graph\"\n"),
            Some("commgraph_graph".into())
        );
        assert_eq!(manifest_lib_name("[workspace]\nmembers = []\n"), None);
    }

    #[test]
    fn indexes_free_fns_methods_and_nested_mods() {
        let src = "\
pub fn top() { helper(); }\n\
fn helper() {}\n\
pub struct Tsdb;\n\
impl Tsdb {\n\
    pub fn scrape(&self) { self.lock(); other::thing(); }\n\
    fn lock(&self) {}\n\
}\n\
mod inner {\n\
    pub fn nested() {}\n\
}\n";
        let f = parse_one("crates/obs/src/tsdb.rs", src);
        let idx = index(&[f], &[true], &ws_crates());
        let names: Vec<&str> = idx.fns.iter().map(|s| s.qname.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "obs::tsdb::Tsdb::lock",
                "obs::tsdb::Tsdb::scrape",
                "obs::tsdb::helper",
                "obs::tsdb::inner::nested",
                "obs::tsdb::top",
            ]
        );
        let scrape = &idx.calls[idx.by_qname["obs::tsdb::Tsdb::scrape"]];
        assert!(scrape
            .iter()
            .any(|c| matches!(c, CallSite::SelfMethod { name, .. } if name == "lock")));
        assert!(scrape.iter().any(
            |c| matches!(c, CallSite::Path { path, name, .. } if name == "thing" && path == &vec!["other".to_string()])
        ));
        let top = &idx.calls[idx.by_qname["obs::tsdb::top"]];
        assert!(top.iter().any(|c| matches!(c, CallSite::Free { name, .. } if name == "helper")));
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let src = "trait Render { fn render(&self); }\n\
                   struct Row;\n\
                   impl Render for Row { fn render(&self) { draw(); } }\n\
                   impl<'a, T: Clone> Holder<'a, T> { fn get(&self) -> T { self.v.clone() } }\n";
        let f = parse_one("crates/obs/src/x.rs", src);
        let idx = index(&[f], &[true], &ws_crates());
        assert!(idx.by_qname.contains_key("obs::x::Row::render"));
        assert!(idx.by_qname.contains_key("obs::x::Holder::get"));
        // The trait's own declaration (no body) is indexed under the trait.
        assert!(idx.by_qname.contains_key("obs::x::Render::render"));
    }

    #[test]
    fn use_imports_resolve_groups_renames_and_crate_prefix() {
        let src = "use std::collections::{BTreeMap, HashMap as Map};\n\
                   use crate::tsdb::Tsdb;\n\
                   use obs::alert::AlertManager;\n\
                   fn f() {}\n";
        let f = parse_one("crates/obs/src/serve.rs", src);
        let idx = index(&[f], &[true], &ws_crates());
        let imp = &idx.imports[0];
        assert_eq!(imp["BTreeMap"], "std::collections::BTreeMap");
        assert_eq!(imp["Map"], "std::collections::HashMap");
        assert_eq!(imp["Tsdb"], "obs::tsdb::Tsdb");
        assert_eq!(imp["AlertManager"], "obs::alert::AlertManager");
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n";
        let f = parse_one("crates/obs/src/x.rs", src);
        let idx = index(&[f], &[true], &ws_crates());
        assert!(!idx.fns[idx.by_qname["obs::x::lib"]].is_test);
        assert!(idx.fns[idx.by_qname["obs::x::tests::helper"]].is_test);
    }

    #[test]
    fn method_calls_on_exprs_are_name_only() {
        let src = "fn f(v: &Thing) { v.poke(); self.field.poke(); Self::assoc(); }\n";
        let f = parse_one("crates/obs/src/x.rs", src);
        let idx = index(&[f], &[true], &ws_crates());
        let calls = &idx.calls[0];
        assert_eq!(
            calls
                .iter()
                .filter(|c| matches!(c, CallSite::Method { name, .. } if name == "poke"))
                .count(),
            2,
            "self.field.poke() is a field method call, not a self method: {calls:?}"
        );
        assert!(calls
            .iter()
            .any(|c| matches!(c, CallSite::SelfMethod { name, .. } if name == "assoc")));
    }
}

//! Workspace call graph over the [`crate::symbols`] index.
//!
//! Edges are resolved conservatively from the four call-site shapes:
//!
//! * **Free calls** resolve through the file's `use`-import table, then the
//!   enclosing module, then glob imports.
//! * **Path calls** (`seg::seg::name(`) resolve their head segment the same
//!   way (tolerating `crate`/`self`/`super` heads), then match either a
//!   free function at the joined path or a `Type::method` pair.
//! * **`self`/`Self` method calls** resolve against the enclosing `impl`
//!   type — precise, and the dominant call shape in this codebase.
//! * **Expression method calls** (`x.name(`) carry no receiver type; they
//!   resolve only when exactly one workspace method bears that name, and
//!   the edge is marked [`EdgeKind::NameOnly`] so lints can weigh it.
//!
//! Unresolved calls (std, shims, closures) simply produce no edge: the
//! interprocedural lints treat the std library and vendored shims as
//! opaque, which is the same trust boundary the per-file lints draw.
//! All adjacency is index-sorted, so traversal order — and every finding
//! derived from it — is deterministic.

use crate::symbols::{CallSite, SymbolIndex};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// How an edge's callee was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Import/module/path/impl-resolved: the callee is certain.
    Resolved,
    /// Matched by bare method name (unique workspace-wide); treated as
    /// certain by the lints but distinguishable in output.
    NameOnly,
}

/// One call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Index of the callee in [`SymbolIndex::fns`].
    pub callee: usize,
    /// 1-based source line of the call site in the caller's file.
    pub line: u32,
    /// Resolution confidence.
    pub kind: EdgeKind,
}

/// The call graph: forward and reverse adjacency, parallel to
/// [`SymbolIndex::fns`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per function, sorted by (callee, line).
    pub out: Vec<Vec<Edge>>,
    /// Incoming caller indices per function, sorted and deduplicated.
    pub rev: Vec<Vec<usize>>,
    /// Total resolved edge count.
    pub edges: usize,
}

impl CallGraph {
    /// Number of nodes (indexed functions).
    pub fn nodes(&self) -> usize {
        self.out.len()
    }
}

/// Build the graph by resolving every recorded call site.
pub fn build(index: &SymbolIndex) -> CallGraph {
    let n = index.fns.len();
    let mut out: Vec<Vec<Edge>> = vec![Vec::new(); n];
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges = 0usize;
    for (caller, calls) in index.calls.iter().enumerate() {
        for call in calls {
            let Some((callee, kind)) = resolve(index, caller, call) else { continue };
            if callee == caller {
                continue; // self-recursion adds nothing to reachability
            }
            out[caller].push(Edge { callee, line: call.line(), kind });
            rev[callee].push(caller);
            edges += 1;
        }
    }
    for adj in &mut out {
        adj.sort_by_key(|e| (e.callee, e.line, e.kind));
    }
    for r in &mut rev {
        r.sort_unstable();
        r.dedup();
    }
    CallGraph { out, rev, edges }
}

/// Resolve one call site to a symbol index.
pub fn resolve(index: &SymbolIndex, caller: usize, call: &CallSite) -> Option<(usize, EdgeKind)> {
    let sym = &index.fns[caller];
    match call {
        CallSite::Free { name, .. } => {
            // Same module first, then imports, then glob imports.
            if let Some(&i) = index.by_module.get(&sym.module).and_then(|m| m.get(name)) {
                return Some((i, EdgeKind::Resolved));
            }
            let imp = index.imports.get(sym.file_idx)?;
            if let Some(path) = imp.get(name) {
                if let Some(&i) = index.by_qname.get(path) {
                    return Some((i, EdgeKind::Resolved));
                }
            }
            for (key, module) in imp.iter() {
                if key.starts_with('*') {
                    if let Some(&i) = index.by_module.get(module).and_then(|m| m.get(name)) {
                        return Some((i, EdgeKind::Resolved));
                    }
                }
            }
            None
        }
        CallSite::SelfMethod { name, .. } => {
            let owner = sym.owner.as_deref()?;
            best_method(index, owner, name, &sym.crate_name)
        }
        CallSite::Path { path, name, .. } => resolve_path(index, caller, path, name),
        CallSite::Method { name, .. } => {
            let cands = index.by_method_name.get(name)?;
            let non_test: Vec<usize> =
                cands.iter().copied().filter(|&i| !index.fns[i].is_test).collect();
            match non_test.as_slice() {
                [only] => Some((*only, EdgeKind::NameOnly)),
                _ => None,
            }
        }
    }
}

/// `Type::method` lookup preferring the caller's own crate when the owner
/// name is reused across crates.
fn best_method(
    index: &SymbolIndex,
    owner: &str,
    name: &str,
    crate_name: &str,
) -> Option<(usize, EdgeKind)> {
    let cands = index.by_owner_method.get(&(owner.to_string(), name.to_string()))?;
    let local = cands.iter().copied().find(|&i| index.fns[i].crate_name == crate_name);
    local.or(cands.first().copied()).map(|i| (i, EdgeKind::Resolved))
}

/// Resolve `path::name(`: normalize the head segment, then try a free
/// function at the full path, then a `Type::method` on the path tail.
fn resolve_path(
    index: &SymbolIndex,
    caller: usize,
    path: &[String],
    name: &str,
) -> Option<(usize, EdgeKind)> {
    let sym = &index.fns[caller];
    let imp = index.imports.get(sym.file_idx);
    let mut full: Vec<String> = Vec::new();
    let head = path.first()?;
    match head.as_str() {
        "crate" => {
            full.push(sym.crate_name.clone());
            full.extend(path[1..].iter().cloned());
        }
        "self" => {
            full.extend(sym.module.split("::").map(str::to_string));
            full.extend(path[1..].iter().cloned());
        }
        "super" => {
            let mut mods: Vec<&str> = sym.module.split("::").collect();
            let mut rest = path;
            while rest.first().is_some_and(|s| s == "super") {
                if mods.len() > 1 {
                    mods.pop();
                }
                rest = &rest[1..];
            }
            full.extend(mods.iter().map(|s| s.to_string()));
            full.extend(rest.iter().cloned());
        }
        _ => {
            // Imported head (`Tsdb::new` after `use crate::tsdb::Tsdb`,
            // `walk::find_root_above` after `use lintcheck::walk`), else
            // treat the head as a crate/module root.
            if let Some(mapped) = imp.and_then(|m| m.get(head)) {
                full.extend(mapped.split("::").map(str::to_string));
            } else {
                full.push(head.clone());
            }
            full.extend(path[1..].iter().cloned());
        }
    }
    // Free function at the joined path.
    let joined = format!("{}::{name}", full.join("::"));
    if let Some(&i) = index.by_qname.get(&joined) {
        return Some((i, EdgeKind::Resolved));
    }
    // `Type::method`: the path tail is the owner.
    if let Some(owner) = full.last() {
        if let Some(hit) = best_method(index, owner, name, &sym.crate_name) {
            return Some(hit);
        }
    }
    // Sibling module within the caller's crate (`tsdb::helper(...)`
    // without an explicit import, via a glob or local `mod`).
    let sibling = format!("{}::{}::{name}", sym.module, full.join("::"));
    if let Some(&i) = index.by_qname.get(&sibling) {
        return Some((i, EdgeKind::Resolved));
    }
    None
}

/// Breadth-first reachability *to* a source set over reversed edges:
/// returns, for every function index, the next hop toward a source
/// (`hops[i] = Some(j)` means `i` calls `j` and `j` reaches a source; a
/// source maps to itself). Deterministic: sources seed in index order and
/// adjacency is sorted.
pub fn reach_sources(graph: &CallGraph, sources: &[usize]) -> BTreeMap<usize, usize> {
    let mut next: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = Default::default();
    for &s in sources {
        if let Entry::Vacant(e) = next.entry(s) {
            e.insert(s);
            queue.push_back(s);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &caller in &graph.rev[cur] {
            if let Entry::Vacant(e) = next.entry(caller) {
                e.insert(cur);
                queue.push_back(caller);
            }
        }
    }
    next
}

/// Render the call chain from `from` to a source as
/// `a::b → c::d → source::fn`, following `hops` from [`reach_sources`].
pub fn chain(index: &SymbolIndex, hops: &BTreeMap<usize, usize>, from: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut cur = from;
    for _ in 0..64 {
        parts.push(&index.fns[cur].qname);
        match hops.get(&cur) {
            Some(&n) if n != cur => cur = n,
            _ => break,
        }
    }
    parts.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::symbols;
    use std::collections::BTreeMap as Map;

    fn ws() -> Map<String, String> {
        let mut m = Map::new();
        m.insert("crates/a".to_string(), "a".to_string());
        m.insert("crates/b".to_string(), "b".to_string());
        m
    }

    fn graph_of(files: &[(&str, &str)]) -> (SymbolIndex, CallGraph) {
        let parsed: Vec<SourceFile<'_>> =
            files.iter().map(|(rel, text)| SourceFile::parse(rel.to_string(), text)).collect();
        let in_scope: Vec<bool> = parsed.iter().map(|_| true).collect();
        let idx = symbols::index(&parsed, &in_scope, &ws());
        let g = build(&idx);
        (idx, g)
    }

    #[test]
    fn cross_crate_edges_via_imports() {
        let (idx, g) = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn leaf() {}"),
            (
                "crates/b/src/lib.rs",
                "use a::leaf;\npub fn caller() { leaf(); }\npub fn pathy() { a::leaf(); }",
            ),
        ]);
        let leaf = idx.by_qname["a::leaf"];
        let caller = idx.by_qname["b::caller"];
        let pathy = idx.by_qname["b::pathy"];
        assert!(g.out[caller].iter().any(|e| e.callee == leaf));
        assert!(g.out[pathy].iter().any(|e| e.callee == leaf));
        assert_eq!(g.rev[leaf], vec![caller, pathy]);
    }

    #[test]
    fn self_method_and_type_method_resolution() {
        let (idx, g) = graph_of(&[(
            "crates/a/src/m.rs",
            "pub struct T;\nimpl T {\n  pub fn outer(&self) { self.inner(); T::assoc(); }\n  \
             fn inner(&self) {}\n  fn assoc() {}\n}",
        )]);
        let outer = idx.by_qname["a::m::T::outer"];
        let inner = idx.by_qname["a::m::T::inner"];
        let assoc = idx.by_qname["a::m::T::assoc"];
        let callees: Vec<usize> = g.out[outer].iter().map(|e| e.callee).collect();
        assert!(callees.contains(&inner) && callees.contains(&assoc));
    }

    #[test]
    fn ambiguous_method_names_produce_no_edge() {
        let (idx, g) = graph_of(&[(
            "crates/a/src/m.rs",
            "pub struct A; impl A { pub fn go(&self) {} }\n\
             pub struct B; impl B { pub fn go(&self) {} }\n\
             pub fn f(x: &A) { x.go(); }",
        )]);
        let f = idx.by_qname["a::m::f"];
        assert!(g.out[f].is_empty(), "two `go` methods: no edge without a receiver type");

        let (idx, g) = graph_of(&[(
            "crates/a/src/m.rs",
            "pub struct A; impl A { pub fn go(&self) {} }\npub fn f(x: &A) { x.go(); }",
        )]);
        let f = idx.by_qname["a::m::f"];
        let go = idx.by_qname["a::m::A::go"];
        assert_eq!(g.out[f].len(), 1);
        assert_eq!(g.out[f][0].callee, go);
        assert_eq!(g.out[f][0].kind, EdgeKind::NameOnly);
    }

    #[test]
    fn reachability_and_chain_rendering() {
        let (idx, g) = graph_of(&[(
            "crates/a/src/m.rs",
            "pub fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn lonely() {}",
        )]);
        let top = idx.by_qname["a::m::top"];
        let leaf = idx.by_qname["a::m::leaf"];
        let lonely = idx.by_qname["a::m::lonely"];
        let hops = reach_sources(&g, &[leaf]);
        assert!(hops.contains_key(&top));
        assert!(!hops.contains_key(&lonely));
        assert_eq!(chain(&idx, &hops, top), "a::m::top -> a::m::mid -> a::m::leaf");
    }

    #[test]
    fn crate_and_super_path_heads_normalize() {
        let (idx, g) = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn root_fn() {}"),
            ("crates/a/src/sub.rs", "pub fn here() { crate::root_fn(); super::root_fn(); }"),
        ]);
        let root = idx.by_qname["a::root_fn"];
        let here = idx.by_qname["a::sub::here"];
        assert_eq!(g.out[here].iter().filter(|e| e.callee == root).count(), 2);
    }
}

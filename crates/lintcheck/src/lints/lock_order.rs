//! L6 `lock-order`: every mutex acquisition classifies to a named lock
//! class, nested acquisitions must follow the single canonical order
//! declared in [`crate::Config::lock_order`], and the table itself is
//! checked both ways (undeclared classes and stale entries are findings).
//!
//! The analysis is interprocedural:
//!
//! * **Direct sites** — `recv.lock()` / `recv.try_lock()` classify by
//!   receiver shape: `self.field` → `crate::Owner.field`, a bare or
//!   indexed local → `crate::module.name`. An unclassifiable receiver is
//!   itself a finding — a mutex the analyzer cannot name is a mutex no
//!   order can protect.
//! * **Guard-returning helpers** — a function whose signature returns a
//!   `MutexGuard` (the `fn lock(&self)` poison-recovery idiom in `obs`)
//!   makes every *call site* an acquisition of the helper's class, so the
//!   order is enforced where the guard actually lives.
//! * **Guard spans** — a `let`-bound guard is held to the end of its
//!   enclosing block (truncated at an explicit `drop(guard)`); a
//!   temporary is held to the end of its statement.
//! * **Transitive sets** — while a guard is held, calling `f` counts
//!   every class `f` can acquire at any depth (fixpoint over the call
//!   graph), so `AlertManager::evaluate` holding its own lock while a
//!   condition helper queries the `Tsdb` is seen as the nested pair it
//!   really is.

use crate::callgraph::{self, CallGraph};
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::symbols::SymbolIndex;
use crate::{Finding, LintId};
use std::collections::{BTreeMap, BTreeSet};

/// The marker name.
pub const NAME: &str = "lock-order";

/// Synthetic anchor for table-side findings (stale entries have no
/// acquisition site to point at).
pub const TABLE_FILE: &str = "lock-order.table";

/// One acquisition site (direct or via a guard-returning helper).
struct Acq {
    /// Canonical class, e.g. `obs::Registry.families`.
    class: String,
    /// Token index of the acquiring ident (`lock` or the helper name).
    tok: usize,
    line: u32,
    col: u32,
    /// Exclusive token index the guard is held until.
    span_end: usize,
}

/// Run the lint.
pub fn check(
    index: &SymbolIndex,
    graph: &CallGraph,
    files: &[SourceFile<'_>],
    order: &[String],
) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let n = index.fns.len();

    // Direct acquisition sites per function.
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(n);
    for sym in &index.fns {
        if sym.is_test {
            acqs.push(Vec::new());
            continue;
        }
        let file = &files[sym.file_idx];
        acqs.push(direct_sites(index, sym, file, &mut out));
    }

    // Guard-returning helpers: signature mentions `MutexGuard`; the class
    // is the helper's own direct site, or (for wrappers) inherited from a
    // guard-returning callee.
    let mut ret_guard: BTreeMap<usize, String> = BTreeMap::new();
    let wants: Vec<usize> = (0..n)
        .filter(|&i| {
            !index.fns[i].is_test && returns_guard(&index.fns[i], &files[index.fns[i].file_idx])
        })
        .collect();
    for &i in &wants {
        if let Some(a) = acqs[i].first() {
            ret_guard.insert(i, a.class.clone());
        }
    }
    loop {
        let mut changed = false;
        for &i in &wants {
            if ret_guard.contains_key(&i) {
                continue;
            }
            if let Some(cls) = graph.out[i].iter().find_map(|e| ret_guard.get(&e.callee)) {
                ret_guard.insert(i, cls.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Call sites of guard-returning helpers become acquisitions in the
    // caller, with the caller-side statement shape deciding the span.
    for (i, sym) in index.fns.iter().enumerate() {
        if sym.is_test {
            continue;
        }
        let file = &files[sym.file_idx];
        let toks = &file.lexed.toks;
        // A direct site's `.lock(` token also parses as a method call; it
        // must not additionally resolve to a helper named `lock`.
        let direct_toks: BTreeSet<usize> = acqs[i].iter().map(|a| a.tok).collect();
        let mut extra: Vec<Acq> = Vec::new();
        for cs in &index.calls[i] {
            if direct_toks.contains(&cs.tok()) {
                continue;
            }
            let Some((callee, _)) = callgraph::resolve(index, i, cs) else { continue };
            if callee == i {
                continue;
            }
            let Some(class) = ret_guard.get(&callee) else { continue };
            let k = cs.tok();
            extra.push(Acq {
                class: class.clone(),
                tok: k,
                line: cs.line(),
                col: toks[k].col,
                span_end: guard_span(toks, k, sym.body.1),
            });
        }
        acqs[i].extend(extra);
        acqs[i].sort_by_key(|a| a.tok);
    }

    // Transitive lock sets: classes a call to `f` may acquire, at any
    // depth. Plain fixpoint — the graph is small and cycles converge.
    let mut locks_of: Vec<BTreeSet<String>> =
        (0..n).map(|i| acqs[i].iter().map(|a| a.class.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for e in &graph.out[i] {
                let add: Vec<String> = locks_of[e.callee]
                    .iter()
                    .filter(|c| !locks_of[i].contains(*c))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    locks_of[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Nested pairs: while `a` is held, a later acquisition or a call that
    // transitively locks is an ordered pair to validate.
    let rank = |class: &str| order.iter().position(|c| c == class);
    let mut undeclared: BTreeMap<String, (String, u32, u32)> = BTreeMap::new();
    let mut seen_classes: BTreeSet<String> = BTreeSet::new();
    for (i, sym) in index.fns.iter().enumerate() {
        let file = &files[sym.file_idx];
        let acq_toks: BTreeSet<usize> = acqs[i].iter().map(|a| a.tok).collect();
        for a in &acqs[i] {
            seen_classes.insert(a.class.clone());
            if rank(&a.class).is_none() {
                let e =
                    undeclared.entry(a.class.clone()).or_insert((sym.file.clone(), a.line, a.col));
                if (sym.file.as_str(), a.line) < (e.0.as_str(), e.1) {
                    *e = (sym.file.clone(), a.line, a.col);
                }
            }
            // (inner class, line, col, via) — deduplicated per outer site.
            let mut pairs: BTreeSet<(String, u32, u32, Option<String>)> = BTreeSet::new();
            for b in &acqs[i] {
                if b.tok > a.tok && b.tok < a.span_end {
                    pairs.insert((b.class.clone(), b.line, b.col, None));
                }
            }
            for cs in &index.calls[i] {
                let k = cs.tok();
                if k <= a.tok || k >= a.span_end || acq_toks.contains(&k) {
                    continue;
                }
                let Some((callee, _)) = callgraph::resolve(index, i, cs) else { continue };
                if callee == i {
                    continue;
                }
                for cls in &locks_of[callee] {
                    // A guard-returning call is already an acquisition
                    // site above; don't double-report its own class.
                    if ret_guard.get(&callee) == Some(cls) {
                        continue;
                    }
                    pairs.insert((
                        cls.clone(),
                        cs.line(),
                        files[sym.file_idx].lexed.toks[k].col,
                        Some(index.fns[callee].qname.clone()),
                    ));
                }
            }
            for (inner, line, col, via) in pairs {
                let through = via.as_deref().map(|q| format!(" through `{q}`")).unwrap_or_default();
                if inner == a.class {
                    out.push(Finding {
                        lint: LintId::LockOrder,
                        file: sym.file.clone(),
                        line,
                        col,
                        message: format!(
                            "`{}` re-acquires `{}`{through} while its guard is still held \
                             (acquired at line {}) — self-deadlock on a non-reentrant mutex",
                            sym.qname, a.class, a.line
                        ),
                        excerpt: file.line_text(line).to_string(),
                    });
                    continue;
                }
                match (rank(&a.class), rank(&inner)) {
                    (Some(ra), Some(rb)) if ra > rb => out.push(Finding {
                        lint: LintId::LockOrder,
                        file: sym.file.clone(),
                        line,
                        col,
                        message: format!(
                            "`{}` acquires `{inner}`{through} while holding `{}` (line {}), \
                             inverting the canonical order (`{inner}` ranks before `{}`)",
                            sym.qname, a.class, a.line, a.class
                        ),
                        excerpt: file.line_text(line).to_string(),
                    }),
                    // In-order pairs and pairs with undeclared classes
                    // (reported once per class below) are fine here.
                    _ => {}
                }
            }
        }
    }

    for (class, (file, line, col)) in undeclared {
        out.push(Finding {
            lint: LintId::LockOrder,
            file,
            line,
            col,
            message: format!(
                "lock class `{class}` is not in the canonical acquisition-order table; \
                 declare its rank in `Config::lock_order`"
            ),
            excerpt: class,
        });
    }
    for (pos, class) in order.iter().enumerate() {
        if !seen_classes.contains(class) {
            out.push(Finding {
                lint: LintId::LockOrder,
                file: TABLE_FILE.to_string(),
                line: pos as u32 + 1,
                col: 1,
                message: format!(
                    "lock-order table entry `{class}` matches no acquisition site; remove it"
                ),
                excerpt: class.clone(),
            });
        }
    }
    out
}

/// Extract and classify the direct `.lock()` / `.try_lock()` sites in one
/// function body. Unclassifiable receivers are pushed straight to `out`.
fn direct_sites(
    index: &SymbolIndex,
    sym: &crate::symbols::FnSym,
    file: &SourceFile<'_>,
    out: &mut Vec<Finding>,
) -> Vec<Acq> {
    let toks = &file.lexed.toks;
    let mut sites = Vec::new();
    let (open, close) = sym.body;
    for k in open + 1..close.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident
            || !(t.text == "lock" || t.text == "try_lock")
            || k < 1
            || !toks[k - 1].is_punct('.')
            || !toks.get(k + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        match classify_receiver(index, sym, toks, k) {
            Receiver::SelfHelper => {} // `self.lock()` — a call, not a site
            Receiver::Class(class) => sites.push(Acq {
                class,
                tok: k,
                line: t.line,
                col: t.col,
                span_end: guard_span(toks, k, close),
            }),
            Receiver::Unknown => out.push(Finding {
                lint: LintId::LockOrder,
                file: sym.file.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` acquires a lock through an unclassifiable receiver; bind the \
                     mutex to a named field or local so the order is checkable",
                    sym.qname
                ),
                excerpt: file.line_text(t.line).to_string(),
            }),
        }
    }
    sites
}

enum Receiver {
    /// `self.lock()` — resolved through the call graph instead.
    SelfHelper,
    Class(String),
    Unknown,
}

/// Name the lock class from the receiver tokens before the `.` at `k-1`.
fn classify_receiver(
    index: &SymbolIndex,
    sym: &crate::symbols::FnSym,
    toks: &[Tok<'_>],
    k: usize,
) -> Receiver {
    if k < 2 {
        return Receiver::Unknown;
    }
    let holder = sym
        .owner
        .clone()
        .unwrap_or_else(|| sym.module.rsplit("::").next().unwrap_or(&sym.module).to_string());
    let _ = index;
    let j = k - 2;
    match toks[j].kind {
        TokKind::Ident => {
            let prev_dot = j >= 1 && toks[j - 1].is_punct('.');
            if toks[j].is_ident("self") && !prev_dot {
                return Receiver::SelfHelper;
            }
            if prev_dot && j >= 2 && toks[j - 2].is_ident("self") {
                // `self.field.lock()` — the owning type names the class.
                return Receiver::Class(format!("{}::{holder}.{}", sym.crate_name, toks[j].text));
            }
            if !prev_dot {
                // Bare local / param: `slot.lock()`.
                return Receiver::Class(format!("{}::{holder}.{}", sym.crate_name, toks[j].text));
            }
            Receiver::Unknown
        }
        TokKind::Punct if toks[j].is_punct(']') => {
            // `name[expr].lock()` — match back to `[` and take the ident.
            let mut depth = 0i32;
            let mut i = j;
            loop {
                if toks[i].is_punct(']') {
                    depth += 1;
                } else if toks[i].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if i == 0 {
                    return Receiver::Unknown;
                }
                i -= 1;
            }
            if i >= 1 && toks[i - 1].kind == TokKind::Ident {
                return Receiver::Class(format!(
                    "{}::{holder}.{}",
                    sym.crate_name,
                    toks[i - 1].text
                ));
            }
            Receiver::Unknown
        }
        _ => Receiver::Unknown,
    }
}

/// True when the signature before the body mentions `MutexGuard` — the
/// guard-returning-helper shape. The scan stops at the previous item
/// boundary so it never reads past this function's own header.
fn returns_guard(sym: &crate::symbols::FnSym, file: &SourceFile<'_>) -> bool {
    let toks = &file.lexed.toks;
    let open = sym.body.0.min(toks.len());
    let mut j = open;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
            break;
        }
        if t.is_ident("MutexGuard") {
            return true;
        }
    }
    false
}

/// Exclusive token index the guard acquired at `k` is held until:
/// `let`-bound → the enclosing block's `}` (truncated at `drop(name)`),
/// temporary → the end of its statement; never past `body_close`.
fn guard_span(toks: &[Tok<'_>], k: usize, body_close: usize) -> usize {
    // Statement start: scan back to the nearest `;` / `{` / `}`.
    let mut s = k;
    while s > 0 {
        let t = &toks[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    let let_bound = toks.get(s).is_some_and(|t| t.is_ident("let"));
    let guard_name: Option<&str> = if let_bound {
        let mut g = s + 1;
        if toks.get(g).is_some_and(|t| t.is_ident("mut")) {
            g += 1;
        }
        toks.get(g).filter(|t| t.kind == TokKind::Ident).map(|t| t.text)
    } else {
        None
    };
    let mut depth = 0i32;
    let mut j = k + 1;
    let end = body_close.min(toks.len());
    while j < end {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j; // enclosing block closes (or statement is a tail expr)
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 && !let_bound {
            return j;
        } else if let Some(name) = guard_name {
            // `drop(guard)` releases early.
            if t.is_ident("drop")
                && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(j + 2).is_some_and(|n| n.is_ident(name))
                && toks.get(j + 3).is_some_and(|n| n.is_punct(')'))
            {
                return j;
            }
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::symbols;
    use std::collections::BTreeMap as Map;

    fn run(files: &[(&str, &str)], order: &[&str]) -> Vec<Finding> {
        let mut crates = Map::new();
        crates.insert("crates/a".to_string(), "a".to_string());
        let parsed: Vec<SourceFile<'_>> =
            files.iter().map(|(rel, text)| SourceFile::parse(rel.to_string(), text)).collect();
        let in_scope: Vec<bool> = parsed.iter().map(|_| true).collect();
        let idx = symbols::index(&parsed, &in_scope, &crates);
        let g = build(&idx);
        let order: Vec<String> = order.iter().map(|s| s.to_string()).collect();
        check(&idx, &g, &parsed, &order)
    }

    const TWO_LOCKS: &str = "pub struct R { a: Mutex<u32>, b: Mutex<u32> }\nimpl R {\n\
         pub fn good(&self) {\n    let a = self.a.lock().unwrap_or_default();\n    \
         let b = self.b.lock().unwrap_or_default();\n  }\n}";

    #[test]
    fn in_order_nesting_is_clean() {
        let f = run(&[("crates/a/src/m.rs", TWO_LOCKS)], &["a::R.a", "a::R.b"]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inverted_nesting_is_flagged_at_the_inner_site() {
        let f = run(&[("crates/a/src/m.rs", TWO_LOCKS)], &["a::R.b", "a::R.a"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("inverting the canonical order"));
        assert_eq!(f[0].line, 5, "anchored at the inner acquisition");
    }

    #[test]
    fn recursive_acquisition_is_a_self_deadlock() {
        let src = "pub struct R { a: Mutex<u32> }\nimpl R {\n  pub fn bad(&self) {\n    \
                   let g = self.a.lock().unwrap_or_default();\n    \
                   let h = self.a.lock().unwrap_or_default();\n  }\n}";
        let f = run(&[("crates/a/src/m.rs", src)], &["a::R.a"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("self-deadlock"));
    }

    #[test]
    fn drop_releases_the_guard_early() {
        let src =
            "pub struct R { a: Mutex<u32>, b: Mutex<u32> }\nimpl R {\n  pub fn ok(&self) {\n    \
                   let g = self.b.lock().unwrap_or_default();\n    drop(g);\n    \
                   let h = self.a.lock().unwrap_or_default();\n  }\n}";
        let f = run(&[("crates/a/src/m.rs", src)], &["a::R.a", "a::R.b"]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_returning_helper_moves_the_site_to_callers() {
        let src = "pub struct R { a: Mutex<u32>, b: Mutex<u32> }\nimpl R {\n  \
                   fn lock(&self) -> MutexGuard<'_, u32> { self.a.lock().unwrap_or_default() }\n  \
                   pub fn bad(&self) {\n    let g = self.b.lock().unwrap_or_default();\n    \
                   let h = self.lock();\n  }\n}";
        let f = run(&[("crates/a/src/m.rs", src)], &["a::R.a", "a::R.b"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`a::R.a`"), "{}", f[0].message);
        assert_eq!(f[0].line, 6, "anchored at the helper call in the caller");
    }

    #[test]
    fn transitive_acquisition_through_a_callee_is_seen() {
        let src = "pub struct R { a: Mutex<u32>, b: Mutex<u32> }\nimpl R {\n  \
                   fn deep(&self) { let x = self.a.lock().unwrap_or_default(); }\n  \
                   pub fn bad(&self) {\n    let g = self.b.lock().unwrap_or_default();\n    \
                   self.deep();\n  }\n}";
        let f = run(&[("crates/a/src/m.rs", src)], &["a::R.a", "a::R.b"]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("through `a::m::R::deep`"), "{}", f[0].message);
    }

    #[test]
    fn undeclared_and_stale_classes_round_trip_the_table() {
        let src = "pub struct R { a: Mutex<u32> }\nimpl R {\n  \
                   pub fn only(&self) { let g = self.a.lock().unwrap_or_default(); }\n}";
        let f = run(&[("crates/a/src/m.rs", src)], &["a::R.gone"]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("`a::R.a` is not in the canonical")));
        assert!(f.iter().any(|x| x.file == TABLE_FILE && x.message.contains("`a::R.gone`")));
    }

    #[test]
    fn indexed_and_temporary_receivers_classify() {
        let src = "pub fn pump(slots: &[Mutex<u32>]) {\n  \
                   let g = slots[0].lock().unwrap_or_default();\n}\n\
                   pub fn peek(m: &Mutex<u32>) -> u32 { *m.lock().unwrap_or_default() }";
        let f = run(&[("crates/a/src/m.rs", src)], &["a::m.slots", "a::m.m"]);
        assert!(f.is_empty(), "{f:?}");
    }
}

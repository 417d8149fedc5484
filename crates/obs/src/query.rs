//! A deterministic PromQL-subset engine over the [`Tsdb`].
//!
//! Hand-rolled and zero-dependency: a lexer, a recursive-descent parser into
//! a typed AST, and an evaluator that runs on **injected logical ticks** —
//! no wall clock anywhere, so the same store state and the same expression
//! always produce byte-identical output (the `/query_range` replay
//! contract).
//!
//! Supported surface (full EBNF and semantics in `DESIGN.md` §6):
//!
//! * instant selectors `name{key="v",other!="x*"}` — label matchers are
//!   exact (`=`), negated (`!=`), and simple `*` globs; the sample field of
//!   a histogram sub-series is addressed as a synthetic `field` label
//!   (`{field="p95"}`) and is carried through output labels for every
//!   non-`value` field;
//! * range selectors `name{...}[w]` (`w` in ticks) feeding the range
//!   functions `rate`, `increase`, `delta`, `avg_over_time`,
//!   `max_over_time`, `min_over_time`, `sum_over_time`, `count_over_time`,
//!   and `absent_over_time`;
//! * label aggregations `sum/avg/min/max/count` with optional `by (...)` /
//!   `without (...)` grouping;
//! * scalar arithmetic `+ - * /`, comparisons `== != > >= < <=`
//!   (vector comparisons filter, scalar-scalar comparisons yield `1`/`0`),
//!   and the set operators `and`, `or`, `unless`;
//! * helper functions `histogram_quantile(q, sel)`, `clamp_min`,
//!   `clamp_max`, two-argument scalar `min`/`max`, and `tick()` (the
//!   current evaluation tick as a scalar).
//!
//! Evaluation reads **the newest sample at or before the tick** with no
//! staleness cutoff; `increase` is the newest value minus the newest value
//! at or before the window floor, falling back to the oldest retained
//! sample when the window start predates retention (a documented
//! undercount for series born mid-window). Counter resets are not
//! compensated. Output vectors are sorted by `(name, labels)` via
//! `BTreeMap` ordering at every step, never by hash order.

use crate::tsdb::{Query, SampleField, SeriesKey, Tsdb};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A syntax or arity error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source expression.
    pub(crate) pos: usize,
    /// Human-readable description.
    pub(crate) msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A runtime evaluation error (type mismatch, many-to-many match, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub(crate) msg: String,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eval error: {}", self.msg)
    }
}

impl std::error::Error for EvalError {}

fn eval_err(msg: impl Into<String>) -> EvalError {
    EvalError { msg: msg.into() }
}

/// Either phase of [`query_range_json`] failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The expression did not parse.
    Parse(ParseError),
    /// The expression did not evaluate.
    Eval(EvalError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => e.fmt(f),
            QueryError::Eval(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    /// `=` (matcher equality).
    Eq,
    /// `==` (value comparison).
    EqEq,
    /// `!=` (matcher negation or value comparison, by context).
    Ne,
    Gt,
    Ge,
    Lt,
    Le,
    Plus,
    Minus,
    Star,
    Slash,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Number(n) => format!("number `{n}`"),
            Tok::Str(_) => "string".to_string(),
            Tok::LParen => "`(`".to_string(),
            Tok::RParen => "`)`".to_string(),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
            Tok::LBracket => "`[`".to_string(),
            Tok::RBracket => "`]`".to_string(),
            Tok::Comma => "`,`".to_string(),
            Tok::Eq => "`=`".to_string(),
            Tok::EqEq => "`==`".to_string(),
            Tok::Ne => "`!=`".to_string(),
            Tok::Gt => "`>`".to_string(),
            Tok::Ge => "`>=`".to_string(),
            Tok::Lt => "`<`".to_string(),
            Tok::Le => "`<=`".to_string(),
            Tok::Plus => "`+`".to_string(),
            Tok::Minus => "`-`".to_string(),
            Tok::Star => "`*`".to_string(),
            Tok::Slash => "`/`".to_string(),
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_ident_cont(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == ':'
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let pos = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '(' => out.push((Tok::LParen, pos)),
            ')' => out.push((Tok::RParen, pos)),
            '{' => out.push((Tok::LBrace, pos)),
            '}' => out.push((Tok::RBrace, pos)),
            '[' => out.push((Tok::LBracket, pos)),
            ']' => out.push((Tok::RBracket, pos)),
            ',' => out.push((Tok::Comma, pos)),
            '+' => out.push((Tok::Plus, pos)),
            '-' => out.push((Tok::Minus, pos)),
            '*' => out.push((Tok::Star, pos)),
            '/' => out.push((Tok::Slash, pos)),
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::EqEq, pos));
                    i += 1;
                } else {
                    out.push((Tok::Eq, pos));
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ne, pos));
                    i += 1;
                } else {
                    return Err(ParseError { pos, msg: "stray `!` (use `!=`)".to_string() });
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ge, pos));
                    i += 1;
                } else {
                    out.push((Tok::Gt, pos));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Le, pos));
                    i += 1;
                } else {
                    out.push((Tok::Lt, pos));
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(ParseError { pos, msg: "unterminated string".to_string() })
                        }
                        Some(b'"') => break,
                        Some(b'\\') => {
                            let esc = bytes.get(i + 1).copied();
                            match esc {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                _ => {
                                    return Err(ParseError {
                                        pos: i,
                                        msg: "unsupported escape in string".to_string(),
                                    })
                                }
                            }
                            i += 2;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.push((Tok::Str(s), pos));
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'.') {
                    j += 1;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        j += 1;
                    }
                }
                if matches!(bytes.get(j), Some(b'e') | Some(b'E')) {
                    let mut k = j + 1;
                    if matches!(bytes.get(k), Some(b'+') | Some(b'-')) {
                        k += 1;
                    }
                    if bytes.get(k).is_some_and(|b| (*b as char).is_ascii_digit()) {
                        j = k;
                        while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = src.get(i..j).unwrap_or_default();
                let n: f64 = text
                    .parse()
                    .map_err(|_| ParseError { pos, msg: format!("bad number literal `{text}`") })?;
                out.push((Tok::Number(n), pos));
                i = j;
                continue;
            }
            _ if is_ident_start(c) => {
                let mut j = i;
                while j < bytes.len() && is_ident_cont(bytes[j] as char) {
                    j += 1;
                }
                out.push((Tok::Ident(src.get(i..j).unwrap_or_default().to_string()), pos));
                i = j;
                continue;
            }
            _ => {
                return Err(ParseError { pos, msg: format!("unexpected character `{c}`") });
            }
        }
        i += 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// One label matcher of a [`Selector`].
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMatcher {
    /// Label key; the synthetic key `field` addresses the sample field.
    pub(crate) key: String,
    /// Expected value; `*` acts as a wildcard segment (simple glob).
    pub(crate) value: String,
    /// `true` for `!=` (the match is inverted).
    pub(crate) negate: bool,
}

/// A series selector: family name plus conjunctive label matchers.
#[derive(Debug, Clone, PartialEq)]
pub struct Selector {
    /// Exact metric family name (colons allowed, for recording rules).
    pub(crate) name: String,
    /// Label matchers, all of which must hold.
    pub(crate) matchers: Vec<LabelMatcher>,
}

/// Binary operators, in one enum across precedence levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `and` (vector intersection by label set)
    And,
    /// `or` (vector union by label set)
    Or,
    /// `unless` (vector difference by label set)
    Unless,
}

impl BinOp {
    fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Gt | BinOp::Ge | BinOp::Lt | BinOp::Le)
    }

    fn is_set(&self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Unless)
    }

    fn arith(&self, l: f64, r: f64) -> f64 {
        match self {
            BinOp::Add => l + r,
            BinOp::Sub => l - r,
            BinOp::Mul => l * r,
            BinOp::Div => l / r,
            _ => f64::NAN,
        }
    }

    fn compare(&self, l: f64, r: f64) -> bool {
        match self {
            BinOp::Eq => l == r,
            BinOp::Ne => l != r,
            BinOp::Gt => l > r,
            BinOp::Ge => l >= r,
            BinOp::Lt => l < r,
            BinOp::Le => l <= r,
            _ => false,
        }
    }
}

/// Functions over range selectors (one `sel[w]` argument each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeFn {
    /// Per-tick increase: `increase / w`.
    Rate,
    /// Newest value minus the newest value at or before the window floor.
    Increase,
    /// Last minus first sample inside the window (gauge semantics).
    Delta,
    /// Mean of the samples inside the window.
    AvgOverTime,
    /// Maximum sample inside the window.
    MaxOverTime,
    /// Minimum sample inside the window.
    MinOverTime,
    /// Sum of the samples inside the window.
    SumOverTime,
    /// Number of samples inside the window.
    CountOverTime,
    /// `1` (with empty labels) when *no* matching series has a sample
    /// inside the window, else an empty vector.
    AbsentOverTime,
}

/// Label-aggregation operators (`sum by (...)` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of the group.
    Sum,
    /// Mean of the group.
    Avg,
    /// Minimum of the group.
    Min,
    /// Maximum of the group.
    Max,
    /// Element count of the group.
    Count,
}

/// Grouping mode of an aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum Grouping {
    /// Collapse everything into one group with empty labels.
    All,
    /// Group by exactly these labels; output carries only them.
    By(Vec<String>),
    /// Group by every label except these; output drops them.
    Without(Vec<String>),
}

/// Scalar helper functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    /// Two-argument scalar minimum.
    Min,
    /// Two-argument scalar maximum.
    Max,
}

/// A parsed, type-checked expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A number literal (scalar).
    Number(f64),
    /// An instant vector selector.
    Selector(Selector),
    /// A range selector `sel[w]`; only valid inside a [`RangeFn`] call.
    Range(Selector, u64),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A range-function call.
    RangeCall {
        /// The function.
        func: RangeFn,
        /// The selector inside the range argument.
        sel: Selector,
        /// Window length in ticks (>= 1).
        window: u64,
    },
    /// An aggregation over a vector expression.
    Aggregate {
        /// The operator.
        op: AggOp,
        /// The grouping clause.
        grouping: Grouping,
        /// The vector argument.
        arg: Box<Expr>,
    },
    /// `histogram_quantile(q, sel)`: read the pre-sampled quantile
    /// sub-series (`q` ∈ {0.5, 0.95, 0.99, 1}).
    HistogramQuantile {
        /// The requested quantile.
        q: Box<Expr>,
        /// The histogram family selector (no `field` matcher).
        sel: Selector,
    },
    /// `clamp_min(expr, s)` / `clamp_max(expr, s)`.
    Clamp {
        /// `true` for `clamp_min`, `false` for `clamp_max`.
        is_min: bool,
        /// The clamped expression.
        arg: Box<Expr>,
        /// The scalar bound.
        bound: Box<Expr>,
    },
    /// Two-argument scalar `min`/`max`.
    ScalarCall {
        /// The function.
        func: ScalarFn,
        /// First scalar operand.
        lhs: Box<Expr>,
        /// Second scalar operand.
        rhs: Box<Expr>,
    },
    /// `tick()`: the current evaluation tick as a scalar.
    Tick,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const AGG_OPS: [(&str, AggOp); 5] = [
    ("sum", AggOp::Sum),
    ("avg", AggOp::Avg),
    ("min", AggOp::Min),
    ("max", AggOp::Max),
    ("count", AggOp::Count),
];

const RANGE_FNS: [(&str, RangeFn); 9] = [
    ("rate", RangeFn::Rate),
    ("increase", RangeFn::Increase),
    ("delta", RangeFn::Delta),
    ("avg_over_time", RangeFn::AvgOverTime),
    ("max_over_time", RangeFn::MaxOverTime),
    ("min_over_time", RangeFn::MinOverTime),
    ("sum_over_time", RangeFn::SumOverTime),
    ("count_over_time", RangeFn::CountOverTime),
    ("absent_over_time", RangeFn::AbsentOverTime),
];

/// Deepest nesting the parser accepts: parentheses, call arguments and unary
/// minuses each cost a level, and so does every link of an operator chain
/// (`a - b - c` nests leftwards). Far beyond any rule or dashboard
/// expression, far short of what a serving thread's stack holds — `expr`
/// arrives from the network, and the parser, the type check and the
/// evaluator all recurse over the tree.
const MAX_DEPTH: usize = 64;

struct Parser {
    toks: Vec<(Tok, usize)>,
    i: usize,
    end: usize,
    /// Levels open above the token being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|(t, _)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.i).map(|(_, p)| *p).unwrap_or(self.end)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|(t, _)| t.clone());
        self.i += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { pos: self.pos(), msg: msg.into() }
    }

    fn expect_tok(&mut self, want: Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if *t == want => {
                self.i += 1;
                Ok(())
            }
            Some(t) => {
                Err(self.err(format!("expected {}, found {}", want.describe(), t.describe())))
            }
            None => Err(self.err(format!("expected {}, found end of input", want.describe()))),
        }
    }

    /// Consume an `Ident` equal to `kw` if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Open one more level, or refuse past [`MAX_DEPTH`]. Callers restore
    /// `depth` when their subtree is complete; an error abandons the parse.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("expression nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let entered = self.depth;
        let mut lhs = self.parse_and()?;
        while self.eat_kw("or") {
            self.descend()?;
            let rhs = self.parse_and()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = entered;
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let entered = self.depth;
        let mut lhs = self.parse_cmp()?;
        loop {
            let op = if self.eat_kw("and") {
                BinOp::And
            } else if self.eat_kw("unless") {
                BinOp::Unless
            } else {
                break;
            };
            self.descend()?;
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = entered;
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            _ => return Ok(lhs),
        };
        self.i += 1;
        let rhs = self.parse_add()?;
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let entered = self.depth;
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.i += 1;
            self.descend()?;
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = entered;
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let entered = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.i += 1;
            self.descend()?;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = entered;
        Ok(lhs)
    }

    /// Every cycle of the grammar (parentheses, call arguments, `-`) passes
    /// through here, so this is where nesting is charged.
    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let entered = self.depth;
        self.descend()?;
        let parsed = if matches!(self.peek(), Some(Tok::Minus)) {
            self.i += 1;
            Expr::Neg(Box::new(self.parse_unary()?))
        } else {
            self.parse_primary()?
        };
        self.depth = entered;
        Ok(parsed)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Number(n)) => {
                self.i += 1;
                Ok(Expr::Number(n))
            }
            Some(Tok::LParen) => {
                self.i += 1;
                let e = self.parse_expr()?;
                self.expect_tok(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if matches!(name.as_str(), "or" | "and" | "unless" | "by" | "without") {
                    return Err(self.err(format!("expected expression, found keyword `{name}`")));
                }
                self.i += 1;
                self.parse_ident_tail(name)
            }
            Some(t) => Err(self.err(format!("expected expression, found {}", t.describe()))),
            None => Err(self.err("expected expression, found end of input")),
        }
    }

    /// An identifier was consumed: dispatch to aggregation, function call,
    /// or plain selector (with optional matchers and range suffix).
    fn parse_ident_tail(&mut self, name: String) -> Result<Expr, ParseError> {
        let agg = AGG_OPS.iter().find(|(n, _)| *n == name).map(|(_, op)| *op);
        // `sum by (a) (...)`: grouping clause before the parenthesized body.
        if let Some(op) = agg {
            if matches!(self.peek(), Some(Tok::Ident(s)) if s == "by" || s == "without") {
                let grouping = self.parse_grouping()?;
                self.expect_tok(Tok::LParen)?;
                let arg = self.parse_expr()?;
                self.expect_tok(Tok::RParen)?;
                return Ok(Expr::Aggregate { op, grouping, arg: Box::new(arg) });
            }
        }
        if matches!(self.peek(), Some(Tok::LParen)) {
            return self.parse_call(name, agg);
        }
        let sel = self.parse_selector_body(name)?;
        if matches!(self.peek(), Some(Tok::LBracket)) {
            let w = self.parse_range_suffix()?;
            return Ok(Expr::Range(sel, w));
        }
        Ok(Expr::Selector(sel))
    }

    fn parse_grouping(&mut self) -> Result<Grouping, ParseError> {
        let by = self.eat_kw("by");
        if !by && !self.eat_kw("without") {
            return Err(self.err("expected `by` or `without`"));
        }
        self.expect_tok(Tok::LParen)?;
        let mut labels = Vec::new();
        if !matches!(self.peek(), Some(Tok::RParen)) {
            loop {
                match self.next() {
                    Some(Tok::Ident(l)) => labels.push(l),
                    _ => {
                        self.i = self.i.saturating_sub(1);
                        return Err(self.err("expected label name in grouping clause"));
                    }
                }
                if !matches!(self.peek(), Some(Tok::Comma)) {
                    break;
                }
                self.i += 1;
            }
        }
        self.expect_tok(Tok::RParen)?;
        Ok(if by { Grouping::By(labels) } else { Grouping::Without(labels) })
    }

    /// `(` is next: parse a call to `name`. `agg` is set when `name` is
    /// also an aggregation operator (one-argument form aggregates; the
    /// two-argument `min`/`max` form is the scalar function).
    fn parse_call(&mut self, name: String, agg: Option<AggOp>) -> Result<Expr, ParseError> {
        self.expect_tok(Tok::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), Some(Tok::RParen)) {
            loop {
                args.push(self.parse_expr()?);
                if !matches!(self.peek(), Some(Tok::Comma)) {
                    break;
                }
                self.i += 1;
            }
        }
        self.expect_tok(Tok::RParen)?;

        if let Some((_, func)) = RANGE_FNS.iter().find(|(n, _)| *n == name) {
            let mut it = args.into_iter();
            return match (it.next(), it.next()) {
                (Some(Expr::Range(sel, window)), None) => {
                    Ok(Expr::RangeCall { func: *func, sel, window })
                }
                _ => Err(self.err(format!("{name}() takes exactly one range argument `sel[w]`"))),
            };
        }
        match name.as_str() {
            "histogram_quantile" => {
                let mut it = args.into_iter();
                match (it.next(), it.next(), it.next()) {
                    (Some(q), Some(Expr::Selector(sel)), None) => {
                        if sel.matchers.iter().any(|m| m.key == "field") {
                            return Err(self.err(
                                "histogram_quantile() picks the field itself; \
                                 drop the `field` matcher",
                            ));
                        }
                        Ok(Expr::HistogramQuantile { q: Box::new(q), sel })
                    }
                    _ => {
                        Err(self
                            .err("histogram_quantile() takes (quantile, selector) — two arguments"))
                    }
                }
            }
            "clamp_min" | "clamp_max" => {
                let is_min = name == "clamp_min";
                let mut it = args.into_iter();
                match (it.next(), it.next(), it.next()) {
                    (Some(arg), Some(bound), None) => {
                        Ok(Expr::Clamp { is_min, arg: Box::new(arg), bound: Box::new(bound) })
                    }
                    _ => Err(self.err(format!("{name}() takes (expr, scalar) — two arguments"))),
                }
            }
            "tick" => {
                if args.is_empty() {
                    Ok(Expr::Tick)
                } else {
                    Err(self.err("tick() takes no arguments"))
                }
            }
            _ => match (agg, args.len()) {
                (Some(op), 1) => {
                    let mut it = args.into_iter();
                    match it.next() {
                        Some(arg) => {
                            let grouping = if matches!(self.peek(), Some(Tok::Ident(s)) if s == "by" || s == "without")
                            {
                                self.parse_grouping()?
                            } else {
                                Grouping::All
                            };
                            Ok(Expr::Aggregate { op, grouping, arg: Box::new(arg) })
                        }
                        None => Err(self.err("aggregation takes one argument")),
                    }
                }
                (Some(op), 2) if matches!(op, AggOp::Min | AggOp::Max) => {
                    let func = if op == AggOp::Min { ScalarFn::Min } else { ScalarFn::Max };
                    let mut it = args.into_iter();
                    match (it.next(), it.next()) {
                        (Some(lhs), Some(rhs)) => {
                            Ok(Expr::ScalarCall { func, lhs: Box::new(lhs), rhs: Box::new(rhs) })
                        }
                        _ => Err(self.err("scalar min/max take two arguments")),
                    }
                }
                (Some(_), n) => Err(self.err(format!("aggregation takes 1 argument, got {n}"))),
                (None, _) => Err(self.err(format!("unknown function `{name}`"))),
            },
        }
    }

    /// The name was consumed: parse optional `{matchers}`.
    fn parse_selector_body(&mut self, name: String) -> Result<Selector, ParseError> {
        let mut matchers = Vec::new();
        if matches!(self.peek(), Some(Tok::LBrace)) {
            self.i += 1;
            if !matches!(self.peek(), Some(Tok::RBrace)) {
                loop {
                    let key = match self.next() {
                        Some(Tok::Ident(k)) => k,
                        _ => {
                            self.i = self.i.saturating_sub(1);
                            return Err(self.err("expected label name in matcher"));
                        }
                    };
                    let negate = match self.next() {
                        Some(Tok::Eq) => false,
                        Some(Tok::EqEq) => false,
                        Some(Tok::Ne) => true,
                        _ => {
                            self.i = self.i.saturating_sub(1);
                            return Err(self.err("expected `=` or `!=` in matcher"));
                        }
                    };
                    let value = match self.next() {
                        Some(Tok::Str(v)) => v,
                        _ => {
                            self.i = self.i.saturating_sub(1);
                            return Err(self.err("expected quoted label value in matcher"));
                        }
                    };
                    matchers.push(LabelMatcher { key, value, negate });
                    if !matches!(self.peek(), Some(Tok::Comma)) {
                        break;
                    }
                    self.i += 1;
                }
            }
            self.expect_tok(Tok::RBrace)?;
        }
        Ok(Selector { name, matchers })
    }

    fn parse_range_suffix(&mut self) -> Result<u64, ParseError> {
        self.expect_tok(Tok::LBracket)?;
        let w = match self.next() {
            Some(Tok::Number(n)) if n.fract() == 0.0 && n >= 1.0 && n <= u32::MAX as f64 => {
                n as u64
            }
            _ => {
                self.i = self.i.saturating_sub(1);
                return Err(self.err("range window must be an integer tick count >= 1"));
            }
        };
        self.expect_tok(Tok::RBracket)?;
        Ok(w)
    }
}

/// Result type of an expression, for the post-parse type check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Scalar,
    Vector,
}

fn typecheck(e: &Expr) -> Result<Ty, ParseError> {
    let bad = |msg: String| ParseError { pos: 0, msg };
    match e {
        Expr::Number(_) | Expr::Tick => Ok(Ty::Scalar),
        Expr::Selector(_) => Ok(Ty::Vector),
        Expr::Range(sel, _) => Err(bad(format!(
            "range selector `{}[..]` is only valid inside a range function",
            sel.name
        ))),
        Expr::Neg(arg) => typecheck(arg),
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (typecheck(lhs)?, typecheck(rhs)?);
            if op.is_set() && (l != Ty::Vector || r != Ty::Vector) {
                return Err(bad("`and`/`or`/`unless` need vector operands".to_string()));
            }
            Ok(if l == Ty::Scalar && r == Ty::Scalar { Ty::Scalar } else { Ty::Vector })
        }
        Expr::RangeCall { .. } => Ok(Ty::Vector),
        Expr::Aggregate { arg, .. } => {
            if typecheck(arg)? != Ty::Vector {
                return Err(bad("aggregation needs a vector argument".to_string()));
            }
            Ok(Ty::Vector)
        }
        Expr::HistogramQuantile { q, .. } => {
            if typecheck(q)? != Ty::Scalar {
                return Err(bad("histogram_quantile() quantile must be a scalar".to_string()));
            }
            Ok(Ty::Vector)
        }
        Expr::Clamp { arg, bound, .. } => {
            if typecheck(bound)? != Ty::Scalar {
                return Err(bad("clamp bound must be a scalar".to_string()));
            }
            typecheck(arg)
        }
        Expr::ScalarCall { lhs, rhs, .. } => {
            if typecheck(lhs)? != Ty::Scalar || typecheck(rhs)? != Ty::Scalar {
                return Err(bad("scalar min/max need scalar operands".to_string()));
            }
            Ok(Ty::Scalar)
        }
    }
}

/// Parse and type-check one expression.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, i: 0, end: src.len(), depth: 0 };
    let e = p.parse_expr()?;
    if p.i < p.toks.len() {
        return Err(p.err(format!(
            "unexpected trailing {}",
            p.peek().map(|t| t.describe()).unwrap_or_default()
        )));
    }
    typecheck(&e)?;
    Ok(e)
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// One element of an instant vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name (empty once an operator has transformed the
    /// value, mirroring PromQL's name-dropping rules).
    pub(crate) name: String,
    /// Label pairs sorted by key, including the synthetic `field` label
    /// for every non-`value` sample field.
    pub(crate) labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// The result of evaluating an expression at one tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A single number.
    Scalar(f64),
    /// An instant vector, sorted by `(name, labels)`.
    Vector(Vec<Sample>),
}

impl Value {
    /// Alert-style truth: a scalar is true when non-zero (and not NaN), a
    /// vector is true when non-empty.
    pub(crate) fn is_truthy(&self) -> bool {
        match self {
            Value::Scalar(s) => *s != 0.0 && !s.is_nan(),
            Value::Vector(v) => !v.is_empty(),
        }
    }

    /// The first sample value (or the scalar), for alert status display.
    pub(crate) fn first_value(&self) -> Option<f64> {
        match self {
            Value::Scalar(s) => Some(*s),
            Value::Vector(v) => v.first().map(|s| s.value),
        }
    }
}

fn sort_vec(mut v: Vec<Sample>) -> Vec<Sample> {
    v.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    v
}

// ---------------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------------

/// Naive substring search over bytes (labels may be any UTF-8; byte-wise
/// search avoids char-boundary slicing).
fn find_sub(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() {
        return Some(from.min(hay.len()));
    }
    if hay.len() < needle.len() {
        return None;
    }
    (from..=hay.len() - needle.len()).find(|&i| &hay[i..i + needle.len()] == needle)
}

/// Simple anchored glob: `*` matches any run of characters; everything
/// else is literal. A pattern without `*` is an exact comparison.
fn glob_match(pat: &str, s: &str) -> bool {
    if !pat.contains('*') {
        return pat == s;
    }
    let h = s.as_bytes();
    let parts: Vec<&[u8]> = pat.as_bytes().split(|&b| b == b'*').collect();
    let (first, last) = (parts[0], parts[parts.len() - 1]);
    if h.len() < first.len() + last.len() {
        return false;
    }
    if !h.starts_with(first) || !h.ends_with(last) {
        return false;
    }
    let mut pos = first.len();
    let end = h.len() - last.len();
    if pos > end {
        return false;
    }
    for part in &parts[1..parts.len() - 1] {
        match find_sub(&h[..end], part, pos) {
            Some(i) => pos = i + part.len(),
            None => return false,
        }
    }
    true
}

/// Does `key` satisfy every matcher of `sel`? A missing label reads as the
/// empty string; the synthetic key `field` reads the sample field name.
fn key_matches(sel: &Selector, key: &SeriesKey) -> bool {
    sel.matchers.iter().all(|m| {
        let actual: &str = if m.key == "field" {
            key.field.as_str()
        } else {
            key.labels.iter().find(|(k, _)| *k == m.key).map(|(_, v)| v.as_str()).unwrap_or("")
        };
        glob_match(&m.value, actual) != m.negate
    })
}

/// Output labels of a stored series: its own labels (sorted) plus the
/// synthetic `field` label for non-`value` fields.
fn sample_labels(key: &SeriesKey) -> Vec<(String, String)> {
    let mut ls = key.labels.clone();
    if key.field != SampleField::Value {
        ls.push(("field".to_string(), key.field.as_str().to_string()));
    }
    ls.sort();
    ls
}

/// All matching series with their points at or before `tick`,
/// oldest-first, in deterministic store order.
fn select_raw(store: &Tsdb, sel: &Selector, tick: u64) -> Vec<crate::tsdb::SeriesData> {
    let q = Query { name: Some(sel.name.clone()), to: Some(tick), ..Query::default() };
    store.query(&q).into_iter().filter(|s| key_matches(sel, &s.key)).collect()
}

fn instant(store: &Tsdb, sel: &Selector, tick: u64) -> Vec<Sample> {
    let mut out = Vec::new();
    for s in select_raw(store, sel, tick) {
        if let Some((_, v)) = s.points.last() {
            out.push(Sample { name: s.key.name.clone(), labels: sample_labels(&s.key), value: *v });
        }
    }
    sort_vec(out)
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

fn eval_range_fn(store: &Tsdb, func: RangeFn, sel: &Selector, w: u64, tick: u64) -> Vec<Sample> {
    let series = select_raw(store, sel, tick);
    let floor = tick.saturating_sub(w);
    if func == RangeFn::AbsentOverTime {
        let present = series.iter().any(|s| s.points.iter().any(|(t, _)| *t >= floor));
        if present {
            return Vec::new();
        }
        return vec![Sample { name: String::new(), labels: Vec::new(), value: 1.0 }];
    }
    let mut out = Vec::new();
    for s in series {
        // `s.points` already holds only ticks <= `tick`, oldest first.
        let value = match func {
            RangeFn::Rate | RangeFn::Increase => {
                // Newest value minus the newest value at or before the
                // window floor, falling back to the oldest retained sample.
                let Some((_, end)) = s.points.last() else { continue };
                let start = s
                    .points
                    .iter()
                    .take_while(|(t, _)| *t <= floor)
                    .last()
                    .or_else(|| s.points.first())
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                let inc = end - start;
                if func == RangeFn::Rate {
                    inc / w as f64
                } else {
                    inc
                }
            }
            _ => {
                let window: Vec<f64> =
                    s.points.iter().filter(|(t, _)| *t >= floor).map(|(_, v)| *v).collect();
                if window.is_empty() {
                    continue;
                }
                let n = window.len() as f64;
                match func {
                    RangeFn::Delta => window[window.len() - 1] - window[0],
                    RangeFn::AvgOverTime => window.iter().sum::<f64>() / n,
                    RangeFn::MaxOverTime => {
                        window.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                    }
                    RangeFn::MinOverTime => window.iter().copied().fold(f64::INFINITY, f64::min),
                    RangeFn::SumOverTime => window.iter().sum::<f64>(),
                    RangeFn::CountOverTime => n,
                    RangeFn::Rate | RangeFn::Increase | RangeFn::AbsentOverTime => f64::NAN,
                }
            }
        };
        out.push(Sample { name: String::new(), labels: sample_labels(&s.key), value });
    }
    sort_vec(out)
}

/// Build a `labels -> sample` map, failing on duplicate label sets (the
/// many-to-many guard for binary operators).
fn by_labels(
    v: Vec<Sample>,
    side: &str,
) -> Result<BTreeMap<Vec<(String, String)>, Sample>, EvalError> {
    let mut map = BTreeMap::new();
    for s in v {
        if map.insert(s.labels.clone(), s).is_some() {
            return Err(eval_err(format!(
                "duplicate label set on {side} side of a binary operation"
            )));
        }
    }
    Ok(map)
}

fn eval_binary(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, EvalError> {
    if op.is_set() {
        let (Value::Vector(l), Value::Vector(r)) = (lhs, rhs) else {
            return Err(eval_err("`and`/`or`/`unless` need vector operands"));
        };
        let rset: BTreeSet<Vec<(String, String)>> = r.iter().map(|s| s.labels.clone()).collect();
        let lset: BTreeSet<Vec<(String, String)>> = l.iter().map(|s| s.labels.clone()).collect();
        let out = match op {
            BinOp::And => l.into_iter().filter(|s| rset.contains(&s.labels)).collect(),
            BinOp::Unless => l.into_iter().filter(|s| !rset.contains(&s.labels)).collect(),
            BinOp::Or => {
                let mut out = l;
                out.extend(r.into_iter().filter(|s| !lset.contains(&s.labels)));
                out
            }
            _ => Vec::new(),
        };
        return Ok(Value::Vector(sort_vec(out)));
    }
    if op.is_comparison() {
        return match (lhs, rhs) {
            (Value::Scalar(l), Value::Scalar(r)) => {
                Ok(Value::Scalar(if op.compare(l, r) { 1.0 } else { 0.0 }))
            }
            (Value::Vector(l), Value::Scalar(r)) => Ok(Value::Vector(sort_vec(
                l.into_iter().filter(|s| op.compare(s.value, r)).collect(),
            ))),
            (Value::Scalar(l), Value::Vector(r)) => Ok(Value::Vector(sort_vec(
                r.into_iter().filter(|s| op.compare(l, s.value)).collect(),
            ))),
            (Value::Vector(l), Value::Vector(r)) => {
                let rmap = by_labels(r, "right")?;
                let lmap = by_labels(l, "left")?;
                let out = lmap
                    .into_values()
                    .filter(|s| rmap.get(&s.labels).is_some_and(|o| op.compare(s.value, o.value)))
                    .collect();
                Ok(Value::Vector(sort_vec(out)))
            }
        };
    }
    // Arithmetic: results drop the metric name.
    match (lhs, rhs) {
        (Value::Scalar(l), Value::Scalar(r)) => Ok(Value::Scalar(op.arith(l, r))),
        (Value::Vector(l), Value::Scalar(r)) => Ok(Value::Vector(sort_vec(
            l.into_iter()
                .map(|s| Sample { name: String::new(), value: op.arith(s.value, r), ..s })
                .collect(),
        ))),
        (Value::Scalar(l), Value::Vector(r)) => Ok(Value::Vector(sort_vec(
            r.into_iter()
                .map(|s| Sample { name: String::new(), value: op.arith(l, s.value), ..s })
                .collect(),
        ))),
        (Value::Vector(l), Value::Vector(r)) => {
            let rmap = by_labels(r, "right")?;
            let lmap = by_labels(l, "left")?;
            let mut out = Vec::new();
            for (labels, s) in lmap {
                if let Some(o) = rmap.get(&labels) {
                    out.push(Sample {
                        name: String::new(),
                        labels,
                        value: op.arith(s.value, o.value),
                    });
                }
            }
            Ok(Value::Vector(sort_vec(out)))
        }
    }
}

fn eval_aggregate(op: AggOp, grouping: &Grouping, input: Vec<Sample>) -> Vec<Sample> {
    let mut groups: BTreeMap<Vec<(String, String)>, Vec<f64>> = BTreeMap::new();
    for s in input {
        let labels = match grouping {
            Grouping::All => Vec::new(),
            Grouping::By(keys) => {
                s.labels.iter().filter(|(k, _)| keys.contains(k)).cloned().collect()
            }
            Grouping::Without(keys) => {
                s.labels.iter().filter(|(k, _)| !keys.contains(k)).cloned().collect()
            }
        };
        groups.entry(labels).or_default().push(s.value);
    }
    groups
        .into_iter()
        .map(|(labels, vs)| {
            let n = vs.len() as f64;
            let value = match op {
                AggOp::Sum => vs.iter().sum::<f64>(),
                AggOp::Avg => vs.iter().sum::<f64>() / n,
                AggOp::Min => vs.iter().copied().fold(f64::INFINITY, f64::min),
                AggOp::Max => vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                AggOp::Count => n,
            };
            Sample { name: String::new(), labels, value }
        })
        .collect()
}

fn quantile_field(q: f64) -> Result<SampleField, EvalError> {
    if q == 0.5 {
        Ok(SampleField::P50)
    } else if q == 0.95 {
        Ok(SampleField::P95)
    } else if q == 0.99 {
        Ok(SampleField::P99)
    } else if q == 1.0 {
        Ok(SampleField::Max)
    } else {
        Err(eval_err(format!(
            "histogram_quantile supports q in {{0.5, 0.95, 0.99, 1}} (pre-sampled fields), got {q}"
        )))
    }
}

/// Evaluate `expr` against `store` at logical time `tick`.
pub fn eval(store: &Tsdb, expr: &Expr, tick: u64) -> Result<Value, EvalError> {
    match expr {
        Expr::Number(n) => Ok(Value::Scalar(*n)),
        Expr::Tick => Ok(Value::Scalar(tick as f64)),
        Expr::Selector(sel) => Ok(Value::Vector(instant(store, sel, tick))),
        Expr::Range(sel, _) => {
            Err(eval_err(format!("range selector `{}[..]` outside a range function", sel.name)))
        }
        Expr::Neg(arg) => match eval(store, arg, tick)? {
            Value::Scalar(s) => Ok(Value::Scalar(-s)),
            Value::Vector(v) => Ok(Value::Vector(sort_vec(
                v.into_iter()
                    .map(|s| Sample { name: String::new(), value: -s.value, ..s })
                    .collect(),
            ))),
        },
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(store, lhs, tick)?;
            let r = eval(store, rhs, tick)?;
            eval_binary(*op, l, r)
        }
        Expr::RangeCall { func, sel, window } => {
            Ok(Value::Vector(eval_range_fn(store, *func, sel, *window, tick)))
        }
        Expr::Aggregate { op, grouping, arg } => match eval(store, arg, tick)? {
            Value::Vector(v) => Ok(Value::Vector(eval_aggregate(*op, grouping, v))),
            Value::Scalar(_) => Err(eval_err("aggregation needs a vector argument")),
        },
        Expr::HistogramQuantile { q, sel } => {
            let q = match eval(store, q, tick)? {
                Value::Scalar(s) => s,
                Value::Vector(_) => {
                    return Err(eval_err("histogram_quantile quantile must be a scalar"))
                }
            };
            let field = quantile_field(q)?;
            let mut narrowed = sel.clone();
            narrowed.matchers.push(LabelMatcher {
                key: "field".to_string(),
                value: field.as_str().to_string(),
                negate: false,
            });
            let v = instant(store, &narrowed, tick)
                .into_iter()
                .map(|mut s| {
                    s.labels.retain(|(k, _)| k != "field");
                    Sample { name: String::new(), ..s }
                })
                .collect();
            Ok(Value::Vector(sort_vec(v)))
        }
        Expr::Clamp { is_min, arg, bound } => {
            let b = match eval(store, bound, tick)? {
                Value::Scalar(s) => s,
                Value::Vector(_) => return Err(eval_err("clamp bound must be a scalar")),
            };
            let clamp = |x: f64| if *is_min { x.max(b) } else { x.min(b) };
            match eval(store, arg, tick)? {
                Value::Scalar(s) => Ok(Value::Scalar(clamp(s))),
                Value::Vector(v) => Ok(Value::Vector(sort_vec(
                    v.into_iter().map(|s| Sample { value: clamp(s.value), ..s }).collect(),
                ))),
            }
        }
        Expr::ScalarCall { func, lhs, rhs } => {
            let l = match eval(store, lhs, tick)? {
                Value::Scalar(s) => s,
                Value::Vector(_) => return Err(eval_err("scalar min/max need scalar operands")),
            };
            let r = match eval(store, rhs, tick)? {
                Value::Scalar(s) => s,
                Value::Vector(_) => return Err(eval_err("scalar min/max need scalar operands")),
            };
            Ok(Value::Scalar(match func {
                ScalarFn::Min => l.min(r),
                ScalarFn::Max => l.max(r),
            }))
        }
    }
}

// ---------------------------------------------------------------------------
// Range evaluation and JSON rendering
// ---------------------------------------------------------------------------

/// One output series of [`eval_range`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RangeSeries {
    /// Metric family name (empty for derived values).
    pub(crate) name: String,
    /// Sorted label pairs.
    pub(crate) labels: Vec<(String, String)>,
    /// `(tick, value)` points in ascending tick order.
    pub(crate) points: Vec<(u64, f64)>,
}

/// Accumulator key for [`eval_range`]: series name + sorted label pairs.
type SeriesId = (String, Vec<(String, String)>);

/// Evaluate `expr` at every tick `from, from+step, ...` up to and
/// including `to`, merging per-tick vectors into per-series point lists.
/// A scalar result becomes one series with an empty name and no labels.
pub(crate) fn eval_range(
    store: &Tsdb,
    expr: &Expr,
    from: u64,
    to: u64,
    step: u64,
) -> Result<Vec<RangeSeries>, EvalError> {
    let step = step.max(1);
    let mut acc: BTreeMap<SeriesId, Vec<(u64, f64)>> = BTreeMap::new();
    let mut t = from;
    while t <= to {
        match eval(store, expr, t)? {
            Value::Scalar(v) => {
                acc.entry((String::new(), Vec::new())).or_default().push((t, v));
            }
            Value::Vector(samples) => {
                for s in samples {
                    acc.entry((s.name, s.labels)).or_default().push((t, s.value));
                }
            }
        }
        match t.checked_add(step) {
            Some(next) => t = next,
            None => break,
        }
    }
    Ok(acc
        .into_iter()
        .map(|((name, labels), points)| RangeSeries { name, labels, points })
        .collect())
}

fn push_labels_json(out: &mut String, labels: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&crate::export::json_str(k));
        out.push(':');
        out.push_str(&crate::export::json_str(v));
    }
    out.push('}');
}

/// Parse `src` and evaluate it over `[from, to]` with `step`, rendering
/// the tick-keyed JSON served by `/query_range`. The output is a pure
/// function of the store contents, so same-seed replays produce
/// byte-identical responses.
pub fn query_range_json(
    store: &Tsdb,
    src: &str,
    from: u64,
    to: u64,
    step: u64,
) -> Result<String, QueryError> {
    let expr = parse(src).map_err(QueryError::Parse)?;
    let series = eval_range(store, &expr, from, to, step).map_err(QueryError::Eval)?;
    let mut out = String::from("{\"expr\":");
    out.push_str(&crate::export::json_str(src));
    out.push_str(&format!(",\"from\":{from},\"to\":{to},\"step\":{}", step.max(1)));
    out.push_str(",\"series\":[");
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        out.push_str(&crate::export::json_str(&s.name));
        out.push_str(",\"labels\":");
        push_labels_json(&mut out, &s.labels);
        out.push_str(",\"points\":[");
        for (j, (t, v)) in s.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&t.to_string());
            out.push(',');
            out.push_str(&crate::export::json_f64(*v));
            out.push(']');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Recording rules
// ---------------------------------------------------------------------------

/// A named expression the [`crate::tsdb::Scraper`] evaluates every tick,
/// writing the result back into the store as synthetic series under the
/// rule's name (Prometheus convention: colon-separated names like
/// `sub:ingest_records:rate1`, so synthetic series never collide with the
/// `commgraph_*` registry namespace).
#[derive(Debug, Clone)]
pub struct RecordingRule {
    name: String,
    expr: Expr,
}

impl RecordingRule {
    /// Parse `src` into a rule named `name`.
    pub fn new(name: &str, src: &str) -> Result<RecordingRule, ParseError> {
        Ok(RecordingRule { name: name.to_string(), expr: parse(src)? })
    }

    /// The output series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluate at `tick` and append the result to `store` (one series per
    /// output label set, all under this rule's name, `value` field).
    /// Returns the number of series written. Appends go through
    /// [`Tsdb::append`], so synthetic series are subject to the same
    /// eviction and max-series accounting as scraped ones.
    pub(crate) fn record(&self, store: &Tsdb, tick: u64) -> Result<usize, EvalError> {
        match eval(store, &self.expr, tick)? {
            Value::Scalar(v) => {
                store.append(
                    SeriesKey {
                        name: self.name.clone(),
                        labels: Vec::new(),
                        field: SampleField::Value,
                    },
                    tick,
                    v,
                );
                Ok(1)
            }
            Value::Vector(samples) => {
                let n = samples.len();
                for s in samples {
                    store.append(
                        SeriesKey {
                            name: self.name.clone(),
                            labels: s.labels,
                            field: SampleField::Value,
                        },
                        tick,
                        s.value,
                    );
                }
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::TsdbConfig;

    fn store() -> Tsdb {
        let s = Tsdb::new(TsdbConfig::default());
        // Two counter shards, one gauge, one histogram fan-out.
        for tick in 1..=8u64 {
            s.append(SeriesKey::value("req_total", &[("shard", "a")]), tick, (tick * 10) as f64);
            s.append(SeriesKey::value("req_total", &[("shard", "b")]), tick, (tick * 3) as f64);
            s.append(SeriesKey::value("lag_gauge", &[]), tick, 100.0 - tick as f64);
        }
        for (field, v) in
            [(SampleField::Count, 40.0), (SampleField::P95, 0.9), (SampleField::P50, 0.4)]
        {
            s.append(SeriesKey { name: "lat_seconds".into(), labels: vec![], field }, 5, v);
        }
        s
    }

    fn eval_str(s: &Tsdb, src: &str, tick: u64) -> Value {
        eval(s, &parse(src).unwrap(), tick).unwrap()
    }

    fn vec_of(v: Value) -> Vec<Sample> {
        match v {
            Value::Vector(v) => v,
            Value::Scalar(s) => panic!("expected vector, got scalar {s}"),
        }
    }

    #[test]
    fn parses_and_evals_instant_selector_with_matchers() {
        let s = store();
        let v = vec_of(eval_str(&s, "req_total{shard=\"a\"}", 8));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "req_total");
        assert_eq!(v[0].value, 80.0);
        let both = vec_of(eval_str(&s, "req_total", 8));
        assert_eq!(both.len(), 2);
        assert!(both[0].labels < both[1].labels, "deterministic label order");
        let neg = vec_of(eval_str(&s, "req_total{shard!=\"a\"}", 8));
        assert_eq!(neg.len(), 1);
        assert_eq!(neg[0].value, 24.0);
        // The newest sample at or before the tick, and nothing before any.
        assert_eq!(vec_of(eval_str(&s, "req_total{shard=\"a\"}", 3))[0].value, 30.0);
        assert!(vec_of(eval_str(&s, "req_total", 0)).is_empty());
    }

    #[test]
    fn glob_matchers_match_segments() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("tenant-*", "tenant-a"));
        assert!(!glob_match("tenant-*", "other"));
        assert!(glob_match("*-a", "tenant-a"));
        assert!(glob_match("t*t-*", "tenant-b"));
        assert!(!glob_match("t*x", "tenant"));
        assert!(glob_match("abc", "abc"));
        assert!(!glob_match("a*a", "a"));
        let s = store();
        let v = vec_of(eval_str(&s, "req_total{shard=\"*\"}", 8));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn increase_is_newest_minus_value_at_window_floor_or_oldest_retained() {
        let s = store();
        // The last two windows reach past tick 1 and clamp to the oldest
        // retained sample (70 = v(8) − v(1)), not to zero.
        for (w, tick, want) in
            [(2u64, 8u64, 20.0), (4, 8, 40.0), (8, 8, 70.0), (3, 5, 30.0), (20, 8, 70.0)]
        {
            let expr = format!("increase(req_total{{shard=\"a\"}}[{w}])");
            let v = vec_of(eval_str(&s, &expr, tick));
            assert_eq!(v[0].value, want, "w={w} tick={tick}");
        }
        assert!(vec_of(eval_str(&s, "increase(req_total[2])", 0)).is_empty(), "no sample yet");
    }

    #[test]
    fn rate_is_increase_over_window_and_nonnegative_for_monotone() {
        let s = store();
        let v = vec_of(eval_str(&s, "rate(req_total{shard=\"a\"}[4])", 8));
        assert_eq!(v[0].value, 10.0);
        assert_eq!(v[0].name, "", "range functions drop the metric name");
    }

    #[test]
    fn over_time_functions_cover_inclusive_window() {
        let s = store();
        // Window [4, 8]: gauge values 96..=92.
        assert_eq!(vec_of(eval_str(&s, "max_over_time(lag_gauge[4])", 8))[0].value, 96.0);
        assert_eq!(vec_of(eval_str(&s, "min_over_time(lag_gauge[4])", 8))[0].value, 92.0);
        assert_eq!(vec_of(eval_str(&s, "count_over_time(lag_gauge[4])", 8))[0].value, 5.0);
        assert_eq!(vec_of(eval_str(&s, "avg_over_time(lag_gauge[4])", 8))[0].value, 94.0);
        assert_eq!(vec_of(eval_str(&s, "sum_over_time(lag_gauge[4])", 8))[0].value, 470.0);
        assert_eq!(vec_of(eval_str(&s, "delta(lag_gauge[4])", 8))[0].value, -4.0);
    }

    #[test]
    fn absent_over_time_mirrors_absence_condition() {
        let s = store();
        // Histogram sampled only at tick 5: absent when tick - 5 > w.
        assert!(!vec_of(eval_str(&s, "absent_over_time(lat_seconds{field=\"count\"}[2])", 8))
            .is_empty());
        assert!(
            vec_of(eval_str(&s, "absent_over_time(lat_seconds{field=\"count\"}[3])", 8)).is_empty()
        );
        assert!(!vec_of(eval_str(&s, "absent_over_time(no_such_series[3])", 8)).is_empty());
    }

    #[test]
    fn aggregations_group_by_and_without() {
        let s = store();
        let sum = vec_of(eval_str(&s, "sum(req_total)", 8));
        assert_eq!(sum.len(), 1);
        assert_eq!(sum[0].value, 104.0);
        assert!(sum[0].labels.is_empty());
        let by = vec_of(eval_str(&s, "sum by (shard) (req_total)", 8));
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].labels, vec![("shard".to_string(), "a".to_string())]);
        let without = vec_of(eval_str(&s, "sum without (shard) (req_total)", 8));
        assert_eq!(without.len(), 1);
        assert_eq!(without[0].value, 104.0);
        let trailing = vec_of(eval_str(&s, "avg(req_total) by (shard)", 8));
        assert_eq!(trailing.len(), 2);
        assert_eq!(vec_of(eval_str(&s, "count(req_total)", 8))[0].value, 2.0);
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let s = store();
        assert_eq!(eval_str(&s, "1 + 2 * 3", 1), Value::Scalar(7.0));
        assert_eq!(eval_str(&s, "(1 + 2) * 3", 1), Value::Scalar(9.0));
        assert_eq!(eval_str(&s, "4 > 3", 1), Value::Scalar(1.0));
        assert_eq!(eval_str(&s, "-2", 1), Value::Scalar(-2.0));
        let halved = vec_of(eval_str(&s, "req_total / 2", 8));
        assert_eq!(halved[0].value, 40.0);
        assert_eq!(halved[0].name, "", "arithmetic drops the name");
        // Vector comparison filters, keeping original values and name.
        let hot = vec_of(eval_str(&s, "req_total > 30", 8));
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].value, 80.0);
        assert_eq!(hot[0].name, "req_total");
        // Vector / vector matches on the full label set.
        let ratio = vec_of(eval_str(&s, "req_total / req_total", 8));
        assert_eq!(ratio.len(), 2);
        assert!(ratio.iter().all(|r| r.value == 1.0));
    }

    #[test]
    fn set_operators_match_label_sets() {
        let s = store();
        let both = vec_of(eval_str(&s, "(req_total > 30) or (req_total > 20)", 8));
        assert_eq!(both.len(), 2);
        let and = vec_of(eval_str(&s, "(req_total > 1) and (req_total > 30)", 8));
        assert_eq!(and.len(), 1);
        let unless = vec_of(eval_str(&s, "(req_total > 1) unless (req_total > 30)", 8));
        assert_eq!(unless.len(), 1);
        assert_eq!(unless[0].value, 24.0);
    }

    #[test]
    fn histogram_quantile_reads_presampled_fields() {
        let s = store();
        let p95 = vec_of(eval_str(&s, "histogram_quantile(0.95, lat_seconds)", 5));
        assert_eq!(p95.len(), 1);
        assert_eq!(p95[0].value, 0.9);
        assert!(p95[0].labels.is_empty(), "field label is consumed");
        let p50 = vec_of(eval_str(&s, "histogram_quantile(0.5, lat_seconds)", 5));
        assert_eq!(p50[0].value, 0.4);
        let e = eval(&s, &parse("histogram_quantile(0.9, lat_seconds)").unwrap(), 5);
        assert!(e.is_err(), "unsupported quantile is an eval error");
    }

    #[test]
    fn scalar_helpers_and_tick() {
        let s = store();
        assert_eq!(eval_str(&s, "min(2, max(tick(), 1))", 1), Value::Scalar(1.0));
        assert_eq!(eval_str(&s, "min(2, max(tick(), 1))", 7), Value::Scalar(2.0));
        let clamped = vec_of(eval_str(&s, "clamp_min(req_total - 50, 0)", 8));
        assert_eq!(clamped.iter().map(|s| s.value).collect::<Vec<_>>(), vec![30.0, 0.0]);
        assert_eq!(eval_str(&s, "clamp_max(9, 5)", 1), Value::Scalar(5.0));
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        for bad in [
            "",
            "req_total{",
            "req_total{x=}",
            "rate(req_total)",
            "rate(req_total[0])",
            "req_total[5]",
            "sum(1)",
            "histogram_quantile(lat_seconds)",
            "unknown_fn(1)",
            "1 +",
            "req_total{field=\"p95\" p50}",
            "and",
            "tick(1)",
            "min(1)",
            "histogram_quantile(0.5, lat_seconds{field=\"p95\"})",
            "a !! b",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn nesting_past_the_depth_limit_is_a_parse_error() {
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let minuses = |n: usize| format!("{}1", "-".repeat(n));
        let calls = |n: usize| format!("{}x{}", "sum(".repeat(n), ")".repeat(n));
        for nested in [parens, minuses, calls] {
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{}", nested(MAX_DEPTH));
            let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.msg.contains("nests deeper"), "{e}");
        }
        // What one request line can carry: a recursion this deep used to
        // overflow the serving thread's stack — in the parser for nesting,
        // in the type check for a left-deep operator chain.
        assert!(parse(&parens(2000)).is_err());
        assert!(parse(&"(".repeat(4000)).is_err());
        for op in ["-", "*", " or ", " and "] {
            assert!(parse(&format!("x{}", format!("{op}x").repeat(2000))).is_err(), "{op}");
            assert!(parse(&format!("x{}", format!("{op}x").repeat(MAX_DEPTH - 1))).is_ok(), "{op}");
        }
    }

    #[test]
    fn eval_range_merges_ticks_and_is_deterministic() {
        let s = store();
        let expr = parse("rate(req_total[2])").unwrap();
        let a = eval_range(&s, &expr, 2, 8, 2).unwrap();
        let b = eval_range(&s, &expr, 2, 8, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].points.iter().map(|(t, _)| *t).collect::<Vec<_>>(), vec![2, 4, 6, 8]);
        let json1 = query_range_json(&s, "rate(req_total[2])", 2, 8, 2).unwrap();
        let json2 = query_range_json(&s, "rate(req_total[2])", 2, 8, 2).unwrap();
        assert_eq!(json1, json2, "byte-identical replay");
        assert!(
            json1.starts_with("{\"expr\":\"rate(req_total[2])\",\"from\":2,\"to\":8,\"step\":2")
        );
    }

    #[test]
    fn recording_rule_writes_synthetic_series() {
        let s = store();
        let rule =
            RecordingRule::new("shard:req:rate2", "sum by (shard) (rate(req_total[2]))").unwrap();
        for tick in 3..=8 {
            assert_eq!(rule.record(&s, tick).unwrap(), 2);
        }
        let v = vec_of(eval_str(&s, "shard:req:rate2{shard=\"a\"}", 8));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].value, 10.0);
        // Synthetic series are queryable through the raw TSDB API too.
        assert_eq!(
            s.query(&Query { name: Some("shard:req:rate2".into()), ..Query::default() }).len(),
            2
        );
    }
}

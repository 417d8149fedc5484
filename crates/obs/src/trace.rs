//! Hierarchical spans and the bounded **flight recorder**.
//!
//! [`SpanGuard`](crate::SpanGuard) answers "how long does this stage take in
//! aggregate"; this module answers "what did *this run* look like on a
//! timeline". A [`Tracer`] hands out [`TraceSpan`]s with a trace-unique id,
//! an implicit parent (the innermost span still open on this tracer), typed
//! string attributes, and point-in-time [`SpanEvent`]s. Finished spans land
//! in a bounded ring — the flight recorder — so the last moments before an
//! anomaly survive for a post-mortem [`FlightDump`].
//!
//! Cost model mirrors the rest of the crate: a disabled [`TraceSpan`]
//! (`TraceSpan::noop()`, or any span minted through a tracer-less
//! [`Obs`](crate::Obs)) is one `Option` branch — it never reads the clock,
//! never locks, never allocates. Results of traced runs are bit-for-bit
//! identical to untraced runs.
//!
//! Two exporters read a dump back out: `chrome_trace_json` emits the
//! Chrome trace-event format (open the file in Perfetto / `about:tracing`)
//! and [`render_tree`] prints an indented text tree for terminals.

use crate::sync::lock;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of the flight-recorder ring (`Tracer::default()`).
pub(crate) const DEFAULT_FLIGHT_CAP: usize = 1024;

/// A point-in-time annotation inside a span (e.g. "anomaly detected").
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event name.
    pub(crate) name: String,
    /// Seconds since the tracer epoch when the event fired.
    pub(crate) at_secs: f64,
    /// Key/value payload.
    pub(crate) fields: Vec<(String, String)>,
}

/// One finished span as retained by the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace-unique span id (1-based, monotonically assigned).
    pub id: u64,
    /// Parent span id, if this span opened while another was still open.
    pub parent: Option<u64>,
    /// Span name (stage or operation).
    pub name: String,
    /// Seconds since the tracer epoch when the span opened.
    pub(crate) start_secs: f64,
    /// Span duration in seconds (never negative).
    pub(crate) dur_secs: f64,
    /// Attributes set via [`TraceSpan::attr`], in insertion order.
    pub(crate) attrs: Vec<(String, String)>,
    /// Events added via [`TraceSpan::add_event`], in order.
    pub(crate) events: Vec<SpanEvent>,
}

/// A snapshot of the flight recorder, oldest span first.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Ring capacity the tracer was built with.
    pub(crate) capacity: usize,
    /// Finished spans evicted because the ring was full.
    pub dropped: u64,
    /// Spans still open (started, not yet finished) at dump time.
    pub open_spans: usize,
    /// Retained finished spans, oldest first.
    pub spans: Vec<SpanRecord>,
}

#[derive(Debug, Default)]
struct FlightRecorder {
    cap: usize,
    // bound: at most `cap` finished spans, oldest evicted first.
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

impl FlightRecorder {
    fn push(&mut self, rec: SpanRecord) {
        while self.spans.len() >= self.cap.max(1) {
            self.spans.pop_front();
            self.dropped += 1;
        }
        if self.cap > 0 {
            self.spans.push_back(rec);
        } else {
            self.dropped += 1;
        }
    }
}

#[derive(Debug, Default)]
struct TracerInner {
    recorder: FlightRecorder,
    /// Ids of spans started but not yet finished, in start order. The last
    /// entry is the implicit parent of the next span.
    // bound: one id per live `TraceSpan`; a span's drop removes its id.
    open: Vec<u64>,
}

/// Mints spans, tracks the open-span stack for implicit parenting, and owns
/// the flight-recorder ring. Shared as `Arc<Tracer>`; all methods take
/// `&self` and are thread-safe (one short mutex hold per span open/close).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    inner: Mutex<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_FLIGHT_CAP)
    }
}

impl Tracer {
    /// A tracer whose flight recorder retains the last `capacity` finished
    /// spans (capacity 0 records nothing but still counts drops).
    #[expect(
        clippy::disallowed_methods,
        reason = "the trace timebase; span times are measurement-only and never reach pipeline output"
    )]
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(TracerInner {
                recorder: FlightRecorder { cap: capacity, ..Default::default() },
                open: Vec::new(),
            }),
        }
    }

    /// Open a span named `name` whose parent is the innermost span still
    /// open on this tracer (implicit parenting), or a root if none is.
    pub(crate) fn span(self: &Arc<Self>, name: &str) -> TraceSpan {
        let start_secs = self.epoch.elapsed().as_secs_f64();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut inner = lock(&self.inner);
            let parent = inner.open.last().copied();
            inner.open.push(id);
            parent
        };
        TraceSpan {
            tracer: Some(self.clone()),
            id,
            parent,
            name: name.to_string(),
            start_secs,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Open a span with no parent regardless of what is currently open —
    /// use for per-run roots (`pipeline_run`, `monitor_run`).
    pub(crate) fn root_span(self: &Arc<Self>, name: &str) -> TraceSpan {
        let mut span = self.span(name);
        span.parent = None;
        span
    }

    /// Snapshot the flight recorder (oldest retained span first).
    pub fn dump(&self) -> FlightDump {
        let inner = lock(&self.inner);
        FlightDump {
            capacity: inner.recorder.cap,
            dropped: inner.recorder.dropped,
            open_spans: inner.open.len(),
            spans: inner.recorder.spans.iter().cloned().collect(),
        }
    }

    /// Seconds since this tracer's epoch (the timebase of all records).
    pub(crate) fn now_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn close(&self, id: u64, rec: SpanRecord) {
        let mut inner = lock(&self.inner);
        // Search from the end: the closing span is almost always innermost.
        if let Some(pos) = inner.open.iter().rposition(|&open_id| open_id == id) {
            inner.open.remove(pos);
        }
        inner.recorder.push(rec);
    }
}

/// An open span handle. Enabled spans record into their tracer's flight
/// recorder when finished (explicitly via [`TraceSpan::finish`] or on drop);
/// the noop form is inert — one branch, no clock, no allocation.
#[derive(Debug)]
pub struct TraceSpan {
    tracer: Option<Arc<Tracer>>,
    id: u64,
    parent: Option<u64>,
    name: String,
    start_secs: f64,
    attrs: Vec<(String, String)>,
    events: Vec<SpanEvent>,
}

impl TraceSpan {
    /// The inert span (what a tracer-less [`Obs`](crate::Obs) hands out).
    pub(crate) fn noop() -> Self {
        TraceSpan {
            tracer: None,
            id: 0,
            parent: None,
            name: String::new(),
            start_secs: 0.0,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    /// True when backed by a tracer. Use to skip building attribute strings
    /// on disabled paths.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Attach (or append) a string attribute. No-op when disabled.
    pub fn attr(&mut self, key: &str, value: &str) {
        if self.tracer.is_some() {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Record a point-in-time event inside this span. No-op when disabled.
    pub fn add_event(&mut self, name: &str, fields: &[(&str, String)]) {
        if let Some(tracer) = &self.tracer {
            let at_secs = tracer.now_secs();
            self.events.push(SpanEvent {
                name: name.to_string(),
                at_secs,
                fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            });
        }
    }

    /// Finish now and return the span's duration in seconds (0.0 when
    /// disabled — the clock is never read). Recorded exactly once.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(tracer) = self.tracer.take() else { return 0.0 };
        let end_secs = tracer.now_secs();
        let dur_secs = (end_secs - self.start_secs).max(0.0);
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_secs: self.start_secs,
            dur_secs,
            attrs: std::mem::take(&mut self.attrs),
            events: std::mem::take(&mut self.events),
        };
        tracer.close(self.id, rec);
        dur_secs
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.close();
    }
}

/// Render a dump in the Chrome trace-event JSON format: complete (`"X"`)
/// events for spans, instant (`"i"`) events for span events, timestamps in
/// microseconds since the tracer epoch. All events share `pid`/`tid` 1, so
/// viewers (Perfetto, `about:tracing`) nest them by time containment; the
/// explicit ids travel in `args.span_id` / `args.parent_id`.
pub(crate) fn chrome_trace_json(dump: &FlightDump) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut spans: Vec<&SpanRecord> = dump.spans.iter().collect();
    spans.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs).then(a.id.cmp(&b.id)));
    let mut first = true;
    for s in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"commgraph\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{},\"dur\":{},\"args\":{{\"span_id\":\"{}\",\"parent_id\":\"{}\"",
            crate::export::json_str(&s.name),
            micros(s.start_secs),
            micros(s.dur_secs),
            s.id,
            s.parent.map(|p| p.to_string()).unwrap_or_default(),
        );
        for (k, v) in &s.attrs {
            let _ = write!(out, ",{}:{}", crate::export::json_str(k), crate::export::json_str(v));
        }
        out.push_str("}}");
        for e in &s.events {
            let _ = write!(
                out,
                ",{{\"name\":{},\"cat\":\"commgraph\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"s\":\"t\",\"args\":{{\"span_id\":\"{}\"",
                crate::export::json_str(&e.name),
                micros(e.at_secs),
                s.id,
            );
            for (k, v) in &e.fields {
                let _ =
                    write!(out, ",{}:{}", crate::export::json_str(k), crate::export::json_str(v));
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

/// Render a dump as an indented text tree (children under parents, siblings
/// in start order), with per-span durations, attributes, and events. Spans
/// whose parent was evicted from the ring render at the top level.
pub fn render_tree(dump: &FlightDump) -> String {
    let mut out = format!(
        "flight recorder: {} span(s) retained (capacity {}, {} dropped, {} still open)\n",
        dump.spans.len(),
        dump.capacity,
        dump.dropped,
        dump.open_spans
    );
    let retained: std::collections::BTreeSet<u64> = dump.spans.iter().map(|s| s.id).collect();
    let mut order: Vec<&SpanRecord> = dump.spans.iter().collect();
    order.sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs).then(a.id.cmp(&b.id)));
    let mut children: std::collections::BTreeMap<u64, Vec<&SpanRecord>> = Default::default();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in &order {
        match s.parent.filter(|p| retained.contains(p)) {
            Some(p) => children.entry(p).or_default().push(s),
            None => roots.push(s),
        }
    }
    let mut stack: Vec<(&SpanRecord, usize)> = roots.into_iter().rev().map(|s| (s, 0)).collect();
    while let Some((s, depth)) = stack.pop() {
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{indent}{} [{}] {:.3} ms", s.name, s.id, s.dur_secs * 1e3);
        for (k, v) in &s.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for e in &s.events {
            let _ = write!(out, "{indent}  ! {} @ {:.3} ms", e.name, e.at_secs * 1e3);
            for (k, v) in &e.fields {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        if let Some(kids) = children.get(&s.id) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    out
}

/// Seconds → integer microseconds, clamped non-negative.
fn micros(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e6).round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_open_order() {
        let t = Arc::new(Tracer::new(16));
        let root = t.span("root");
        let child = t.span("child");
        let grandchild = t.span("grandchild");
        drop(grandchild);
        drop(child);
        drop(root);
        let dump = t.dump();
        assert_eq!(dump.spans.len(), 3);
        assert_eq!(dump.open_spans, 0);
        let by_name =
            |n: &str| dump.spans.iter().find(|s| s.name == n).expect("span recorded").clone();
        let root = by_name("root");
        let child = by_name("child");
        let grand = by_name("grandchild");
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(grand.parent, Some(child.id));
        assert!(root.dur_secs >= child.dur_secs);
        assert!(root.start_secs <= child.start_secs);
    }

    #[test]
    fn root_span_ignores_the_open_stack() {
        let t = Arc::new(Tracer::new(16));
        let outer = t.span("outer");
        let root = t.root_span("fresh_root");
        assert_ne!(root.id, 0);
        drop(root);
        drop(outer);
        let dump = t.dump();
        assert_eq!(dump.spans.iter().find(|s| s.name == "fresh_root").unwrap().parent, None);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let t = Arc::new(Tracer::new(2));
        for i in 0..5 {
            t.span(&format!("s{i}")).finish();
        }
        let dump = t.dump();
        assert_eq!(dump.spans.len(), 2);
        assert_eq!(dump.dropped, 3);
        assert_eq!(dump.spans[0].name, "s3");
        assert_eq!(dump.spans[1].name, "s4");
        assert_eq!(dump.capacity, 2);
    }

    #[test]
    fn attrs_and_events_survive_into_the_record() {
        let t = Arc::new(Tracer::new(8));
        let mut s = t.span("window");
        s.attr("records", "42");
        s.add_event("anomaly", &[("score", "3.5".to_string())]);
        let dur = s.finish();
        assert!(dur >= 0.0);
        let dump = t.dump();
        let rec = &dump.spans[0];
        assert_eq!(rec.attrs, vec![("records".to_string(), "42".to_string())]);
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.events[0].name, "anomaly");
        assert!(rec.events[0].at_secs >= rec.start_secs);
    }

    #[test]
    fn noop_span_is_inert() {
        let mut s = TraceSpan::noop();
        assert!(!s.is_enabled());
        assert_eq!(s.id, 0);
        s.attr("k", "v");
        s.add_event("e", &[]);
        assert_eq!(s.finish(), 0.0);
    }

    #[test]
    fn chrome_export_shape() {
        let t = Arc::new(Tracer::new(8));
        let mut root = t.span("pipeline_run");
        root.attr("scale", "0.1");
        let child = t.span("ingest");
        child.finish();
        root.add_event("mark", &[]);
        root.finish();
        let json = chrome_trace_json(&t.dump());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"pipeline_run\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"scale\":\"0.1\""));
        // The child's parent_id must be the root's span_id.
        let root_rec = t.dump().spans.iter().find(|s| s.name == "pipeline_run").unwrap().clone();
        assert!(json.contains(&format!("\"parent_id\":\"{}\"", root_rec.id)));
    }

    #[test]
    fn tree_renders_nesting_and_orphans() {
        let t = Arc::new(Tracer::new(2));
        let root = t.span("root");
        t.span("a").finish();
        t.span("b").finish(); // evicts nothing yet (cap 2: a,b)
        root.finish(); // evicts a → root's children partially orphaned
        let tree = render_tree(&t.dump());
        assert!(tree.contains("flight recorder: 2 span(s) retained"));
        assert!(tree.contains("root"));
        // `b` is a child of the retained root; indented.
        assert!(tree.contains("  b ["), "{tree}");
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let t = Arc::new(Tracer::new(0));
        t.span("x").finish();
        let dump = t.dump();
        assert!(dump.spans.is_empty());
        assert_eq!(dump.dropped, 1);
    }
}

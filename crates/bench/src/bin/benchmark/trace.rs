//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap calls *into* a layer from the outside; the product's own
//! tracer stays off. A span's layer is the part of its name before the
//! first `.` (`core.analyze` belongs to `core`). With the recorder off,
//! [`Recorder::begin`] reads no clock and [`Recorder::end`] does nothing,
//! so end-to-end runs pay one branch per call.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Pass this span belongs to (0 for layer replays outside any pass).
    pub pass: u32,
}

/// Span sink; off by default.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    pass: u32,
    /// Every recorded span, in completion order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Self {
        Recorder { on, origin: Instant::now(), pass: 0, spans: Vec::new() }
    }

    /// An empty recorder on the same clock origin: layer replays record
    /// into a fork so their spans never mix with the passes' spans of the
    /// same name, then [`Recorder::absorb`] puts them in one trace.
    pub fn fork(&self) -> Recorder {
        Recorder { on: self.on, origin: self.origin, pass: 0, spans: Vec::new() }
    }

    /// Append `other`'s spans (their parent indices are not remapped;
    /// forks record none).
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// Tag subsequent spans with pass id `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Start timing a call; `None` (no clock read) when off.
    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Finish a call started with [`Recorder::begin`]; returns the span's
    /// index so later spans can name it as their parent.
    pub fn end(
        &mut self,
        name: &'static str,
        started: Option<Instant>,
        parent: Option<u32>,
    ) -> Option<u32> {
        let started = started?;
        self.push(name, started, started.elapsed(), parent)
    }

    /// Time `f` as one parentless span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin();
        let out = f();
        self.end(name, s, None);
        out
    }

    /// Record a call the caller timed itself (result calls are timed on
    /// every run, traced or not).
    pub fn push(
        &mut self,
        name: &'static str,
        started: Instant,
        dur: Duration,
        parent: Option<u32>,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: started.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            parent,
            pass: self.pass,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e6).collect()
    }

    /// Total time (ms) in spans called `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Pass spans
    /// sit on thread 1, layer replays (pass 0) on thread 2; `args` carries
    /// the span index, its parent's index and the pass id. At most
    /// `max_events` spans are written — the replays first, then the passes
    /// in order, so a cut trace loses its last passes and never the replays
    /// — and the count dropped is in `metadata`.
    pub fn chrome_trace(&self, workload: &str, max_events: usize) -> String {
        let mut out = String::with_capacity(128 * self.spans.len().min(max_events) + 256);
        out.push_str("{\"traceEvents\":[\n");
        let indexed = || self.spans.iter().enumerate();
        let replays = indexed().filter(|(_, s)| s.pass == 0);
        let passes = indexed().filter(|(_, s)| s.pass != 0);
        for (written, (i, s)) in replays.chain(passes).take(max_events).enumerate() {
            let layer = layer_of(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"pass\":{}}}}}",
                if written == 0 { "" } else { "," },
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                if s.pass == 0 { 2 } else { 1 },
                i,
                parent,
                s.pass,
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"metadata\":{{\"workload\":\"{}\",\"spans\":{},\"dropped\":{}}}}}",
            workload,
            self.spans.len(),
            self.spans.len().saturating_sub(max_events)
        );
        out
    }
}

/// The layer (crate) a span name belongs to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_keeps_nothing_and_reads_no_clock() {
        let mut r = Recorder::new(false);
        let s = r.begin();
        assert!(s.is_none());
        assert!(r.end("core.x", s, None).is_none());
        assert!(r.push("core.x", Instant::now(), Duration::from_millis(1), None).is_none());
        assert!(r.spans.is_empty());
    }

    #[test]
    fn on_recorder_links_parents_and_renders_json() {
        let mut r = Recorder::new(true);
        r.set_pass(1);
        let s = r.begin();
        let parent = r.end("core.analyze", s, None);
        r.set_pass(0);
        let s = r.begin();
        r.end("algos.infer_roles", s, parent);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(layer_of(r.spans[1].name), "algos");
        let json = r.chrome_trace("w", 10);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["traceEvents"].as_array().map(Vec::len), Some(2));
        assert_eq!(r.durations_ms("core.analyze").len(), 1);
        // A cut trace keeps the replay, not the pass that came first.
        let cut: serde_json::Value =
            serde_json::from_str(&r.chrome_trace("w", 1)).expect("valid JSON");
        assert_eq!(cut["traceEvents"][0]["name"].as_str(), Some("algos.infer_roles"));
        assert_eq!(cut["traceEvents"][0]["args"]["id"].as_u64(), Some(1));
        assert_eq!(cut["metadata"]["dropped"].as_u64(), Some(1));
    }
}

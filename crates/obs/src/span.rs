//! RAII span timers that feed histograms.
//!
//! A [`SpanGuard`] reads the clock at most twice — on creation and on drop —
//! and only when its histogram is actually backed by a registry. The noop
//! form never touches the clock, so wrapping a stage in a span costs one
//! `Option` branch when observability is disabled.

use crate::metrics::Histogram;
use crate::trace::TraceSpan;
use std::time::Instant;

/// Times a region of code and records the elapsed seconds into a histogram
/// when dropped (or explicitly [`SpanGuard::stop`]ped). A guard built via
/// [`SpanGuard::traced`] additionally closes a hierarchical [`TraceSpan`]
/// so the same region lands on the run timeline.
#[derive(Debug)]
pub struct SpanGuard {
    hist: Histogram,
    start: Option<Instant>,
    trace: Option<TraceSpan>,
}

impl SpanGuard {
    /// Start timing into `hist`. Noop histograms produce inert guards.
    pub fn start(hist: Histogram) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "span timing is measurement-only; the value feeds a histogram, never pipeline output"
        )]
        let start = hist.is_enabled().then(Instant::now);
        SpanGuard { hist, start, trace: None }
    }

    /// Start timing into `hist` while also carrying `trace`; both close
    /// together. A noop `trace` adds exactly one `Option` branch.
    pub fn traced(hist: Histogram, trace: TraceSpan) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "span timing is measurement-only; the value feeds a histogram, never pipeline output"
        )]
        let start = hist.is_enabled().then(Instant::now);
        let trace = trace.is_enabled().then_some(trace);
        SpanGuard { hist, start, trace }
    }

    /// True when this guard carries an enabled trace span. Callers use this
    /// to skip building attribute strings on untraced paths.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Attach an attribute to the carried trace span, if any (no-op for
    /// guards without an enabled trace span).
    pub fn trace_attr(&mut self, key: &str, value: &str) {
        if let Some(trace) = &mut self.trace {
            trace.attr(key, value);
        }
    }

    /// Stop now and return the elapsed seconds (0.0 for an inert guard).
    /// The observation is recorded exactly once.
    pub fn stop(mut self) -> f64 {
        self.finish()
    }

    fn finish(&mut self) -> f64 {
        if let Some(trace) = self.trace.take() {
            trace.finish();
        }
        match self.start.take() {
            Some(t0) => {
                let secs = t0.elapsed().as_secs_f64();
                self.hist.record(secs);
                secs
            }
            None => 0.0,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_once_on_drop() {
        let h = Histogram(Some(std::sync::Arc::new(Default::default())));
        {
            let _guard = SpanGuard::start(h.clone());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.002);
    }

    #[test]
    fn stop_returns_elapsed_and_drop_does_not_double_record() {
        let h = Histogram(Some(std::sync::Arc::new(Default::default())));
        let guard = SpanGuard::start(h.clone());
        let secs = guard.stop();
        assert!(secs >= 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn noop_guard_never_touches_the_clock_state() {
        let g = SpanGuard::start(Histogram::noop());
        assert_eq!(g.stop(), 0.0);
    }

    #[test]
    fn traced_guard_closes_histogram_and_trace_together() {
        let h = Histogram(Some(std::sync::Arc::new(Default::default())));
        let tracer = std::sync::Arc::new(crate::trace::Tracer::new(8));
        {
            let mut guard = SpanGuard::traced(h.clone(), tracer.span("stage"));
            guard.trace_attr("k", "v");
        }
        assert_eq!(h.count(), 1);
        let dump = tracer.dump();
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].name, "stage");
        assert_eq!(dump.spans[0].attrs, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn traced_guard_with_noop_trace_stays_inert() {
        let mut g = SpanGuard::traced(Histogram::noop(), crate::trace::TraceSpan::noop());
        g.trace_attr("ignored", "ignored");
        assert_eq!(g.stop(), 0.0);
    }
}

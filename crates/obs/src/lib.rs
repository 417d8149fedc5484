//! `commgraph-obs` — zero-dependency observability for the streaming stack.
//!
//! The paper's systems claim is about *cost* (§3.2): graph analytics must
//! run cheaply alongside the cloud it watches. This crate is how the
//! workspace measures that claim on itself, without pulling `tracing` or
//! `prometheus` into an offline build:
//!
//! * [`metrics`] — atomic [`Counter`]/[`Gauge`] and a log-linear-bucket
//!   [`Histogram`] (lock-free record path, p50/p95/p99/max).
//! * [`registry`] — a [`Registry`] of labeled metric families plus a
//!   bounded structured-event buffer.
//! * `span` — RAII [`SpanGuard`] timers that feed histograms.
//! * [`trace`] — hierarchical [`TraceSpan`]s with a bounded flight-recorder
//!   ring, a Chrome-trace-event exporter, and a text tree renderer.
//! * `serve` — a zero-dependency HTTP/1.0 introspection server exposing
//!   `/metrics`, `/metrics.json`, `/healthz`, `/trace`, `/events`,
//!   `/query_range`, and `/alerts`.
//! * [`tsdb`] — a bounded in-memory time-series store: a [`Scraper`]
//!   samples every registry family on an injected tick into
//!   fixed-capacity delta-encoded per-series rings.
//! * [`query`] — a PromQL-subset expression engine over the store, behind
//!   `/query_range`, recording rules, and every alert condition.
//! * [`alert`] — declarative rules, each one [`query`] expression, driven
//!   through an inactive → pending → firing → resolved state machine that
//!   mirrors to the event log.
//! * [`cardinality`] — [`LabelCap`], the per-tenant label cap with an
//!   explicit `overflow` bucket.
//! * `log` — leveled structured [`Event`]s with `COMMGRAPH_LOG`
//!   env-filtered stderr mirroring.
//! * [`export`] — Prometheus text exposition and a JSON snapshot.
//! * [`names`] — the canonical `commgraph_*` metric families, one typed
//!   const each: the only way to register a metric.
//! * [`rate`] — the shared rate-from-counter-and-duration helpers.
//!
//! # The `Obs` handle
//!
//! Instrumented components take an [`Obs`] handle — either
//! [`Obs::noop`] (the `Default`) or [`Obs::new`] around an
//! `Arc<Registry>`. Every metric lookup on a noop handle returns a noop
//! metric; every span on a noop handle never reads the clock; no path
//! allocates. Results are bit-for-bit identical either way: observability
//! only ever *times* work, it never reroutes it.
//!
//! ```
//! use std::sync::Arc;
//!
//! let registry = Arc::new(obs::Registry::new());
//! let o = obs::Obs::new(registry.clone());
//! let records = o.counter(&obs::names::ENGINE_RECORDS_IN_TOTAL, []);
//! {
//!     let _span = o.stage_span("build");
//!     records.add(128);
//! }
//! let text = obs::export::prometheus_text(&registry);
//! assert!(text.contains("commgraph_engine_records_in_total 128"));
//! assert!(text.contains("commgraph_stage_seconds_count{stage=\"build\"} 1"));
//! ```
//!
//! Deep library code (the `linalg::par` scheduler) cannot practically
//! thread a handle through every call, so a process-global registry can be
//! [`install_global`]ed once; [`global`] returns a noop handle until then.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

pub mod alert;
pub mod cardinality;
pub mod export;
pub(crate) mod log;
pub mod metrics;
pub mod names;
pub mod query;
pub mod rate;
pub mod registry;
pub(crate) mod serve;
pub(crate) mod span;
mod sync;
pub mod trace;
pub mod tsdb;

pub use crate::alert::{AlertEngine, AlertRule, AlertState, Transition};
pub use crate::cardinality::LabelCap;
pub use crate::log::{Event, Level, LogFilter};
pub use crate::metrics::{BucketCount, Counter, Gauge, Histogram, HistogramSnapshot};
pub use crate::query::{EvalError, Expr, ParseError, QueryError, RecordingRule, Sample, Value};
pub use crate::registry::{MetricKind, MetricSnapshot, Registry, SnapshotValue};
pub use crate::serve::{IntrospectionServer, ServerHandle};
pub use crate::span::SpanGuard;
pub use crate::trace::{FlightDump, SpanEvent, SpanRecord, TraceSpan, Tracer};
pub use crate::tsdb::{Query, SampleField, Scraper, SeriesKey, Tsdb, TsdbConfig};

use crate::names::Family;
use std::sync::{Arc, OnceLock};

/// The canonical stage labels of the streaming arc, in execution order.
pub const STAGES: [&str; 6] = ["ingest", "build", "similarity", "cluster", "policy", "pca"];

/// A cheap, cloneable observability handle: either inert or backed by a
/// shared [`Registry`], optionally carrying a [`Tracer`] so spans minted
/// through it also land on the run timeline. See the crate docs for the
/// cost model.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
    tracer: Option<Arc<Tracer>>,
}

impl Obs {
    /// A handle backed by `registry` (no tracer; see [`Obs::with_tracer`]).
    pub fn new(registry: Arc<Registry>) -> Self {
        Obs { registry: Some(registry), tracer: None }
    }

    /// The inert handle (same as `Obs::default()`).
    pub fn noop() -> Self {
        Obs { registry: None, tracer: None }
    }

    /// Attach a tracer: [`Obs::stage_span`] guards gain a
    /// hierarchical [`TraceSpan`] alongside their histogram, and
    /// [`Obs::trace_span`] mints standalone spans.
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The backing registry, if any.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Open a hierarchical trace span named `name` (noop — one `Option`
    /// branch, no clock read — when no tracer is attached).
    pub fn trace_span(&self, name: &str) -> TraceSpan {
        match &self.tracer {
            Some(t) => t.span(name),
            None => TraceSpan::noop(),
        }
    }

    /// Open a parentless trace span for a per-run root (`pipeline_run`,
    /// `monitor_run`); noop without a tracer.
    pub fn trace_root(&self, name: &str) -> TraceSpan {
        match &self.tracer {
            Some(t) => t.root_span(name),
            None => TraceSpan::noop(),
        }
    }

    /// Resolve (or create) a counter of `family`; noop when disabled.
    pub fn counter<const L: usize>(
        &self,
        family: &Family<Counter, L>,
        labels: [&str; L],
    ) -> Counter {
        match &self.registry {
            Some(r) => r.counter(family, labels),
            None => Counter::noop(),
        }
    }

    /// Resolve (or create) a gauge of `family`; noop when disabled.
    pub fn gauge<const L: usize>(&self, family: &Family<Gauge, L>, labels: [&str; L]) -> Gauge {
        match &self.registry {
            Some(r) => r.gauge(family, labels),
            None => Gauge::noop(),
        }
    }

    /// Resolve (or create) a histogram of `family`; noop when disabled.
    pub fn histogram<const L: usize>(
        &self,
        family: &Family<Histogram, L>,
        labels: [&str; L],
    ) -> Histogram {
        match &self.registry {
            Some(r) => r.histogram(family, labels),
            None => Histogram::noop(),
        }
    }

    /// Start a span into the shared [`names::STAGE_SECONDS`] family for one
    /// of the pipeline stages (any label value is accepted; the canonical set
    /// is [`STAGES`]). With a tracer attached, the trace span is named after
    /// the stage so stage children nest under the per-run root.
    pub fn stage_span(&self, stage: &str) -> SpanGuard {
        SpanGuard::traced(self.histogram(&names::STAGE_SECONDS, [stage]), self.trace_span(stage))
    }

    /// True when an event at `level` would be observable at all — buffered
    /// (registry attached) or printed (`COMMGRAPH_LOG` allows it). Callers
    /// use this to skip building field strings on disabled paths.
    #[inline]
    pub fn logs(&self, level: Level) -> bool {
        self.registry.is_some() || crate::log::stderr_enabled(level)
    }

    /// Emit a structured event: buffered in the registry (when attached)
    /// and mirrored to stderr under `COMMGRAPH_LOG`. Does nothing — and
    /// allocates nothing beyond what the caller already built — when
    /// [`Obs::logs`] is false for `level`.
    pub fn event(&self, level: Level, target: &str, message: &str, fields: &[(&str, String)]) {
        if !self.logs(level) {
            return;
        }
        let event = Event {
            level,
            target: target.to_string(),
            message: message.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        };
        match &self.registry {
            Some(r) => r.push_event(event),
            None => crate::log::emit_stderr(&event),
        }
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// Install a process-global registry for code that cannot take an [`Obs`]
/// parameter (the `linalg` scheduler). First caller wins; returns whether
/// this call installed it.
pub fn install_global(registry: Arc<Registry>) -> bool {
    GLOBAL.set(registry).is_ok()
}

/// The handle onto the global registry — noop until [`install_global`].
pub fn global() -> Obs {
    match GLOBAL.get() {
        Some(r) => Obs::new(r.clone()),
        None => Obs::noop(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_obs_yields_noop_metrics() {
        let o = Obs::noop();
        assert!(o.registry().is_none());
        let c = o.counter(&names::ENGINE_RECORDS_IN_TOTAL, []);
        c.inc();
        assert_eq!(c.get(), 0);
        let h = o.histogram(&names::ENGINE_INGEST_SECONDS, []);
        h.record(1.0);
        assert_eq!(h.count(), 0);
        let _ = o.stage_span("build"); // inert
        o.event(Level::Error, "t", "m", &[]); // best effort, must not panic
    }

    #[test]
    fn backed_obs_resolves_shared_metrics() {
        let r = Arc::new(Registry::new());
        let o = Obs::new(r.clone());
        o.counter(&names::ENGINE_RECORDS_IN_TOTAL, []).add(2);
        assert_eq!(r.counter(&names::ENGINE_RECORDS_IN_TOTAL, []).get(), 2);
        o.event(Level::Info, "t", "hello", &[("k", "v".to_string())]);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn stage_span_lands_in_the_shared_family() {
        let r = Arc::new(Registry::new());
        let o = Obs::new(r.clone());
        o.stage_span("pca").stop();
        let h = r.histogram(&names::STAGE_SECONDS, ["pca"]);
        assert_eq!(h.count(), 1);
    }
}

//! The metric registry: named families of labeled counters, gauges, and
//! histograms, plus the bounded structured-event buffer.
//!
//! A family is registered through its typed [`crate::names::Family`] const
//! and holds one metric per distinct label-value combination. Families and
//! metrics live in `BTreeMap`s so every snapshot and exporter walks them in
//! a deterministic order — the golden-output tests depend on that.
//!
//! Lookup takes the registry's one lock; the returned handles do not. Instrumented code is
//! expected to resolve its handles once (at construction / before a kernel
//! runs) and then update them lock-free on the hot path.

use crate::log::{emit_stderr, Event};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::names::Family;
use crate::sync::lock;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Maximum buffered events; older events are dropped first.
pub(crate) const EVENT_BUFFER_CAP: usize = 4096;

/// Kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Log-linear histogram.
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` name.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum MetricCore {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct FamilyState {
    help: &'static str,
    kind: MetricKind,
    /// Keyed by label pairs (name, value) in caller order.
    metrics: BTreeMap<Vec<(String, String)>, MetricCore>,
}

/// A point-in-time view of one metric (one label combination of a family).
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Family name.
    pub name: String,
    /// Family help text.
    pub(crate) help: &'static str,
    /// Family kind.
    pub(crate) kind: MetricKind,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: SnapshotValue,
}

/// Snapshot payload per metric kind.
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// The registry. Create one per process (or per test), share it via `Arc`,
/// and hand [`crate::Obs`] handles to the components you want instrumented.
#[derive(Default)]
pub struct Registry {
    state: Mutex<RegistryState>,
}

#[derive(Default)]
struct RegistryState {
    // bound: grows with the distinct metric names and label sets
    // registered; `LabelCap` caps the per-tenant label values.
    families: BTreeMap<&'static str, FamilyState>,
    // bound: at most `EVENT_BUFFER_CAP` events, oldest dropped first.
    events: VecDeque<Event>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = lock(&self.state);
        f.debug_struct("Registry")
            .field("families", &state.families.keys().collect::<Vec<_>>())
            .field("events", &state.events.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter of `family` with label values `labels`.
    ///
    /// # Panics
    /// Panics if the family's name is already registered with a different kind.
    pub fn counter<const L: usize>(
        &self,
        family: &Family<Counter, L>,
        labels: [&str; L],
    ) -> Counter {
        match self
            .metric(family, MetricKind::Counter, labels, || MetricCore::Counter(Counter::real()))
        {
            MetricCore::Counter(c) => c,
            #[expect(
                clippy::unreachable,
                reason = "metric() returns the requested kind by construction"
            )]
            _ => unreachable!("kind checked in metric()"),
        }
    }

    /// Get or create the gauge of `family` with label values `labels`.
    ///
    /// # Panics
    /// Panics if the family's name is already registered with a different kind.
    pub fn gauge<const L: usize>(&self, family: &Family<Gauge, L>, labels: [&str; L]) -> Gauge {
        match self.metric(family, MetricKind::Gauge, labels, || MetricCore::Gauge(Gauge::real())) {
            MetricCore::Gauge(g) => g,
            #[expect(
                clippy::unreachable,
                reason = "metric() returns the requested kind by construction"
            )]
            _ => unreachable!("kind checked in metric()"),
        }
    }

    /// Get or create the histogram of `family` with label values `labels`.
    ///
    /// # Panics
    /// Panics if the family's name is already registered with a different kind.
    pub fn histogram<const L: usize>(
        &self,
        family: &Family<Histogram, L>,
        labels: [&str; L],
    ) -> Histogram {
        match self.metric(family, MetricKind::Histogram, labels, || {
            MetricCore::Histogram(Histogram::real())
        }) {
            MetricCore::Histogram(h) => h,
            #[expect(
                clippy::unreachable,
                reason = "metric() returns the requested kind by construction"
            )]
            _ => unreachable!("kind checked in metric()"),
        }
    }

    fn metric<K, const L: usize>(
        &self,
        family: &Family<K, L>,
        kind: MetricKind,
        labels: [&str; L],
        make: impl FnOnce() -> MetricCore,
    ) -> MetricCore {
        let mut state = lock(&self.state);
        let name = family.name;
        let entry = state.families.entry(name).or_insert_with(|| FamilyState {
            help: family.help,
            kind,
            metrics: BTreeMap::new(),
        });
        assert!(
            entry.kind == kind,
            "metric {name} registered as {} but requested as {}",
            entry.kind.name(),
            kind.name()
        );
        let key: Vec<(String, String)> =
            family.labels.iter().zip(labels).map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let core = entry.metrics.entry(key).or_insert_with(make);
        match core {
            MetricCore::Counter(c) => MetricCore::Counter(c.clone()),
            MetricCore::Gauge(g) => MetricCore::Gauge(g.clone()),
            MetricCore::Histogram(h) => MetricCore::Histogram(h.clone()),
        }
    }

    /// Snapshot every metric, in deterministic (name, labels) order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let state = lock(&self.state);
        let mut out = Vec::new();
        for (&name, family) in state.families.iter() {
            for (labels, core) in family.metrics.iter() {
                let value = match core {
                    MetricCore::Counter(c) => SnapshotValue::Counter(c.get()),
                    MetricCore::Gauge(g) => SnapshotValue::Gauge(g.get()),
                    MetricCore::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
                };
                out.push(MetricSnapshot {
                    name: name.to_string(),
                    help: family.help,
                    kind: family.kind,
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }

    /// Append an event to the buffer (dropping the oldest beyond
    /// `EVENT_BUFFER_CAP`) and mirror it to stderr when `COMMGRAPH_LOG`
    /// enables its level.
    pub fn push_event(&self, event: Event) {
        emit_stderr(&event);
        let mut state = lock(&self.state);
        if state.events.len() >= EVENT_BUFFER_CAP {
            state.events.pop_front();
        }
        state.events.push_back(event);
    }

    /// All buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.state).events.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Level;

    const X: Family<Counter, 1> = Family::new("x_total", "help", ["shard"]);

    #[test]
    fn same_name_and_labels_share_state() {
        let r = Registry::new();
        let a = r.counter(&X, ["0"]);
        let b = r.counter(&X, ["0"]);
        a.add(3);
        assert_eq!(b.get(), 3);
        let other = r.counter(&X, ["1"]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter(&Family::new("x", "h", []), []);
        r.gauge(&Family::new("x", "h", []), []);
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let r = Registry::new();
        r.counter(&Family::new("b_total", "h", []), []).inc();
        r.counter(&Family::new("a_total", "h", ["z"]), ["1"]).inc();
        r.counter(&Family::new("a_total", "h", ["a"]), ["1"]).inc();
        let names: Vec<String> =
            r.snapshot().iter().map(|m| format!("{}{:?}", m.name, m.labels)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn event_buffer_is_bounded() {
        let r = Registry::new();
        for i in 0..(EVENT_BUFFER_CAP + 10) {
            r.push_event(Event {
                level: Level::Debug,
                target: "t".into(),
                message: format!("m{i}"),
                fields: vec![],
            });
        }
        let events = r.events();
        assert_eq!(events.len(), EVENT_BUFFER_CAP);
        assert_eq!(events[0].message, "m10", "oldest dropped first");
    }
}

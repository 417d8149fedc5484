//! A zero-dependency bounded in-memory time-series store.
//!
//! A `/metrics` scrape shows *now*; nothing in the stack could say
//! "window-roll lag has been degrading for ten windows". [`Tsdb`] closes
//! that gap: a [`Scraper`] samples every family in the [`Registry`] on a
//! **tick** and appends the samples to fixed-capacity per-series rings, so
//! dashboards (and the [`crate::alert`] engine) can query trajectories, not
//! points.
//!
//! # The deterministic-tick contract
//!
//! The tick source is injectable. [`Scraper::scrape`] takes the tick as an
//! argument and never reads a clock to produce it, so callers choose the
//! time base:
//!
//! * **Logical ticks** — tests and the pipeline call `scrape(tick)` once
//!   per *rolled window*. Every sample timestamp is then a deterministic
//!   function of the input records, and anything downstream (alert
//!   transitions, `/query_range` output for deterministic series) is
//!   bit-identical across runs.
//! * **Wall-clock ticks** — a live deployment calls `scrape(tick)` from its
//!   own timer with a monotone counter. Same code path, same store; only
//!   the tick *cadence* is wall time.
//!
//! Sample *values* are whatever the registry holds — wall-clock histograms
//! (`commgraph_stage_seconds`) stay nondeterministic; deterministic families
//! (record counts, watermarks, roll lag) stay deterministic. Alert rules
//! that must replay bit-identically simply reference deterministic series.
//!
//! # Storage model
//!
//! One series per (family, label set, sample field). Counters and gauges
//! contribute one `value` series; histograms fan out into `count`, `sum`,
//! `max`, `p50`, `p95`, `p99` sub-series (buckets are not retained). Each
//! series is a bounded ring of `(tick, value)` samples with the tick stored
//! as a `u32` delta from the series' base tick — 12 bytes per sample instead
//! of 16. When a ring is full the oldest sample is evicted and counted
//! (`commgraph_tsdb_evicted_samples_total`); when the store holds
//! `max_series` ([`TsdbConfig`]) series, *new* series are not stored, and
//! `commgraph_tsdb_series_entries` reads the cap.

use crate::metrics::HistogramSnapshot;
use crate::registry::{Registry, SnapshotValue};
use crate::sync::lock;
use crate::{names, Counter, Gauge, Histogram, Obs};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which scalar of a metric a series tracks. Counters and gauges only have
/// [`SampleField::Value`]; histograms fan out into the remaining fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SampleField {
    /// The counter or gauge value.
    Value,
    /// Histogram observation count.
    Count,
    /// Histogram sum of observations.
    Sum,
    /// Histogram maximum observation.
    Max,
    /// Histogram 50th percentile estimate.
    P50,
    /// Histogram 95th percentile estimate.
    P95,
    /// Histogram 99th percentile estimate.
    P99,
}

impl SampleField {
    /// Stable lowercase name (the `field` label value in query expressions).
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            SampleField::Value => "value",
            SampleField::Count => "count",
            SampleField::Sum => "sum",
            SampleField::Max => "max",
            SampleField::P50 => "p50",
            SampleField::P95 => "p95",
            SampleField::P99 => "p99",
        }
    }

    /// The histogram sub-series, in storage order.
    pub(crate) const HISTOGRAM_FIELDS: [SampleField; 6] = [
        SampleField::Count,
        SampleField::Sum,
        SampleField::Max,
        SampleField::P50,
        SampleField::P95,
        SampleField::P99,
    ];
}

/// Identity of one stored series.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// Which scalar of the metric this series tracks.
    pub field: SampleField,
}

impl SeriesKey {
    /// A `value`-field key for a counter or gauge.
    pub fn value(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        SeriesKey {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            field: SampleField::Value,
        }
    }

    /// Estimated heap bytes held by this key.
    fn heap_bytes(&self) -> usize {
        self.name.len() + self.labels.iter().map(|(k, v)| k.len() + v.len() + 48).sum::<usize>()
    }
}

/// One series ring: ticks are stored as `u32` deltas from `base_tick`.
#[derive(Debug)]
struct Series {
    base_tick: u64,
    /// `(tick - base_tick, value)`, oldest first, at most `capacity` long.
    samples: VecDeque<(u32, f64)>,
}

impl Series {
    fn push(&mut self, tick: u64, value: f64, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        // Ticks beyond the u32 delta range force a rebase onto the newest
        // retained sample (drops everything older — counted honestly).
        if tick.saturating_sub(self.base_tick) > u32::MAX as u64 {
            evicted += self.samples.len() as u64;
            self.samples.clear();
            self.base_tick = tick;
        }
        while self.samples.len() >= capacity.max(1) {
            self.samples.pop_front();
            evicted += 1;
        }
        let delta = (tick - self.base_tick) as u32;
        // Out-of-order ticks within one series are clamped forward so the
        // ring stays sorted; the registry snapshot is taken at one tick, so
        // this only triggers if a caller reuses a store across tick domains.
        let delta = match self.samples.back() {
            Some(&(last, _)) if last > delta => last,
            _ => delta,
        };
        self.samples.push_back((delta, value));
        evicted
    }

    fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let base = self.base_tick;
        self.samples.iter().map(move |&(d, v)| (base + d as u64, v))
    }

    fn heap_bytes(&self) -> usize {
        self.samples.capacity() * std::mem::size_of::<(u32, f64)>()
    }
}

/// Bounds of a [`Tsdb`].
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Samples retained per series; the oldest is evicted beyond this.
    pub(crate) capacity_per_series: usize,
    /// Series retained in total; *new* series beyond this are not stored.
    pub(crate) max_series: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig { capacity_per_series: 512, max_series: 4096 }
    }
}

#[derive(Debug, Default)]
struct TsdbInner {
    // bound: at most `TsdbConfig::max_series` series of at most
    // `capacity_per_series` samples each; new series beyond it are dropped.
    series: BTreeMap<SeriesKey, Series>,
    evicted: u64,
    last_tick: u64,
}

/// The bounded in-memory time-series store. Interior-mutable: share it as
/// `Arc<Tsdb>` between the [`Scraper`], the alert engine, and the
/// introspection server.
#[derive(Debug)]
pub struct Tsdb {
    cfg: TsdbConfig,
    inner: Mutex<TsdbInner>,
}

impl Default for Tsdb {
    fn default() -> Self {
        Tsdb::new(TsdbConfig::default())
    }
}

/// One series returned by [`Tsdb::family_up_to`].
#[derive(Debug, Clone)]
pub(crate) struct SeriesData {
    /// The series identity.
    pub(crate) key: SeriesKey,
    /// `(tick, value)` samples, oldest first, up to the read's tick.
    pub(crate) points: Vec<(u64, f64)>,
}

impl Tsdb {
    /// An empty store with the given bounds.
    pub fn new(cfg: TsdbConfig) -> Tsdb {
        Tsdb { cfg, inner: Mutex::new(TsdbInner::default()) }
    }

    /// Append one sample. Out-of-order ticks within a series are clamped
    /// onto the newest retained tick so rings stay sorted.
    pub fn append(&self, key: SeriesKey, tick: u64, value: f64) {
        let capacity = self.cfg.capacity_per_series;
        let max_series = self.cfg.max_series;
        let mut inner = lock(&self.inner);
        inner.last_tick = inner.last_tick.max(tick);
        if !inner.series.contains_key(&key) && inner.series.len() >= max_series {
            return;
        }
        let series = inner
            .series
            .entry(key)
            .or_insert_with(|| Series { base_tick: tick, samples: VecDeque::new() });
        let evicted = series.push(tick, value, capacity);
        inner.evicted += evicted;
    }

    /// Series currently retained.
    pub fn series_count(&self) -> usize {
        lock(&self.inner).series.len()
    }

    /// Samples evicted by ring capacity over the store's lifetime.
    pub(crate) fn evicted_samples(&self) -> u64 {
        lock(&self.inner).evicted
    }

    /// Highest tick ever appended.
    pub fn last_tick(&self) -> u64 {
        lock(&self.inner).last_tick
    }

    /// Estimated heap footprint of the retained data, in bytes.
    pub fn memory_bytes(&self) -> usize {
        let inner = lock(&self.inner);
        inner.series.iter().map(|(k, s)| k.heap_bytes() + s.heap_bytes() + 64).sum()
    }

    /// Every series of family `name`, in (labels, field) order, each with
    /// its samples at or before tick `to`, oldest first. `SeriesKey` orders
    /// by name first, so this is a range scan from the family's smallest
    /// key: a read costs the family's series, not the store's. PromQL
    /// selectors ([`crate::query`]) read the store through it.
    pub(crate) fn family_up_to(&self, name: &str, to: u64) -> Vec<SeriesData> {
        let first =
            SeriesKey { name: name.to_string(), labels: Vec::new(), field: SampleField::Value };
        let inner = lock(&self.inner);
        inner
            .series
            .range(first..)
            .take_while(|(key, _)| key.name == name)
            .map(|(key, series)| SeriesData {
                key: key.clone(),
                points: series.points().take_while(|(t, _)| *t <= to).collect(),
            })
            .collect()
    }
}

/// Samples every family of a [`Registry`] into a [`Tsdb`] on each tick, and
/// reports its own cost and the store's occupancy as `commgraph_tsdb_*`
/// metrics (which the *next* tick then samples — the store observes itself
/// one tick behind).
#[derive(Debug)]
pub struct Scraper {
    registry: Arc<Registry>,
    store: Arc<Tsdb>,
    samples: Counter,
    evicted: Counter,
    scrape_seconds: Histogram,
    series_gauge: Gauge,
    memory_gauge: Gauge,
    evicted_seen: AtomicU64,
    /// Recording rules evaluated after each registry pass, with their
    /// per-rule output-series counters. A scrape clones the handles out
    /// and releases the lock before it evaluates them against the store.
    // bound: one slot per installed rule; rules are installed at start-up.
    rules: Mutex<Vec<Arc<RuleSlot>>>,
    rule_eval_seconds: Histogram,
}

/// One installed recording rule plus its output-series counter.
#[derive(Debug)]
struct RuleSlot {
    rule: crate::query::RecordingRule,
    series_total: Counter,
}

impl Scraper {
    /// A scraper from `registry` into `store`. Self-metrics are resolved in
    /// the same registry immediately, so they are present from the first
    /// scrape onward.
    pub fn new(registry: Arc<Registry>, store: Arc<Tsdb>) -> Scraper {
        let o = Obs::new(registry.clone());
        Scraper {
            samples: o.counter(&names::TSDB_SAMPLES_TOTAL, []),
            evicted: o.counter(&names::TSDB_EVICTED_SAMPLES_TOTAL, []),
            scrape_seconds: o.histogram(&names::TSDB_SCRAPE_SECONDS, []),
            series_gauge: o.gauge(&names::TSDB_SERIES_ENTRIES, []),
            memory_gauge: o.gauge(&names::TSDB_MEMORY_BYTES, []),
            rule_eval_seconds: o.histogram(&names::QUERY_RULE_EVAL_SECONDS, []),
            registry,
            store,
            evicted_seen: AtomicU64::new(0),
            rules: Mutex::new(Vec::new()),
        }
    }

    /// Install a recording rule: from the next [`Scraper::scrape`] onward
    /// its expression is evaluated each tick (after the registry pass, so
    /// it sees the tick's fresh samples) and the result is appended to the
    /// store as synthetic series named after the rule. Output series go
    /// through [`Tsdb::append`] and are therefore subject to the same
    /// eviction and max-series accounting as scraped ones.
    pub fn add_recording_rule(&self, rule: crate::query::RecordingRule) {
        let series_total =
            Obs::new(self.registry.clone()).counter(&names::QUERY_RULE_SERIES_TOTAL, [rule.name()]);
        lock(&self.rules).push(Arc::new(RuleSlot { rule, series_total }));
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<Tsdb> {
        &self.store
    }

    /// The scraped registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Sample every metric in the registry at logical time `tick`. Counters
    /// and gauges append one `value` sample; histograms append their
    /// `SampleField::HISTOGRAM_FIELDS` scalars. Returns the number of
    /// samples appended.
    pub fn scrape(&self, tick: u64) -> usize {
        #[expect(
            clippy::disallowed_methods,
            reason = "self-timing of the scrape pass; samples are stamped with the injected tick"
        )]
        let t0 = std::time::Instant::now();
        let mut appended = 0usize;
        for snap in self.registry.snapshot() {
            let key = |field: SampleField| SeriesKey {
                name: snap.name.clone(),
                labels: snap.labels.clone(),
                field,
            };
            match &snap.value {
                SnapshotValue::Counter(v) => {
                    self.store.append(key(SampleField::Value), tick, *v as f64);
                    appended += 1;
                }
                SnapshotValue::Gauge(v) => {
                    self.store.append(key(SampleField::Value), tick, *v);
                    appended += 1;
                }
                SnapshotValue::Histogram(h) => {
                    for field in SampleField::HISTOGRAM_FIELDS {
                        self.store.append(key(field), tick, histogram_field(h, field));
                        appended += 1;
                    }
                }
            }
        }
        // Recording rules run after the registry pass so each rule sees
        // this tick's fresh samples; outputs land at the same tick. An
        // erroring rule writes nothing and its counter does not advance.
        {
            #[expect(
                clippy::disallowed_methods,
                reason = "self-timing of the rule pass; outputs are stamped with the injected tick"
            )]
            let r0 = std::time::Instant::now();
            let rules = lock(&self.rules).clone();
            for slot in &rules {
                if let Ok(n) = slot.rule.record(&self.store, tick) {
                    slot.series_total.add(n as u64);
                    appended += n;
                }
            }
            if !rules.is_empty() {
                self.rule_eval_seconds.record(r0.elapsed().as_secs_f64());
            }
        }
        self.samples.add(appended as u64);
        let evicted_now = self.store.evicted_samples();
        let seen = self.evicted_seen.swap(evicted_now, Ordering::Relaxed);
        self.evicted.add(evicted_now.saturating_sub(seen));
        self.series_gauge.set(self.store.series_count() as f64);
        self.memory_gauge.set(self.store.memory_bytes() as f64);
        self.scrape_seconds.record(t0.elapsed().as_secs_f64());
        appended
    }
}

/// Extract one scalar field from a histogram snapshot.
fn histogram_field(h: &HistogramSnapshot, field: SampleField) -> f64 {
    match field {
        SampleField::Value => f64::NAN,
        SampleField::Count => h.count as f64,
        SampleField::Sum => h.sum,
        SampleField::Max => h.max,
        SampleField::P50 => h.p50,
        SampleField::P95 => h.p95,
        SampleField::P99 => h.p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Family;

    type Points = Vec<(u64, f64)>;

    /// `src` evaluated through PromQL at every tick of `from..=to`: each
    /// output series' labels and points.
    fn promql(db: &Tsdb, src: &str, from: u64, to: u64) -> Vec<(Vec<(String, String)>, Points)> {
        let expr = crate::query::parse(src).unwrap();
        let series = crate::query::eval_range(db, &expr, from, to, 1).unwrap();
        series.into_iter().map(|s| (s.labels, s.points)).collect()
    }

    /// The whole family, every tick.
    fn family(db: &Tsdb, name: &str) -> Vec<SeriesData> {
        db.family_up_to(name, u64::MAX)
    }

    /// Samples retained in the whole store.
    fn retained(db: &Tsdb) -> usize {
        lock(&db.inner).series.values().map(|s| s.samples.len()).sum()
    }

    #[test]
    fn append_and_query_round_trip() {
        let db = Tsdb::default();
        for t in 1..=5u64 {
            db.append(SeriesKey::value("a_total", &[("k", "x")]), t, t as f64);
            db.append(SeriesKey::value("b_total", &[]), t, 10.0 * t as f64);
        }
        let a = family(&db, "a_total");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].key.name, "a_total");
        assert_eq!(a[0].points, (1..=5).map(|t| (t, t as f64)).collect::<Vec<_>>());

        let ranged = promql(&db, "b_total", 2, 4);
        assert_eq!(ranged, vec![(vec![], vec![(2, 20.0), (3, 30.0), (4, 40.0)])]);

        let labeled = promql(&db, "a_total{k=\"x\"}", 1, 5);
        assert_eq!(labeled.len(), 1);
        assert_eq!(labeled[0].0, vec![("k".to_string(), "x".to_string())]);
        assert!(promql(&db, "a_total{k=\"y\"}", 1, 5).is_empty());
    }

    /// The name-keyed range scan returns exactly what a scan of every stored
    /// series filtered by name and tick returns, the `to` bound included —
    /// for families whose names share a prefix (`:` and `_` sort either side
    /// of letters), labelled and unlabelled series, and histogram fields.
    #[test]
    fn family_read_equals_a_filtered_full_scan() {
        let db = Tsdb::default();
        for t in 1..=4u64 {
            for name in ["a", "a:b", "a_total", "ab", "b"] {
                db.append(SeriesKey::value(name, &[]), t, t as f64);
                db.append(SeriesKey::value(name, &[("k", "x")]), t, 2.0 * t as f64);
            }
            for field in SampleField::HISTOGRAM_FIELDS {
                let labels = vec![("k".to_string(), "y".to_string())];
                db.append(SeriesKey { name: "a".into(), labels, field }, t, 3.0 * t as f64);
                db.append(SeriesKey { name: "a_".into(), labels: vec![], field }, t, t as f64);
            }
        }
        let full_scan = |name: &str, to: u64| -> Vec<(SeriesKey, Points)> {
            let inner = lock(&db.inner);
            let named = inner.series.iter().filter(|(key, _)| key.name == name);
            named
                .map(|(key, s)| (key.clone(), s.points().filter(|p| p.0 <= to).collect()))
                .collect()
        };
        for name in ["", "a", "a:", "a:b", "a_", "a_total", "ab", "b", "c"] {
            for to in 0..=5 {
                let read = db.family_up_to(name, to);
                let read: Vec<(SeriesKey, Points)> =
                    read.into_iter().map(|s| (s.key, s.points)).collect();
                assert_eq!(read, full_scan(name, to), "{name:?} up to tick {to}");
            }
        }
        assert_eq!(db.family_up_to("a", 2).len(), 8, "two value series and six fields");
        assert_eq!(db.family_up_to("a_total", 2)[0].points, vec![(1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn ring_capacity_evicts_oldest_and_counts_honestly() {
        let db = Tsdb::new(TsdbConfig { capacity_per_series: 3, max_series: 10 });
        let mut appended = 0u64;
        for t in 1..=7u64 {
            db.append(SeriesKey::value("x_total", &[]), t, t as f64);
            appended += 1;
        }
        let s = &family(&db, "x_total")[0];
        assert_eq!(s.points, vec![(5, 5.0), (6, 6.0), (7, 7.0)], "oldest evicted first");
        assert_eq!(db.evicted_samples(), 4);
        // Conservation: retained + evicted == appended.
        assert_eq!(s.points.len() as u64 + db.evicted_samples(), appended);
    }

    #[test]
    fn max_series_drops_new_series_and_counts() {
        let db = Tsdb::new(TsdbConfig { capacity_per_series: 8, max_series: 2 });
        db.append(SeriesKey::value("a_total", &[]), 1, 1.0);
        db.append(SeriesKey::value("b_total", &[]), 1, 1.0);
        db.append(SeriesKey::value("c_total", &[]), 1, 1.0);
        // Existing series still accept samples at the cap.
        db.append(SeriesKey::value("a_total", &[]), 2, 2.0);
        assert_eq!(db.series_count(), 2);
        assert!(family(&db, "c_total").is_empty(), "the series past the cap is not stored");
        assert_eq!(retained(&db), 3, "every sample of a stored series is kept");
    }

    #[test]
    fn scraper_samples_counters_gauges_and_histogram_fields() {
        let registry = Arc::new(Registry::new());
        registry.counter(&Family::new("demo_total", "h", []), []).add(3);
        registry.gauge(&Family::new("demo_depth_entries", "h", []), []).set(2.0);
        let h = registry.histogram(&Family::new("demo_seconds", "h", []), []);
        h.record(1.0);
        h.record(2.0);

        let scraper = Scraper::new(registry.clone(), Arc::new(Tsdb::default()));
        let appended = scraper.scrape(1);
        let db = scraper.store();
        let counter = family(db, "demo_total");
        assert_eq!(counter[0].points, vec![(1, 3.0)]);
        let hist = family(db, "demo_seconds");
        assert_eq!(hist.len(), 6, "histograms fan out into scalar sub-series");
        let field = |f: &str| promql(db, &format!("demo_seconds{{field=\"{f}\"}}"), 1, 1);
        assert_eq!(field("count")[0].1, vec![(1, 2.0)]);
        assert_eq!(field("sum")[0].1, vec![(1, 3.0)]);
        assert!(appended >= 12, "user metrics plus scraper self-metrics: {appended}");
        assert_eq!(retained(db), appended, "one scrape evicts nothing");

        // Second scrape sees the scraper's own scrape_seconds histogram.
        scraper.scrape(2);
        let self_cost = family(db, names::TSDB_SCRAPE_SECONDS.name);
        assert!(!self_cost.is_empty(), "store observes its own cost one tick behind");
        assert_eq!(db.last_tick(), 2);
    }

    #[test]
    fn scrape_runs_installed_recording_rules_at_each_tick() {
        let registry = Arc::new(Registry::new());
        let shards = [("a", 1u64), ("b", 10)];
        let counters: Vec<Counter> = shards
            .iter()
            .map(|(s, _)| registry.counter(&Family::new("demo_total", "h", ["shard"]), [s]))
            .collect();
        let scraper = Scraper::new(registry.clone(), Arc::new(Tsdb::default()));
        scraper.add_recording_rule(
            crate::query::RecordingRule::new("shard:demo:x2", "sum by (shard) (demo_total) * 2")
                .unwrap(),
        );
        let written = || registry.counter(&names::QUERY_RULE_SERIES_TOTAL, ["shard:demo:x2"]).get();
        for tick in 1..=3u64 {
            for (c, (_, step)) in counters.iter().zip(shards) {
                c.add(step);
            }
            let before = written();
            scraper.scrape(tick);
            assert_eq!(written() - before, 2, "one row per shard at tick {tick}");
        }
        let out = family(scraper.store(), "shard:demo:x2");
        assert_eq!(out.len(), 2);
        for (series, (shard, step)) in out.iter().zip(shards) {
            assert_eq!(series.key.labels, vec![("shard".to_string(), shard.to_string())]);
            let want: Vec<(u64, f64)> = (1..=3u64).map(|t| (t, (2 * t * step) as f64)).collect();
            assert_eq!(series.points, want, "the rule's series sits at every scrape tick");
        }
    }

    #[test]
    fn memory_estimate_tracks_growth() {
        let db = Tsdb::default();
        let before = db.memory_bytes();
        for t in 0..100u64 {
            db.append(SeriesKey::value("m_total", &[]), t, t as f64);
        }
        assert!(db.memory_bytes() > before, "samples cost memory");
    }
}

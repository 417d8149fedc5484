//! Metric primitives: atomic counters, gauges, and a log-linear histogram.
//!
//! Every public type here is a *handle*: a cheap clone around an optional
//! `Arc` to the shared core. A handle without a core (the "noop" form) is
//! what uninstrumented code paths carry — every operation on it is a single
//! branch on a `None`, no allocation, no atomics, no syscalls. That is the
//! mechanism behind the crate-wide promise that observability costs nothing
//! until a [`crate::Registry`] is installed.
//!
//! The histogram uses log-linear buckets: each decade `[10^d, 10^(d+1))` is
//! split into 45 linear sub-buckets whose bounds have two significant digits
//! (1.2, 1.4, …, 9.8, 10), so the worst-case relative bucket width is 20%
//! and exported `le` labels render cleanly. The record path is lock-free:
//! a binary search over the static bound table plus a handful of relaxed
//! atomic updates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Smallest finite histogram bound decade (`10^MIN_DECADE`).
const MIN_DECADE: i32 = -9;
/// Largest finite histogram bound decade (bounds reach `10^(MAX_DECADE+1)`).
const MAX_DECADE: i32 = 9;
/// Linear sub-buckets per decade.
const SUBBUCKETS: usize = 45;

/// Upper bucket bounds shared by every histogram, built once per process.
///
/// `bounds()[0] == 1e-9`; thereafter each decade contributes 45 bounds of
/// the form `m × 10^(d-1)` for even `m` in `12..=100`.
pub(crate) fn bounds() -> &'static [f64] {
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = Vec::with_capacity(1 + SUBBUCKETS * (MAX_DECADE - MIN_DECADE + 1) as usize);
        b.push(pow10(MIN_DECADE));
        for d in MIN_DECADE..=MAX_DECADE {
            for m in (12..=100u32).step_by(2) {
                // m × 10^(d-1), computed so the f64 is correctly rounded and
                // prints with two significant digits (divide by an exact
                // power of ten instead of multiplying by an inexact one).
                let v = if d >= 1 { m as f64 * pow10(d - 1) } else { m as f64 / pow10(1 - d) };
                b.push(v);
            }
        }
        b
    })
}

fn pow10(e: i32) -> f64 {
    10f64.powi(e)
}

/// Index of the bucket a value falls into: bucket `i` counts values in
/// `[bounds()[i-1], bounds()[i])`, bucket `0` everything below `bounds()[0]`
/// (including zero, negatives, and NaN), and the last bucket everything at
/// or above the final bound.
pub(crate) fn bucket_index(v: f64) -> usize {
    let b = bounds();
    if v.is_nan() {
        return 0;
    }
    b.partition_point(|bound| *bound <= v)
}

// ------------------------------------------------------------------ counter

/// Shared state of a counter.
#[derive(Debug, Default)]
pub(crate) struct CounterCore {
    value: AtomicU64,
}

/// A monotonically increasing counter handle.
///
/// Clones share the same underlying value. `Counter::noop` handles ignore
/// every update at the cost of one branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCore>>);

impl Counter {
    /// A handle that ignores every operation.
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    pub(crate) fn real() -> Self {
        Counter(Some(Arc::new(CounterCore::default())))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a noop handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

// -------------------------------------------------------------------- gauge

/// Shared state of a gauge (an `f64` stored as its bit pattern).
#[derive(Debug)]
pub(crate) struct GaugeCore {
    bits: AtomicU64,
}

impl Default for GaugeCore {
    fn default() -> Self {
        GaugeCore { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCore>>);

impl Gauge {
    /// A handle that ignores every operation.
    pub fn noop() -> Self {
        Gauge(None)
    }

    pub(crate) fn real() -> Self {
        Gauge(Some(Arc::new(GaugeCore::default())))
    }

    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add `delta` (may be negative) with a compare-and-swap loop.
    pub fn add(&self, delta: f64) {
        if let Some(g) = &self.0 {
            let mut cur = g.bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + delta).to_bits();
                match g.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    /// Current value (0.0 for a noop handle).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| f64::from_bits(g.bits.load(Ordering::Relaxed)))
    }
}

// ---------------------------------------------------------------- histogram

/// Shared state of a histogram.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// `bounds().len() + 1` buckets; see [`bucket_index`].
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, stored as f64 bits, updated via CAS.
    sum_bits: AtomicU64,
    /// Maximum recorded value, stored as f64 bits, updated via CAS.
    max_bits: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: (0..=bounds().len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// One bucket of a histogram snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Upper bound of the bucket (`f64::INFINITY` for the overflow bucket).
    pub(crate) le: f64,
    /// Cumulative count of observations at or below `le`.
    pub(crate) cumulative: u64,
}

/// A point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub(crate) count: u64,
    /// Sum of recorded values.
    pub(crate) sum: f64,
    /// Largest recorded value (0.0 when empty).
    pub(crate) max: f64,
    /// Estimated 50th percentile.
    pub(crate) p50: f64,
    /// Estimated 95th percentile.
    pub(crate) p95: f64,
    /// Estimated 99th percentile.
    pub(crate) p99: f64,
    /// Non-empty buckets with cumulative counts, in bound order.
    pub(crate) buckets: Vec<BucketCount>,
}

/// A histogram handle with a lock-free record path.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that ignores every operation.
    pub(crate) fn noop() -> Self {
        Histogram(None)
    }

    pub(crate) fn real() -> Self {
        Histogram(Some(Arc::new(HistogramCore::default())))
    }

    /// True when observations are actually recorded somewhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    pub fn record(&self, v: f64) {
        let Some(h) = &self.0 else { return };
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&h.sum_bits, |cur| cur + v);
        cas_f64(&h.max_bits, |cur| cur.max(v));
    }

    /// Observations recorded (0 for a noop handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded values (0.0 for a noop handle).
    pub fn sum(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |h| f64::from_bits(h.sum_bits.load(Ordering::Relaxed)))
    }

    /// Largest recorded value (0.0 when empty or noop).
    pub fn max(&self) -> f64 {
        let m = self
            .0
            .as_ref()
            .map_or(f64::NEG_INFINITY, |h| f64::from_bits(h.max_bits.load(Ordering::Relaxed)));
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket holding the target rank. Accuracy is bounded by the
    /// 20% worst-case bucket width. Returns 0.0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let Some(h) = &self.0 else { return 0.0 };
        let total = h.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let max = self.max();
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let b = bounds();
        let mut cum = 0u64;
        for (i, bucket) in h.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let before = cum;
            cum += c;
            if (cum as f64) < rank {
                continue;
            }
            // Interpolate within [lo, hi): the bucket's value range.
            let lo = if i == 0 { 0.0 } else { b[i - 1] };
            let hi = if i < b.len() { b[i].min(max) } else { max };
            let frac = (rank - before as f64) / c as f64;
            return (lo + frac * (hi - lo).max(0.0)).min(max);
        }
        max
    }

    /// A consistent-enough point-in-time snapshot (buckets are read after
    /// the count, so a snapshot taken under concurrent writes may lag by a
    /// few observations but is never torn per bucket).
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: Vec::new(),
        };
        if let Some(h) = &self.0 {
            let b = bounds();
            let mut cum = 0u64;
            for (i, bucket) in h.buckets.iter().enumerate() {
                let c = bucket.load(Ordering::Relaxed);
                if c == 0 {
                    continue;
                }
                cum += c;
                let le = if i < b.len() { b[i] } else { f64::INFINITY };
                snap.buckets.push(BucketCount { le, cumulative: cum });
            }
        }
        snap
    }
}

/// CAS loop applying `f` to an `f64` stored as bits in an `AtomicU64`.
fn cas_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_sorted_and_two_significant_digits() {
        let b = bounds();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(b[0], 1e-9);
        assert_eq!(*b.last().unwrap(), 1e10);
        // Spot-check clean rendering: the whole point of the m/10^k scheme.
        assert!(b.iter().any(|v| format!("{v}") == "1.4"));
        assert!(b.iter().any(|v| format!("{v}") == "0.00012"));
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(5e-10), 0);
        // 1.0 is an exact bound, so it lands in the bucket above it.
        let i = bucket_index(1.0);
        assert!(bounds()[i - 1] <= 1.0 && 1.0 < bounds()[i]);
        assert_eq!(bucket_index(1e12), bounds().len());
    }

    #[test]
    fn noop_handles_do_nothing() {
        let c = Counter::noop();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(5.0);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::noop();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::real();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::real();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let h = Histogram::real();
        for v in [0.001, 0.01, 0.01, 10.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 10.021).abs() < 1e-9);
        assert_eq!(h.max(), 10.0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.last().unwrap().cumulative, 4);
    }
}

//! Shared rate arithmetic, so every "records per X" number in the workspace
//! divides the same way and guards the same edge cases.
//!
//! Two distinct semantics exist in this codebase and are easy to conflate:
//!
//! * **Wall-clock rate** ([`per_second`]): a raw count divided by elapsed
//!   wall time. This is what the bench's `records_per_s` reports — it
//!   answers "how fast did the machine chew through the stream".
//! * **Per-bucket mean** ([`per_bucket`]): a total divided by the number of
//!   *occupied* time buckets, ignoring how long the run actually took. This
//!   is what `PipelineOutput::mean_records_per_minute` reports — it answers
//!   "how busy is a typical active minute", matching the paper's Table 1,
//!   and it deliberately does not count empty minutes inside gaps.
//!
//! Both return 0.0 rather than NaN/∞ when the denominator is zero.

/// Wall-clock rate: `count / elapsed_secs`, or 0.0 when no time elapsed.
pub fn per_second(count: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs <= 0.0 || !elapsed_secs.is_finite() {
        return 0.0;
    }
    count as f64 / elapsed_secs
}

/// Per-bucket mean: `total / buckets`, or 0.0 when no buckets exist.
pub fn per_bucket(total: u64, buckets: usize) -> f64 {
    if buckets == 0 {
        return 0.0;
    }
    total as f64 / buckets as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_denominators_yield_zero() {
        assert_eq!(per_second(100, 0.0), 0.0);
        assert_eq!(per_second(100, -1.0), 0.0);
        assert_eq!(per_second(100, f64::NAN), 0.0);
        assert_eq!(per_bucket(100, 0), 0.0);
    }

    /// Degenerate numerators and denominators never leak inf/NaN to callers
    /// (bench reports, dashboards).
    #[test]
    fn results_are_always_finite() {
        assert_eq!(per_second(100, f64::INFINITY), 0.0);
        assert_eq!(per_second(0, 0.0), 0.0);
        assert_eq!(per_second(u64::MAX, 1.0), u64::MAX as f64);
        for (count, secs) in [(0u64, 0.0f64), (7, -0.0), (u64::MAX, f64::NAN)] {
            assert!(per_second(count, secs).is_finite());
        }
        assert!(per_bucket(u64::MAX, 1).is_finite());
    }

    #[test]
    fn ordinary_division() {
        assert_eq!(per_second(100, 4.0), 25.0);
        assert_eq!(per_bucket(9, 6), 1.5);
    }
}

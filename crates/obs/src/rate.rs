//! Shared rate arithmetic, so every "records per second" number in the
//! workspace divides the same way and guards the same edge cases.
//!
//! [`per_second`] is a wall-clock rate: a raw count divided by elapsed wall
//! time. It answers "how fast did the machine chew through the stream"
//! (`exp_cogs`' records/s), and returns 0.0 rather than NaN/∞ when no time
//! elapsed.

/// Wall-clock rate: `count / elapsed_secs`, or 0.0 when no time elapsed.
pub fn per_second(count: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs <= 0.0 || !elapsed_secs.is_finite() {
        return 0.0;
    }
    count as f64 / elapsed_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_denominators_yield_zero() {
        assert_eq!(per_second(100, 0.0), 0.0);
        assert_eq!(per_second(100, -1.0), 0.0);
        assert_eq!(per_second(100, f64::NAN), 0.0);
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
    }

    #[test]
    fn ordinary_division() {
        assert_eq!(per_second(100, 4.0), 25.0);
    }
}

//! Aggregation-interval (bucket) arithmetic.
//!
//! Connection summaries are emitted on a fixed cadence (1 minute on Azure and
//! AWS, 5 seconds and up on GCP — Table 3). All bucketing in the repository
//! goes through these helpers so that every component agrees on interval
//! boundaries.

/// Seconds in one minute; the default aggregation interval.
pub const MINUTE: u64 = 60;

/// Floor a timestamp (seconds) to the start of its bucket of `interval` seconds.
///
/// # Panics
/// Panics if `interval` is zero.
pub fn bucket_start(ts: u64, interval: u64) -> u64 {
    assert!(interval > 0, "aggregation interval must be positive");
    ts - ts % interval
}

/// The bucket index of a timestamp, counting buckets of `interval` seconds
/// from the epoch.
pub fn bucket_index(ts: u64, interval: u64) -> u64 {
    assert!(interval > 0, "aggregation interval must be positive");
    ts / interval
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_start_floors() {
        assert_eq!(bucket_start(0, MINUTE), 0);
        assert_eq!(bucket_start(59, MINUTE), 0);
        assert_eq!(bucket_start(60, MINUTE), 60);
        assert_eq!(bucket_start(3601, 3600), 3600);
    }

    #[test]
    fn bucket_index_counts_from_epoch() {
        assert_eq!(bucket_index(0, MINUTE), 0);
        assert_eq!(bucket_index(61, MINUTE), 1);
        assert_eq!(bucket_index(7200, 3600), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        bucket_start(10, 0);
    }

    #[test]
    fn gcp_five_second_buckets() {
        assert_eq!(bucket_start(12, 5), 10);
        assert_eq!(bucket_index(19, 5), 3);
    }
}

//! Label-cardinality caps for per-tenant metric families.
//!
//! The ROADMAP's "millions of tenants" north star collides with a hard
//! observability rule: a metric registry must not grow one label value per
//! tenant. [`LabelCap`] is the shared gate — the first `cap` distinct
//! values get their own label; everything after lands in one explicit
//! [`OVERFLOW`] bucket, and each routed resolution is counted on
//! `commgraph_obs_label_overflow_total{family}` so the truncation is
//! visible, never silent.
//!
//! Conservation contract (pinned by the analytics tests): for *counter*
//! families, summing over all label values — including `overflow` —
//! equals the uncapped total. Gauges routed to `overflow` overwrite one
//! another (last writer wins); per-tenant gauge fidelity is only available
//! for admitted tenants, which is exactly the cap's point.

use crate::sync::lock;
use crate::{names, Counter, Obs};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The label value shared by everything beyond the cap.
pub const OVERFLOW: &str = "overflow";

/// A first-come-first-admitted label-value cap for one metric family (or a
/// group of families sharing a label key).
#[derive(Debug)]
pub struct LabelCap {
    cap: usize,
    overflow: Counter,
    // bound: at most `cap` values; later ones resolve to `OVERFLOW`.
    admitted: Mutex<BTreeSet<String>>,
}

impl LabelCap {
    /// A cap admitting `cap` distinct values, counting overflow routes on
    /// `commgraph_obs_label_overflow_total{family}`.
    pub fn new(obs: &Obs, family: &str, cap: usize) -> LabelCap {
        LabelCap {
            cap,
            overflow: obs.counter(&names::OBS_LABEL_OVERFLOW_TOTAL, [family]),
            admitted: Mutex::new(BTreeSet::new()),
        }
    }

    /// The label value to use for `value`: `value` itself while the cap has
    /// room (or `value` was admitted earlier), [`OVERFLOW`] afterwards.
    pub fn resolve(&self, value: &str) -> String {
        let mut admitted = lock(&self.admitted);
        if admitted.contains(value) {
            return value.to_string();
        }
        if admitted.len() < self.cap {
            admitted.insert(value.to_string());
            return value.to_string();
        }
        drop(admitted);
        self.overflow.inc();
        OVERFLOW.to_string()
    }

    /// Distinct values admitted so far (≤ the cap).
    pub fn admitted(&self) -> usize {
        lock(&self.admitted).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Family;
    use crate::Registry;
    use std::sync::Arc;

    const DEMO_RECORDS: Family<Counter, 1> = Family::new("demo_records_total", "h", ["tenant"]);

    #[test]
    fn admits_up_to_cap_then_overflows() {
        let registry = Arc::new(Registry::new());
        let o = Obs::new(registry.clone());
        let cap = LabelCap::new(&o, "demo", 2);
        assert_eq!(cap.resolve("a"), "a");
        assert_eq!(cap.resolve("b"), "b");
        assert_eq!(cap.resolve("c"), OVERFLOW);
        assert_eq!(cap.resolve("a"), "a", "admitted values stay admitted");
        assert_eq!(cap.resolve("c"), OVERFLOW, "rejected values stay rejected");
        assert_eq!(cap.admitted(), 2);
        let routed = registry.counter(&names::OBS_LABEL_OVERFLOW_TOTAL, ["demo"]).get();
        assert_eq!(routed, 2, "every overflow route is counted");
    }

    #[test]
    fn counter_totals_are_conserved_across_the_cap() {
        let registry = Arc::new(Registry::new());
        let o = Obs::new(registry.clone());
        let cap = LabelCap::new(&o, "demo", 2);
        let mut uncapped_total = 0u64;
        for (tenant, n) in [("a", 10u64), ("b", 20), ("c", 30), ("d", 40)] {
            let label = cap.resolve(tenant);
            o.counter(&DEMO_RECORDS, [&label]).add(n);
            uncapped_total += n;
        }
        let capped_sum: u64 = registry
            .snapshot()
            .iter()
            .filter(|m| m.name == "demo_records_total")
            .map(|m| match m.value {
                crate::SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(capped_sum, uncapped_total, "overflow bucket conserves totals");
    }

    #[test]
    fn zero_cap_routes_everything_to_overflow() {
        let o = Obs::noop();
        let cap = LabelCap::new(&o, "demo", 0);
        assert_eq!(cap.resolve("anything"), OVERFLOW);
        assert_eq!(cap.admitted(), 0);
    }
}

//! The COGS model: what the telemetry and analytics cost.
//!
//! The paper's economics: an average VM costs ~$0.5/hr; the market bears a
//! security surcharge of ~$0.02/hr/VM (≈4%); telemetry collection costs
//! ~$0.5/GB; and the analytics tier should spend "a handful of VMs worth of
//! resources" per ~1000 monitored VMs (≈0.5%). [`CogsModel::assess`] turns a
//! cluster's record rate plus a measured analytics throughput into
//! dollars-per-VM-hour and checks it against those price points.

use flowlog::codec::BINARY_RECORD_SIZE;
use serde::Serialize;

/// Price and capacity assumptions.
#[derive(Debug, Clone, Serialize)]
pub struct CogsModel {
    /// Wire bytes per connection summary.
    pub(crate) record_bytes: f64,
    /// Collection price in $/GB (Table 3: ~0.5).
    pub(crate) price_per_gb_usd: f64,
    /// Hourly price of one cloud VM (paper: ~$0.5 for 8 cores).
    pub(crate) vm_price_per_hour_usd: f64,
    /// Measured analytics throughput, records/second per analytics VM.
    pub(crate) analytics_records_per_sec_per_vm: f64,
    /// The market surcharge the paper argues is viable, $/hr/VM.
    pub(crate) target_surcharge_per_vm_hour_usd: f64,
}

impl CogsModel {
    /// The paper's price points with a measured analytics capacity.
    pub fn paper_defaults(analytics_records_per_sec_per_vm: f64) -> Self {
        CogsModel {
            record_bytes: BINARY_RECORD_SIZE as f64,
            price_per_gb_usd: 0.5,
            vm_price_per_hour_usd: 0.5,
            analytics_records_per_sec_per_vm,
            target_surcharge_per_vm_hour_usd: 0.02,
        }
    }
}

/// The assessment for one cluster.
#[derive(Debug, Clone, Serialize)]
pub struct CogsReport {
    /// Monitored VMs in the cluster.
    pub(crate) monitored_vms: usize,
    /// Telemetry record rate, records/minute.
    pub records_per_min: f64,
    /// Telemetry volume, GB/day.
    pub gb_per_day: f64,
    /// Collection cost, $/day.
    pub collection_usd_per_day: f64,
    /// Analytics VMs needed if the cluster ran a *dedicated* tier (ceil).
    pub analytics_vms: usize,
    /// Analytics capacity actually consumed, in VM-equivalents — the
    /// multi-tenant SaaS tier of Figure 8 bills this fraction, which is
    /// what lets small clusters amortize.
    pub analytics_vms_fractional: f64,
    /// Fractional analytics VMs per monitored VM (paper target ≈ 0.5%).
    pub(crate) analytics_vm_fraction: f64,
    /// Total surcharge per monitored VM per hour: collection + analytics.
    pub surcharge_per_vm_hour_usd: f64,
    /// Surcharge as a fraction of the VM price (paper target ≈ 4%).
    pub surcharge_fraction_of_vm_price: f64,
    /// Whether the surcharge fits under the paper's market price point.
    pub within_target: bool,
}

impl CogsModel {
    /// Assess a cluster of `monitored_vms` emitting `records_per_min`.
    ///
    /// # Panics
    /// Panics if `monitored_vms` is zero or rates are non-positive.
    pub fn assess(&self, monitored_vms: usize, records_per_min: f64) -> CogsReport {
        assert!(monitored_vms > 0, "need at least one monitored VM");
        assert!(
            records_per_min >= 0.0 && self.analytics_records_per_sec_per_vm > 0.0,
            "rates must be positive"
        );
        let records_per_day = records_per_min * 60.0 * 24.0;
        let gb_per_day = records_per_day * self.record_bytes / 1e9;
        let collection_usd_per_day = gb_per_day * self.price_per_gb_usd;

        let records_per_sec = records_per_min / 60.0;
        let analytics_vms_fractional = records_per_sec / self.analytics_records_per_sec_per_vm;
        let analytics_vms = (analytics_vms_fractional.ceil() as usize).max(1);
        // SaaS pricing (Figure 8): customers pay for the capacity fraction
        // they consume of a shared analytics tier, not whole VMs.
        let analytics_usd_per_hour = analytics_vms_fractional * self.vm_price_per_hour_usd;

        let surcharge_per_vm_hour_usd =
            (collection_usd_per_day / 24.0 + analytics_usd_per_hour) / monitored_vms as f64;
        let surcharge_fraction_of_vm_price = surcharge_per_vm_hour_usd / self.vm_price_per_hour_usd;
        CogsReport {
            monitored_vms,
            records_per_min,
            gb_per_day,
            collection_usd_per_day,
            analytics_vms,
            analytics_vms_fractional,
            analytics_vm_fraction: analytics_vms_fractional / monitored_vms as f64,
            surcharge_per_vm_hour_usd,
            surcharge_fraction_of_vm_price,
            within_target: surcharge_per_vm_hour_usd <= self.target_surcharge_per_vm_hour_usd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k8s_paas_scale_is_cheap() {
        // 390 VMs, 68K records/min, analytics VM doing 100K records/s.
        let model = CogsModel::paper_defaults(100_000.0);
        let r = model.assess(390, 68_000.0);
        assert_eq!(r.analytics_vms, 1, "one analytics VM suffices");
        assert!(r.analytics_vm_fraction < 0.005, "well under 0.5%");
        assert!(r.within_target, "surcharge {} must fit $0.02", r.surcharge_per_vm_hour_usd);
        assert!(r.gb_per_day > 0.0);
    }

    #[test]
    fn kquery_scale_needs_more_but_still_fits() {
        let model = CogsModel::paper_defaults(100_000.0);
        let r = model.assess(1400, 2_300_000.0);
        assert!(r.analytics_vms >= 1);
        assert!(
            r.analytics_vm_fraction < 0.01,
            "handful of VMs per 1400: {}",
            r.analytics_vm_fraction
        );
        assert!(r.within_target, "surcharge {}", r.surcharge_per_vm_hour_usd);
    }

    #[test]
    fn slow_analytics_blows_the_budget() {
        // An analytics VM that only does 500 records/s needs a fleet.
        let model = CogsModel::paper_defaults(500.0);
        let r = model.assess(1400, 2_300_000.0);
        assert!(r.analytics_vms > 70);
        assert!(!r.within_target, "must exceed the $0.02 price point");
    }

    #[test]
    fn collection_cost_scales_with_volume() {
        let model = CogsModel::paper_defaults(100_000.0);
        let small = model.assess(100, 1_000.0);
        let big = model.assess(100, 100_000.0);
        assert!(big.collection_usd_per_day > small.collection_usd_per_day * 50.0);
    }

    #[test]
    fn minimum_one_analytics_vm() {
        let model = CogsModel::paper_defaults(1e9);
        let r = model.assess(4, 332.0);
        assert_eq!(r.analytics_vms, 1);
    }

    #[test]
    #[should_panic(expected = "monitored")]
    fn zero_vms_panics() {
        CogsModel::paper_defaults(1.0).assess(0, 1.0);
    }
}

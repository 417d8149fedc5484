//! Provider collection presets (Table 3 of the paper).
//!
//! Three large public clouds already expose connection-summary telemetry;
//! they differ in aggregation interval, sampling, and price. A
//! [`ProviderPreset`] bundles those knobs so simulations and COGS estimates
//! can be run "as Azure", "as AWS", or "as GCP".

use crate::error::{Error, Result};
use crate::sampling::SamplingConfig;
use serde::{Deserialize, Serialize};

/// Which cloud's flow-log product is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cloud {
    /// Azure NSG Flow Logs.
    Azure,
    /// AWS VPC Flow Logs.
    Aws,
    /// GCP VPC Flow Logs.
    Gcp,
}

impl Cloud {
    /// Product name as it appears in Table 3.
    pub fn product_name(self) -> &'static str {
        match self {
            Cloud::Azure => "NSG Flow Logs",
            Cloud::Aws => "VPC Flow Logs",
            Cloud::Gcp => "VPC Flow Logs",
        }
    }
}

/// A provider's telemetry collection configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderPreset {
    /// The cloud being modeled.
    pub cloud: Cloud,
    /// Aggregation interval in seconds between successive summaries of the
    /// same flow.
    pub agg_interval_secs: u64,
    /// Sampling applied before records are emitted.
    pub sampling: SamplingConfig,
    /// Collection price in dollars per gigabyte of telemetry.
    pub price_per_gb_usd: f64,
}

impl ProviderPreset {
    /// Azure NSG Flow Logs: 1-minute aggregation, no sampling (Table 3).
    pub fn azure() -> Self {
        ProviderPreset {
            cloud: Cloud::Azure,
            agg_interval_secs: 60,
            sampling: SamplingConfig::none(),
            price_per_gb_usd: 0.5,
        }
    }

    /// AWS VPC Flow Logs: 1-minute aggregation, no sampling (Table 3).
    pub fn aws() -> Self {
        ProviderPreset {
            cloud: Cloud::Aws,
            agg_interval_secs: 60,
            sampling: SamplingConfig::none(),
            price_per_gb_usd: 0.5,
        }
    }

    /// GCP VPC Flow Logs: 5-second (or higher) aggregation, sampling 3% of
    /// packets and 50% of flows (Table 3).
    pub fn gcp() -> Self {
        ProviderPreset {
            cloud: Cloud::Gcp,
            agg_interval_secs: 5,
            sampling: SamplingConfig { flow_rate: 0.50, packet_rate: 0.03 },
            price_per_gb_usd: 0.5,
        }
    }

    /// Validate the preset's invariants (positive interval, sane price).
    pub fn validate(&self) -> Result<()> {
        if self.agg_interval_secs == 0 {
            return Err(Error::InvalidConfig("aggregation interval must be positive".into()));
        }
        if !(self.price_per_gb_usd.is_finite() && self.price_per_gb_usd >= 0.0) {
            return Err(Error::InvalidConfig(format!(
                "price per GB must be a non-negative finite number, got {}",
                self.price_per_gb_usd
            )));
        }
        self.sampling.validate()
    }

    /// Dollars charged for collecting `bytes` of telemetry.
    pub fn collection_cost_usd(&self, bytes: u64) -> f64 {
        self.price_per_gb_usd * bytes as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_presets_validate() {
        for p in [ProviderPreset::azure(), ProviderPreset::aws(), ProviderPreset::gcp()] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn table3_values_match_paper() {
        let az = ProviderPreset::azure();
        assert_eq!(az.agg_interval_secs, 60);
        assert!(az.sampling.is_complete());
        assert_eq!(az.product_name_matches(), "NSG Flow Logs");

        let gcp = ProviderPreset::gcp();
        assert_eq!(gcp.agg_interval_secs, 5);
        assert!((gcp.sampling.flow_rate - 0.50).abs() < 1e-12);
        assert!((gcp.sampling.packet_rate - 0.03).abs() < 1e-12);
    }

    impl ProviderPreset {
        fn product_name_matches(&self) -> &'static str {
            self.cloud.product_name()
        }
    }

    #[test]
    fn collection_cost_scales_linearly() {
        let p = ProviderPreset::azure();
        assert!((p.collection_cost_usd(1_000_000_000) - 0.5).abs() < 1e-9);
        assert_eq!(p.collection_cost_usd(0), 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut p = ProviderPreset::azure();
        p.agg_interval_secs = 0;
        assert!(p.validate().is_err());

        let mut p = ProviderPreset::aws();
        p.price_per_gb_usd = f64::NAN;
        assert!(p.validate().is_err());
    }
}

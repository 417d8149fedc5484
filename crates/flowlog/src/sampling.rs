//! Packet- and flow-sampling stages.
//!
//! GCP samples roughly 3% of packets and 50% of flows before emitting VPC
//! flow logs (Table 3). This module models both stages and the matching
//! unbiased upscaling that analytics apply before graph construction:
//!
//! * **Flow sampling** is *consistent*: a flow is either always reported or
//!   never, decided by a hash of its direction-independent identity. This
//!   matches how providers sample (per-flow coin flip), keeps time series of
//!   surviving flows intact, and makes both endpoints of a flow agree.
//! * **Packet sampling** thins a summary's packet and byte counters by
//!   binomial subsampling of packets (bytes follow proportionally).
//!
//! Upscaling divides surviving counters by the sampling rates, which is the
//! standard Horvitz–Thompson estimator: unbiased in expectation, noisy for
//! small flows — exactly the trade-off the paper notes providers accept to
//! reduce cost.

use crate::error::{Error, Result};
use crate::record::{ConnSummary, FlowKey};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Sampling rates applied by a telemetry source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Fraction of flows reported, in `(0, 1]`.
    pub flow_rate: f64,
    /// Fraction of packets of a reported flow that are counted, in `(0, 1]`.
    pub packet_rate: f64,
}

impl SamplingConfig {
    /// No sampling: every flow, every packet.
    pub(crate) fn none() -> Self {
        SamplingConfig { flow_rate: 1.0, packet_rate: 1.0 }
    }

    /// Create a config, validating both rates.
    pub fn new(flow_rate: f64, packet_rate: f64) -> Result<Self> {
        let c = SamplingConfig { flow_rate, packet_rate };
        c.validate()?;
        Ok(c)
    }

    /// Check both rates lie in `(0, 1]`.
    pub(crate) fn validate(&self) -> Result<()> {
        for (name, r) in [("flow_rate", self.flow_rate), ("packet_rate", self.packet_rate)] {
            if !(r.is_finite() && 0.0 < r && r <= 1.0) {
                return Err(Error::InvalidConfig(format!("{name} must be in (0, 1], got {r}")));
            }
        }
        Ok(())
    }

    /// True when no record or counter is ever dropped.
    pub fn is_complete(&self) -> bool {
        self.flow_rate >= 1.0 && self.packet_rate >= 1.0
    }
}

/// Stateless consistent flow sampler + packet thinner.
#[derive(Debug, Clone)]
pub struct Sampler {
    config: SamplingConfig,
    /// Salt mixed into the flow hash so different deployments sample
    /// different flow subsets.
    salt: u64,
}

impl Sampler {
    /// Build a sampler from a validated config and a hash salt.
    pub fn new(config: SamplingConfig, salt: u64) -> Result<Self> {
        config.validate()?;
        Ok(Sampler { config, salt })
    }

    /// Consistent decision: is this flow in the reported subset?
    ///
    /// Uses the canonical (direction-independent) key so both endpoints of a
    /// flow make the same decision.
    pub(crate) fn keeps_flow(&self, key: &FlowKey) -> bool {
        if self.config.flow_rate >= 1.0 {
            return true;
        }
        let h = flow_hash(&key.canonical(), self.salt);
        // Map the hash to [0, 1) and compare against the rate.
        (h as f64 / (u64::MAX as f64 + 1.0)) < self.config.flow_rate
    }

    /// Apply both sampling stages to a summary.
    ///
    /// Returns `None` if the flow itself is not sampled; otherwise a summary
    /// with binomially thinned packet counters (bytes scaled proportionally,
    /// so average packet size is preserved). A thinned record that ends up
    /// with zero packets in both directions is dropped too — providers do
    /// not emit empty records.
    pub fn sample<R: RngExt + ?Sized>(&self, s: &ConnSummary, rng: &mut R) -> Option<ConnSummary> {
        if !self.keeps_flow(&s.key) {
            return None;
        }
        if self.config.packet_rate >= 1.0 {
            return Some(*s);
        }
        let (ps, bs) = thin(s.pkts_sent, s.bytes_sent, self.config.packet_rate, rng);
        let (pr, br) = thin(s.pkts_rcvd, s.bytes_rcvd, self.config.packet_rate, rng);
        if ps + pr == 0 {
            return None;
        }
        Some(ConnSummary { pkts_sent: ps, bytes_sent: bs, pkts_rcvd: pr, bytes_rcvd: br, ..*s })
    }

    /// Horvitz–Thompson upscaling: divide surviving counters by the sampling
    /// rates to obtain unbiased traffic estimates.
    pub fn upscale(&self, s: &ConnSummary) -> ConnSummary {
        let f = 1.0 / (self.config.flow_rate * self.config.packet_rate);
        let scale = |v: u64| ((v as f64) * f).round() as u64;
        ConnSummary {
            pkts_sent: scale(s.pkts_sent),
            pkts_rcvd: scale(s.pkts_rcvd),
            bytes_sent: scale(s.bytes_sent),
            bytes_rcvd: scale(s.bytes_rcvd),
            ..*s
        }
    }
}

/// Binomially subsample `pkts` at `rate`; scale `bytes` proportionally.
fn thin<R: RngExt + ?Sized>(pkts: u64, bytes: u64, rate: f64, rng: &mut R) -> (u64, u64) {
    if pkts == 0 {
        return (0, 0);
    }
    // Exact binomial for small counts; normal approximation for large ones to
    // stay O(1) per record at line rate.
    let kept = if pkts <= 1024 {
        let mut k = 0u64;
        for _ in 0..pkts {
            if rng.random_range(0.0..1.0) < rate {
                k += 1;
            }
        }
        k
    } else {
        let n = pkts as f64;
        let mean = n * rate;
        let sd = (n * rate * (1.0 - rate)).sqrt();
        // Box–Muller normal draw.
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + sd * z).round().clamp(0.0, n) as u64
    };
    let kept_bytes =
        if pkts == 0 { 0 } else { (bytes as f64 * kept as f64 / pkts as f64).round() as u64 };
    (kept, kept_bytes)
}

/// FNV-1a over the canonical flow identity, mixed with a salt.
fn flow_hash(key: &FlowKey, salt: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET ^ salt;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    };
    for b in key.local_ip.octets() {
        eat(b);
    }
    for b in key.local_port.to_be_bytes() {
        eat(b);
    }
    for b in key.remote_ip.octets() {
        eat(b);
    }
    for b in key.remote_port.to_be_bytes() {
        eat(b);
    }
    eat(key.proto.number());
    // Final avalanche (splitmix64 tail) so low bits are well mixed.
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn key(i: u32) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::from(0x0a00_0000 + i),
            40000 + (i % 1000) as u16,
            Ipv4Addr::from(0x0a01_0000 + (i * 7) % 256),
            443,
        )
    }

    fn summary(i: u32, pkts: u64, bytes: u64) -> ConnSummary {
        ConnSummary {
            ts: 0,
            key: key(i),
            pkts_sent: pkts,
            pkts_rcvd: pkts / 2,
            bytes_sent: bytes,
            bytes_rcvd: bytes / 2,
        }
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(SamplingConfig::new(0.0, 0.5).is_err());
        assert!(SamplingConfig::new(0.5, 1.5).is_err());
        assert!(SamplingConfig::new(f64::NAN, 0.5).is_err());
        assert!(SamplingConfig::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn no_sampling_is_identity() {
        let s = Sampler::new(SamplingConfig::none(), 7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rec = summary(3, 100, 150_000);
        assert_eq!(s.sample(&rec, &mut rng), Some(rec));
        assert_eq!(s.upscale(&rec), rec);
    }

    #[test]
    fn flow_decision_is_consistent_and_direction_independent() {
        let s = Sampler::new(SamplingConfig::new(0.5, 1.0).unwrap(), 99).unwrap();
        for i in 0..200 {
            let k = key(i);
            assert_eq!(s.keeps_flow(&k), s.keeps_flow(&k.reversed()));
            assert_eq!(s.keeps_flow(&k), s.keeps_flow(&k), "same answer every call");
        }
    }

    #[test]
    fn flow_sampling_rate_is_approximately_honored() {
        let s = Sampler::new(SamplingConfig::new(0.5, 1.0).unwrap(), 1234).unwrap();
        let kept = (0..10_000).filter(|&i| s.keeps_flow(&key(i))).count();
        assert!((4500..5500).contains(&kept), "expected ~5000 of 10000 flows kept, got {kept}");
    }

    #[test]
    fn packet_thinning_preserves_mean_traffic() {
        let cfg = SamplingConfig::new(1.0, 0.03).unwrap();
        let s = Sampler::new(cfg, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let rec = summary(1, 10_000, 15_000_000);
        let (mut tot_pkts, mut tot_bytes, n) = (0u64, 0u64, 200);
        for _ in 0..n {
            if let Some(out) = s.sample(&rec, &mut rng) {
                let up = s.upscale(&out);
                tot_pkts += up.pkts_sent;
                tot_bytes += up.bytes_sent;
            }
        }
        let mean_pkts = tot_pkts as f64 / n as f64;
        let mean_bytes = tot_bytes as f64 / n as f64;
        assert!(
            (mean_pkts - 10_000.0).abs() / 10_000.0 < 0.05,
            "upscaled packet mean should be within 5%: {mean_pkts}"
        );
        assert!(
            (mean_bytes - 15_000_000.0).abs() / 15_000_000.0 < 0.05,
            "upscaled byte mean should be within 5%: {mean_bytes}"
        );
    }

    #[test]
    fn thinned_records_stay_well_formed() {
        let cfg = SamplingConfig::new(1.0, 0.1).unwrap();
        let s = Sampler::new(cfg, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..500 {
            let rec = summary(i, (i as u64 % 40) + 1, ((i as u64 % 40) + 1) * 800);
            if let Some(out) = s.sample(&rec, &mut rng) {
                assert!(out.is_well_formed(), "thinned record must stay well-formed: {out:?}");
                assert!(out.pkts_total() > 0, "empty records must be dropped");
            }
        }
    }

    #[test]
    fn different_salts_sample_different_subsets() {
        let a = Sampler::new(SamplingConfig::new(0.5, 1.0).unwrap(), 1).unwrap();
        let b = Sampler::new(SamplingConfig::new(0.5, 1.0).unwrap(), 2).unwrap();
        let diff = (0..1000).filter(|&i| a.keeps_flow(&key(i)) != b.keeps_flow(&key(i))).count();
        assert!(diff > 300, "salts should decorrelate decisions, only {diff} differed");
    }
}

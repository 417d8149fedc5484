//! Time-varying load modulation.
//!
//! Real cloud traffic is not stationary: the paper's hourly timelapse
//! (Figure 5) shows bands growing, shrinking, and appearing across hours,
//! and its proportionality-based policies (§2.1) hinge on telling a flash
//! crowd (all tiers scale together) from a compromised VM (one edge grows
//! alone). [`LoadShape`]s multiply a profile's connection rate as a function
//! of simulation time.

use serde::{Deserialize, Serialize};

/// A multiplicative load modifier over time (minutes from simulation start).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadShape {
    /// No variation.
    Constant,
    /// Sinusoidal day: `1 + amplitude * sin(2π (t - phase)/period)`,
    /// clamped at ≥ 0.05 so traffic never fully stops.
    Diurnal {
        /// Period in minutes (1440 = a day; tests often use 60).
        period_min: f64,
        /// Relative swing, e.g. 0.5 for ±50%.
        amplitude: f64,
        /// Phase offset in minutes.
        phase_min: f64,
    },
    /// A flash crowd: multiply by `factor` during `[start, start+duration)`.
    Spike {
        /// First minute of the surge.
        start_min: u64,
        /// Length of the surge in minutes.
        duration_min: u64,
        /// Load multiplier while active (e.g. 5.0).
        factor: f64,
    },
    /// A permanent step change at `at_min` (e.g. a code rollout that doubles
    /// chatter): multiply by `factor` from then on.
    Step {
        /// Minute the change takes effect.
        at_min: u64,
        /// Multiplier after the change.
        factor: f64,
    },
}

impl LoadShape {
    /// The multiplier at minute `t`.
    pub(crate) fn factor_at(&self, t: u64) -> f64 {
        match *self {
            LoadShape::Constant => 1.0,
            LoadShape::Diurnal { period_min, amplitude, phase_min } => {
                let x = (t as f64 - phase_min) / period_min * std::f64::consts::TAU;
                (1.0 + amplitude * x.sin()).max(0.05)
            }
            LoadShape::Spike { start_min, duration_min, factor } => {
                if (start_min..start_min + duration_min).contains(&t) {
                    factor
                } else {
                    1.0
                }
            }
            LoadShape::Step { at_min, factor } => {
                if t >= at_min {
                    factor
                } else {
                    1.0
                }
            }
        }
    }
}

/// A stack of shapes applied multiplicatively.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadSchedule {
    shapes: Vec<LoadShape>,
}

impl LoadSchedule {
    /// The identity schedule (factor 1.0 forever).
    pub fn steady() -> Self {
        LoadSchedule::default()
    }

    /// Add a shape (builder style).
    pub fn with(mut self, shape: LoadShape) -> Self {
        self.shapes.push(shape);
        self
    }

    /// Combined multiplier at minute `t`.
    pub(crate) fn factor_at(&self, t: u64) -> f64 {
        self.shapes.iter().map(|s| s.factor_at(t)).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        assert_eq!(LoadShape::Constant.factor_at(0), 1.0);
        assert_eq!(LoadShape::Constant.factor_at(10_000), 1.0);
    }

    #[test]
    fn diurnal_oscillates_and_stays_positive() {
        let d = LoadShape::Diurnal { period_min: 1440.0, amplitude: 0.9, phase_min: 0.0 };
        let peak = d.factor_at(360); // quarter period: sin = 1
        let trough = d.factor_at(1080); // three quarters: sin = -1
        assert!((peak - 1.9).abs() < 1e-6, "peak {peak}");
        assert!((trough - 0.1).abs() < 1e-6, "trough {trough}");
        let extreme = LoadShape::Diurnal { period_min: 1440.0, amplitude: 2.0, phase_min: 0.0 };
        assert!(extreme.factor_at(1080) >= 0.05, "clamped at a positive floor");
    }

    #[test]
    fn spike_is_half_open() {
        let s = LoadShape::Spike { start_min: 10, duration_min: 5, factor: 4.0 };
        assert_eq!(s.factor_at(9), 1.0);
        assert_eq!(s.factor_at(10), 4.0);
        assert_eq!(s.factor_at(14), 4.0);
        assert_eq!(s.factor_at(15), 1.0);
    }

    #[test]
    fn step_persists() {
        let s = LoadShape::Step { at_min: 100, factor: 2.0 };
        assert_eq!(s.factor_at(99), 1.0);
        assert_eq!(s.factor_at(100), 2.0);
        assert_eq!(s.factor_at(100_000), 2.0);
    }

    #[test]
    fn schedule_multiplies_shapes() {
        let sched = LoadSchedule::steady()
            .with(LoadShape::Step { at_min: 0, factor: 2.0 })
            .with(LoadShape::Spike { start_min: 5, duration_min: 1, factor: 3.0 });
        assert_eq!(sched.factor_at(0), 2.0);
        assert_eq!(sched.factor_at(5), 6.0);
        assert_eq!(LoadSchedule::steady().factor_at(3), 1.0);
    }
}

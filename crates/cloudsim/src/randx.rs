//! Distribution samplers built on `rand`'s uniform source.
//!
//! The sanctioned dependency set includes `rand` but not `rand_distr`, so the
//! handful of distributions the simulator needs — normal, log-normal,
//! Poisson, geometric, Zipf — are implemented here. Each sampler is small,
//! deterministic under a seeded RNG, and unit-tested against its analytic
//! moments.

use rand::RngExt;

/// Draw a standard normal via the Box–Muller transform.
pub(crate) fn std_normal<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution parameterized by the *median* and the shape
/// `sigma` (standard deviation of the underlying normal).
///
/// Flow sizes in datacenters are famously heavy-tailed; log-normal captures
/// the "most flows are mice, a few are elephants" regime the paper's CCDF
/// (Figure 6) depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LogNormal {
    /// Median of the distribution (`exp(mu)`).
    pub(crate) median: f64,
    /// Shape parameter; 0 collapses to the constant `median`.
    pub(crate) sigma: f64,
}

impl LogNormal {
    /// Construct from median and sigma.
    pub(crate) fn new(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "log-normal median must be positive");
        assert!(sigma >= 0.0, "log-normal sigma must be non-negative");
        LogNormal { median, sigma }
    }

    /// Sample one value.
    pub(crate) fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.median;
        }
        self.median * (self.sigma * std_normal(rng)).exp()
    }
}

/// Sample a Poisson count with the given mean.
///
/// Uses Knuth's product method for small means and a clamped normal
/// approximation for large ones, keeping the per-sample cost O(1) even for
/// the multi-thousand-flows-per-minute rates of the KQuery preset.
pub(crate) fn poisson<R: RngExt + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    assert!(mean >= 0.0 && mean.is_finite(), "Poisson mean must be finite and >= 0");
    if mean == 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let limit = (-mean).exp();
        let mut prod: f64 = rng.random_range(0.0..1.0);
        let mut count = 0u64;
        while prod > limit {
            prod *= rng.random_range(0.0..1.0_f64);
            count += 1;
        }
        count
    } else {
        // Normal approximation with continuity correction.
        let draw = mean + mean.sqrt() * std_normal(rng) + 0.5;
        draw.max(0.0) as u64
    }
}

/// Geometric number of *additional* intervals a flow stays alive, from the
/// per-interval continuation probability. `continue_p = 0` means every flow
/// lives exactly one interval.
pub(crate) fn geometric_extra<R: RngExt + ?Sized>(continue_p: f64, rng: &mut R) -> u64 {
    assert!((0.0..1.0).contains(&continue_p), "continuation probability must be in [0, 1)");
    if continue_p == 0.0 {
        return 0;
    }
    let mut extra = 0u64;
    // Cap to keep adversarial probabilities from spinning forever.
    while extra < 10_000 && rng.random_range(0.0..1.0) < continue_p {
        extra += 1;
    }
    extra
}

/// Zipf-distributed index in `[0, n)`: index 0 is most popular.
///
/// Used for client-popularity and query-target skew. Implemented by
/// precomputing the CDF, O(log n) per sample.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf sampler over `n` items with exponent `s` (s=0 → uniform).
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Sample an index.
    pub(crate) fn sample<R: RngExt + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        // `total_cmp` is a total order over f64, so NaN (which `new` cannot
        // produce anyway) degrades to an ordinary comparison, not a panic.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC10D)
    }

    #[test]
    fn std_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| std_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::new(1000.0, 1.0);
        let mut r = rng();
        let n = 30_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median / 1000.0 - 1.0).abs() < 0.1, "median {median}");
        let mean = samples.iter().sum::<f64>() / n as f64;
        // Analytic mean: median · exp(σ² / 2).
        let analytic = 1000.0 * 0.5f64.exp();
        assert!((mean / analytic - 1.0).abs() < 0.15, "mean {mean} vs {analytic}");
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let d = LogNormal::new(42.0, 0.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 42.0);
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(3.5, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_path() {
        let mut r = rng();
        let n = 5_000;
        let total: u64 = (0..n).map(|_| poisson(5000.0, &mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean / 5000.0 - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(0.0, &mut r), 0);
    }

    #[test]
    fn geometric_mean_matches() {
        let mut r = rng();
        let p = 0.75;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| geometric_extra(p, &mut r)).sum();
        let mean = total as f64 / n as f64;
        let expect = p / (1.0 - p); // mean of geometric counting failures before success
        assert!((mean - expect).abs() < 0.15, "mean {mean} expect {expect}");
    }

    #[test]
    fn geometric_zero_p_is_zero() {
        let mut r = rng();
        assert_eq!(geometric_extra(0.0, &mut r), 0);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.2);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            let i = z.sample(&mut r);
            assert!(i < 100);
            counts[i] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[50], "head must dominate tail");
    }

    #[test]
    fn zipf_s0_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.2, "uniform within 20%: {counts:?}");
    }
}

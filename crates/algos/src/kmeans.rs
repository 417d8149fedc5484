//! Deterministic k-means (k-means++ seeding) with automatic k selection —
//! the clustering half of the RolX-style feature baseline.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub(crate) struct KMeansResult {
    /// Cluster label per point, dense `0..k`.
    pub(crate) labels: Vec<usize>,
    /// Number of clusters actually used (empty clusters are compacted away).
    pub(crate) k: usize,
    /// Final within-cluster sum of squared distances.
    pub(crate) inertia: f64,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Standard Lloyd iterations with k-means++ seeding from a fixed RNG seed.
///
/// # Panics
/// Panics if `k` is zero or points have inconsistent dimensions.
pub(crate) fn kmeans(points: &[Vec<f64>], k: usize, seed: u64, max_iter: usize) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    let n = points.len();
    if n == 0 {
        return KMeansResult { labels: Vec::new(), k: 0, inertia: 0.0 };
    }
    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "consistent dimensions");
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(points[rng.random_range(0..n)].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 1e-18 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        let new_center = points[next].clone();
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, &new_center));
        }
        centers.push(new_center);
    }

    // Lloyd iterations.
    let mut labels = vec![0usize; n];
    for _ in 0..max_iter {
        let mut moved = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centers.len())
                .min_by(|&a, &b| sq_dist(p, &centers[a]).total_cmp(&sq_dist(p, &centers[b])))
                .unwrap_or(0);
            if labels[i] != best {
                labels[i] = best;
                moved = true;
            }
        }
        // Recompute centers.
        let mut sums = vec![vec![0.0; dim]; centers.len()];
        let mut counts = vec![0usize; centers.len()];
        for (i, p) in points.iter().enumerate() {
            counts[labels[i]] += 1;
            for (s, v) in sums[labels[i]].iter_mut().zip(p) {
                *s += v;
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            if counts[c] > 0 {
                for (j, s) in sums[c].iter().enumerate() {
                    center[j] = s / counts[c] as f64;
                }
            }
        }
        if !moved {
            break;
        }
    }

    // Compact away empty clusters.
    let mut remap = std::collections::BTreeMap::new();
    let mut next = 0usize;
    let labels: Vec<usize> = labels
        .into_iter()
        .map(|l| {
            *remap.entry(l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect();
    // Invert the (dense) compaction map so the inertia pass is a lookup.
    let mut orig_of = vec![0usize; next];
    for (&orig, &compact) in &remap {
        orig_of[compact] = orig;
    }
    let inertia: f64 = points
        .iter()
        .zip(&labels)
        .map(|(p, &l)| {
            // Labels were compacted; recompute against member means is
            // overkill — use nearest original center distance.
            sq_dist(p, &centers[orig_of[l]])
        })
        .sum();
    KMeansResult { labels, k: next, inertia }
}

/// Pick k by the Calinski–Harabasz criterion over `2..=k_max`, returning
/// the best clustering. Falls back to k = 1 when n < 3.
pub(crate) fn kmeans_auto(points: &[Vec<f64>], k_max: usize, seed: u64) -> KMeansResult {
    let n = points.len();
    if n < 3 {
        return kmeans(points, 1, seed, 50);
    }
    let dim = points[0].len();
    let grand: Vec<f64> =
        (0..dim).map(|c| points.iter().map(|p| p[c]).sum::<f64>() / n as f64).collect();
    let total_ss: f64 = points.iter().map(|p| sq_dist(p, &grand)).sum();

    let mut best: Option<(f64, KMeansResult)> = None;
    for k in 2..=k_max.min(n - 1) {
        let r = kmeans(points, k, seed, 100);
        if r.k < 2 {
            continue;
        }
        let between = (total_ss - r.inertia).max(0.0);
        let ch = (between / (r.k as f64 - 1.0)) / (r.inertia.max(1e-12) / (n - r.k) as f64);
        if best.as_ref().map(|(b, _)| ch > *b).unwrap_or(true) {
            best = Some((ch, r));
        }
    }
    best.map(|(_, r)| r).unwrap_or_else(|| kmeans(points, 1, seed, 50))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight blobs in 2D with isotropic pseudo-random jitter.
    fn blobs() -> Vec<Vec<f64>> {
        let mut state = 0xDEADBEEFu64;
        let mut jitter = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f64 / 16_777_216.0 - 0.5) * 0.6
        };
        let mut pts = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for _ in 0..10 {
                pts.push(vec![cx + jitter(), cy + jitter()]);
            }
        }
        pts
    }

    #[test]
    fn separates_clear_blobs() {
        let pts = blobs();
        let r = kmeans(&pts, 3, 42, 100);
        assert_eq!(r.k, 3);
        // All members of one blob share a label.
        for blob in 0..3 {
            let base = r.labels[blob * 10];
            for i in 0..10 {
                assert_eq!(r.labels[blob * 10 + i], base, "blob {blob} split");
            }
        }
        assert!(r.inertia < 5.0, "tight blobs, small inertia: {}", r.inertia);
    }

    #[test]
    fn auto_k_finds_blob_structure() {
        let r = kmeans_auto(&blobs(), 8, 42);
        assert!(
            (3..=5).contains(&r.k),
            "CH criterion must find at least the three blobs (mild over-split ok): k = {}",
            r.k
        );
        // Whatever k it picks, a cluster must never mix two true blobs.
        for c in 0..r.k {
            let blobs_in_c: std::collections::HashSet<usize> =
                r.labels.iter().enumerate().filter(|(_, &l)| l == c).map(|(i, _)| i / 10).collect();
            assert_eq!(blobs_in_c.len(), 1, "cluster {c} spans blobs {blobs_in_c:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = blobs();
        let a = kmeans(&pts, 3, 7, 100);
        let b = kmeans(&pts, 3, 7, 100);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn k_clamped_to_n() {
        let pts = vec![vec![0.0], vec![1.0]];
        let r = kmeans(&pts, 10, 1, 50);
        assert!(r.k <= 2);
        assert_eq!(r.labels.len(), 2);
    }

    #[test]
    fn handles_identical_points() {
        let pts = vec![vec![5.0, 5.0]; 12];
        let r = kmeans(&pts, 3, 1, 50);
        assert!(r.labels.iter().all(|&l| l == r.labels[0]), "identical points, one cluster");
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn empty_input() {
        let r = kmeans(&[], 3, 1, 50);
        assert!(r.labels.is_empty());
        assert_eq!(r.k, 0);
    }
}

//! Partition-quality metrics.
//!
//! The paper could only judge its segmentations through developer interviews
//! ("the labels are a good start but there are key mistakes"). Our simulator
//! knows ground-truth roles, so segmentations are scored quantitatively:
//! Adjusted Rand Index and Normalized Mutual Information against the truth,
//! purity for interpretability.

use crate::error::{Error, Result};
use std::collections::BTreeMap;

// The tables are BTreeMaps, not HashMaps, on purpose: ARI/NMI accumulate
// f64 sums over the cells, and float addition is not associative, so the
// iteration order changes the low bits of the score. BTreeMap iterates in
// key order and keeps the results bit-identical across processes (the
// crate root denies `clippy::iter_over_hash_type`; DESIGN §7).

/// Contingency table between two labelings.
fn contingency(a: &[usize], b: &[usize]) -> Result<BTreeMap<(usize, usize), u64>> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch { left: a.len(), right: b.len() });
    }
    let mut t = BTreeMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *t.entry((x, y)).or_insert(0u64) += 1;
    }
    Ok(t)
}

fn marginals(t: &BTreeMap<(usize, usize), u64>) -> (BTreeMap<usize, u64>, BTreeMap<usize, u64>) {
    let mut ra = BTreeMap::new();
    let mut rb = BTreeMap::new();
    for (&(x, y), &c) in t {
        *ra.entry(x).or_insert(0) += c;
        *rb.entry(y).or_insert(0) += c;
    }
    (ra, rb)
}

fn choose2(n: u64) -> f64 {
    (n as f64) * (n as f64 - 1.0) / 2.0
}

/// Adjusted Rand Index between two labelings: 1 for identical partitions,
/// ~0 for independent ones, negative for adversarial disagreement.
pub fn adjusted_rand_index(a: &[usize], b: &[usize]) -> Result<f64> {
    let t = contingency(a, b)?;
    let n = a.len() as u64;
    if n < 2 {
        return Ok(1.0);
    }
    let (ra, rb) = marginals(&t);
    let sum_cells: f64 = t.values().map(|&c| choose2(c)).sum();
    let sum_a: f64 = ra.values().map(|&c| choose2(c)).sum();
    let sum_b: f64 = rb.values().map(|&c| choose2(c)).sum();
    let total = choose2(n);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        // Degenerate: both partitions trivial (all-singletons or all-one).
        return Ok(if (sum_cells - expected).abs() < 1e-12 { 1.0 } else { 0.0 });
    }
    Ok((sum_cells - expected) / (max_index - expected))
}

/// Normalized Mutual Information with arithmetic-mean normalization:
/// `2 I(A;B) / (H(A) + H(B))`, in `[0, 1]`.
pub fn normalized_mutual_information(a: &[usize], b: &[usize]) -> Result<f64> {
    let t = contingency(a, b)?;
    let n = a.len() as f64;
    if a.is_empty() {
        return Ok(1.0);
    }
    let (ra, rb) = marginals(&t);
    let h = |m: &BTreeMap<usize, u64>| -> f64 {
        m.values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    };
    let (ha, hb) = (h(&ra), h(&rb));
    if ha == 0.0 && hb == 0.0 {
        return Ok(1.0); // both partitions trivial and identical in structure
    }
    let mut mi = 0.0;
    for (&(x, y), &c) in &t {
        let pxy = c as f64 / n;
        let px = ra[&x] as f64 / n;
        let py = rb[&y] as f64 / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    Ok((2.0 * mi / (ha + hb)).clamp(0.0, 1.0))
}

/// Purity of `predicted` against `truth`: the fraction of nodes whose
/// predicted cluster's majority true label matches their own. High purity is
/// cheap to get with many tiny clusters; read it next to ARI/NMI.
pub fn purity(predicted: &[usize], truth: &[usize]) -> Result<f64> {
    if predicted.len() != truth.len() {
        return Err(Error::LengthMismatch { left: predicted.len(), right: truth.len() });
    }
    if predicted.is_empty() {
        return Ok(1.0);
    }
    let t = contingency(predicted, truth)?;
    let mut best: BTreeMap<usize, u64> = BTreeMap::new();
    for (&(p, _), &c) in &t {
        let e = best.entry(p).or_insert(0);
        *e = (*e).max(c);
    }
    Ok(best.values().sum::<u64>() as f64 / predicted.len() as f64)
}

/// Number of distinct labels in a labeling.
pub fn cluster_count(labels: &[usize]) -> usize {
    let mut seen: Vec<usize> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert_eq!(adjusted_rand_index(&a, &a).unwrap(), 1.0);
        assert_eq!(normalized_mutual_information(&a, &a).unwrap(), 1.0);
        assert_eq!(purity(&a, &a).unwrap(), 1.0);
    }

    #[test]
    fn relabeled_partitions_still_score_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        let b = vec![5, 5, 9, 9, 1, 1];
        let b_compact: Vec<usize> = b;
        assert_eq!(adjusted_rand_index(&a, &b_compact).unwrap(), 1.0);
        assert_eq!(normalized_mutual_information(&a, &b_compact).unwrap(), 1.0);
    }

    #[test]
    fn orthogonal_partitions_score_low() {
        // a splits in half one way, b the perpendicular way.
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let ari = adjusted_rand_index(&a, &b).unwrap();
        assert!(ari.abs() < 0.2, "near-independent partitions: ARI {ari}");
    }

    #[test]
    fn partial_agreement_is_between() {
        let truth = vec![0, 0, 0, 1, 1, 1];
        let pred = vec![0, 0, 1, 1, 1, 1]; // one node misplaced
        let ari = adjusted_rand_index(&pred, &truth).unwrap();
        assert!(ari > 0.2 && ari < 1.0, "ARI {ari}");
        let nmi = normalized_mutual_information(&pred, &truth).unwrap();
        assert!(nmi > 0.2 && nmi < 1.0, "NMI {nmi}");
    }

    #[test]
    fn purity_rewards_fragmentation_ari_does_not() {
        let truth = vec![0, 0, 0, 1, 1, 1];
        let singletons: Vec<usize> = (0..6).collect();
        assert_eq!(purity(&singletons, &truth).unwrap(), 1.0, "purity is gameable");
        let ari = adjusted_rand_index(&singletons, &truth).unwrap();
        assert!(ari <= 0.0 + 1e-9, "ARI punishes fragmentation: {ari}");
    }

    #[test]
    fn length_mismatch_is_an_error() {
        assert!(adjusted_rand_index(&[0, 1], &[0]).is_err());
        assert!(normalized_mutual_information(&[0], &[0, 1]).is_err());
        assert!(purity(&[0], &[]).is_err());
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(adjusted_rand_index(&[], &[]).unwrap(), 1.0);
        assert_eq!(adjusted_rand_index(&[0], &[0]).unwrap(), 1.0);
        let all_same = vec![0; 5];
        assert_eq!(adjusted_rand_index(&all_same, &all_same).unwrap(), 1.0);
        assert_eq!(normalized_mutual_information(&all_same, &all_same).unwrap(), 1.0);
    }

    #[test]
    fn cluster_count_counts_distinct() {
        assert_eq!(cluster_count(&[0, 0, 2, 2, 5]), 3);
        assert_eq!(cluster_count(&[]), 0);
    }

    /// NMI sums `pxy * ln(pxy / (px * py))` over contingency cells; float
    /// addition is order-sensitive in the low bits, so the sum must follow
    /// sorted key order. Recompute it here with an explicitly sorted
    /// reference and demand bitwise equality — with a HashMap table this
    /// fails intermittently across processes.
    #[test]
    fn nmi_is_bit_identical_to_sorted_order_reference() {
        // 3 × 4 clusters, uneven sizes, enough cells that a different
        // summation order perturbs the low bits.
        let a: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let b: Vec<usize> = (0..60).map(|i| (i * 7 + i / 9) % 4).collect();

        let got = normalized_mutual_information(&a, &b).unwrap();

        let n = a.len() as f64;
        let mut cells: Vec<((usize, usize), u64)> = Vec::new();
        for (&x, &y) in a.iter().zip(&b) {
            match cells.iter_mut().find(|(k, _)| *k == (x, y)) {
                Some((_, c)) => *c += 1,
                None => cells.push(((x, y), 1)),
            }
        }
        cells.sort();
        let mut ra: Vec<(usize, u64)> = Vec::new();
        let mut rb: Vec<(usize, u64)> = Vec::new();
        for &((x, y), c) in &cells {
            match ra.iter_mut().find(|(k, _)| *k == x) {
                Some((_, v)) => *v += c,
                None => ra.push((x, c)),
            }
            match rb.iter_mut().find(|(k, _)| *k == y) {
                Some((_, v)) => *v += c,
                None => rb.push((y, c)),
            }
        }
        ra.sort();
        rb.sort();
        let h = |m: &[(usize, u64)]| -> f64 {
            m.iter()
                .map(|&(_, c)| {
                    let p = c as f64 / n;
                    -p * p.ln()
                })
                .sum()
        };
        let (ha, hb) = (h(&ra), h(&rb));
        let mut mi = 0.0;
        for &((x, y), c) in &cells {
            let pxy = c as f64 / n;
            let px = ra.iter().find(|(k, _)| *k == x).unwrap().1 as f64 / n;
            let py = rb.iter().find(|(k, _)| *k == y).unwrap().1 as f64 / n;
            mi += pxy * (pxy / (px * py)).ln();
        }
        let expected = (2.0 * mi / (ha + hb)).clamp(0.0, 1.0);

        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "NMI must sum cells in sorted key order (got {got}, expected {expected})"
        );
        // And the ARI path shares the same tables: pin it too.
        let ari1 = adjusted_rand_index(&a, &b).unwrap();
        let ari2 = adjusted_rand_index(&a, &b).unwrap();
        assert_eq!(ari1.to_bits(), ari2.to_bits());
    }
}

//! FastICA — the paper's footnote-6 alternative to PCA.
//!
//! "Similar results hold when using independent components, e.g., FastICA,
//! instead of PCA's eigen vectors." This module implements deflationary
//! FastICA with a tanh contrast function: center, whiten into the top-k PCA
//! subspace, then rotate to maximal non-Gaussianity. Reconstruction from k
//! independent components spans the same subspace as k principal components,
//! which is exactly why the footnote's observation holds.

use crate::eigen::eigen_symmetric;
use crate::error::{Error, Result};
use crate::matrix::Matrix;

/// Result of a FastICA decomposition of an `n × m` data matrix into `k`
/// components: `X ≈ mixing · sources + mean`.
#[derive(Debug, Clone)]
pub struct IcaDecomposition {
    /// `n × k` mixing matrix.
    pub(crate) mixing: Matrix,
    /// `k × m` source (independent component) matrix.
    pub(crate) sources: Matrix,
    /// Per-row means removed before decomposition (length n).
    pub(crate) row_means: Vec<f64>,
}

impl IcaDecomposition {
    /// Reconstruct the data matrix from the components.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let mut x = self.mixing.matmul(&self.sources)?;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                x[(i, j)] += self.row_means[i];
            }
        }
        Ok(x)
    }
}

/// Run FastICA extracting `k` components from the rows of `x`.
///
/// Deterministic: component initialization derives from a fixed LCG, so the
/// same input always yields the same decomposition.
pub fn fast_ica(x: &Matrix, k: usize, max_iter: usize) -> Result<IcaDecomposition> {
    let (n, m) = (x.rows(), x.cols());
    if k == 0 || k > n {
        return Err(Error::InvalidArg(format!("k={k} out of range for {n} rows")));
    }
    if m < 2 {
        return Err(Error::InvalidArg("need at least 2 columns of data".into()));
    }

    // Center rows.
    let mut xc = x.clone();
    let mut row_means = vec![0.0; n];
    for i in 0..n {
        let mean = x.row(i).iter().sum::<f64>() / m as f64;
        row_means[i] = mean;
        for j in 0..m {
            xc[(i, j)] -= mean;
        }
    }

    // Whiten: covariance C = Xc Xcᵀ / m, eigendecompose, keep top-k.
    let cov = {
        let xt = xc.transpose();
        let mut c = xc.matmul(&xt)?;
        for v in 0..n {
            for w in 0..n {
                c[(v, w)] /= m as f64;
            }
        }
        // Symmetrize against accumulation noise.
        for v in 0..n {
            for w in (v + 1)..n {
                let avg = 0.5 * (c[(v, w)] + c[(w, v)]);
                c[(v, w)] = avg;
                c[(w, v)] = avg;
            }
        }
        c
    };
    let eig = eigen_symmetric(&cov, 1e-10)?;
    // Whitening matrix K (k × n) = D^{-1/2} Eᵀ over the top-k eigenpairs.
    let mut k_mat = Matrix::zeros(k, n);
    let mut dewhiten = Matrix::zeros(n, k); // E D^{1/2}
    for c in 0..k {
        let lambda = eig.values[c].max(1e-12);
        let s = lambda.sqrt();
        for r in 0..n {
            k_mat[(c, r)] = eig.vectors[(r, c)] / s;
            dewhiten[(r, c)] = eig.vectors[(r, c)] * s;
        }
    }
    let z = k_mat.matmul(&xc)?; // k × m, unit covariance

    // Deflationary fixed-point iteration with g = tanh.
    let mut w_rows: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut lcg = 0x5DEECE66Du64;
    let mut rand_unit = |dim: usize| -> Vec<f64> {
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v.push(((lcg >> 33) as f64 / (1u64 << 31) as f64) - 1.0);
        }
        normalize(&mut v);
        v
    };

    for _ in 0..k {
        let mut w = rand_unit(k);
        for _ in 0..max_iter {
            let mut w_new = vec![0.0; k];
            let mut g_prime_mean = 0.0;
            for col in 0..m {
                let mut proj = 0.0;
                for r in 0..k {
                    proj += w[r] * z[(r, col)];
                }
                let g = proj.tanh();
                let gp = 1.0 - g * g;
                g_prime_mean += gp;
                for r in 0..k {
                    w_new[r] += z[(r, col)] * g;
                }
            }
            let mf = m as f64;
            g_prime_mean /= mf;
            for r in 0..k {
                w_new[r] = w_new[r] / mf - g_prime_mean * w[r];
            }
            // Deflation: orthogonalize against already-found components.
            for prev in &w_rows {
                let dot: f64 = w_new.iter().zip(prev).map(|(a, b)| a * b).sum();
                for r in 0..k {
                    w_new[r] -= dot * prev[r];
                }
            }
            normalize(&mut w_new);
            let agreement: f64 = w_new.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>().abs();
            w = w_new;
            if (agreement - 1.0).abs() < 1e-8 {
                break;
            }
        }
        w_rows.push(w);
    }

    // W is k × k (rows = unmixing vectors in whitened space).
    let w_mat = Matrix::from_rows(w_rows);
    let sources = w_mat.matmul(&z)?; // k × m
    let mixing = dewhiten.matmul(&w_mat.transpose())?; // n × k

    Ok(IcaDecomposition { mixing, sources, row_means })
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    } else if let Some(first) = v.first_mut() {
        *first = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::recon_err;

    /// Mix two clearly non-Gaussian sources (square + sawtooth).
    fn mixed_signals(m: usize) -> Matrix {
        let s1: Vec<f64> = (0..m).map(|t| if (t / 10) % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let s2: Vec<f64> = (0..m).map(|t| ((t % 17) as f64 / 8.5) - 1.0).collect();
        let rows = vec![
            s1.iter().zip(&s2).map(|(a, b)| 2.0 * a + 0.5 * b + 1.0).collect(),
            s1.iter().zip(&s2).map(|(a, b)| -1.0 * a + 1.5 * b - 2.0).collect(),
            s1.iter().zip(&s2).map(|(a, b)| 0.7 * a - 0.9 * b + 0.5).collect(),
        ];
        Matrix::from_rows(rows)
    }

    #[test]
    fn reconstruction_with_full_rank_is_near_exact() {
        let x = mixed_signals(400);
        // Data is rank 2 (two sources): k=2 should reconstruct ~perfectly.
        let d = fast_ica(&x, 2, 500).unwrap();
        let r = d.reconstruct().unwrap();
        let err = recon_err(&x, &r).unwrap();
        assert!(err < 1e-6, "rank-2 mix must reconstruct from 2 components, err {err}");
    }

    #[test]
    fn sources_are_decorrelated() {
        let x = mixed_signals(600);
        let d = fast_ica(&x, 2, 500).unwrap();
        let m = d.sources.cols() as f64;
        let (s0, s1) = (d.sources.row(0), d.sources.row(1));
        let corr: f64 = s0.iter().zip(s1).map(|(a, b)| a * b).sum::<f64>() / m;
        let v0: f64 = s0.iter().map(|a| a * a).sum::<f64>() / m;
        let v1: f64 = s1.iter().map(|a| a * a).sum::<f64>() / m;
        let rho = corr / (v0.sqrt() * v1.sqrt());
        assert!(rho.abs() < 0.1, "components should be decorrelated, rho={rho}");
    }

    #[test]
    fn recovers_nongaussian_source_shape() {
        let x = mixed_signals(800);
        let d = fast_ica(&x, 2, 500).unwrap();
        // One recovered source must correlate strongly with the square wave.
        let square: Vec<f64> =
            (0..800).map(|t| if (t / 10) % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let best = (0..2)
            .map(|c| {
                let s = d.sources.row(c);
                let m = s.len() as f64;
                let num: f64 = s.iter().zip(&square).map(|(a, b)| a * b).sum::<f64>() / m;
                let den = (s.iter().map(|a| a * a).sum::<f64>() / m).sqrt();
                (num / den).abs()
            })
            .fold(0.0f64, f64::max);
        assert!(best > 0.9, "a component must match the square source, best |corr| {best}");
    }

    #[test]
    fn deterministic_across_runs() {
        let x = mixed_signals(300);
        let a = fast_ica(&x, 2, 300).unwrap();
        let b = fast_ica(&x, 2, 300).unwrap();
        assert_eq!(a.sources.data(), b.sources.data());
    }

    #[test]
    fn invalid_k_rejected() {
        let x = mixed_signals(100);
        assert!(fast_ica(&x, 0, 100).is_err());
        assert!(fast_ica(&x, 4, 100).is_err(), "k > rows");
    }

    #[test]
    fn tiny_data_rejected() {
        let x = Matrix::from_rows(vec![vec![1.0], vec![2.0]]);
        assert!(fast_ica(&x, 1, 100).is_err());
    }
}

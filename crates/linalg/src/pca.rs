//! PCA sparse transforms and reconstruction error (§2.2).
//!
//! For a square symmetric matrix `M = E D Eᵀ`, the k'th *sparse transform*
//! keeps only the first k eigenpairs: `M_k = E_k D_k E_kᵀ`. The paper's
//! finding is that cloud communication matrices need very few eigenvectors —
//! `ReconErr(M, M_25) < 0.05` on a > 500-node matrix — because redundancy
//! (many replicas, same role) makes the matrix low-rank.

use crate::csr::SymCsr;
use crate::eigen::{eigen_symmetric, eigen_top_k_csr, EigenDecomposition};
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::Parallelism;
use serde::Serialize;

/// Reconstruction error as defined in the paper: the normalized absolute sum
/// of the entries of `M − M_k` — i.e. `Σ|M − M_k| / Σ|M|`. An error of 0.05
/// means reconstructed entries are within 5% of their true values on
/// average. Returns 0 for an all-zero `M` only if `M_k` is also all-zero.
pub fn recon_err(m: &Matrix, mk: &Matrix) -> Result<f64> {
    Ok(normalized(m.sub(mk)?.abs_sum(), m.abs_sum()))
}

/// `Σ|M − M_k| / Σ|M|`; an all-zero `M` scores 0 only against an all-zero `M_k`.
fn normalized(diff: f64, denom: f64) -> f64 {
    if denom != 0.0 {
        diff / denom
    } else if diff == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Compute `M_k` directly from a symmetric matrix.
pub fn sparse_transform(m: &Matrix, k: usize) -> Result<Matrix> {
    let d = eigen_symmetric(m, 1e-10)?;
    d.reconstruct(k)
}

/// Reconstruction error at one value of k.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct KError {
    /// Number of eigenpairs retained.
    pub k: usize,
    /// `ReconErr(M, M_k)`.
    pub err: f64,
}

/// The full k-sweep result for one matrix.
#[derive(Debug, Clone, Serialize)]
pub struct PcaSummary {
    /// Matrix dimension.
    pub n: usize,
    /// Errors at each requested k, ascending in k.
    pub errors: Vec<KError>,
    /// Smallest k with error below 0.05 among `0..=max(requested ks)`;
    /// `None` if the error is still above 0.05 at the largest requested k.
    pub k_for_5_percent: Option<usize>,
}

/// The reconstruction error at **every** k from 0 to the number of
/// eigenpairs in `d` (n for [`eigen_symmetric`], fewer for
/// [`eigen_top_k_csr`]), computed incrementally (`M_k = M_{k-1} + λ_k v_k v_kᵀ`)
/// in O(n² · pairs) total.
///
/// Needed because the entrywise-L1 error is *not* guaranteed monotone in k:
/// adjacency matrices have large negative eigenvalues (bipartite tier
/// structure), and adding such an eigenpair can transiently raise the
/// absolute-sum error even as the Frobenius error falls.
pub fn recon_err_profile(d: &EigenDecomposition, m: &Matrix) -> Result<Vec<f64>> {
    recon_err_profile_csr(d, &SymCsr::from_dense(m)?)
}

/// [`recon_err_profile`] of a sparse operator, one row at a time.
///
/// Rows of `M − M_k` are independent at every k, so each row of M is
/// scattered into an n-slot buffer and all the rank-1 updates are walked
/// over it, adding the row's `Σ|M − M_k|` to the total of every k. Each
/// element of `M_k` sums its terms in ascending k, each row sum runs in
/// column order, and the row sums are added in ascending row order. The
/// exact entrywise L1 norm reads every entry of `M − M_k`, so the time
/// stays O(n² · pairs), but no n × n buffer exists: two rows, beside one
/// copy of the eigenvectors as `pairs × n` rows.
pub fn recon_err_profile_csr(d: &EigenDecomposition, m: &SymCsr) -> Result<Vec<f64>> {
    let n = m.n();
    let pairs = d.values.len();
    if (d.vectors.rows(), d.vectors.cols()) != (n, pairs) {
        return Err(Error::InvalidArg(format!(
            "decomposition of {} pairs over {} rows does not match an n = {n} operator",
            pairs,
            d.vectors.rows(),
        )));
    }
    // Row c of `vt` is eigenvector c.
    let vt = d.vectors.transpose();
    // err[k] = Σ_i Σ_j |M − M_k|[i, j], over the rows walked so far.
    let mut err = vec![0.0; pairs + 1];
    // Row i of M and of M_k.
    let (mut m_row, mut mk_row) = (vec![0.0; n], vec![0.0; n]);
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            m_row[j as usize] = v;
        }
        mk_row.fill(0.0);
        err[0] += m_row.iter().map(|v| v.abs()).sum::<f64>();
        for (c, (&lambda, v_c)) in d.values.iter().zip(vt.data().chunks_exact(n)).enumerate() {
            let vi = v_c[i] * lambda;
            if vi != 0.0 {
                for (slot, vj) in mk_row.iter_mut().zip(v_c) {
                    *slot += vi * vj;
                }
            }
            err[c + 1] += m_row.iter().zip(&mk_row).map(|(a, b)| (a - b).abs()).sum::<f64>();
        }
        for &j in cols {
            m_row[j as usize] = 0.0;
        }
    }
    let denom = m.abs_sum();
    Ok(err.into_iter().map(|e| normalized(e, denom)).collect())
}

/// The relative entrywise-L1 residual of M's two-sided projection onto the
/// span of `v`'s orthonormal columns: `‖M − V C Vᵀ‖₁ / ‖M‖₁` with
/// `C = Vᵀ M V`, normalized as [`recon_err`] is (an all-zero M scores 0).
///
/// `M V` reads each stored entry once, so C and `V C` cost
/// O(nnz · k + n · k²). The exact entrywise L1 norm reads every entry of
/// the difference, so the time stays O(n² · k), but as in
/// [`recon_err_profile_csr`] one row at a time: row i of M is scattered
/// into an n-slot buffer, row i of `V C Vᵀ` is formed against the rows of
/// V, and the scattered slots are cleared. Memory is O(n · k). Every sum
/// adds its terms in the order the dense products `((Vᵀ M) V)`, `V C` and
/// `(V C) Vᵀ` and the row-major `abs_sum` of the difference meet them
/// (`M V` is `(Vᵀ M)ᵀ` term for term, as M is symmetric), so the result
/// is the dense formula's bit for bit. Fails with [`Error::InvalidArg`]
/// if `v` does not have n rows.
pub fn projection_residual_csr(v: &Matrix, m: &SymCsr) -> Result<f64> {
    let (n, k) = (m.n(), v.cols());
    if v.rows() != n {
        return Err(Error::InvalidArg(format!(
            "a basis of {} rows does not match an n = {n} operator",
            v.rows()
        )));
    }
    let mut mv = Matrix::zeros(n, k);
    for i in 0..n {
        let (cols, vals) = m.row(i);
        let out = &mut mv.data_mut()[i * k..(i + 1) * k];
        for (&j, &x) in cols.iter().zip(vals) {
            for (o, vj) in out.iter_mut().zip(v.row(j as usize)) {
                *o += x * vj;
            }
        }
    }
    let vc = v.matmul(&mv.transpose().matmul(v)?)?;
    let (mut m_row, mut diff) = (vec![0.0; n], 0.0);
    for i in 0..n {
        let (cols, vals) = m.row(i);
        for (&j, &x) in cols.iter().zip(vals) {
            m_row[j as usize] = x;
        }
        let vc_i = vc.row(i);
        for (j, x) in m_row.iter().enumerate() {
            let p = vc_i.iter().zip(v.row(j)).fold(0.0, |p, (a, b)| p + a * b);
            diff += (x - p).abs();
        }
        for &j in cols {
            m_row[j as usize] = 0.0;
        }
    }
    Ok(normalized(diff, m.abs_sum()))
}

/// Sweep reconstruction error across `ks` (decomposing once).
///
/// `ks` values above the dimension are clamped to n, and only the
/// `max(ks)` leading eigenpairs are computed ([`eigen_top_k_csr`]).
/// `k_for_5_percent` is the smallest k in `0..=max(ks)` whose error drops
/// below 0.05, found by a full scan of the incremental profile up to there
/// (robust to non-monotonicity).
/// ```
/// use linalg::{pca_sweep, Matrix};
///
/// // A rank-1 matrix reconstructs perfectly from one component.
/// let u = [1.0, 2.0, 3.0];
/// let m = Matrix::from_rows(
///     (0..3).map(|i| (0..3).map(|j| u[i] * u[j]).collect()).collect(),
/// );
/// let sweep = pca_sweep(&m, &[1]).unwrap();
/// assert!(sweep.errors[0].err < 1e-9);
/// ```
pub fn pca_sweep(m: &Matrix, ks: &[usize]) -> Result<PcaSummary> {
    if m.rows() != m.cols() {
        return Err(Error::InvalidArg(format!(
            "PCA sweep needs a square matrix, got {}x{}",
            m.rows(),
            m.cols()
        )));
    }
    pca_sweep_csr(&SymCsr::from_dense(m)?, ks)
}

/// [`pca_sweep`]; the worker count is ignored — every kernel runs on its
/// caller's thread. Kept only because the pinned benchmark
/// (`crates/bench/src/bin/benchmark/layers.rs`, frozen) calls it; call
/// [`pca_sweep`] instead.
pub fn pca_sweep_with(m: &Matrix, ks: &[usize], _parallelism: Parallelism) -> Result<PcaSummary> {
    pca_sweep(m, ks)
}

/// [`pca_sweep`] of a sparse symmetric operator: the single-threaded
/// [`eigen_top_k_csr`] for the decomposition, [`recon_err_profile_csr`]
/// for the profile.
pub fn pca_sweep_csr(m: &SymCsr, ks: &[usize]) -> Result<PcaSummary> {
    let n = m.n();
    let k_max = ks.iter().copied().max().unwrap_or(0).min(n);
    let d = eigen_top_k_csr(m, k_max, 1e-10)?;
    let profile = recon_err_profile_csr(&d, m)?;
    Ok(summarize(n, &profile, ks))
}

/// Reduce an incremental error profile to the sweep summary for `ks`.
fn summarize(n: usize, profile: &[f64], ks: &[usize]) -> PcaSummary {
    let mut errors: Vec<KError> = ks
        .iter()
        .map(|&k| {
            let k = k.min(n);
            KError { k, err: profile[k] }
        })
        .collect();
    errors.sort_by_key(|e| e.k);
    errors.dedup_by_key(|e| e.k);
    let k_for_5_percent = profile.iter().position(|&e| e < 0.05);
    PcaSummary { n, errors, k_for_5_percent }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block matrix of two "roles": low-rank by construction.
    fn two_block(n_per: usize) -> Matrix {
        let n = n_per * 2;
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let same_block = (i < n_per) == (j < n_per);
                m[(i, j)] = if same_block { 10.0 } else { 100.0 };
            }
        }
        m
    }

    #[test]
    fn recon_err_zero_for_identical() {
        let m = two_block(3);
        assert_eq!(recon_err(&m, &m).unwrap(), 0.0);
    }

    #[test]
    fn recon_err_is_normalized() {
        let m = Matrix::from_rows(vec![vec![10.0, 0.0], vec![0.0, 10.0]]);
        let z = Matrix::zeros(2, 2);
        assert_eq!(recon_err(&m, &z).unwrap(), 1.0, "all mass missing = error 1");
    }

    #[test]
    fn full_rank_transform_is_exact() {
        let m = two_block(4);
        let mk = sparse_transform(&m, 8).unwrap();
        assert!(recon_err(&m, &mk).unwrap() < 1e-9);
    }

    #[test]
    fn error_decreases_monotonically_in_k() {
        let m = two_block(5);
        let sweep = pca_sweep(&m, &[1, 2, 3, 5, 10]).unwrap();
        for w in sweep.errors.windows(2) {
            assert!(
                w[1].err <= w[0].err + 1e-12,
                "error must not increase with k: {:?}",
                sweep.errors
            );
        }
    }

    #[test]
    fn low_rank_structure_needs_few_components() {
        // Two-role structure: rank ≈ 3 (two block patterns + diagonal
        // correction), so tiny k already reconstructs well.
        let m = two_block(10);
        let sweep = pca_sweep(&m, &[1, 2, 3, 4]).unwrap();
        let k5 = sweep.k_for_5_percent.expect("low-rank matrix must hit 5%");
        assert!(k5 <= 4, "two-block matrix should need ≤ 4 components, needed {k5}");
    }

    #[test]
    fn five_percent_scan_stops_at_the_largest_requested_k() {
        let m = two_block(10);
        let k5 = pca_sweep(&m, &[1, 4]).unwrap().k_for_5_percent.expect("reached by k = 4");
        assert!(k5 > 1, "one component is not enough: {k5}");
        assert_eq!(pca_sweep(&m, &[1]).unwrap().k_for_5_percent, None, "not scanned past k = 1");
        assert_eq!(pca_sweep(&m, &[20]).unwrap().k_for_5_percent, Some(k5), "full spectrum agrees");
    }

    #[test]
    fn sweep_clamps_oversized_k() {
        let m = two_block(2);
        let sweep = pca_sweep(&m, &[100]).unwrap();
        assert_eq!(sweep.errors.len(), 1);
        assert_eq!(sweep.errors[0].k, 4);
        assert!(sweep.errors[0].err < 1e-9);
    }

    #[test]
    fn random_full_rank_matrix_needs_many_components() {
        // Contrast case: an unstructured matrix is NOT low-rank, so k=1
        // reconstruction stays bad. This is what makes the paper's finding
        // about *cloud* matrices non-trivial.
        let n = 16;
        let mut m = Matrix::zeros(n, n);
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f64 / 16_777_216.0
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let sweep = pca_sweep(&m, &[1]).unwrap();
        assert!(
            sweep.errors[0].err > 0.3,
            "unstructured matrix must reconstruct poorly at k=1, got {}",
            sweep.errors[0].err
        );
    }

    #[test]
    fn profile_keeps_its_pinned_bits() {
        let m = two_block(6);
        let d = eigen_symmetric(&m, 1e-10).unwrap();
        let profile = recon_err_profile(&d, &m).unwrap();
        // Pinned from the one-team-per-column implementation: walking the
        // rows one at a time must not move a bit.
        assert_eq!(profile.len(), 13);
        assert_eq!(profile[0].to_bits(), 0x3ff0_0000_0000_0000);
        assert_eq!(profile[1].to_bits(), 0x3feb_13b1_3b13_b13b);
        assert_eq!(profile[12].to_bits(), 0x3d7a_9c40_eabb_788c);
    }

    #[test]
    fn zero_matrix_edge_case() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(recon_err(&z, &Matrix::zeros(3, 3)).unwrap(), 0.0);
        let bad = Matrix::identity(3);
        assert_eq!(recon_err(&z, &bad).unwrap(), f64::INFINITY);
    }
}

//! Cyclic Jacobi eigendecomposition for symmetric matrices.
//!
//! Jacobi rotation is the right tool here: communication matrices are
//! symmetric, a few hundred rows after heavy-hitter collapsing, and the
//! analyses need *all* eigenpairs (to sweep k in the reconstruction-error
//! experiment). Jacobi is unconditionally stable, needs no pivoting or
//! shifts, and converges quadratically once off-diagonal mass is small.

use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::par::{self, Parallelism};

/// Result of a symmetric eigendecomposition: `M = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, sorted by descending absolute value.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as matrix *columns*, in the same order.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstruct the original matrix from the top `k` eigenpairs.
    pub fn reconstruct(&self, k: usize) -> Result<Matrix> {
        self.reconstruct_with(k, Parallelism::serial())
    }

    /// Rank-k reconstruction with output rows partitioned over workers.
    ///
    /// Row `i` of `M_k = Σ_{c<k} λ_c v_c v_cᵀ` depends only on the
    /// decomposition, so rows parallelize freely; each element accumulates
    /// its `k` terms in the same ascending-`c` order as the serial loop,
    /// making the result bit-for-bit identical at any worker count.
    pub fn reconstruct_with(&self, k: usize, parallelism: Parallelism) -> Result<Matrix> {
        let n = self.values.len();
        if k > n {
            return Err(Error::InvalidArg(format!("k={k} exceeds dimension {n}")));
        }
        let mut out = Matrix::zeros(n, n);
        if n == 0 {
            return Ok(out);
        }
        let band = par::tile_size(n, parallelism);
        let tasks: Vec<(usize, &mut [f64])> = out
            .data_mut()
            .chunks_mut(n * band)
            .enumerate()
            .map(|(t, chunk)| (t * band, chunk))
            .collect();
        par::for_each_task(parallelism, tasks, |(first_row, chunk)| {
            for (r, orow) in chunk.chunks_mut(n).enumerate() {
                let i = first_row + r;
                for c in 0..k {
                    let lambda = self.values[c];
                    if lambda == 0.0 {
                        continue;
                    }
                    let vi = self.vectors[(i, c)] * lambda;
                    if vi == 0.0 {
                        continue;
                    }
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += vi * self.vectors[(j, c)];
                    }
                }
            }
        });
        Ok(out)
    }
}

/// Decompose a symmetric matrix with the cyclic Jacobi method.
///
/// `tol` bounds the final off-diagonal Frobenius mass relative to the
/// matrix's own scale; `1e-10` is a good default. Fails with
/// [`Error::NotSymmetric`] if the input is meaningfully asymmetric and with
/// [`Error::NoConvergence`] after 100 sweeps (which, for symmetric input,
/// does not happen in practice).
pub fn eigen_symmetric(m: &Matrix, tol: f64) -> Result<EigenDecomposition> {
    let n = m.rows();
    if n != m.cols() {
        return Err(Error::InvalidArg(format!(
            "eigendecomposition needs a square matrix, got {}x{}",
            n,
            m.cols()
        )));
    }
    // Tolerate tiny float asymmetry from accumulation, relative to scale.
    let scale = m.frobenius().max(1.0);
    m.require_symmetric(scale * 1e-9)?;

    let a = m.clone();
    let v = Matrix::identity(n);
    jacobi_sweeps(a, v, tol * scale)
}

/// Cyclic-Jacobi sweep loop from the starting state `(A, V)` with
/// `M = V A Vᵀ` as invariant.
fn jacobi_sweeps(mut a: Matrix, mut v: Matrix, threshold: f64) -> Result<EigenDecomposition> {
    let n = a.rows();
    const MAX_SWEEPS: usize = 100;
    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&a);
        if off <= threshold {
            return Ok(sorted_decomposition(a, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= threshold / (n as f64) {
                    continue;
                }
                let (c, s) = rotation(a[(p, p)], a[(q, q)], apq);
                apply_rotation(&mut a, &mut v, p, q, c, s);
            }
        }
    }
    Err(Error::NoConvergence { algorithm: "jacobi", iterations: MAX_SWEEPS })
}

/// [`eigen_symmetric`]; the worker count is ignored — the solver is
/// single-threaded by design. Kept only because the pinned benchmark
/// (`crates/bench/src/bin/benchmark/layers.rs`, frozen) calls it; call
/// [`eigen_symmetric`] instead.
pub fn eigen_symmetric_with(
    m: &Matrix,
    tol: f64,
    _parallelism: Parallelism,
) -> Result<EigenDecomposition> {
    eigen_symmetric(m, tol)
}

/// Frobenius norm of the strictly upper triangle.
fn off_diagonal_norm(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut sum = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            sum += a[(i, j)] * a[(i, j)];
        }
    }
    (2.0 * sum).sqrt()
}

/// Jacobi rotation (c, s) that annihilates `a_pq`.
fn rotation(app: f64, aqq: f64, apq: f64) -> (f64, f64) {
    let theta = (aqq - app) / (2.0 * apq);
    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
    let c = 1.0 / (t * t + 1.0).sqrt();
    (c, t * c)
}

/// Apply the (p, q) rotation to `a` (two-sided) and accumulate into `v`.
fn apply_rotation(a: &mut Matrix, v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = a.rows();
    for i in 0..n {
        let (aip, aiq) = (a[(i, p)], a[(i, q)]);
        a[(i, p)] = c * aip - s * aiq;
        a[(i, q)] = s * aip + c * aiq;
    }
    for j in 0..n {
        let (apj, aqj) = (a[(p, j)], a[(q, j)]);
        a[(p, j)] = c * apj - s * aqj;
        a[(q, j)] = s * apj + c * aqj;
    }
    for i in 0..n {
        let (vip, viq) = (v[(i, p)], v[(i, q)]);
        v[(i, p)] = c * vip - s * viq;
        v[(i, q)] = s * vip + c * viq;
    }
}

/// Extract the diagonal, sort eigenpairs by |λ| descending.
fn sorted_decomposition(a: Matrix, v: Matrix) -> EigenDecomposition {
    let n = a.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| a[(j, j)].abs().total_cmp(&a[(i, i)].abs()));
    let values: Vec<f64> = order.iter().map(|&i| a[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors[(row, new_col)] = v[(row, old_col)];
        }
    }
    EigenDecomposition { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let m =
            Matrix::from_rows(vec![vec![3.0, 0.0, 0.0], vec![0.0, -5.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        assert!(close(d.values[0], -5.0, 1e-9), "sorted by |λ|: {:?}", d.values);
        assert!(close(d.values[1], 3.0, 1e-9));
        assert!(close(d.values[2], 1.0, 1e-9));
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 2.0]]);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        assert!(close(d.values[0], 3.0, 1e-9));
        assert!(close(d.values[1], 1.0, 1e-9));
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = (d.vectors[(0, 0)], d.vectors[(1, 0)]);
        assert!(close(v0.0.abs(), std::f64::consts::FRAC_1_SQRT_2, 1e-9));
        assert!(close(v0.0, v0.1, 1e-9));
    }

    #[test]
    fn full_reconstruction_recovers_matrix() {
        let m = Matrix::from_rows(vec![
            vec![4.0, 1.0, 2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.5],
            vec![2.0, 0.0, 5.0, 1.0],
            vec![0.5, 1.5, 1.0, 2.0],
        ]);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        let r = d.reconstruct(4).unwrap();
        assert!(m.sub(&r).unwrap().abs_sum() < 1e-8, "M_n must equal M");
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m =
            Matrix::from_rows(vec![vec![4.0, 1.0, 2.0], vec![1.0, 3.0, 0.0], vec![2.0, 0.0, 5.0]]);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        let vtv = d.vectors.transpose().matmul(&d.vectors).unwrap();
        let i = Matrix::identity(3);
        assert!(vtv.sub(&i).unwrap().abs_sum() < 1e-9);
    }

    #[test]
    fn eigenpairs_satisfy_definition() {
        let m =
            Matrix::from_rows(vec![vec![6.0, 2.0, 1.0], vec![2.0, 3.0, 1.0], vec![1.0, 1.0, 1.0]]);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        for c in 0..3 {
            for i in 0..3 {
                let mv: f64 = (0..3).map(|j| m[(i, j)] * d.vectors[(j, c)]).sum();
                assert!(
                    close(mv, d.values[c] * d.vectors[(i, c)], 1e-8),
                    "M v = λ v violated at column {c}"
                );
            }
        }
    }

    #[test]
    fn low_rank_matrix_truncates_exactly() {
        // Rank-1: outer product of u = (1,2,3).
        let u = [1.0, 2.0, 3.0];
        let mut rows = Vec::new();
        for i in 0..3 {
            rows.push((0..3).map(|j| u[i] * u[j]).collect());
        }
        let m = Matrix::from_rows(rows);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        let r1 = d.reconstruct(1).unwrap();
        assert!(m.sub(&r1).unwrap().abs_sum() < 1e-8, "rank-1 needs only k=1");
        assert!(d.values[1].abs() < 1e-9);
    }

    #[test]
    fn rejects_asymmetric_input() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, 1.0]]);
        assert!(matches!(eigen_symmetric(&m, 1e-10), Err(Error::NotSymmetric { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(eigen_symmetric(&m, 1e-10).is_err());
    }

    #[test]
    fn reconstruct_k_bounds_checked() {
        let m = Matrix::identity(2);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        assert!(d.reconstruct(3).is_err());
        assert!(d.reconstruct(0).unwrap().abs_sum() == 0.0);
    }

    #[test]
    fn reconstruct_with_is_worker_count_invariant() {
        let m = Matrix::from_rows(vec![
            vec![4.0, 1.0, 2.0, 0.5],
            vec![1.0, 3.0, 0.0, 1.5],
            vec![2.0, 0.0, 5.0, 1.0],
            vec![0.5, 1.5, 1.0, 2.0],
        ]);
        let d = eigen_symmetric(&m, 1e-12).unwrap();
        for k in 0..=4 {
            let serial = d.reconstruct(k).unwrap();
            for workers in [2, 3, 8] {
                let p = d.reconstruct_with(k, Parallelism::new(workers)).unwrap();
                assert_eq!(p, serial, "k={k}, {workers} workers");
            }
        }
    }

    #[test]
    fn moderate_size_random_symmetric_converges() {
        // Deterministic pseudo-random symmetric 40x40.
        let n = 40;
        let mut m = Matrix::zeros(n, n);
        let mut state = 0x12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let d = eigen_symmetric(&m, 1e-10).unwrap();
        let r = d.reconstruct(n).unwrap();
        let rel = m.sub(&r).unwrap().frobenius() / m.frobenius();
        assert!(rel < 1e-8, "relative reconstruction error {rel}");
    }
}

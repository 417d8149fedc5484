//! Symmetric eigendecomposition: cyclic Jacobi for the full spectrum,
//! Lanczos for its leading end.
//!
//! Communication matrices are symmetric and a few hundred rows after
//! heavy-hitter collapsing. [`eigen_symmetric`] is the full-spectrum
//! solver: Jacobi rotation is unconditionally stable, needs no pivoting or
//! shifts, and converges quadratically once off-diagonal mass is small. It
//! serves the callers that read every eigenpair (ICA whitening, the all-k
//! error profile, [`sparse_transform`](crate::pca::sparse_transform)) and
//! is the oracle the tests hold the other solver to.
//!
//! The production analyses read far fewer: the §2.2 summary needs k = 25
//! of n > 500 eigenpairs, the anomaly model its k-dimensional basis.
//! [`eigen_top_k`] computes only those, by Lanczos iteration with the small
//! projected problem handed to the Jacobi solver — milliseconds where the
//! full decomposition takes seconds. Both are single-threaded by design.

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

    /// Rank-k reconstruction with output rows partitioned over workers;
    /// `k` may be anything up to the number of eigenpairs held (n for
    /// [`eigen_symmetric`], fewer for [`eigen_top_k`]).
    ///
    /// Row `i` of `M_k = Σ_{c<k} λ_c v_c v_cᵀ` depends only on the
    /// decomposition, so rows parallelize freely; each element accumulates
    /// its `k` terms in the same ascending-`c` order as the serial loop,
    /// making the result bit-for-bit identical at any worker count.
    pub fn reconstruct_with(&self, k: usize, parallelism: Parallelism) -> Result<Matrix> {
        let n = self.vectors.rows();
        if k > self.values.len() {
            return Err(Error::InvalidArg(format!(
                "k={k} exceeds the {} eigenpairs held",
                self.values.len()
            )));
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
            // Column c of the eigenvectors, copied out once per band so the
            // inner loop reads it contiguously.
            let mut v_c = vec![0.0; n];
            for c in 0..k {
                let lambda = self.values[c];
                if lambda == 0.0 {
                    continue;
                }
                for (j, slot) in v_c.iter_mut().enumerate() {
                    *slot = self.vectors[(j, c)];
                }
                for (r, orow) in chunk.chunks_mut(n).enumerate() {
                    let vi = v_c[first_row + r] * lambda;
                    if vi == 0.0 {
                        continue;
                    }
                    for (o, vj) in orow.iter_mut().zip(&v_c) {
                        *o += vi * vj;
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
    let scale = symmetric_scale(m)?;
    jacobi_sweeps(m.clone(), Matrix::identity(m.rows()), tol * scale)
}

/// Check that `m` is square and symmetric; return the scale
/// (`max(‖M‖_F, 1)`) every tolerance in this module is relative to.
fn symmetric_scale(m: &Matrix) -> Result<f64> {
    if m.rows() != m.cols() {
        return Err(Error::InvalidArg(format!(
            "eigendecomposition needs a square matrix, got {}x{}",
            m.rows(),
            m.cols()
        )));
    }
    // Tolerate tiny float asymmetry from accumulation, relative to scale.
    let scale = m.frobenius().max(1.0);
    m.require_symmetric(scale * 1e-9)?;
    Ok(scale)
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

/// The `k` eigenpairs of largest `|λ|` of a symmetric matrix: `k` values
/// and an `n × k` vector matrix, sorted like [`eigen_symmetric`]'s.
///
/// Lanczos with full reorthogonalisation: the Krylov subspace grows from a
/// fixed start vector until the Ritz residual bound `|β_m · s_{m,i}|` of
/// each of the top `k` pairs is within `tol · max(‖M‖_F, 1)` — the
/// threshold [`eigen_symmetric`] holds its off-diagonal mass to — and the
/// projected tridiagonal problem is solved by [`eigen_symmetric`] itself.
/// When the subspace is exhausted early (a spectrum with few distinct
/// values) it continues from a fresh vector orthogonal to everything so
/// far. There is nothing to tune: for `2k ≥ n`, or if the subspace reaches
/// `n`, the result is [`eigen_symmetric`]'s truncated to `k` columns.
///
/// Single-threaded and entropy-free, so two calls return the same bits.
/// Like any single-vector Krylov method it sees one eigenvector per
/// distinct eigenvalue until the subspace is exhausted: an *exactly*
/// repeated eigenvalue among the top `k` of a matrix with more than `k`
/// distinct ones is returned once. [`eigen_symmetric`] has no such case.
///
/// Errors as [`eigen_symmetric`], plus [`Error::InvalidArg`] for `k > n`.
pub fn eigen_top_k(m: &Matrix, k: usize, tol: f64) -> Result<EigenDecomposition> {
    let scale = symmetric_scale(m)?;
    let n = m.rows();
    if k > n {
        return Err(Error::InvalidArg(format!("k={k} exceeds dimension {n}")));
    }
    if k == 0 {
        return Ok(EigenDecomposition { values: Vec::new(), vectors: Matrix::zeros(n, 0) });
    }
    if 2 * k < n {
        if let Some(d) = lanczos_top_k(m, k, tol, scale)? {
            return Ok(d);
        }
    }
    let full = eigen_symmetric(m, tol)?;
    let mut vectors = Matrix::zeros(n, k);
    for (out, row) in vectors.data_mut().chunks_mut(k).zip(full.vectors.data().chunks(n)) {
        out.copy_from_slice(&row[..k]);
    }
    Ok(EigenDecomposition { values: full.values[..k].to_vec(), vectors })
}

/// `Σ aᵢbᵢ` over four interleaved partial sums: a fixed association order
/// (so repeatable) that does not serialise on one accumulator.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4.remainder().iter().zip(b4.remainder()).map(|(x, y)| x * y).sum();
    let mut acc = [0.0; 4];
    for (x, y) in a4.zip(b4) {
        for (s, (xi, yi)) in acc.iter_mut().zip(x.iter().zip(y)) {
            *s += xi * yi;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// `y ← y + c·x`.
fn axpy(y: &mut [f64], c: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += c * xi;
    }
}

/// Remove from `w` its components along the orthonormal rows of `q`
/// (each of length `w.len()`): classical Gram–Schmidt, run twice — the
/// second pass removes what cancellation left behind in the first.
fn orthogonalize(w: &mut [f64], q: &[f64]) {
    let mut coeff = Vec::with_capacity(q.len() / w.len().max(1));
    for _pass in 0..2 {
        coeff.clear();
        coeff.extend(q.chunks_exact(w.len()).map(|qi| dot(qi, w)));
        for (qi, &c) in q.chunks_exact(w.len()).zip(&coeff) {
            axpy(w, -c, qi);
        }
    }
}

/// The Lanczos half of [`eigen_top_k`] for `0 < 2k < n`; `None` when the
/// Krylov subspace would have to reach `n` (the caller then decomposes
/// the matrix itself).
fn lanczos_top_k(m: &Matrix, k: usize, tol: f64, scale: f64) -> Result<Option<EigenDecomposition>> {
    let n = m.rows();
    let threshold = tol * scale;
    // A residual this small is rounding noise, not a direction.
    let breakdown = f64::EPSILON * scale * n as f64;
    // Start and restart vectors come from one fixed LCG stream in [-1, 1):
    // no clock, no entropy, and no structure a communication matrix shares.
    let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
    let mut fresh = |q: &[f64]| -> Option<Vec<f64>> {
        let mut v: Vec<f64> = (0..n)
            .map(|_| {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (lcg >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect();
        orthogonalize(&mut v, q);
        // Of a vector of norm ≈ √(n/3), ≈ √((n − dim)/3) survives: far above
        // this floor for any dim < n, so `None` means "no room left".
        let norm = dot(&v, &v).sqrt();
        (norm > 1e-8).then(|| v.iter().map(|x| x / norm).collect())
    };

    // Lanczos vectors as rows of `q`; `alpha`/`beta` the tridiagonal
    // projection, `beta[j]` coupling vectors j and j + 1.
    let mut q: Vec<f64> = Vec::new();
    let (mut alpha, mut beta) = (Vec::new(), Vec::<f64>::new());
    let mut next = fresh(&q);
    // Each convergence check re-solves the projected problem, so they are
    // spaced geometrically: their total cost stays a constant factor of the
    // last one's.
    let mut check_at = 2 * k;
    let mut w = vec![0.0; n];
    let found = loop {
        let dim = alpha.len() + 1;
        // A subspace of dimension n is the whole space: not worth projecting.
        if dim == n {
            break None;
        }
        let Some(q_j) = next.take() else { break None };
        q.extend_from_slice(&q_j);
        // w = M·q_j by rows of M (M is symmetric), so the inner loop is an
        // axpy rather than a reduction.
        w.fill(0.0);
        for (&x, row) in q_j.iter().zip(m.data().chunks_exact(n)) {
            axpy(&mut w, x, row);
        }
        alpha.push(dot(&w, &q_j));
        orthogonalize(&mut w, &q);
        let b = dot(&w, &w).sqrt();
        let exhausted = b <= breakdown;
        if dim >= k && (exhausted || dim >= check_at) {
            let mut t = Matrix::zeros(dim, dim);
            for (i, &a) in alpha.iter().enumerate() {
                t[(i, i)] = a;
            }
            for (i, &c) in beta.iter().enumerate() {
                t[(i, i + 1)] = c;
                t[(i + 1, i)] = c;
            }
            let ritz = eigen_symmetric(&t, tol)?;
            if ritz.vectors.row(dim - 1)[..k].iter().all(|s| (b * s).abs() <= threshold) {
                // Ritz vectors: V = Qᵀ S_k.
                let mut vectors = Matrix::zeros(n, k);
                for (q_i, s_i) in q.chunks_exact(n).zip(ritz.vectors.data().chunks_exact(dim)) {
                    for (out, &x) in vectors.data_mut().chunks_exact_mut(k).zip(q_i) {
                        axpy(out, x, &s_i[..k]);
                    }
                }
                break Some(EigenDecomposition { values: ritz.values[..k].to_vec(), vectors });
            }
            check_at = dim + dim / 2;
        }
        if exhausted {
            beta.push(0.0);
            next = fresh(&q);
        } else {
            beta.push(b);
            next = Some(w.iter().map(|x| x / b).collect());
        }
    };
    obs::global()
        .counter(
            "commgraph_lanczos_steps_total",
            "Lanczos steps (Krylov dimensions) run by top-k eigensolves.",
            &[],
        )
        .add(alpha.len() as u64);
    Ok(found)
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

    /// Deterministic pseudo-random symmetric n × n with entries in [-1, 1).
    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        let mut state = seed;
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
        m
    }

    /// `eigen_top_k` against the Jacobi oracle: values, `Mv = λv`, `VᵀV = I`.
    fn assert_top_k_matches_jacobi(m: &Matrix, k: usize) {
        let n = m.rows();
        let scale = m.frobenius().max(1.0);
        let full = eigen_symmetric(m, 1e-12).unwrap();
        let top = eigen_top_k(m, k, 1e-12).unwrap();
        assert_eq!(top.values.len(), k);
        assert_eq!((top.vectors.rows(), top.vectors.cols()), (n, k));
        for (c, (a, b)) in top.values.iter().zip(&full.values).enumerate() {
            assert!(close(*a, *b, 1e-9 * scale), "n={n} k={k}: λ_{c} = {a}, Jacobi {b}");
            let v: Vec<f64> = (0..n).map(|i| top.vectors[(i, c)]).collect();
            let res: f64 = (0..n).map(|i| (dot(m.row(i), &v) - a * v[i]).powi(2)).sum();
            assert!(res.sqrt() <= 1e-8 * scale, "n={n} k={k}: ‖Mv − λv‖ = {} at {c}", res.sqrt());
        }
        let vtv = top.vectors.transpose().matmul(&top.vectors).unwrap();
        let worst = vtv
            .sub(&Matrix::identity(k))
            .unwrap()
            .data()
            .iter()
            .fold(0.0f64, |w, x| w.max(x.abs()));
        assert!(worst < 1e-10, "n={n} k={k}: VᵀV − I has an entry of {worst}");
    }

    #[test]
    fn top_k_matches_jacobi_on_random_matrices() {
        for (n, seed) in [(7, 1), (23, 2), (40, 3), (61, 4)] {
            let m = random_symmetric(n, seed);
            // Both sides of the 2k < n rule, and its edge.
            for k in [0, 1, 2, n / 4, (n - 1) / 2, n / 2 + 1, n] {
                assert_top_k_matches_jacobi(&m, k);
            }
        }
    }

    #[test]
    fn top_k_survives_degenerate_spectra() {
        // Every eigenvalue equal: the Krylov subspace is exhausted at step
        // one, and every further vector is a fresh restart.
        assert_top_k_matches_jacobi(&Matrix::zeros(9, 9), 3);
        assert_top_k_matches_jacobi(&Matrix::identity(9), 3);
        // Distinct diagonal, sorted by |λ| across signs.
        let mut diag = Matrix::zeros(8, 8);
        for (i, v) in [3.0, -5.0, 1.0, 0.5, -0.25, 4.0, -2.0, 0.0].into_iter().enumerate() {
            diag[(i, i)] = v;
        }
        assert_top_k_matches_jacobi(&diag, 3);
        assert_eq!(eigen_top_k(&diag, 3, 1e-12).unwrap().values, vec![-5.0, 4.0, 3.0]);
        // Rank 1 with k above the rank: the null space is reached by restart.
        let u: Vec<f64> = (1..=9).map(f64::from).collect();
        let rank1 =
            Matrix::from_rows(u.iter().map(|a| u.iter().map(|b| a * b).collect()).collect());
        assert_top_k_matches_jacobi(&rank1, 3);
        // Three distinct eigenvalues (1090, −910, and −10 eighteen times), k = 4.
        let mut blocks = Matrix::zeros(20, 20);
        for i in 0..20 {
            for j in 0..20 {
                if i != j {
                    blocks[(i, j)] = if (i < 10) == (j < 10) { 10.0 } else { 100.0 };
                }
            }
        }
        assert_top_k_matches_jacobi(&blocks, 4);
        // The smallest shapes.
        let one = Matrix::from_rows(vec![vec![-2.5]]);
        assert_top_k_matches_jacobi(&one, 0);
        assert_top_k_matches_jacobi(&one, 1);
        assert!(eigen_top_k(&Matrix::zeros(0, 0), 0, 1e-12).unwrap().values.is_empty());
    }

    #[test]
    fn truncated_decomposition_reconstructs_like_the_full_one() {
        let m = random_symmetric(30, 5);
        let full = eigen_symmetric(&m, 1e-12).unwrap();
        let top = eigen_top_k(&m, 4, 1e-12).unwrap();
        let (a, b) = (full.reconstruct(4).unwrap(), top.reconstruct(4).unwrap());
        assert!(a.sub(&b).unwrap().frobenius() < 1e-9 * m.frobenius());
        assert!(top.reconstruct(5).is_err(), "only four pairs are held");
    }

    #[test]
    fn moderate_size_random_symmetric_converges() {
        let n = 40;
        let m = random_symmetric(n, 0x12345);
        let d = eigen_symmetric(&m, 1e-10).unwrap();
        let r = d.reconstruct(n).unwrap();
        let rel = m.sub(&r).unwrap().frobenius() / m.frobenius();
        assert!(rel < 1e-8, "relative reconstruction error {rel}");
    }
}

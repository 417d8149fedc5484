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
//! [`eigen_top_k_csr`] computes only those, by Lanczos iteration over the
//! sparse operator ([`SymCsr`]) — the collapsed graph itself — with the
//! small tridiagonal projection solved in place by implicit-shift QL:
//! milliseconds where the full decomposition takes seconds.
//! [`eigen_top_k`] enters the same solver from a dense matrix. Both
//! solvers are single-threaded by design.

use crate::csr::SymCsr;
use crate::error::{Error, Result};
use crate::matrix::Matrix;
use crate::Parallelism;
use obs::names;

/// Result of a symmetric eigendecomposition: `M = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, sorted by descending absolute value.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as matrix *columns*, in the same order.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstruct the original matrix from the top `k` eigenpairs; `k`
    /// may be anything up to the number of eigenpairs held (n for
    /// [`eigen_symmetric`], fewer for [`eigen_top_k`]).
    ///
    /// Each element of `M_k = Σ_{c<k} λ_c v_c v_cᵀ` accumulates its `k`
    /// terms in ascending-`c` order.
    pub fn reconstruct(&self, k: usize) -> Result<Matrix> {
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
        // Column c of the eigenvectors, copied out once so the inner loop
        // reads it contiguously.
        let mut v_c = vec![0.0; n];
        for c in 0..k {
            let lambda = self.values[c];
            if lambda == 0.0 {
                continue;
            }
            for (j, slot) in v_c.iter_mut().enumerate() {
                *slot = self.vectors[(j, c)];
            }
            for (r, orow) in out.data_mut().chunks_mut(n).enumerate() {
                let vi = v_c[r] * lambda;
                if vi == 0.0 {
                    continue;
                }
                for (o, vj) in orow.iter_mut().zip(&v_c) {
                    *o += vi * vj;
                }
            }
        }
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
pub(crate) fn symmetric_scale(m: &Matrix) -> Result<f64> {
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

/// Indices of `values` by |λ| descending, ties in index order.
fn by_magnitude(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| values[j].abs().total_cmp(&values[i].abs()));
    order
}

/// Extract the diagonal, sort eigenpairs by |λ| descending.
fn sorted_decomposition(a: Matrix, v: Matrix) -> EigenDecomposition {
    let n = a.rows();
    let diagonal: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    let order = by_magnitude(&diagonal);
    let values: Vec<f64> = order.iter().map(|&i| diagonal[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for row in 0..n {
            vectors[(row, new_col)] = v[(row, old_col)];
        }
    }
    EigenDecomposition { values, vectors }
}

/// The `k` eigenpairs of largest `|λ|` of a dense symmetric matrix:
/// [`eigen_top_k_csr`] on its stored form (`SymCsr::from_dense`), so the
/// same bits either way.
///
/// Errors as [`eigen_symmetric`], plus [`Error::InvalidArg`] for `k > n`.
pub fn eigen_top_k(m: &Matrix, k: usize, tol: f64) -> Result<EigenDecomposition> {
    eigen_top_k_csr(&SymCsr::from_dense(m)?, k, tol)
}

/// The `k` eigenpairs of largest `|λ|` of a sparse symmetric operator: `k`
/// values and an `n × k` vector matrix, sorted like [`eigen_symmetric`]'s.
///
/// Lanczos with full reorthogonalisation: the Krylov subspace grows from a
/// fixed start vector until the Ritz residual bound `|β_m · s_{m,i}|` of
/// each of the top `k` pairs is within `tol · max(‖M‖_F, 1)` — the
/// threshold [`eigen_symmetric`] holds its off-diagonal mass to. The
/// projected tridiagonal problem is solved on its diagonal and
/// off-diagonal by implicit-shift QL (EISPACK's `tql2`). When the subspace
/// is exhausted early (a spectrum with few distinct values) it continues
/// from a fresh vector orthogonal to everything so far, coupled to the
/// last by β = 0, where QL splits the problem. There is nothing to tune:
/// for `2k ≥ n`, or if the subspace reaches `n`, the result is
/// [`eigen_symmetric`]'s on the dense form, truncated to `k` columns.
///
/// Single-threaded and entropy-free, so two calls return the same bits.
/// Like any single-vector Krylov method it sees one eigenvector per
/// distinct eigenvalue until the subspace is exhausted: an *exactly*
/// repeated eigenvalue among the top `k` of a matrix with more than `k`
/// distinct ones is returned once. [`eigen_symmetric`] has no such case.
///
/// The operator's symmetry is not checked (see [`SymCsr`]). Fails with
/// [`Error::InvalidArg`] for `k > n` and with [`Error::NoConvergence`] if
/// a solve does not converge.
pub fn eigen_top_k_csr(a: &SymCsr, k: usize, tol: f64) -> Result<EigenDecomposition> {
    let n = a.n();
    if k > n {
        return Err(Error::InvalidArg(format!("k={k} exceeds dimension {n}")));
    }
    if k == 0 {
        return Ok(EigenDecomposition { values: Vec::new(), vectors: Matrix::zeros(n, 0) });
    }
    if 2 * k < n {
        if let Some(d) = lanczos_top_k(a, k, tol, a.frobenius().max(1.0))? {
            return Ok(d);
        }
    }
    let full = eigen_symmetric(&a.to_dense(), tol)?;
    let mut vectors = Matrix::zeros(n, k);
    for (out, row) in vectors.data_mut().chunks_mut(k).zip(full.vectors.data().chunks(n)) {
        out.copy_from_slice(&row[..k]);
    }
    Ok(EigenDecomposition { values: full.values[..k].to_vec(), vectors })
}

/// Eigenpairs of the symmetric tridiagonal matrix with diagonal `d` and
/// off-diagonal `e` (`e[i]` couples `i` and `i + 1`, so `e.len() + 1 ==
/// d.len()`) by implicit-shift QL, EISPACK's `tql2`: values sorted by
/// `|λ|` descending like [`eigen_symmetric`]'s, and the matching
/// eigenvectors as the *rows* of the returned matrix. A negligible `e[i]`
/// (zero included) splits the problem there.
pub(crate) fn tridiagonal_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Matrix)> {
    const MAX_ITER: usize = 30;
    let n = d.len();
    debug_assert_eq!(e.len(), n.saturating_sub(1), "one coupling per adjacent pair");
    let mut d = d.to_vec();
    // The trailing zero ends every search for a negligible coupling.
    let mut e: Vec<f64> = e.iter().copied().chain([0.0]).collect();
    // Row i of `z` is column i of the accumulated rotation product, so each
    // rotation combines two contiguous rows.
    let mut z = Matrix::identity(n);
    let (mut shift, mut tst1) = (0.0f64, 0.0f64);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let negligible = |x: f64| x.abs() <= f64::EPSILON * tst1;
        let m = (l..n).find(|&m| negligible(e[m])).unwrap_or(n - 1);
        let mut iter = 0;
        while m > l && !negligible(e[l]) {
            iter += 1;
            if iter > MAX_ITER {
                return Err(Error::NoConvergence { algorithm: "tridiagonal ql", iterations: iter });
            }
            // Implicit shift from the leading 2 × 2 block.
            let g = d[l];
            let p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            shift += h;
            // One QL sweep from the bottom of the block up.
            let mut p = d[m];
            let (mut c, mut c2, mut c3) = (1.0f64, 1.0f64, 1.0f64);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0f64, 0.0f64);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (upper, lower) = z.data_mut().split_at_mut((i + 1) * n);
                for (zi, zi1) in upper[i * n..].iter_mut().zip(&mut lower[..n]) {
                    let h = *zi1;
                    *zi1 = s * *zi + c * h;
                    *zi = c * *zi - s * h;
                }
            }
            let p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    let order = by_magnitude(&d);
    let mut vectors = Matrix::zeros(n, n);
    for (out, &i) in vectors.data_mut().chunks_exact_mut(n.max(1)).zip(&order) {
        out.copy_from_slice(z.row(i));
    }
    Ok((order.iter().map(|&i| d[i]).collect(), vectors))
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

/// The Lanczos half of [`eigen_top_k_csr`] for `0 < 2k < n`; `None` when the
/// Krylov subspace would have to reach `n` (the caller then decomposes
/// the matrix itself).
fn lanczos_top_k(m: &SymCsr, k: usize, tol: f64, scale: f64) -> Result<Option<EigenDecomposition>> {
    let n = m.n();
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
        // w = M·q_j, row by row (M is symmetric).
        w.fill(0.0);
        m.mul_add(&q_j, &mut w);
        alpha.push(dot(&w, &q_j));
        orthogonalize(&mut w, &q);
        let b = dot(&w, &w).sqrt();
        let exhausted = b <= breakdown;
        if dim >= k && (exhausted || dim >= check_at) {
            let (values, s) = tridiagonal_eigen(&alpha, &beta)?;
            let top = s.data().chunks_exact(dim).take(k);
            if top.clone().all(|s_c| (b * s_c[dim - 1]).abs() <= threshold) {
                // Ritz vector c is Σ_i s_c[i] · q_i, summed in ascending i.
                let mut vectors = Matrix::zeros(n, k);
                let mut v_c = vec![0.0; n];
                for (c, s_c) in top.enumerate() {
                    v_c.fill(0.0);
                    for (q_i, &x) in q.chunks_exact(n).zip(s_c) {
                        axpy(&mut v_c, x, q_i);
                    }
                    for (j, &x) in v_c.iter().enumerate() {
                        vectors[(j, c)] = x;
                    }
                }
                break Some(EigenDecomposition { values: values[..k].to_vec(), vectors });
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
    obs::global().counter(&names::LANCZOS_STEPS_TOTAL, []).add(alpha.len() as u64);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// A random symmetric tridiagonal `(alpha, beta)` of dimension `dim` in
    /// one of three shapes — `0`: generic; `1`: zero diagonal, so the
    /// eigenvalues come in ±λ pairs; `2`: clustered, every value within
    /// ~1e-8·scale of one centre — with about one coupling in five zeroed,
    /// splitting the matrix into blocks.
    fn random_tridiagonal(dim: usize, shape: u8, seed: u64, scale: f64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let centre = next() * scale;
        let alpha: Vec<f64> = (0..dim)
            .map(|_| match shape {
                0 => next() * scale,
                1 => 0.0,
                _ => centre + next() * 1e-9 * scale,
            })
            .collect();
        let beta: Vec<f64> = (1..dim)
            .map(|_| {
                let b = next() * if shape == 2 { 1e-9 * scale } else { scale };
                if next() < -0.6 {
                    0.0
                } else {
                    b
                }
            })
            .collect();
        (alpha, beta)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Tridiagonal QL against the Jacobi oracle on the dense matrix:
        /// the same values, true eigenvectors, an orthonormal basis, and
        /// |λ| in descending order.
        #[test]
        fn tridiagonal_ql_matches_jacobi(
            dim in 1usize..121,
            shape in 0u8..3,
            seed in any::<u64>(),
            scale in 0.1f64..1000.0,
        ) {
            let (alpha, beta) = random_tridiagonal(dim, shape, seed, scale);
            let mut t = Matrix::zeros(dim, dim);
            for (i, &a) in alpha.iter().enumerate() {
                t[(i, i)] = a;
            }
            for (i, &b) in beta.iter().enumerate() {
                t[(i, i + 1)] = b;
                t[(i + 1, i)] = b;
            }
            let tol = t.frobenius().max(1.0);
            let (values, vectors) = tridiagonal_eigen(&alpha, &beta).expect("converges");
            let oracle = eigen_symmetric(&t, 1e-13).expect("symmetric");
            // ±λ ties may order differently: compare the values sorted.
            let ascending = |v: &[f64]| {
                let mut v = v.to_vec();
                v.sort_by(f64::total_cmp);
                v
            };
            for (a, b) in ascending(&values).iter().zip(ascending(&oracle.values)) {
                prop_assert!((a - b).abs() <= 1e-10 * tol, "λ {} vs Jacobi {}", a, b);
            }
            for w in values.windows(2) {
                prop_assert!(w[0].abs() >= w[1].abs(), "|λ| not descending: {:?}", w);
            }
            for (lambda, v) in values.iter().zip(vectors.data().chunks_exact(dim)) {
                let res: f64 = (0..dim)
                    .map(|i| (dot(t.row(i), v) - lambda * v[i]).powi(2))
                    .sum();
                prop_assert!(res.sqrt() <= 1e-10 * tol, "‖Tv − λv‖ = {}", res.sqrt());
            }
            let vvt = vectors.matmul(&vectors.transpose()).expect("square");
            let worst = vvt
                .sub(&Matrix::identity(dim))
                .expect("square")
                .data()
                .iter()
                .fold(0.0f64, |w, x| w.max(x.abs()));
            prop_assert!(worst < 1e-12, "VᵀV − I has an entry of {}", worst);
        }
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

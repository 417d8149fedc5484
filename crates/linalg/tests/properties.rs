//! Property-based tests for the linear-algebra kernels.

use linalg::eigen::{eigen_symmetric, eigen_top_k, eigen_top_k_csr};
use linalg::ica::fast_ica;
use linalg::pca::{pca_sweep, pca_sweep_csr, recon_err, recon_err_profile, recon_err_profile_csr};
use linalg::quantize::{bucketize, log_normalize};
use linalg::{Error, Matrix, SymCsr};
use proptest::prelude::*;

/// Arbitrary symmetric matrix with entries in [-scale, scale].
fn arb_symmetric() -> impl Strategy<Value = Matrix> {
    arb_symmetric_of(2..12)
}

/// [`arb_symmetric`] with the dimension drawn from `dims`.
fn arb_symmetric_of(dims: std::ops::Range<usize>) -> impl Strategy<Value = Matrix> {
    (dims, 0.1f64..1000.0).prop_flat_map(|(n, scale)| {
        prop::collection::vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |upper| {
            let mut m = Matrix::zeros(n, n);
            let mut it = upper.into_iter();
            for i in 0..n {
                for j in i..n {
                    let v = it.next().expect("enough entries") * scale;
                    m[(i, j)] = v;
                    m[(j, i)] = v;
                }
            }
            m
        })
    })
}

/// A symmetric matrix of dimension 2..=60 with a k in 0..=n, so both sides of
/// `eigen_top_k`'s `2k < n` rule are drawn.
fn arb_symmetric_and_k() -> impl Strategy<Value = (Matrix, usize)> {
    arb_symmetric_of(2..61).prop_flat_map(|m| {
        let n = m.rows();
        (0..n + 1).prop_map(move |k| (m.clone(), k))
    })
}

/// A sparse symmetric operator of dimension `n` drawn from `seed`, shaped
/// like a collapsed graph's byte matrix and then some: isolated nodes (empty
/// rows), self-loops on the diagonal, explicitly stored zeros, and values of
/// both signs over six decades.
fn sparse_symmetric(n: usize, seed: u64) -> SymCsr {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let density = 0.02 + 0.3 * next();
    let isolated: Vec<bool> = (0..n).map(|_| next() < 0.15).collect();
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in i..n {
            let p = if i == j { 0.3 } else { density };
            if isolated[i] || isolated[j] || next() >= p {
                continue;
            }
            let v = if next() < 0.1 { 0.0 } else { (next() - 0.3) * 10f64.powf(6.0 * next()) };
            rows[i].push((j as u32, v));
            if i != j {
                rows[j].push((i as u32, v));
            }
        }
    }
    SymCsr::from_sorted_rows(n, rows).expect("ascending rows by construction")
}

/// Arbitrary non-negative symmetric matrix (byte-matrix-like).
fn arb_nonneg_symmetric() -> impl Strategy<Value = Matrix> {
    arb_symmetric().prop_map(|m| {
        let n = m.rows();
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                out[(i, j)] = m[(i, j)].abs();
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full-rank reconstruction recovers the matrix; eigenvectors are
    /// orthonormal; eigenpairs satisfy M v = λ v.
    #[test]
    fn eigen_soundness(m in arb_symmetric()) {
        let n = m.rows();
        let d = eigen_symmetric(&m, 1e-11).expect("symmetric by construction");
        // Reconstruction.
        let full = d.reconstruct(n).expect("k = n is valid");
        let scale = m.frobenius().max(1.0);
        prop_assert!(m.sub(&full).unwrap().frobenius() / scale < 1e-7);
        // Orthonormality.
        let vtv = d.vectors.transpose().matmul(&d.vectors).unwrap();
        prop_assert!(vtv.sub(&Matrix::identity(n)).unwrap().frobenius() < 1e-7);
        // Definition, every pair.
        for c in 0..n {
            for i in 0..n {
                let mv: f64 = (0..n).map(|j| m[(i, j)] * d.vectors[(j, c)]).sum();
                prop_assert!(
                    (mv - d.values[c] * d.vectors[(i, c)]).abs() < 1e-6 * scale.max(1.0),
                    "Mv = λv violated"
                );
            }
        }
        // Sorted by |λ| descending.
        for w in d.values.windows(2) {
            prop_assert!(w[0].abs() + 1e-12 >= w[1].abs());
        }
    }

    /// `eigen_top_k` returns the Jacobi solver's k leading eigenpairs:
    /// the same values, true eigenvectors, an orthonormal basis, and the
    /// same reconstruction-error profile as far as it goes.
    #[test]
    fn top_k_agrees_with_the_jacobi_oracle((m, k) in arb_symmetric_and_k()) {
        let n = m.rows();
        let scale = m.frobenius().max(1.0);
        let full = eigen_symmetric(&m, 1e-12).expect("symmetric by construction");
        let top = eigen_top_k(&m, k, 1e-12).expect("symmetric, k <= n");
        prop_assert_eq!(top.values.len(), k);
        prop_assert_eq!((top.vectors.rows(), top.vectors.cols()), (n, k));
        for c in 0..k {
            prop_assert!(
                (top.values[c] - full.values[c]).abs() <= 1e-9 * scale,
                "λ_{}: {} vs Jacobi {}", c, top.values[c], full.values[c]
            );
            let residual: f64 = (0..n)
                .map(|i| {
                    let mv: f64 = (0..n).map(|j| m[(i, j)] * top.vectors[(j, c)]).sum();
                    (mv - top.values[c] * top.vectors[(i, c)]).powi(2)
                })
                .sum();
            prop_assert!(residual.sqrt() <= 1e-8 * scale, "‖Mv − λv‖ = {} at {}", residual.sqrt(), c);
        }
        let vtv = top.vectors.transpose().matmul(&top.vectors).unwrap();
        let off = vtv.sub(&Matrix::identity(k)).unwrap();
        prop_assert!(off.data().iter().all(|x| x.abs() < 1e-10), "VᵀV = I violated");
        let profile = recon_err_profile(&top, &m).expect("aligned");
        let oracle = recon_err_profile(&full, &m).expect("aligned");
        prop_assert_eq!(profile.len(), k + 1);
        for (i, (a, b)) in profile.iter().zip(&oracle).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "profile[{}]: {} vs Jacobi {}", i, a, b);
        }
    }

    /// Two calls return the same bits, and so do two sweeps built on them.
    #[test]
    fn top_k_and_its_sweep_are_bit_repeatable((m, k) in arb_symmetric_and_k()) {
        let bits = |m: &Matrix| -> Vec<u64> {
            let d = eigen_top_k(m, k, 1e-10).expect("symmetric, k <= n");
            d.values.iter().chain(d.vectors.data()).map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&m), bits(&m));
        let (first, second) =
            (pca_sweep(&m, &[0, 1, k]).expect("square"), pca_sweep(&m, &[0, 1, k]).expect("square"));
        prop_assert_eq!(first.k_for_5_percent, second.k_for_5_percent);
        prop_assert_eq!(first.errors.len(), second.errors.len());
        for (a, b) in first.errors.iter().zip(&second.errors) {
            prop_assert_eq!((a.k, a.err.to_bits()), (b.k, b.err.to_bits()));
        }
    }

    /// The sparse operator and its dense form are one input to one kernel:
    /// `eigen_top_k`, the error profile and the sweep return the same bits
    /// from either, on both sides of the `2k < n` rule, and the profile
    /// agrees with rebuilding `M_k` densely.
    #[test]
    fn sparse_and_dense_forms_agree_bit_for_bit(
        n in 2usize..201,
        k_pick in 0usize..31,
        seed in any::<u64>(),
    ) {
        let sparse = sparse_symmetric(n, seed);
        let dense = sparse.to_dense();
        let k = k_pick.min(n);
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let a = eigen_top_k(&dense, k, 1e-10).expect("symmetric, k <= n");
        let b = eigen_top_k_csr(&sparse, k, 1e-10).expect("k <= n");
        prop_assert_eq!(bits(&a.values), bits(&b.values));
        prop_assert_eq!(bits(a.vectors.data()), bits(b.vectors.data()));
        let from_dense = recon_err_profile(&a, &dense).expect("aligned");
        let from_sparse = recon_err_profile_csr(&a, &sparse).expect("aligned");
        prop_assert_eq!(bits(&from_dense), bits(&from_sparse));
        // The row walk against reconstruct-then-subtract, an independent path.
        for j in [0, 1.min(k), k] {
            let direct = recon_err(&dense, &a.reconstruct(j).expect("j <= k")).expect("square");
            let tol = 1e-9 * direct.max(1.0);
            prop_assert!((from_sparse[j] - direct).abs() <= tol, "k={}: {} vs {}", j, from_sparse[j], direct);
        }
        let ks = [0, 1, k];
        let (x, y) = (
            pca_sweep(&dense, &ks).expect("square"),
            pca_sweep_csr(&sparse, &ks).expect("k <= n"),
        );
        prop_assert_eq!(x.k_for_5_percent, y.k_for_5_percent);
        let errs = |s: &linalg::PcaSummary| -> Vec<(usize, u64)> {
            s.errors.iter().map(|e| (e.k, e.err.to_bits())).collect()
        };
        prop_assert_eq!(errs(&x), errs(&y));
    }

    /// Bad input is an error at every k, never a panic.
    #[test]
    fn top_k_rejects_asymmetric_and_non_square((m, k) in arb_symmetric_and_k()) {
        let n = m.rows();
        let mut asym = m.clone();
        asym[(0, n - 1)] += 1.0 + m.frobenius();
        prop_assert!(matches!(eigen_top_k(&asym, k, 1e-10), Err(Error::NotSymmetric { .. })));
        let wide = Matrix::zeros(n, n + 1);
        prop_assert!(matches!(eigen_top_k(&wide, k, 1e-10), Err(Error::InvalidArg(_))));
        prop_assert!(matches!(eigen_top_k(&m, n + 1, 1e-10), Err(Error::InvalidArg(_))));
    }

    /// Trace is preserved: Σλ = tr(M).
    #[test]
    fn eigen_preserves_trace(m in arb_symmetric()) {
        let d = eigen_symmetric(&m, 1e-11).expect("symmetric");
        let trace: f64 = (0..m.rows()).map(|i| m[(i, i)]).sum();
        let sum: f64 = d.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6 * m.frobenius().max(1.0));
    }

    /// The error profile starts at 1 (k=0, nonzero matrix), ends at ~0
    /// (k=n), and pca_sweep agrees with it pointwise.
    #[test]
    fn pca_profile_endpoints(m in arb_nonneg_symmetric()) {
        prop_assume!(m.abs_sum() > 1e-6);
        let n = m.rows();
        let d = eigen_symmetric(&m, 1e-11).expect("symmetric");
        let profile = recon_err_profile(&d, &m).expect("aligned");
        prop_assert_eq!(profile.len(), n + 1);
        prop_assert!((profile[0] - 1.0).abs() < 1e-9, "k=0 misses everything");
        prop_assert!(profile[n] < 1e-6, "k=n is exact, got {}", profile[n]);
        // pca_sweep decomposes at its own tolerance; allow small numeric
        // divergence from our tighter-tolerance profile.
        let sweep = pca_sweep(&m, &[0, 1, n]).expect("square");
        for e in &sweep.errors {
            prop_assert!((e.err - profile[e.k]).abs() < 1e-6, "k={} {} vs {}", e.k, e.err, profile[e.k]);
        }
    }

    /// recon_err is a scaled L1 distance: zero iff equal, symmetric wrt
    /// the difference's sign.
    #[test]
    fn recon_err_axioms(m in arb_nonneg_symmetric()) {
        prop_assume!(m.abs_sum() > 1e-9);
        prop_assert_eq!(recon_err(&m, &m).unwrap(), 0.0);
        let zero = Matrix::zeros(m.rows(), m.cols());
        prop_assert!((recon_err(&m, &zero).unwrap() - 1.0).abs() < 1e-12);
    }

    /// FastICA reconstruction with all components is near-exact whenever the
    /// data has enough columns.
    #[test]
    fn ica_full_rank_reconstructs(
        rows in 2usize..5,
        cols in 24usize..64,
        seed_vals in prop::collection::vec(-10.0f64..10.0, 8),
    ) {
        // Build deterministic non-Gaussian-ish data from the seeds.
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let s = seed_vals[(r * 3 + c) % seed_vals.len()];
                        let saw = ((c as f64 * (r as f64 + 1.3)) % 7.0) - 3.5;
                        s + saw
                    })
                    .collect()
            })
            .collect();
        let m = Matrix::from_rows(data);
        let d = fast_ica(&m, rows, 400).expect("valid dims");
        let r = d.reconstruct().expect("shapes align");
        let denom = m.abs_sum().max(1.0);
        prop_assert!(
            m.sub(&r).unwrap().abs_sum() / denom < 1e-6,
            "full-rank ICA must reconstruct"
        );
    }

    /// Quantization: outputs bounded, monotone wrt the input, max maps to 1.
    #[test]
    fn quantize_axioms(m in arb_nonneg_symmetric()) {
        prop_assume!(m.abs_sum() > 0.0);
        let norm = log_normalize(&m, 6.0);
        let max_in = m.data().iter().cloned().fold(0.0f64, f64::max);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                prop_assert!((0.0..=1.0).contains(&norm[(i, j)]));
                if m[(i, j)] == max_in {
                    prop_assert_eq!(norm[(i, j)], 1.0);
                }
            }
        }
        let buckets = bucketize(&norm, 10);
        for row in &buckets {
            for &b in row {
                prop_assert!(b < 10);
            }
        }
    }
}

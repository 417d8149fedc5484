//! Linear algebra for communication-matrix analysis, from scratch.
//!
//! The paper's succinct-summaries analysis (§2.2) rests on one observation:
//! cloud communication matrices are exceedingly low-rank, so a handful of
//! eigenvectors reconstructs them almost perfectly (k = 25 of n > 500 gives
//! < 5% error on the K8s PaaS cluster). This crate provides everything that
//! analysis needs without an external linear-algebra dependency:
//!
//! * [`matrix`] — a dense row-major matrix with the handful of operations
//!   the analyses use (multiply, transpose, norms).
//! * [`eigen`] — symmetric eigendecomposition: cyclic Jacobi for the full
//!   spectrum (simple, robust, and exact enough at the few-hundred-node
//!   scale of collapsed IP graphs) and [`eigen_top_k_csr`], Lanczos for the
//!   k leading eigenpairs, which is all the PCA summary and the anomaly
//!   model read.
//! * `csr` — [`SymCsr`], a sparse symmetric matrix in CSR form: the
//!   operator the Lanczos solver and the PCA error profile run on, so a
//!   graph's byte matrix is never densified.
//! * [`pca`] — the paper's sparse transform `M_k = E_k D_k E_kᵀ` and its
//!   `ReconErr` metric.
//! * [`ica`] — FastICA (the paper's footnote 6 alternative), implemented
//!   with whitening + deflationary fixed-point iteration.
//! * [`quantize`] — the log-scale normalization behind the Figure 4/5
//!   heatmaps.
//! * [`sym`] — [`SymMatrix`], a flat packed-upper-triangular symmetric
//!   matrix, the form the dense similarity kernels fill.
//!
//! Every kernel runs on its caller's thread: the crate starts no thread
//! (`clippy.toml` disallows the `std::thread` starts, and this root denies
//! the lint).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason,
    clippy::iter_over_hash_type
)]
#![warn(missing_docs)]

pub(crate) mod csr;
pub mod eigen;
pub(crate) mod error;
pub mod ica;
pub mod matrix;
pub mod pca;
pub mod quantize;
pub mod sym;

pub use csr::SymCsr;
pub use eigen::{
    eigen_symmetric, eigen_symmetric_with, eigen_top_k, eigen_top_k_csr, EigenDecomposition,
};
pub use error::{Error, Result};
pub use ica::{fast_ica, IcaDecomposition};
pub use matrix::Matrix;
pub use pca::{pca_sweep, pca_sweep_csr, pca_sweep_with, recon_err, sparse_transform, PcaSummary};
pub use sym::SymMatrix;

/// The worker-count argument of the entry points the pinned benchmark
/// source (`crates/bench/src/bin/benchmark/layers.rs`, frozen) calls:
/// [`eigen_symmetric_with`], [`pca_sweep_with`], and `algos`'
/// `infer_roles_with`, `infer_roles_incremental_obs` and
/// `jaccard_matrix_of_sets_with`. Every kernel runs on its caller's
/// thread, so the value carries nothing and those forwards do not read it;
/// new code calls the plain entry points. Zero-sized; the private unit
/// field keeps `Parallelism::default()`, the form the benchmark source
/// writes, free of clippy's unit-struct lint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parallelism(());

impl Parallelism {
    /// The one value, under the name the benchmark source also calls.
    pub fn serial() -> Self {
        Parallelism(())
    }
}

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
//! * [`par`] — the `std`-only data-parallel scheduler (scoped-thread tile /
//!   task work queues) and the [`Parallelism`] knob the dense kernels share.
//! * [`sym`] — [`SymMatrix`], a flat packed-upper-triangular symmetric
//!   matrix whose contiguous rows give the scheduler disjoint `&mut` tiles.

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
pub mod par;
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
pub use par::Parallelism;
pub use pca::{pca_sweep, pca_sweep_csr, pca_sweep_with, recon_err, sparse_transform, PcaSummary};
pub use sym::SymMatrix;

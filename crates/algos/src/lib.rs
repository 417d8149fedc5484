//! Graph algorithms for communication-graph analysis.
//!
//! This crate implements the algorithmic core of the paper's §2:
//!
//! * [`wgraph`] — a minimal weighted undirected graph the algorithms share,
//!   with adapters from [`commgraph_graph::CommGraph`].
//! * [`jaccard`] — neighbor-set overlap scoring (the paper's Figure 1
//!   similarity), both exact and MinHash-sketched.
//! * [`louvain`] — modularity-maximizing community detection (Blondel et
//!   al.), the clustering stage of the paper's segmentation and the
//!   "conn-weighted / byte-weighted modularity" baselines of Figure 3.
//!   Single-threaded by design: one deterministic sweep, no worker count.
//! * [`simrank`] — SimRank and SimRank++ structural similarity, the other
//!   two Figure 3 baselines.
//! * [`roles`] — role inference: similarity scoring + clustering of the
//!   scored clique, producing the µsegment labels of Figure 1.
//! * [`metrics`] — partition quality: Adjusted Rand Index, Normalized Mutual
//!   Information, purity, modularity — how experiments score segmentations
//!   against simulator ground truth.
//! * [`stats`] — traffic-distribution statistics: the byte CCDF of Figure 6,
//!   degree distributions, concentration indices.
//! * [`par`] (re-exported from `linalg`) — the scoped-thread tile scheduler
//!   behind every `_with(…, Parallelism)` kernel variant; [`sym`] — the flat
//!   packed-upper-triangular [`sym::SymMatrix`] all similarity kernels
//!   produce.

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

pub(crate) mod error;
pub(crate) mod features;
pub mod jaccard;
pub(crate) mod kmeans;
pub mod louvain;
pub mod metrics;
pub mod roles;
pub mod simrank;
pub mod stats;
pub mod wgraph;

pub use error::{Error, Result};
pub use linalg::par::{self, Parallelism};
pub use linalg::sym::{self, SymMatrix};
pub use roles::{infer_roles, infer_roles_with, RoleInference, SegmentationMethod};
pub use wgraph::WeightedGraph;

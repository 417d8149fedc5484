//! `commgraph` — dynamic communication graphs for securing public clouds.
//!
//! This is the top-level crate of the reproduction of *"Securing Public
//! Clouds using Dynamic Communication Graphs"* (HotNets '23). It stitches
//! the substrate crates into the system the paper sketches:
//!
//! ```text
//!  telemetry (flowlog) ──► graphs (graph) ──► analyses (algos/linalg)
//!        ▲                                         │
//!   simulation (cloudsim)                          ▼
//!        └──────────────── security (segment) ◄── pipeline (this crate)
//! ```
//!
//! * [`pipeline`] — streaming construction of hourly graph sequences from a
//!   record stream.
//! * [`workbench`] — a batteries-included session over one telemetry
//!   window: graphs, role inference, µsegmentation, policies, violations,
//!   blast radii, low-rank summaries, CCDFs — each memoized on first use.
//! * [`monitor`] — the continuous Figure 8 loop: learn a baseline, then
//!   enforce policies, score anomalies, and diff structure window by window.
//! * [`counterfactual`] — §2.3's analyses: flow-size and inter-arrival
//!   distributions, capacity-investment and proximity-placement advice.
//!
//! The substrate crates are re-exported under their natural names
//! ([`flowlog`], [`cloudsim`], [`graph`], [`linalg`], [`algos`],
//! [`segment`], [`analytics`], [`obs`]) so downstream users depend on this
//! crate alone. Every stage accepts an [`obs::Obs`] handle (default: noop)
//! and reports wall-time spans, counters, and events through it — see the
//! `obs` crate docs for the observability model.
//!
//! # Quickstart
//!
//! ```
//! use commgraph::cloudsim::{ClusterPreset, Simulator};
//! use commgraph::workbench::Workbench;
//!
//! // Synthesize one hour of a small cluster's flow telemetry.
//! let preset = ClusterPreset::MicroserviceBench;
//! let mut sim = Simulator::new(
//!     preset.topology_scaled(0.25),
//!     preset.default_sim_config(),
//! ).unwrap();
//! let records = sim.collect(10);
//!
//! // Build graphs and run the paper's analyses.
//! let monitored: std::collections::HashSet<_> = sim.ground_truth().ip_roles.keys().copied()
//!     .filter(|ip| ip.octets()[0] == 10).collect();
//! let mut wb = Workbench::new(records, monitored);
//! let graph = wb.ip_graph();
//! assert!(graph.node_count() > 0);
//! let roles = wb.roles();
//! assert!(roles.n_roles >= 2);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod counterfactual;
pub mod monitor;
pub mod pipeline;
pub mod report;
pub mod workbench;

pub use pipeline::{Pipeline, PipelineConfig};
pub use workbench::Workbench;

// Substrate re-exports: one dependency for downstream users.
pub use ::algos;
pub use ::analytics;
pub use ::cloudsim;
pub use ::flowlog;
pub use ::linalg;
pub use ::obs;
pub use ::segment;
pub use commgraph_graph as graph;

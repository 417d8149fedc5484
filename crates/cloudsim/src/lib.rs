//! Role-based cloud workload simulator.
//!
//! The paper analyzes production flow telemetry from four clusters (Table 1:
//! `Portal`, `µserviceBench`, `K8s PaaS`, `KQuery`). Those traces are
//! proprietary, so this crate synthesizes the closest equivalent: a
//! deterministic, seeded simulator that models a cloud deployment as a set of
//! **roles** (front-ends, caches, databases, control-plane hubs, external
//! clients, …) with replica counts and per-role-pair **traffic profiles**,
//! and emits exactly the connection-summary schema that real NSG/VPC flow
//! logs carry ([`flowlog::ConnSummary`]).
//!
//! Why this substitution preserves the paper's behaviour: every analysis in
//! the paper consumes only the Table 2 record stream, and the patterns those
//! analyses exploit — multiple replicas playing the same role, chatty
//! cliques, hub-and-spoke control planes, heavy-tailed traffic skew — are
//! properties of *software structure*, which the role model reproduces by
//! construction. Crucially, the simulator also knows its own ground truth
//! (which IP plays which role, which flows belong to an injected attack), so
//! segmentation quality and detection can be *scored*, not just eyeballed.
//!
//! Modules:
//! * [`roles`] — role identities and kinds.
//! * [`traffic`] — per-edge traffic profiles (rates, sizes, durations, fanout).
//! * [`topology`] — a named set of roles, replicas, and role-to-role edges.
//! * [`load`] — time-of-day modulation: diurnal curves, flash crowds, steps.
//! * [`churn`] — autoscaling and pod-migration events.
//! * [`net`] — seeded delivery-network simulation: per-host agents, latency,
//!   loss, duplication, and scripted faults (crashes, partitions, skew).
//! * [`attack`] — breach and attack-simulation injectors with labeled flows.
//! * `sim` — the minute-stepped engine that turns all of the above into a
//!   connection-summary stream plus ground truth.
//! * `presets` — the four reference clusters scaled to Table 1.
//! * `randx` — the distribution samplers (Poisson, log-normal, Zipf) the
//!   engine needs, built on `rand`'s uniform source.

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

pub mod attack;
pub mod churn;
pub(crate) mod error;
pub mod load;
pub mod net;
pub(crate) mod presets;
pub(crate) mod randx;
pub mod roles;
pub(crate) mod sim;
pub mod topology;
pub mod traffic;

pub use error::{Error, Result};
pub use presets::ClusterPreset;
pub use sim::{GroundTruth, SimConfig, Simulator};
pub use topology::Topology;

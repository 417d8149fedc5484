//! Low-COGS streaming analytics (§3.2, Figure 8).
//!
//! The paper's viability argument is economic: roughly 1000 VMs' worth of
//! telemetry must be analyzable with "a handful of VMs worth of resources"
//! (~0.5% surcharge). This crate is that analytics tier in miniature:
//!
//! * [`sharded`] — the analytics front door. A shard *is* a thread: a
//!   fixed pool is spawned once, each subscription lives on the shard its
//!   id hashes to, and that thread runs the group-by-aggregate (a
//!   [`commgraph_graph::GraphBuilder`] per subscription and window) and
//!   assembles the snapshots. Shards share no state, so nothing is merged
//!   and the result is bit-identical to a single-threaded build. A single
//!   stream is one subscription on a one-shard pool.
//! * [`sketch`] — SpaceSaving heavy-hitter tracking, the streaming
//!   counterpart of the offline collapse threshold.
//! * [`memory`] — memory accounting for builder state ("the memory need is
//!   proportional to the number of node pairs in the graph").
//! * [`cogs`] — the dollars: collection cost at provider prices, analytics
//!   capacity, and the resulting surcharge per monitored VM.

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

pub mod cogs;
pub(crate) mod error;
pub mod memory;
mod shard;
pub mod sharded;
pub mod sketch;

pub use cogs::{CogsModel, CogsReport};
pub use error::{Error, Result};
pub use sharded::{EngineStats, ShardedConfig, ShardedEngine, ShardedStats, SubscriptionReport};
pub use sketch::SpaceSaving;

//! Dynamic, multi-faceted communication graphs.
//!
//! This crate turns a stream of connection summaries into the paper's core
//! artifact: a **complete communication graph** of everything that talks
//! inside a cloud subscription. Nodes can be IPs, `(IP, port)` tuples, or
//! services (the *multi-faceted* requirement); edges carry byte, packet, and
//! connection counters and the service ports they were seen on (what a
//! window's allow rules are learned from); the window roll produces a *time
//! series* of graphs (the *dynamic* requirement).
//!
//! Key pieces:
//! * `node` — node identities and the facet abstraction.
//! * `stats` — edge and node counters.
//! * [`builder`] — streaming group-by-aggregate construction: the
//!   one-window kernel ([`GraphBuilder`], with the double-report dedup rule
//!   for per-NIC telemetry) and the window roll that drives it over one
//!   stream ([`WindowedBuilder`]: keeps one recycled edge table and no
//!   graph, hands each closed window's graph to its caller exactly once, and
//!   never re-opens a window for a record that arrives behind it).
//! * `graph` — the immutable snapshot with CSR adjacency, matrix export,
//!   and DOT/JSON serialization.
//! * [`hash`] — the fixed fast hasher behind every table a record probes.
//! * [`collapse`] — heavy-hitter collapsing: nodes below a traffic-share
//!   threshold fold into one `Other` node, the paper's §3.2 mitigation that
//!   bounds memory on graphs with many small remote peers.
//! * [`diff`] — "what changed?" comparisons between snapshots.
//! * [`series`] — hourly snapshot sequences and persistence metrics
//!   (Figure 5's timelapse analysis).
//! * [`cardinality`] — HyperLogLog estimation of node/edge counts for
//!   facets too large to materialize (the KQuery IP-port graph).
//! * [`timeseries`] — per-edge byte series read off the roll's graphs, one
//!   slot per window: the paper's "embed timeseries in the node and edge
//!   attributes" variant, derived from its "time-series of graphs".

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

pub mod builder;
pub mod cardinality;
pub mod collapse;
pub mod diff;
pub(crate) mod error;
pub(crate) mod graph;
pub mod hash;
pub(crate) mod node;
pub mod series;
pub(crate) mod stats;
pub mod timeseries;

pub use builder::{GraphBuilder, Inventory, Outcome, WindowedBuilder};
pub use error::{Error, Result};
pub use graph::{Adjacent, CommGraph};
pub use node::{Facet, NodeId};
pub use stats::{EdgeStats, NodeStats};

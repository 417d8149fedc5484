//! Cloud flow telemetry: the substrate of dynamic communication graphs.
//!
//! Public clouds can record, for every VM, periodic summaries of every flow
//! that enters or leaves it — transparently to the customer and with
//! negligible overhead, because the programmable NIC (or the network
//! virtualization software stack) already keeps per-flow state. This crate
//! models that telemetry source end to end:
//!
//! * [`record`] — the connection-summary schema (Table 2 of the paper) and
//!   flow identity types.
//! * [`provider`] — per-provider collection presets (Table 3): aggregation
//!   interval, sampling, and collection price.
//! * [`sampling`] — packet- and flow-sampling stages with unbiased upscaling,
//!   as deployed by providers that sample to reduce cost.
//! * [`nic`] — a simulated smartNIC flow table plus the host agent that
//!   periodically drains it into connection summaries (Figure 7).
//! * [`codec`] — the text flow-log line and the framed binary batch.
//! * [`nsg`] — Azure-NSG-style v2 flow tuples.
//! * [`time`] — aggregation-bucket helpers.
//!
//! The design goal mirrors the paper's: everything downstream (graph
//! construction, segmentation, summaries, counterfactuals) consumes **only**
//! this schema, so swapping the simulated source for a real NSG/VPC flow-log
//! feed is a codec change, not an architecture change.

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

pub mod codec;
pub(crate) mod error;
pub mod nic;
pub mod nsg;
pub mod provider;
pub mod record;
pub mod sampling;
pub mod time;

pub use error::{Error, Result};
pub use record::{ConnSummary, FlowKey, Protocol};

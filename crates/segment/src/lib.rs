//! Micro-segmentation: the paper's flagship security primitive (§2.1).
//!
//! Micro-segmentation divides a subscription's resources into *µsegments*
//! and authors default-deny reachability policies between them, so that a
//! breached resource can only reach what its role legitimately needs — the
//! blast radius shrinks from "the whole subscription" to "my segment's
//! allowed peers."
//!
//! * `microseg` — µsegments derived from inferred roles.
//! * [`policy`] — default-deny reachability policies learned from observed
//!   communication, optionally service-port-scoped.
//! * `violation` — runtime policy checking over live record streams.
//! * [`compile`] — unrolling segment policies into per-VM rules: the rule-
//!   explosion problem, and the tag-based enforcement that avoids it.
//! * [`drift`] — reconciling re-learned segmentations against the enforced
//!   one: label churn, stability, and the enforcement cost of keeping up.
//! * [`higher_order`] — the paper's similarity-based and proportionality-
//!   based policies, which kill the false positives plain reachability
//!   rules raise on software rollouts and flash crowds.
//! * [`blast`] — blast-radius measurement, before and after segmentation.

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

pub mod blast;
pub mod churn_cost;
pub mod compile;
pub mod drift;
pub(crate) mod error;
pub mod higher_order;
pub(crate) mod microseg;
pub mod policy;
pub(crate) mod violation;

pub use error::{Error, Result};
pub use microseg::{Segment, SegmentId, Segmentation};
pub use policy::SegmentPolicy;
pub use violation::{Verdict, Violation, ViolationDetector};

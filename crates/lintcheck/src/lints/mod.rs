//! The lint passes. Each is a pure function from a manifest's text to
//! [`crate::Finding`]s.

pub mod dep_policy;

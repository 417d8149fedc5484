//! The lint passes. Each lint is a pure function from parsed sources (or
//! manifests) to [`crate::Finding`]s; suppression by allow-marker and
//! baseline subtraction happen in the driver.

pub mod clock_hygiene;
pub mod dep_policy;
pub mod metric_registry;
pub mod nondet_iter;
pub mod panic_path;
pub mod panic_prop;

//! Analytics error type.

use std::fmt;

/// Convenience alias using the crate [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the analytics tier.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// A worker thread panicked or disconnected unexpectedly.
    WorkerFailed(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(m) => write!(f, "invalid analytics config: {m}"),
            Error::WorkerFailed(m) => write!(f, "worker failed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(Error::WorkerFailed("shard 0".into())
            .to_string()
            .contains("worker failed: shard 0"));
    }
}

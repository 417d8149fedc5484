//! Error type shared across the telemetry crate.

use std::fmt;

/// Convenience alias using the crate [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while generating, encoding, or decoding flow telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A text flow-log line did not have the expected number of fields.
    MalformedLine {
        /// Human-readable description of what was wrong.
        reason: String,
    },
    /// A field failed to parse (bad IP, port, or counter).
    BadField {
        /// Name of the schema field.
        field: &'static str,
        /// The offending raw text.
        value: String,
    },
    /// A binary buffer was truncated or had a bad magic/version header.
    BadBinary(String),
    /// A configuration value was out of range (e.g. sampling rate > 1).
    InvalidConfig(String),
    /// The smartNIC flow table rejected an operation.
    FlowTable(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::MalformedLine { reason } => write!(f, "malformed flow-log line: {reason}"),
            Error::BadField { field, value } => {
                write!(f, "bad value for field `{field}`: {value:?}")
            }
            Error::BadBinary(msg) => write!(f, "bad binary flow-log buffer: {msg}"),
            Error::InvalidConfig(msg) => write!(f, "invalid telemetry config: {msg}"),
            Error::FlowTable(msg) => write!(f, "flow table error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::BadField { field: "local_ip", value: "not-an-ip".into() };
        let s = e.to_string();
        assert!(s.contains("local_ip"));
        assert!(s.contains("not-an-ip"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}

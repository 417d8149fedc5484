//! Leveled structured events with environment-variable filtering.
//!
//! Events are key-value structured records, not format strings. They go two
//! places:
//!
//! * the owning [`crate::Registry`]'s bounded in-memory buffer (always, when
//!   a registry is installed) — tests and exporters read it back;
//! * `stderr`, when the `COMMGRAPH_LOG` environment variable enables the
//!   event's level (`error`, `warn`, `info`, `debug`, `trace`; unset or
//!   `off` silences everything).
//!
//! The filter is parsed once per process. [`LogFilter::parse`] is exposed so
//! the parsing rules stay unit-testable without mutating process state.

use std::fmt;
use std::sync::OnceLock;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The system is misbehaving.
    Error,
    /// Something surprising that operators should see.
    Warn,
    /// Lifecycle milestones (baseline ready, window closed, run finished).
    Info,
    /// Per-stage detail.
    Debug,
    /// Firehose.
    Trace,
}

impl Level {
    /// Lower-case name, as used in `COMMGRAPH_LOG` and rendered output.
    pub fn name(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What `COMMGRAPH_LOG` resolved to: emit events at or above a level, or
/// nothing at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFilter {
    /// Emit nothing to stderr (the default).
    Off,
    /// Emit events whose level is at least this severe.
    AtLeast(Level),
}

impl LogFilter {
    /// Parse a `COMMGRAPH_LOG` value. Unknown strings and empty values are
    /// `Off`; matching is case-insensitive and whitespace-tolerant.
    pub(crate) fn parse(raw: &str) -> LogFilter {
        match raw.trim().to_ascii_lowercase().as_str() {
            "error" => LogFilter::AtLeast(Level::Error),
            "warn" | "warning" => LogFilter::AtLeast(Level::Warn),
            "info" => LogFilter::AtLeast(Level::Info),
            "debug" => LogFilter::AtLeast(Level::Debug),
            "trace" => LogFilter::AtLeast(Level::Trace),
            _ => LogFilter::Off,
        }
    }

    /// True when an event at `level` passes the filter.
    pub(crate) fn allows(&self, level: Level) -> bool {
        match self {
            LogFilter::Off => false,
            LogFilter::AtLeast(min) => level <= *min,
        }
    }
}

/// The process-wide filter, read from `COMMGRAPH_LOG` exactly once.
pub(crate) fn env_filter() -> LogFilter {
    static FILTER: OnceLock<LogFilter> = OnceLock::new();
    *FILTER.get_or_init(|| {
        std::env::var("COMMGRAPH_LOG").map(|v| LogFilter::parse(&v)).unwrap_or(LogFilter::Off)
    })
}

/// True when an event at `level` would reach stderr under `COMMGRAPH_LOG`.
pub(crate) fn stderr_enabled(level: Level) -> bool {
    env_filter().allows(level)
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Component that emitted the event (`engine`, `pipeline`, `monitor`…).
    pub target: String,
    /// Human-readable summary.
    pub message: String,
    /// Structured payload, in emission order.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Render as a single log line: `[level] target: message k=v k=v`.
    pub(crate) fn render(&self) -> String {
        let mut s = format!("[{}] {}: {}", self.level, self.target, self.message);
        for (k, v) in &self.fields {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }
}

/// Write an event to stderr if the env filter allows it.
pub(crate) fn emit_stderr(event: &Event) {
    if stderr_enabled(event.level) {
        eprintln!("{}", event.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_parsing() {
        assert_eq!(LogFilter::parse(""), LogFilter::Off);
        assert_eq!(LogFilter::parse("off"), LogFilter::Off);
        assert_eq!(LogFilter::parse("nonsense"), LogFilter::Off);
        assert_eq!(LogFilter::parse("INFO"), LogFilter::AtLeast(Level::Info));
        assert_eq!(LogFilter::parse(" warn "), LogFilter::AtLeast(Level::Warn));
        assert_eq!(LogFilter::parse("warning"), LogFilter::AtLeast(Level::Warn));
    }

    #[test]
    fn filter_ordering() {
        let f = LogFilter::AtLeast(Level::Info);
        assert!(f.allows(Level::Error));
        assert!(f.allows(Level::Info));
        assert!(!f.allows(Level::Debug));
        assert!(!LogFilter::Off.allows(Level::Error));
    }

    #[test]
    fn event_renders_fields_in_order() {
        let e = Event {
            level: Level::Info,
            target: "engine".into(),
            message: "finish".into(),
            fields: vec![("records".into(), "5".into()), ("windows".into(), "2".into())],
        };
        assert_eq!(e.render(), "[info] engine: finish records=5 windows=2");
    }
}

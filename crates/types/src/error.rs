//! The workspace-wide error type.
//!
//! G-RCA is an offline analysis platform: errors are reported to the
//! operator, never panicked over. A single enum keeps the error surface
//! small and lets higher layers add context as plain strings without an
//! external error-handling crate.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T, E = GrcaError> = std::result::Result<T, E>;

/// The error type shared by all G-RCA crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrcaError {
    /// A raw record, DSL file, timestamp or identifier failed to parse.
    Parse(String),
    /// An invalid configuration (diagnosis graph, rule parameters, scenario).
    Config(String),
    /// A query asked for data outside what was collected.
    Query(String),
    /// Anything else.
    Other(String),
}

impl GrcaError {
    pub fn parse(msg: impl Into<String>) -> Self {
        GrcaError::Parse(msg.into())
    }
    pub fn config(msg: impl Into<String>) -> Self {
        GrcaError::Config(msg.into())
    }
    pub fn query(msg: impl Into<String>) -> Self {
        GrcaError::Query(msg.into())
    }
    pub fn other(msg: impl Into<String>) -> Self {
        GrcaError::Other(msg.into())
    }

    /// Wrap with a context prefix, preserving the variant.
    pub fn context(self, ctx: &str) -> Self {
        let wrap = |m: String| format!("{ctx}: {m}");
        match self {
            GrcaError::Parse(m) => GrcaError::Parse(wrap(m)),
            GrcaError::Config(m) => GrcaError::Config(wrap(m)),
            GrcaError::Query(m) => GrcaError::Query(wrap(m)),
            GrcaError::Other(m) => GrcaError::Other(wrap(m)),
        }
    }
}

impl fmt::Display for GrcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrcaError::Parse(m) => write!(f, "parse error: {m}"),
            GrcaError::Config(m) => write!(f, "configuration error: {m}"),
            GrcaError::Query(m) => write!(f, "query error: {m}"),
            GrcaError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for GrcaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_context() {
        let e = GrcaError::parse("bad line");
        assert_eq!(e.to_string(), "parse error: bad line");
        let e = e.context("syslog ingest");
        assert_eq!(e.to_string(), "parse error: syslog ingest: bad line");
        assert!(matches!(e, GrcaError::Parse(_)));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&GrcaError::other("x"));
    }
}

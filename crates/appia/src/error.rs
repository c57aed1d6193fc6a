//! Error types for the protocol kernel.

use std::fmt;

use crate::wire::WireError;

/// Errors raised by the protocol composition and execution kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppiaError {
    /// A layer name used in a channel configuration is not registered.
    UnknownLayer(String),
    /// A channel with the given name does not exist.
    UnknownChannel(String),
    /// A channel with the given name already exists.
    DuplicateChannel(String),
    /// A packet's event tag has no registered factory.
    UnknownEventType(u16),
    /// A QoS composition failed validation (missing required events, empty stack, ...).
    InvalidComposition(String),
    /// A declarative stack description could not be parsed.
    Config(String),
    /// A wire-level encoding or decoding failure.
    Wire(WireError),
}

impl fmt::Display for AppiaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppiaError::UnknownLayer(name) => write!(f, "unknown layer `{name}`"),
            AppiaError::UnknownChannel(name) => write!(f, "unknown channel `{name}`"),
            AppiaError::DuplicateChannel(name) => write!(f, "channel `{name}` already exists"),
            AppiaError::UnknownEventType(tag) => write!(f, "unknown event type tag {tag:#06x}"),
            AppiaError::InvalidComposition(reason) => write!(f, "invalid composition: {reason}"),
            AppiaError::Config(reason) => write!(f, "configuration error: {reason}"),
            AppiaError::Wire(err) => write!(f, "wire error: {err}"),
        }
    }
}

impl std::error::Error for AppiaError {}

impl From<WireError> for AppiaError {
    fn from(err: WireError) -> Self {
        AppiaError::Wire(err)
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AppiaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            AppiaError::UnknownLayer("beb".into()).to_string(),
            "unknown layer `beb`"
        );
        assert_eq!(
            AppiaError::UnknownChannel("data".into()).to_string(),
            "unknown channel `data`"
        );
        assert_eq!(
            AppiaError::DuplicateChannel("data".into()).to_string(),
            "channel `data` already exists"
        );
        assert_eq!(
            AppiaError::UnknownEventType(0x2a).to_string(),
            "unknown event type tag 0x002a"
        );
    }

    #[test]
    fn wire_errors_convert() {
        let err: AppiaError = WireError::UnexpectedEof.into();
        assert!(matches!(err, AppiaError::Wire(_)));
        assert!(err.to_string().contains("wire error"));
    }
}

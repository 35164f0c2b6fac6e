//! The workspace-wide error type.
//!
//! Every fallible operation in the workspace — config validation,
//! builder `try_*` setters, checkpoint encode/decode, serve-protocol
//! parsing — funnels into one [`Error`] enum so callers (in particular
//! the resident [`serve`](../pfcsim_net/serve/index.html) session) can
//! match on a typed variant instead of parsing strings or catching
//! panics.
//!
//! Historically the workspace grew three partially-overlapping error
//! surfaces: `Result<_, String>` from validators and `try_*` setters,
//! `CheckpointError` in `pfcsim-net`, and [`SnapError`]
//! in the snapshot codec. `CheckpointError` is now a type alias for
//! [`Error`] (the variant names were kept), plain-`String` errors
//! convert via [`From`], and `SnapError` nests under
//! [`Error::Corrupt`].

use crate::snap::SnapError;

/// Unified workspace error.
///
/// Variants are grouped by origin:
///
/// * configuration / input validation — [`Error::Config`];
/// * checkpoint persistence — [`Error::Io`], [`Error::Corrupt`],
///   [`Error::Decode`], [`Error::ConfigDigestMismatch`],
///   [`Error::Unsupported`];
/// * the serve protocol — [`Error::Protocol`];
/// * lifecycle misuse (e.g. mutating a finished session) —
///   [`Error::State`].
#[derive(Debug)]
pub enum Error {
    /// Invalid configuration or input (threshold ordering, unknown node,
    /// duplicate flow id, …).
    Config(String),
    /// The underlying I/O operation failed.
    Io(std::io::Error),
    /// The byte stream is not a valid snapshot frame.
    Corrupt(SnapError),
    /// The frame decoded but its contents do not describe a valid state.
    Decode(String),
    /// The checkpoint was produced under a different configuration.
    ConfigDigestMismatch {
        /// Digest recorded in the checkpoint.
        checkpoint: u64,
        /// Digest of the live configuration.
        live: u64,
    },
    /// The checkpoint uses a feature or version this build cannot restore.
    Unsupported(String),
    /// A serve-protocol request was malformed or referenced an unknown op.
    Protocol(String),
    /// The operation is not valid in the current lifecycle state.
    State(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(why) => write!(f, "invalid configuration: {why}"),
            Error::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            Error::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
            Error::Decode(why) => write!(f, "checkpoint decode failed: {why}"),
            Error::ConfigDigestMismatch { checkpoint, live } => write!(
                f,
                "config digest mismatch: checkpoint {checkpoint:#018x}, live {live:#018x}"
            ),
            Error::Unsupported(why) => write!(f, "unsupported checkpoint: {why}"),
            Error::Protocol(why) => write!(f, "protocol error: {why}"),
            Error::State(why) => write!(f, "invalid state: {why}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<String> for Error {
    fn from(why: String) -> Self {
        Error::Config(why)
    }
}

impl From<&str> for Error {
    fn from(why: &str) -> Self {
        Error::Config(why.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<SnapError> for Error {
    fn from(e: SnapError) -> Self {
        Error::Corrupt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_prefixed_by_origin() {
        let e: Error = "bad threshold".into();
        assert_eq!(e.to_string(), "invalid configuration: bad threshold");
        let e = Error::Protocol("unknown op \"frobnicate\"".into());
        assert!(e.to_string().starts_with("protocol error"));
        let e = Error::ConfigDigestMismatch {
            checkpoint: 1,
            live: 2,
        };
        assert!(e.to_string().contains("0x0000000000000001"));
    }

    #[test]
    fn conversions() {
        let e: Error = Error::from(SnapError::Truncated);
        assert!(matches!(e, Error::Corrupt(SnapError::Truncated)));
        let e: Error = std::io::Error::other("x").into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}

//! The serving tier's failure taxonomy.
//!
//! Every fallible operation in this crate — run verification, protocol
//! parse, daemon request handling — surfaces a [`ServeError`].  The
//! variants map one-to-one onto the wire protocol's typed error
//! statuses (DESIGN.md §9), so a client sees exactly the class the
//! server hit, and the daemon itself treats every variant as a
//! per-request failure, never a reason to exit.

use cce_codec::CodecError;
use std::fmt;
use std::io;

/// What went wrong in the serving tier.
#[derive(Debug)]
pub enum ServeError {
    /// An underlying I/O operation failed (socket, image file).
    Io(io::Error),
    /// Stored data failed validation: `what` names the artifact piece
    /// (e.g. `"image.cce run 3"`), `detail` says how it failed.
    Corrupt {
        /// Which artifact piece failed (digest record, run N, head…).
        what: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A wire frame violated the protocol (bad magic, oversized
    /// declared length, unknown opcode, payload-size mismatch).
    Proto(String),
    /// The requested entity does not exist (block index out of range).
    NotFound(String),
    /// The server refused a connection over its connection cap.
    Busy,
    /// A codec operation failed while decoding a block.
    Codec(CodecError),
}

impl ServeError {
    /// Builds a [`ServeError::Corrupt`].
    pub fn corrupt(what: impl fmt::Display, detail: impl fmt::Display) -> Self {
        Self::Corrupt { what: what.to_string(), detail: detail.to_string() }
    }

    /// Builds a [`ServeError::Proto`].
    pub fn proto(detail: impl fmt::Display) -> Self {
        Self::Proto(detail.to_string())
    }

    /// Short class name, used in logs and metrics.
    pub fn class(&self) -> &'static str {
        match self {
            Self::Io(_) => "io",
            Self::Corrupt { .. } => "corrupt",
            Self::Proto(_) => "proto",
            Self::NotFound(_) => "not-found",
            Self::Busy => "busy",
            Self::Codec(_) => "codec",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            Self::Proto(detail) => write!(f, "protocol violation: {detail}"),
            Self::NotFound(what) => write!(f, "not found: {what}"),
            Self::Busy => write!(f, "server busy: connection limit reached"),
            Self::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_piece() {
        let e = ServeError::corrupt("run 3", "sha-256 mismatch");
        assert_eq!(e.to_string(), "corrupt run 3: sha-256 mismatch");
        assert_eq!(e.class(), "corrupt");
    }

    #[test]
    fn every_class_is_distinct() {
        let classes = [
            ServeError::Io(io::Error::other("x")).class(),
            ServeError::corrupt("a", "b").class(),
            ServeError::proto("p").class(),
            ServeError::NotFound("n".into()).class(),
            ServeError::Busy.class(),
            ServeError::Codec(CodecError::round_trip("SAMC")).class(),
        ];
        let unique: std::collections::HashSet<_> = classes.iter().collect();
        assert_eq!(unique.len(), classes.len());
    }
}

//! Typed failures for the persistent store.

use core::fmt;

/// Why a record failed to decode from segment bytes.
///
/// During recovery these are not surfaced: the first bad record marks
/// the torn tail, which is truncated and reclaimed. They become
/// [`StoreError::Record`] only when a record the index vouched for goes
/// bad *after* open — disk corruption under a running store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordError {
    /// Fewer bytes than the record claims to span.
    Truncated {
        /// Bytes the record needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The record does not start with the record magic.
    BadMagic,
    /// A declared length exceeds its admission ceiling.
    Oversized {
        /// Which length field.
        what: &'static str,
        /// The declared length.
        len: usize,
        /// The ceiling it violated.
        max: usize,
    },
    /// The trailing checksum does not match the record bytes.
    BadChecksum,
    /// The stored key digest does not match the stored key bytes.
    KeyDigestMismatch,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { needed, have } => {
                write!(f, "record truncated: needs {needed} bytes, {have} available")
            }
            RecordError::BadMagic => write!(f, "bad record magic"),
            RecordError::Oversized { what, len, max } => {
                write!(f, "declared {what} length {len} exceeds the {max}-byte ceiling")
            }
            RecordError::BadChecksum => write!(f, "record checksum mismatch"),
            RecordError::KeyDigestMismatch => write!(f, "stored key digest does not match the key"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Errors raised by the store.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted, e.g. `"append record"`.
        op: &'static str,
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// A record the index vouched for failed to decode — the segment
    /// changed underneath a running store.
    Record(RecordError),
    /// A key or payload offered to [`crate::Store::put`] exceeds its
    /// admission ceiling; nothing was written.
    Oversized {
        /// Which input.
        what: &'static str,
        /// Its length.
        len: usize,
        /// The ceiling it violated.
        max: usize,
    },
    /// A segment id, record offset or record length does not fit the
    /// index's 32-bit fields: the store has rotated through every
    /// segment id, or a segment on disk is larger than this store
    /// writes.
    IndexOverflow {
        /// Which quantity.
        what: &'static str,
        /// Its value.
        value: u64,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &std::path::Path, e: &std::io::Error) -> Self {
        StoreError::Io { op, path: path.display().to_string(), message: e.to_string() }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "store i/o failure during {op} on {path}: {message}")
            }
            StoreError::Record(e) => write!(f, "store record error: {e}"),
            StoreError::Oversized { what, len, max } => {
                write!(f, "{what} of {len} bytes exceeds the {max}-byte store ceiling")
            }
            StoreError::IndexOverflow { what, value } => {
                write!(f, "{what} {value} does not fit the store index's 32 bits")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Record(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RecordError> for StoreError {
    fn from(e: RecordError) -> Self {
        StoreError::Record(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_sources() {
        let e = RecordError::Truncated { needed: 28, have: 3 };
        assert!(e.to_string().contains("28"));
        let e = StoreError::from(RecordError::BadChecksum);
        assert!(e.to_string().contains("checksum"));
        assert!(e.source().is_some());
        let e = StoreError::Oversized { what: "payload", len: 2 << 20, max: 1 << 20 };
        assert!(e.to_string().contains("payload"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<StoreError>();
        assert_traits::<RecordError>();
    }
}

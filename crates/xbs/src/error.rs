//! Error type shared by all XBS readers and parsers.

use std::fmt;

/// Errors produced while decoding an XBS byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XbsError {
    /// The reader ran past the end of the buffer.
    ///
    /// Carries the offset at which the read was attempted and the number of
    /// bytes that were needed.
    UnexpectedEof { offset: usize, needed: usize },
    /// A variable-length size integer used more bytes than the 64-bit
    /// maximum allows (protection against malformed or malicious input).
    VlsTooLong { offset: usize },
    /// A variable-length size integer was not minimally encoded.
    ///
    /// Canonical VLS encoding is required so that re-encoding a decoded
    /// document is byte-identical (needed for transcodability tests).
    VlsNotCanonical { offset: usize },
    /// A declared length (array count, string length, frame size) exceeds
    /// the remaining input.
    LengthOverrun {
        offset: usize,
        declared: u64,
        available: usize,
    },
    /// An unknown type code was encountered.
    BadTypeCode { offset: usize, code: u8 },
    /// Alignment padding bytes were non-zero.
    ///
    /// XBS mandates zero padding; anything else indicates a desynchronized
    /// or corrupt stream.
    BadPadding { offset: usize },
    /// A read or seek at `offset` reaches into a run of the stream held
    /// outside the reader's buffer (see [`crate::reader::Gap`]): bytes
    /// placed elsewhere, or not yet received.
    Gap { offset: usize },
}

impl fmt::Display for XbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbsError::UnexpectedEof { offset, needed } => {
                write!(f, "unexpected end of input at offset {offset}: {needed} more byte(s) required")
            }
            XbsError::VlsTooLong { offset } => {
                write!(f, "variable-length size integer at offset {offset} exceeds 64 bits")
            }
            XbsError::VlsNotCanonical { offset } => {
                write!(f, "variable-length size integer at offset {offset} is not minimally encoded")
            }
            XbsError::LengthOverrun {
                offset,
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} at offset {offset} exceeds the {available} byte(s) remaining"
            ),
            XbsError::BadTypeCode { offset, code } => {
                write!(f, "unknown type code {code:#04x} at offset {offset}")
            }
            XbsError::BadPadding { offset } => {
                write!(f, "non-zero alignment padding at offset {offset}")
            }
            XbsError::Gap { offset } => {
                write!(f, "read at offset {offset} reaches into bytes held out of line")
            }
        }
    }
}

impl std::error::Error for XbsError {}

/// Convenient result alias used throughout the crate.
pub type XbsResult<T> = Result<T, XbsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = XbsError::UnexpectedEof {
            offset: 12,
            needed: 4,
        };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains('4'), "{s}");

        let e = XbsError::LengthOverrun {
            offset: 3,
            declared: 100,
            available: 7,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains('7'), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XbsError>();
    }
}

//! The typed error of the trace subsystem.
//!
//! Every failure mode of the `.sbt` codec — I/O, malformed headers,
//! truncation, corruption — surfaces as a [`TraceError`]; the reader never
//! panics on hostile input (locked by the proptest suite in `format.rs`).

use std::fmt;

/// Anything that can go wrong while reading, writing or composing traces.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `.sbt` magic.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u64),
    /// The stream ended in the middle of a header, chunk or record.
    Truncated {
        /// What was being decoded when the stream ended.
        context: &'static str,
    },
    /// The stream is structurally invalid (bad varint, unknown op byte,
    /// thread index out of range, …).
    Corrupt(&'static str),
    /// Two composed traces (or a trace and a simulation) disagree on the
    /// number of thread streams.
    ThreadMismatch {
        /// The thread count the consumer expected.
        expected: u32,
        /// The thread count the trace declares.
        got: u32,
    },
    /// A caller asked for a thread stream the source does not have.
    ThreadOutOfRange {
        /// Streams the source provides.
        threads: u32,
        /// The stream index that was requested.
        requested: u32,
    },
    /// The requested operation is not supported by this source (e.g. looping
    /// a non-rewindable stream).
    Unsupported(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not an .sbt trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported .sbt format version {v}")
            }
            TraceError::Truncated { context } => {
                write!(f, "truncated trace: {context}")
            }
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::ThreadMismatch { expected, got } => {
                write!(f, "trace has {got} thread stream(s), expected {expected}")
            }
            TraceError::ThreadOutOfRange { threads, requested } => {
                write!(
                    f,
                    "thread {requested} requested, but the source has only \
                     {threads} stream(s)"
                )
            }
            TraceError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let cases: Vec<(TraceError, &str)> = vec![
            (TraceError::BadMagic, "magic"),
            (TraceError::UnsupportedVersion(9), "version 9"),
            (TraceError::Truncated { context: "header" }, "header"),
            (TraceError::Corrupt("bad op"), "bad op"),
            (
                TraceError::ThreadMismatch {
                    expected: 4,
                    got: 2,
                },
                "2 thread",
            ),
            (
                TraceError::ThreadOutOfRange {
                    threads: 2,
                    requested: 5,
                },
                "thread 5",
            ),
            (TraceError::Unsupported("loop"), "loop"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
        let io = TraceError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&TraceError::BadMagic).is_none());
    }
}

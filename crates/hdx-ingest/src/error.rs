//! The ingestion error type.

use std::path::{Path, PathBuf};

use hdx_checkpoint::CheckpointError;

/// Why an ingestion operation failed.
///
/// Corruption found *at rest* (torn tails, bad checksums) is deliberately
/// **not** an error: recovery quarantines it into an
/// [`crate::IngestReport`] and keeps going. This type covers the failures
/// the caller must act on — the filesystem refusing a write, or a payload
/// that cannot be decoded at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// A decoded structure (cursor, frame header) is malformed beyond what
    /// quarantine can absorb.
    Corrupt {
        /// What was malformed.
        message: String,
    },
}

impl IngestError {
    /// Builds an [`IngestError::Io`] from a path and a `std::io::Error`.
    pub fn io(path: &Path, err: &std::io::Error) -> Self {
        IngestError::Io {
            path: path.to_path_buf(),
            message: err.to_string(),
        }
    }
}

/// A durable-write or scan failure from the shared `hdx_checkpoint`
/// routines: I/O keeps its path and message, anything else is corruption.
impl From<CheckpointError> for IngestError {
    fn from(err: CheckpointError) -> Self {
        match err {
            CheckpointError::Io { path, message } => IngestError::Io { path, message },
            other => IngestError::Corrupt {
                message: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { path, message } => {
                write!(f, "ingest I/O error at `{}`: {message}", path.display())
            }
            IngestError::Corrupt { message } => write!(f, "ingest state corrupt: {message}"),
        }
    }
}

impl std::error::Error for IngestError {}

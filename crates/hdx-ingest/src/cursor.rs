//! The ingest cursor: how far the fold has progressed, sealed to disk.

use std::path::Path;

use hdx_checkpoint::scan::{read_sealed, write_sealed};

use crate::error::IngestError;

/// File name of the sealed cursor inside a job directory.
pub const CURSOR_FILE: &str = "ingest.hdx";

/// Codec version of [`IngestCursor::encode`].
const CURSOR_VERSION: u32 = 1;
/// Encoded size: version + 3 × u64.
const CURSOR_LEN: usize = 4 + 3 * 8;

/// Where the fold stands relative to the WAL.
///
/// Written (sealed, temp-file → fsync → rename) only *after* a mining
/// result over `base ⧺ WAL[..rows_folded]` has itself been made durable.
/// Recovery compares [`IngestCursor::rows_folded`] against the WAL's
/// durable row count: a shortfall means rows arrived (or a crash landed)
/// after the last fold, so the job is simply re-queued for re-mining — the
/// mining pass is a pure function of the concatenated data, making replay
/// idempotent no matter where the crash fell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCursor {
    /// WAL rows folded into the last durable mining result.
    pub rows_folded: u64,
    /// Lifetime count of quarantined frames (carried across recoveries).
    pub quarantined_frames: u64,
    /// Lifetime count of quarantined bytes.
    pub quarantined_bytes: u64,
}

impl IngestCursor {
    /// Encodes the cursor (little-endian, versioned).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CURSOR_LEN);
        out.extend_from_slice(&CURSOR_VERSION.to_le_bytes());
        out.extend_from_slice(&self.rows_folded.to_le_bytes());
        out.extend_from_slice(&self.quarantined_frames.to_le_bytes());
        out.extend_from_slice(&self.quarantined_bytes.to_le_bytes());
        out
    }

    /// Decodes an [`IngestCursor::encode`] payload.
    ///
    /// # Errors
    /// [`IngestError::Corrupt`] on a wrong length or unknown version.
    pub fn decode(bytes: &[u8]) -> Result<Self, IngestError> {
        if bytes.len() != CURSOR_LEN {
            return Err(IngestError::Corrupt {
                message: format!(
                    "cursor payload is {} bytes, expected {CURSOR_LEN}",
                    bytes.len()
                ),
            });
        }
        let word = |i: usize| -> u64 {
            bytes
                .get(4 + i * 8..4 + (i + 1) * 8)
                .and_then(|w| w.try_into().ok())
                .map_or(0, u64::from_le_bytes)
        };
        let version = bytes
            .get(..4)
            .and_then(|w| w.try_into().ok())
            .map_or(0, u32::from_le_bytes);
        if version != CURSOR_VERSION {
            return Err(IngestError::Corrupt {
                message: format!("cursor version {version} is not {CURSOR_VERSION}"),
            });
        }
        Ok(Self {
            rows_folded: word(0),
            quarantined_frames: word(1),
            quarantined_bytes: word(2),
        })
    }

    /// Seals the cursor to `path` through
    /// [`hdx_checkpoint::durable::write_atomic`] (temp file → fsync →
    /// rename → directory fsync).
    ///
    /// # Errors
    /// [`IngestError::Io`] when the write fails; the previous cursor file,
    /// if any, is left intact in that case.
    pub fn save(&self, path: &Path) -> Result<(), IngestError> {
        Ok(write_sealed(path, &self.encode())?)
    }

    /// Loads a sealed cursor. `Ok(None)` when the file does not exist — a
    /// job that has never folded. A *corrupt* cursor also maps to
    /// `Ok(None)`: the cursor is pure scheduling metadata (it only decides
    /// whether a re-mine is needed), so losing it degrades to one
    /// redundant re-mine, never to wrong results.
    ///
    /// # Errors
    /// [`IngestError::Io`] when the file exists but cannot be read.
    pub fn load(path: &Path) -> Result<Option<Self>, IngestError> {
        if !path.exists() {
            return Ok(None);
        }
        match read_sealed(path) {
            Ok(payload) => match Self::decode(&payload) {
                Ok(cursor) => Ok(Some(cursor)),
                Err(_) => Ok(None),
            },
            Err(e) if e.is_corruption() => Ok(None),
            Err(e) => Err(IngestError::Io {
                path: path.to_path_buf(),
                message: e.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let c = IngestCursor {
            rows_folded: 12345,
            quarantined_frames: 7,
            quarantined_bytes: 4096,
        };
        assert_eq!(IngestCursor::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn decode_rejects_bad_length_and_version() {
        assert!(IngestCursor::decode(&[0u8; 5]).is_err());
        let mut bytes = IngestCursor::default().encode();
        bytes[0] = 99;
        assert!(IngestCursor::decode(&bytes).is_err());
    }

    #[test]
    fn save_load_round_trip_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("hdx-cursor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CURSOR_FILE);
        assert_eq!(IngestCursor::load(&path).unwrap(), None);
        let c = IngestCursor {
            rows_folded: 42,
            quarantined_frames: 1,
            quarantined_bytes: 6,
        };
        c.save(&path).unwrap();
        assert_eq!(IngestCursor::load(&path).unwrap(), Some(c));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cursor_degrades_to_none() {
        let dir = std::env::temp_dir().join(format!("hdx-cursor-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CURSOR_FILE);
        let c = IngestCursor {
            rows_folded: 9,
            ..Default::default()
        };
        c.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            IngestCursor::load(&path).unwrap(),
            None,
            "corrupt → redo, not error"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

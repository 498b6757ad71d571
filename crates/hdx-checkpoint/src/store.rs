//! The on-disk checkpoint store: sequence-numbered files, atomic writes,
//! newest-valid-wins loading, and bounded retention.
//!
//! Each checkpoint is sealed and written to `ckpt-<seq>.hdx` by
//! [`durable::write_atomic`] (temp file → fsync → rename → directory
//! fsync). A crash at any point leaves either the previous checkpoint
//! intact or a stray `ckpt-<seq>.hdx.tmp` that the scan ignores and the
//! next write of that sequence overwrites. The loader scans sequence
//! numbers descending and returns the first file that passes the envelope's
//! magic + length + CRC checks, so a torn or bit-rotted newest file falls
//! back to its predecessor instead of resurrecting corrupt state.

use std::fs;
use std::path::{Path, PathBuf};

use hdx_governor::fail_point;

use crate::durable;
use crate::envelope;
use crate::error::CheckpointError;
use crate::state::CheckpointState;

/// File-name prefix of a sealed checkpoint.
const FILE_PREFIX: &str = "ckpt-";
/// Valid checkpoints retained after a successful write (newest first).
const KEEP: usize = 3;

/// What [`CheckpointStore::load_latest`] found while scanning.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedCheckpoint {
    /// The decoded state.
    pub state: CheckpointState,
    /// Sequence number of the file it came from.
    pub seq: u64,
    /// Newer files that were rejected as corrupt/truncated before this one
    /// loaded (0 means the newest file was healthy).
    pub rejected: u64,
}

/// A directory of sequence-numbered, sealed checkpoint files.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the directory cannot be created.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::io(&dir, &e))?;
        Ok(Self { dir })
    }

    /// Opens an existing checkpoint directory.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the directory does not exist.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(CheckpointError::Io {
                path: dir,
                message: "checkpoint directory does not exist".to_string(),
            });
        }
        Ok(Self { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence numbers of all checkpoint-named files, ascending (the files
    /// are not validated — corrupt ones are only detected on load).
    pub fn sequences(&self) -> Result<Vec<u64>, CheckpointError> {
        durable::list_seqs(&self.dir, FILE_PREFIX)
    }

    /// Path of the checkpoint file with sequence number `seq`.
    pub fn path_of(&self, seq: u64) -> PathBuf {
        durable::seq_path(&self.dir, FILE_PREFIX, seq)
    }

    /// Atomically writes `state` as the next checkpoint and prunes old ones.
    /// Returns the new sequence number.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] on any filesystem failure; the previous
    /// checkpoint is untouched in that case.
    pub fn write(&self, state: &CheckpointState) -> Result<u64, CheckpointError> {
        hdx_obs::span!("checkpoint_write");
        // Faults checkpoint writes alone; `durable::write` faults them
        // together with every other sealed file.
        fail_point!("checkpoint::write", |message: String| CheckpointError::Io {
            path: self.dir.clone(),
            message,
        });
        let seq = self.sequences()?.last().map_or(0, |s| s + 1);
        let sealed = envelope::seal(&state.encode());
        durable::write_atomic(&self.path_of(seq), &sealed)?;
        hdx_obs::counter_add!(CheckpointWrites, 1);
        hdx_obs::counter_add!(CheckpointWriteBytes, sealed.len() as u64);
        self.prune(seq);
        Ok(seq)
    }

    /// Loads the newest checkpoint that passes validation, skipping (and
    /// counting) corrupt or truncated files.
    ///
    /// # Errors
    /// [`CheckpointError::NoValidCheckpoint`] when nothing loads;
    /// [`CheckpointError::Io`] when the directory cannot be scanned.
    pub fn load_latest(&self) -> Result<LoadedCheckpoint, CheckpointError> {
        hdx_obs::span!("checkpoint_load");
        let mut seqs = self.sequences()?;
        seqs.reverse();
        let mut rejected = 0u64;
        for seq in seqs {
            match self.load_seq(seq) {
                Ok(state) => {
                    hdx_obs::counter_add!(CheckpointLoads, 1);
                    return Ok(LoadedCheckpoint {
                        state,
                        seq,
                        rejected,
                    });
                }
                Err(err) if err.is_corruption() => {
                    hdx_obs::counter_add!(CheckpointLoadsRejected, 1);
                    rejected += 1;
                }
                Err(err) => return Err(err),
            }
        }
        Err(CheckpointError::NoValidCheckpoint {
            dir: self.dir.clone(),
            rejected,
        })
    }

    /// Loads and validates one specific checkpoint file.
    ///
    /// # Errors
    /// I/O errors, or any envelope/payload corruption error.
    pub fn load_seq(&self, seq: u64) -> Result<CheckpointState, CheckpointError> {
        let path = self.path_of(seq);
        let bytes = fs::read(&path).map_err(|e| CheckpointError::io(&path, &e))?;
        let payload = envelope::open(&bytes)?;
        CheckpointState::decode(&payload)
    }

    /// Removes checkpoints older than the `KEEP` newest (best-effort; a
    /// failed unlink never fails the write that triggered it).
    fn prune(&self, newest: u64) {
        let Ok(seqs) = self.sequences() else { return };
        for seq in seqs {
            if seq + KEEP as u64 <= newest {
                let _ = fs::remove_file(self.path_of(seq));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CounterSnapshot, MiningProgress};

    fn state(cursor: u64) -> CheckpointState {
        CheckpointState {
            dataset_fingerprint: 0xABCD,
            config_fingerprint: 0x1234,
            trees: vec![],
            progress: MiningProgress {
                cursor,
                n_rows: 10,
                emitted: vec![],
                counters: CounterSnapshot::default(),
            },
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdx-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_load_round_trip_and_sequencing() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.write(&state(1)).unwrap(), 0);
        assert_eq!(store.write(&state(2)).unwrap(), 1);
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.rejected, 0);
        assert_eq!(loaded.state.progress.cursor, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_valid() {
        let dir = tmp_dir("fallback");
        let store = CheckpointStore::create(&dir).unwrap();
        store.write(&state(1)).unwrap();
        let newest = store.write(&state(2)).unwrap();
        // Flip one byte in the middle of the newest file.
        let path = store.path_of(newest);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.seq, 0, "fell back to the older checkpoint");
        assert_eq!(loaded.rejected, 1);
        assert_eq!(loaded.state.progress.cursor, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_newest_falls_back_too() {
        let dir = tmp_dir("truncated");
        let store = CheckpointStore::create(&dir).unwrap();
        store.write(&state(1)).unwrap();
        let newest = store.write(&state(2)).unwrap();
        let path = store.path_of(newest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 1);
        assert_eq!(loaded.rejected, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_a_typed_error() {
        let dir = tmp_dir("allcorrupt");
        let store = CheckpointStore::create(&dir).unwrap();
        store.write(&state(1)).unwrap();
        let path = store.path_of(0);
        fs::write(&path, b"not a checkpoint at all").unwrap();
        match store.load_latest() {
            Err(CheckpointError::NoValidCheckpoint { rejected, .. }) => {
                assert_eq!(rejected, 1);
            }
            other => panic!("expected NoValidCheckpoint, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_is_no_valid_checkpoint() {
        let dir = tmp_dir("empty");
        let store = CheckpointStore::create(&dir).unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(CheckpointError::NoValidCheckpoint { rejected: 0, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest_three() {
        let dir = tmp_dir("retention");
        let store = CheckpointStore::create(&dir).unwrap();
        for i in 0..6 {
            store.write(&state(i)).unwrap();
        }
        assert_eq!(store.sequences().unwrap(), vec![3, 4, 5]);
        // Stray temp files from a crash mid-write are ignored by the scan.
        fs::write(durable::tmp_path(&store.path_of(6)), b"torn write").unwrap();
        assert_eq!(store.sequences().unwrap(), vec![3, 4, 5]);
        assert_eq!(store.load_latest().unwrap().state.progress.cursor, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_requires_existing_directory() {
        let dir = tmp_dir("missing");
        assert!(CheckpointStore::open(&dir).is_err());
        let _ = CheckpointStore::create(&dir).unwrap();
        assert!(CheckpointStore::open(&dir).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}

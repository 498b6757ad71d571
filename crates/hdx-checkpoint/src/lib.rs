//! Crash-safe checkpoint/resume for mining runs (`hdx_core::checkpoint`).
//!
//! Long mining jobs lose everything to a crash, OOM-kill, or preemption.
//! This crate persists the run's state — emitted itemsets with their exact
//! outcome accumulators, the miner's traversal cursor, the discretization
//! trees, governor counters, and dataset/config fingerprints — at *work
//! boundaries* (DFS root-subtree ends), so a killed run restarts from its
//! last boundary instead of from zero.
//!
//! Durability model (see DESIGN.md §12):
//!
//! * every file is a [`envelope`] (`hdx-ckpt/v1`): magic + length + CRC-32
//!   over a hand-rolled little-endian payload ([`codec`]);
//! * writes are atomic: temp file → fsync → rename → directory fsync
//!   ([`store`]); a crash never damages the previous checkpoint;
//! * loads fall back: the newest file failing magic/length/CRC is skipped
//!   (and counted) and the next-newest valid one wins;
//! * resume verifies [`fingerprint`]s of the dataset, the configuration and
//!   the re-derived discretization trees before trusting any state.
//!
//! Checkpoint *failures are non-fatal* by design: a run that cannot write
//! its checkpoint keeps mining (durability degrades, results don't), with
//! the failure recorded on the [`Checkpointer`] and surfaced once at the
//! end. The mining hot path never blocks on a checkpoint decision either:
//! [`Checkpointer::at_boundary`] costs a counter bump unless a write is due.

/// Length-prefixed little-endian binary codec for checkpoint payloads.
pub mod codec;
/// CRC-32 (IEEE) checksums guarding the envelope.
pub mod crc;
/// The sealed on-disk container: magic, length, CRC, payload.
pub mod envelope;
mod error;
/// Order-insensitive 64-bit fingerprints for run-identity checks.
pub mod fingerprint;
/// Run-directory scanning: sealed manifests, completion markers, orphan scan.
pub mod scan;
mod state;
mod store;

pub use error::CheckpointError;
pub use fingerprint::Fingerprint;
pub use scan::{
    list_manifests, read_sealed, write_sealed, ManifestListing, RunManifest, COMPLETE_FILE,
    MANIFEST_FILE,
};
pub use state::{
    fingerprint_trees, AccumSnapshot, CheckpointState, CounterSnapshot, ItemsetSnapshot,
    MiningProgress, TreeNodeSnapshot, TreeSnapshot,
};
pub use store::{CheckpointStore, LoadedCheckpoint};

/// Write policy + identity for one run's checkpoints: owns the store, the
/// static half of the state (fingerprints + trees), and the "every N
/// boundaries" cadence.
///
/// Miners call [`at_boundary`](Self::at_boundary) after each completed work
/// unit; the checkpointer stashes the progress and writes it through when
/// due. [`finalize`](Self::finalize) flushes the last stashed progress (the
/// governor-trip path: deadline hit ⇒ final checkpoint before exit-3).
#[derive(Debug)]
pub struct Checkpointer {
    store: CheckpointStore,
    every: u64,
    boundaries: u64,
    last_written_boundary: Option<u64>,
    pending: Option<MiningProgress>,
    dataset_fingerprint: u64,
    config_fingerprint: u64,
    trees: Vec<TreeSnapshot>,
    writes: u64,
    last_error: Option<CheckpointError>,
}

impl Checkpointer {
    /// A checkpointer writing every `every`-th boundary (0 is treated as 1)
    /// into `store`, stamping each state with the run's identity.
    pub fn new(
        store: CheckpointStore,
        every: u64,
        dataset_fingerprint: u64,
        config_fingerprint: u64,
        trees: Vec<TreeSnapshot>,
    ) -> Self {
        Self {
            store,
            every: every.max(1),
            boundaries: 0,
            last_written_boundary: None,
            pending: None,
            dataset_fingerprint,
            config_fingerprint,
            trees,
            writes: 0,
            last_error: None,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Stashes `progress` as the state to persist if the run stops before
    /// any boundary is recorded — so a run interrupted inside its very
    /// first work unit still leaves a resumable (zero-progress) checkpoint
    /// behind instead of an empty directory. No-op once a boundary has been
    /// recorded or a seed is already stashed.
    pub fn seed(&mut self, progress: MiningProgress) {
        if self.pending.is_none() && self.boundaries == 0 {
            self.pending = Some(progress);
        }
    }

    /// Records a completed work boundary. Writes a checkpoint when the
    /// cadence says so, otherwise stashes `progress` for a later
    /// [`finalize`](Self::finalize). Never fails: write errors are recorded
    /// on [`last_error`](Self::last_error) and the run continues.
    pub fn at_boundary(&mut self, progress: MiningProgress) {
        self.boundaries += 1;
        self.pending = Some(progress);
        if self.boundaries.is_multiple_of(self.every) {
            self.flush_pending();
        }
    }

    /// Writes the last stashed progress if it is newer than the last durable
    /// checkpoint. Call on normal completion and on governor trip alike.
    pub fn finalize(&mut self) {
        if self.last_written_boundary != Some(self.boundaries) {
            self.flush_pending();
        }
    }

    fn flush_pending(&mut self) {
        let Some(progress) = self.pending.clone() else {
            return;
        };
        let state = CheckpointState {
            dataset_fingerprint: self.dataset_fingerprint,
            config_fingerprint: self.config_fingerprint,
            trees: self.trees.clone(),
            progress,
        };
        match self.store.write(&state) {
            Ok(_) => {
                self.writes += 1;
                self.last_written_boundary = Some(self.boundaries);
            }
            Err(err) => {
                hdx_obs::counter_add!(CheckpointWritesFailed, 1);
                self.last_error = Some(err);
            }
        }
    }

    /// Checkpoints written successfully so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The most recent write failure, if any (checkpointing is non-fatal;
    /// callers surface this once, at the end of the run).
    pub fn last_error(&self) -> Option<&CheckpointError> {
        self.last_error.as_ref()
    }

    /// The dataset fingerprint this run was started with.
    pub fn dataset_fingerprint(&self) -> u64 {
        self.dataset_fingerprint
    }

    /// The config fingerprint this run was started with.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }
}

/// Verifies a loaded checkpoint against resume-time identities.
///
/// # Errors
/// [`CheckpointError::FingerprintMismatch`] naming the first field that
/// disagrees (`dataset`, `config`, then `trees`).
pub fn verify_identity(
    state: &CheckpointState,
    dataset_fingerprint: u64,
    config_fingerprint: u64,
    recomputed_trees: &[TreeSnapshot],
) -> Result<(), CheckpointError> {
    if state.dataset_fingerprint != dataset_fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            field: "dataset",
            expected: state.dataset_fingerprint,
            found: dataset_fingerprint,
        });
    }
    if state.config_fingerprint != config_fingerprint {
        return Err(CheckpointError::FingerprintMismatch {
            field: "config",
            expected: state.config_fingerprint,
            found: config_fingerprint,
        });
    }
    let expected = fingerprint_trees(&state.trees);
    let found = fingerprint_trees(recomputed_trees);
    if expected != found {
        return Err(CheckpointError::FingerprintMismatch {
            field: "trees",
            expected,
            found,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn progress(cursor: u64) -> MiningProgress {
        MiningProgress {
            cursor,
            n_rows: 5,
            emitted: vec![],
            counters: CounterSnapshot::default(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdx-ckptr-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cadence_writes_every_nth_boundary_and_finalize_flushes() {
        let dir = tmp_dir("cadence");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 3, 1, 2, vec![]);
        ck.at_boundary(progress(1));
        ck.at_boundary(progress(2));
        assert_eq!(ck.writes(), 0, "not due yet");
        ck.at_boundary(progress(3));
        assert_eq!(ck.writes(), 1);
        ck.at_boundary(progress(4));
        ck.finalize();
        assert_eq!(ck.writes(), 2, "finalize flushed the stashed boundary");
        ck.finalize();
        assert_eq!(ck.writes(), 2, "idempotent when nothing is newer");

        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 4);
        assert_eq!(loaded.state.dataset_fingerprint, 1);
        assert_eq!(loaded.state.config_fingerprint, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_is_flushed_only_when_no_boundary_landed() {
        // Interrupted before the first boundary: finalize writes the seed.
        let dir = tmp_dir("seed-flushed");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 1, 2, vec![]);
        ck.seed(progress(0));
        ck.finalize();
        assert_eq!(ck.writes(), 1, "seed persisted");
        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 0);
        let _ = fs::remove_dir_all(&dir);

        // A recorded boundary supersedes the seed.
        let dir = tmp_dir("seed-superseded");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 1, 2, vec![]);
        ck.seed(progress(0));
        ck.at_boundary(progress(1));
        ck.finalize();
        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 1, "boundary wins over seed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_zero_is_clamped_to_one() {
        let dir = tmp_dir("clamp");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 0, 0, 0, vec![]);
        ck.at_boundary(progress(1));
        assert_eq!(ck.writes(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_verification_names_the_mismatching_field() {
        let state = CheckpointState {
            dataset_fingerprint: 10,
            config_fingerprint: 20,
            trees: vec![],
            progress: progress(0),
        };
        assert!(verify_identity(&state, 10, 20, &[]).is_ok());
        match verify_identity(&state, 11, 20, &[]) {
            Err(CheckpointError::FingerprintMismatch { field, .. }) => {
                assert_eq!(field, "dataset");
            }
            other => panic!("expected dataset mismatch, got {other:?}"),
        }
        match verify_identity(&state, 10, 21, &[]) {
            Err(CheckpointError::FingerprintMismatch { field, .. }) => {
                assert_eq!(field, "config");
            }
            other => panic!("expected config mismatch, got {other:?}"),
        }
        let other_trees = vec![TreeSnapshot {
            attr: 0,
            nodes: vec![],
        }];
        match verify_identity(&state, 10, 20, &other_trees) {
            Err(CheckpointError::FingerprintMismatch { field, .. }) => {
                assert_eq!(field, "trees");
            }
            other => panic!("expected trees mismatch, got {other:?}"),
        }
    }

    #[test]
    fn write_failure_is_recorded_not_fatal() {
        let dir = tmp_dir("failsoft");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 0, 0, vec![]);
        // Remove the directory out from under the store: writes must fail
        // soft, leaving the error on the checkpointer.
        fs::remove_dir_all(&dir).unwrap();
        ck.at_boundary(progress(1));
        assert_eq!(ck.writes(), 0);
        assert!(ck.last_error().is_some());
    }
}

//! Crash-safe checkpoint/resume for mining runs (`hdx_core::checkpoint`).
//!
//! Long mining jobs lose everything to a crash, OOM-kill, or preemption.
//! This crate persists what a resume reads — the emitted itemsets with
//! their exact outcome accumulators, the miner's traversal cursor, the
//! governor counters, and three identity fingerprints (dataset,
//! configuration, discretization trees) — at *work boundaries* (DFS
//! root-subtree ends), so a killed run restarts from its last boundary
//! instead of from zero.
//!
//! Durability model (see DESIGN.md §12):
//!
//! * every file is a [`envelope`] (`hdx-ckpt/v1`): magic + length + CRC-32
//!   over a hand-rolled little-endian payload ([`codec`]);
//! * writes are atomic: temp file → fsync → rename → directory fsync
//!   ([`durable::write_atomic`], the one routine behind every sealed file
//!   in the workspace); a crash never damages the previous checkpoint;
//! * loads fall back: the newest file failing magic/length/CRC is skipped
//!   (and counted) and the next-newest valid one wins;
//! * resume regrows the discretization trees and checks the three
//!   [`fingerprint`]s ([`verify_identity`]) before trusting any state.
//!
//! Checkpoint *failures are non-fatal* by design: a run that cannot write
//! its checkpoint keeps mining (durability degrades, results don't), with
//! the failure recorded on the [`Checkpointer`] and surfaced once at the
//! end. Checkpoints are written only at boundaries
//! ([`Checkpointer::at_boundary`]), between subtrees, so the search inside
//! a subtree never waits on one.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Length-prefixed little-endian binary codec for checkpoint payloads.
pub mod codec;
/// CRC-32 (IEEE) checksums guarding the envelope.
pub mod crc;
/// The one durable-write routine and the shared file-name conventions.
pub mod durable;
/// The sealed on-disk container: magic, length, CRC, payload.
pub mod envelope;
mod error;
/// 64-bit content fingerprints for run-identity checks.
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
pub use state::{AccumSnapshot, CheckpointState, CounterSnapshot, ItemsetSnapshot, MiningProgress};
pub use store::{CheckpointStore, LoadedCheckpoint};

/// One fit's checkpoint writer: the store and the state the next write
/// persists.
///
/// A fit builds one checkpointer with its dataset and trees fingerprints,
/// and [`arm`](Self::arm)s it before each mining pass (each rung of the
/// adaptive-support ladder) with that pass's config fingerprint. Miners
/// call [`at_boundary`](Self::at_boundary) after each completed work unit
/// (a search root), and every call writes a checkpoint: a completed root is
/// the only state a resume continues exactly, so there is no other cadence.
/// [`finalize`](Self::finalize) writes what is still pending when the pass
/// stops (the governor-trip path: deadline hit ⇒ final checkpoint before
/// exit-3): a seed when no boundary was recorded, or a boundary whose
/// write failed.
#[derive(Debug)]
pub struct Checkpointer {
    store: CheckpointStore,
    /// The run's identity and the last stashed progress; a write encodes
    /// it in place.
    pending: CheckpointState,
    /// What `pending.progress` holds for the armed pass.
    stash: Stash,
    writes: u64,
    last_error: Option<CheckpointError>,
}

/// What a [`Checkpointer`]'s pending progress holds for the armed pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stash {
    /// Nothing since the last [`Checkpointer::arm`].
    Empty,
    /// A seed, or a boundary whose write failed: `finalize` writes it.
    Unwritten,
    /// The last boundary, already durable.
    Written,
}

impl Checkpointer {
    /// A checkpointer writing into `store`, stamping each state with the
    /// run's dataset and trees fingerprints. The config fingerprint is 0
    /// until [`arm`](Self::arm).
    pub fn new(store: CheckpointStore, dataset_fingerprint: u64, trees_fingerprint: u64) -> Self {
        Self {
            store,
            pending: CheckpointState {
                dataset_fingerprint,
                config_fingerprint: 0,
                trees_fingerprint,
                progress: MiningProgress::default(),
            },
            stash: Stash::Empty,
            writes: 0,
            last_error: None,
        }
    }

    /// Arms the checkpointer for one mining pass under `config_fingerprint`:
    /// the stash (seed or unwritten boundary) of the previous pass is
    /// dropped, and every later write carries the new fingerprint. The
    /// write count and the last error span the checkpointer's life.
    pub fn arm(&mut self, config_fingerprint: u64) {
        self.pending.config_fingerprint = config_fingerprint;
        self.pending.progress = MiningProgress::default();
        self.stash = Stash::Empty;
    }

    /// Stashes `progress` as the state to persist if the pass stops before
    /// any boundary is recorded — so a run interrupted inside its very
    /// first work unit still leaves a resumable (zero-progress) checkpoint
    /// behind instead of an empty directory. No-op once a boundary has been
    /// recorded or a seed is already stashed.
    pub fn seed(&mut self, progress: MiningProgress) {
        if self.stash == Stash::Empty {
            self.pending.progress = progress;
            self.stash = Stash::Unwritten;
        }
    }

    /// Records a completed work boundary and writes it. Never fails: a
    /// write error is recorded on [`last_error`](Self::last_error), the
    /// boundary stays pending for [`finalize`](Self::finalize), and the run
    /// continues.
    pub fn at_boundary(&mut self, progress: MiningProgress) {
        self.pending.progress = progress;
        self.write_pending();
    }

    /// Writes the stashed progress if it is not durable yet. Call on normal
    /// completion and on governor trip alike.
    pub fn finalize(&mut self) {
        if self.stash == Stash::Unwritten {
            self.write_pending();
        }
    }

    fn write_pending(&mut self) {
        match self.store.write(&self.pending) {
            Ok(_) => {
                self.writes += 1;
                self.stash = Stash::Written;
            }
            Err(err) => {
                hdx_obs::counter_add!(CheckpointWritesFailed, 1);
                self.last_error = Some(err);
                self.stash = Stash::Unwritten;
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
    trees_fingerprint: u64,
) -> Result<(), CheckpointError> {
    for (field, expected, found) in [
        ("dataset", state.dataset_fingerprint, dataset_fingerprint),
        ("config", state.config_fingerprint, config_fingerprint),
        ("trees", state.trees_fingerprint, trees_fingerprint),
    ] {
        if expected != found {
            return Err(CheckpointError::FingerprintMismatch {
                field,
                expected,
                found,
            });
        }
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
    fn every_boundary_writes_and_finalize_adds_nothing_after_it() {
        let dir = tmp_dir("every-boundary");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 3);
        ck.arm(2);
        for cursor in 1..=4 {
            ck.at_boundary(progress(cursor));
            assert_eq!(ck.writes(), cursor, "boundary {cursor} was written");
        }
        ck.finalize();
        assert_eq!(ck.writes(), 4, "the last boundary is already durable");

        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 4);
        assert_eq!(loaded.state.dataset_fingerprint, 1);
        assert_eq!(loaded.state.config_fingerprint, 2);
        assert_eq!(loaded.state.trees_fingerprint, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_is_flushed_only_when_no_boundary_landed() {
        // Interrupted before the first boundary: finalize writes the seed.
        let dir = tmp_dir("seed-flushed");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 2);
        ck.seed(progress(0));
        ck.finalize();
        assert_eq!(ck.writes(), 1, "seed persisted");
        ck.finalize();
        assert_eq!(ck.writes(), 1, "idempotent once the seed is durable");
        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 0);
        let _ = fs::remove_dir_all(&dir);

        // A recorded boundary supersedes the seed, and a later seed.
        let dir = tmp_dir("seed-superseded");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 2);
        ck.seed(progress(0));
        ck.at_boundary(progress(1));
        ck.seed(progress(9));
        ck.finalize();
        assert_eq!(ck.writes(), 1, "only the boundary was written");
        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 1, "boundary wins over seed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn arming_drops_the_previous_passs_seed() {
        let dir = tmp_dir("arm-seed");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 1, 3);
        ck.arm(5);
        ck.seed(progress(7));
        ck.arm(6);
        ck.finalize();
        assert_eq!(ck.writes(), 0, "nothing stashed since the last arm");
        // And the new pass takes a seed of its own.
        ck.seed(progress(8));
        ck.finalize();
        assert_eq!(ck.writes(), 1);
        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 8);
        assert_eq!(loaded.state.config_fingerprint, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn arming_stamps_the_new_config_fingerprint() {
        let dir = tmp_dir("arm-stamp");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store.clone(), 10, 30);
        ck.arm(20);
        ck.at_boundary(progress(1));
        let first = store.load_latest().unwrap().state;
        ck.arm(21);
        ck.at_boundary(progress(1));
        let second = store.load_latest().unwrap().state;
        assert_eq!(ck.writes(), 2);
        assert_eq!(first.config_fingerprint, 20);
        assert_eq!(second.config_fingerprint, 21);
        for state in [&first, &second] {
            assert_eq!(state.dataset_fingerprint, 10);
            assert_eq!(state.trees_fingerprint, 30);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_verification_names_the_mismatching_field() {
        let state = CheckpointState {
            dataset_fingerprint: 10,
            config_fingerprint: 20,
            trees_fingerprint: 30,
            progress: progress(0),
        };
        assert!(verify_identity(&state, 10, 20, 30).is_ok());
        for (found, field) in [
            ((11, 20, 30), "dataset"),
            ((10, 21, 30), "config"),
            ((10, 20, 31), "trees"),
            ((11, 21, 31), "dataset"),
            ((10, 21, 31), "config"),
        ] {
            match verify_identity(&state, found.0, found.1, found.2) {
                Err(CheckpointError::FingerprintMismatch { field: f, .. }) => {
                    assert_eq!(f, field, "{found:?}");
                }
                other => panic!("expected a {field} mismatch, got {other:?}"),
            }
        }
        match verify_identity(&state, 10, 20, 31) {
            Err(CheckpointError::FingerprintMismatch {
                expected, found, ..
            }) => assert_eq!((expected, found), (30, 31)),
            other => panic!("expected a trees mismatch, got {other:?}"),
        }
    }

    #[test]
    fn write_failure_is_recorded_not_fatal() {
        let dir = tmp_dir("failsoft");
        let store = CheckpointStore::create(&dir).unwrap();
        let mut ck = Checkpointer::new(store, 0, 0);
        // Remove the directory out from under the store: writes must fail
        // soft, leaving the error on the checkpointer.
        fs::remove_dir_all(&dir).unwrap();
        ck.at_boundary(progress(1));
        assert_eq!(ck.writes(), 0);
        assert!(ck.last_error().is_some());

        // Once the directory is back, finalize retries the boundary.
        fs::create_dir_all(&dir).unwrap();
        ck.finalize();
        assert_eq!(ck.writes(), 1, "the pending boundary was written");
        ck.finalize();
        assert_eq!(ck.writes(), 1);
        let loaded = CheckpointStore::open(&dir).unwrap().load_latest().unwrap();
        assert_eq!(loaded.state.progress.cursor, 1);

        // A failed write is also dropped by the next arm.
        fs::remove_dir_all(&dir).unwrap();
        ck.at_boundary(progress(2));
        fs::create_dir_all(&dir).unwrap();
        ck.arm(1);
        ck.finalize();
        assert_eq!(ck.writes(), 1, "the previous pass's boundary was dropped");
        let _ = fs::remove_dir_all(&dir);
    }
}

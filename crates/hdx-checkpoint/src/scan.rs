//! Run-directory scanning: sealed manifests, completion markers, and the
//! orphan scan behind `hdx serve`'s crash recovery and `hdx resume`.
//!
//! A *run directory* is one job's durable state: a sealed `manifest.hdx`
//! (opaque payload — the owner decides what identifies the run), the
//! sequence-numbered checkpoints of [`crate::CheckpointStore`], and — once
//! the run has finished — a sealed `done.hdx` completion marker whose
//! payload is the owner's final result. A directory with a manifest but no
//! valid completion marker is an *incomplete* run: the process that owned
//! it died, and its work should be resumed.
//!
//! [`list_manifests`] enumerates every run directory under a state
//! directory. It never fails on bad entries: a corrupt manifest or
//! completion marker is quarantined (renamed aside with a `.corrupt`
//! suffix) and reported as a warning. It reads no checkpoint: resume
//! itself picks the newest valid one.

use std::fs;
use std::path::{Path, PathBuf};

use crate::durable;
use crate::envelope;
use crate::error::CheckpointError;

pub use crate::durable::QUARANTINE_SUFFIX;

/// File name of the sealed run manifest inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.hdx";
/// File name of the sealed completion marker inside a run directory.
pub const COMPLETE_FILE: &str = "done.hdx";

/// Atomically writes `payload` sealed in an [`envelope`] at `path`, through
/// [`durable::write_atomic`]. A crash leaves either the old file or the new
/// one, never a torn mix.
///
/// # Errors
/// [`CheckpointError::Io`] on any filesystem failure.
pub fn write_sealed(path: &Path, payload: &[u8]) -> Result<(), CheckpointError> {
    durable::write_atomic(path, &envelope::seal(payload))
}

/// Reads and verifies a sealed file written by [`write_sealed`], returning
/// its payload.
///
/// # Errors
/// [`CheckpointError::Io`] when the file cannot be read; the envelope's
/// corruption errors when it fails magic/length/CRC validation.
pub fn read_sealed(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| CheckpointError::io(path, &e))?;
    envelope::open(&bytes)
}

/// One run directory found by [`list_manifests`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The run directory itself.
    pub dir: PathBuf,
    /// The verified payload of its sealed `manifest.hdx`.
    pub manifest: Vec<u8>,
    /// The verified payload of its sealed `done.hdx`, when the run
    /// completed. `None` flags an incomplete (orphaned) run.
    pub completion: Option<Vec<u8>>,
}

/// What [`list_manifests`] found: the healthy runs plus one warning line
/// per quarantined entry. Corrupt state never fails the scan — a service
/// restarting after a crash must come up with whatever survived.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestListing {
    /// Every run directory with a valid sealed manifest, sorted by path.
    pub runs: Vec<RunManifest>,
    /// One human-readable line per corrupt entry that was quarantined.
    pub warnings: Vec<String>,
}

/// Enumerates the run directories under `dir` (one level deep): every
/// subdirectory holding a sealed [`MANIFEST_FILE`] becomes a
/// [`RunManifest`], flagged incomplete when no valid [`COMPLETE_FILE`] is
/// present.
///
/// Corrupt manifests and completion markers are *quarantined, not fatal*:
/// the file is renamed aside (`<name>.corrupt`) so it cannot shadow a
/// later rewrite, a warning is recorded, and — for a corrupt completion
/// marker — the run is treated as incomplete, which is safe because
/// resuming a finished run re-derives the same bytes. A missing or empty
/// `dir` yields an empty listing.
///
/// # Errors
/// [`CheckpointError::Io`] only when `dir` exists but cannot be scanned at
/// all; per-entry problems become warnings instead.
pub fn list_manifests(dir: &Path) -> Result<ManifestListing, CheckpointError> {
    let mut listing = ManifestListing::default();
    if !dir.is_dir() {
        return Ok(listing);
    }
    let entries = fs::read_dir(dir).map_err(|e| CheckpointError::io(dir, &e))?;
    let mut run_dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::io(dir, &e))?;
        let path = entry.path();
        if path.is_dir() && path.join(MANIFEST_FILE).is_file() {
            run_dirs.push(path);
        }
    }
    run_dirs.sort();
    for run_dir in run_dirs {
        let manifest_path = run_dir.join(MANIFEST_FILE);
        let manifest = match read_sealed(&manifest_path) {
            Ok(payload) => payload,
            Err(err) => {
                listing.warnings.push(quarantine(&manifest_path, &err));
                continue;
            }
        };
        let complete_path = run_dir.join(COMPLETE_FILE);
        let completion = if complete_path.is_file() {
            match read_sealed(&complete_path) {
                Ok(payload) => Some(payload),
                Err(err) => {
                    listing.warnings.push(quarantine(&complete_path, &err));
                    None
                }
            }
        } else {
            None
        };
        listing.runs.push(RunManifest {
            dir: run_dir,
            manifest,
            completion,
        });
    }
    Ok(listing)
}

/// Renames a corrupt sealed file aside (best-effort) and renders the
/// warning line reported for it.
fn quarantine(path: &Path, err: &CheckpointError) -> String {
    let moved = durable::quarantine(path);
    format!(
        "quarantined corrupt `{}`{}: {err}",
        path.display(),
        if moved {
            format!(" (moved to `{}.{QUARANTINE_SUFFIX}`)", path.display())
        } else {
            String::new()
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CheckpointState, CounterSnapshot, MiningProgress};
    use crate::store::CheckpointStore;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdx-scan-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn state(cursor: u64) -> CheckpointState {
        CheckpointState {
            dataset_fingerprint: 1,
            config_fingerprint: 2,
            trees_fingerprint: 0,
            progress: MiningProgress {
                cursor,
                n_rows: 4,
                emitted: vec![],
                counters: CounterSnapshot::default(),
            },
        }
    }

    fn make_run(root: &Path, name: &str, manifest: &[u8]) -> PathBuf {
        let dir = root.join(name);
        fs::create_dir_all(&dir).unwrap();
        write_sealed(&dir.join(MANIFEST_FILE), manifest).unwrap();
        dir
    }

    #[test]
    fn sealed_round_trip() {
        let dir = tmp_dir("sealed");
        let path = dir.join("m.hdx");
        write_sealed(&path, b"payload").unwrap();
        assert_eq!(read_sealed(&path).unwrap(), b"payload");
        // Overwrite is atomic and wins.
        write_sealed(&path, b"payload2").unwrap();
        assert_eq!(read_sealed(&path).unwrap(), b"payload2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lists_complete_and_incomplete_runs() {
        let root = tmp_dir("listing");
        let done = make_run(&root, "job-a", b"ma");
        write_sealed(&done.join(COMPLETE_FILE), b"result-a").unwrap();
        let orphan = make_run(&root, "job-b", b"mb");
        let store = CheckpointStore::create(&orphan).unwrap();
        store.write(&state(7)).unwrap();
        // A plain file and an empty directory at the top level are ignored.
        fs::write(root.join("stray.txt"), b"x").unwrap();
        fs::create_dir_all(root.join("not-a-run")).unwrap();

        let listing = list_manifests(&root).unwrap();
        assert!(listing.warnings.is_empty(), "{:?}", listing.warnings);
        assert_eq!(listing.runs.len(), 2);
        let a = &listing.runs[0];
        assert_eq!(a.manifest, b"ma");
        assert_eq!(a.completion.as_deref(), Some(&b"result-a"[..]));
        let b = &listing.runs[1];
        assert_eq!(b.manifest, b"mb");
        assert_eq!(b.completion, None, "incomplete");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_manifest_is_quarantined_with_a_warning_not_an_error() {
        let root = tmp_dir("quarantine");
        make_run(&root, "good", b"ok");
        let bad = root.join("bad");
        fs::create_dir_all(&bad).unwrap();
        fs::write(bad.join(MANIFEST_FILE), b"garbage, not an envelope").unwrap();

        let listing = list_manifests(&root).unwrap();
        assert_eq!(listing.runs.len(), 1, "only the healthy run is listed");
        assert_eq!(listing.warnings.len(), 1);
        assert!(listing.warnings[0].contains("quarantined"));
        assert!(
            bad.join(format!("{MANIFEST_FILE}.{QUARANTINE_SUFFIX}"))
                .is_file(),
            "corrupt manifest moved aside"
        );
        assert!(!bad.join(MANIFEST_FILE).exists());
        // A second scan is quiet: the quarantined file no longer matches.
        let listing = list_manifests(&root).unwrap();
        assert!(listing.warnings.is_empty());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_completion_marker_flags_the_run_incomplete() {
        let root = tmp_dir("baddone");
        let run = make_run(&root, "job", b"m");
        fs::write(run.join(COMPLETE_FILE), b"torn").unwrap();
        let listing = list_manifests(&root).unwrap();
        assert_eq!(listing.runs.len(), 1);
        assert_eq!(listing.runs[0].completion, None, "treated as orphaned");
        assert_eq!(listing.warnings.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_state_dir_yields_an_empty_listing() {
        let root = tmp_dir("missing");
        let _ = fs::remove_dir_all(&root);
        let listing = list_manifests(&root).unwrap();
        assert!(listing.runs.is_empty());
        assert!(listing.warnings.is_empty());
    }
}

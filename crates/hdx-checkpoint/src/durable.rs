//! The workspace's one durable-write routine, plus the file-name
//! conventions its readers share.
//!
//! Every whole file a client's results rest on — run manifests,
//! checkpoints, completion markers, ingest cursors, sealed WAL segments,
//! the event journal and an admitted dataset — is written by
//! [`write_atomic`]:
//!
//! 1. write the bytes to `<path>.tmp`;
//! 2. `fsync` it (data durable before it becomes visible);
//! 3. `rename` it over `path` (atomic within one filesystem);
//! 4. `fsync` the directory (the rename itself durable; best-effort).
//!
//! A crash at any point leaves either the previous file or the new one,
//! never a torn mix. At worst a stray `<path>.tmp` remains: no scan
//! matches it, and the next write of the same file overwrites it.
//!
//! Under the `hdx-fail` feature the `durable::write` fail point faults
//! every one of those writers. An `Error` arming or an `Io(Enospc)` one
//! fails before any byte lands; `Io(ShortWrite)` leaves the first half of
//! the bytes in `<path>.tmp` and never renames — the debris a crash
//! mid-write leaves behind.
//!
//! [`write_atomic`]: crate::durable::write_atomic

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hdx_governor::fail_point;

use crate::error::CheckpointError;

/// Extension of a sequence-numbered file, `<prefix><seq:010>.hdx`.
const SEQ_EXT: &str = ".hdx";
/// Suffix appended to a file [`quarantine`] moves aside.
pub const QUARANTINE_SUFFIX: &str = "corrupt";

/// Atomically replaces `path` with `bytes` (see the module docs for the
/// protocol and the `durable::write` fail point).
///
/// # Errors
/// [`CheckpointError::Io`] on any filesystem failure; `path` is untouched
/// in that case.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    fail_point!("durable::write", |message: String| CheckpointError::Io {
        path: path.to_path_buf(),
        message,
    });
    let tmp = tmp_path(path);
    #[cfg(feature = "hdx-fail")]
    if let Some(fault) = hdx_governor::failpoint::io_hit("durable::write") {
        if fault == hdx_governor::failpoint::IoFault::ShortWrite {
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
        }
        return Err(CheckpointError::io(&tmp, &fault.to_error()));
    }
    {
        let mut file = fs::File::create(&tmp).map_err(|e| CheckpointError::io(&tmp, &e))?;
        file.write_all(bytes)
            .map_err(|e| CheckpointError::io(&tmp, &e))?;
        file.sync_all().map_err(|e| CheckpointError::io(&tmp, &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| CheckpointError::io(path, &e))?;
    // Some filesystems refuse a directory fsync, and the data file is
    // already synced, so a failure here is ignored.
    if let Some(Ok(dir)) = path.parent().map(fs::File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// The scratch file [`write_atomic`] stages `path` in: `<path>.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    with_suffix(path, "tmp")
}

/// Path of the sequence file `<prefix><seq:010>.hdx` inside `dir`.
pub fn seq_path(dir: &Path, prefix: &str, seq: u64) -> PathBuf {
    dir.join(format!("{prefix}{seq:010}{SEQ_EXT}"))
}

/// The sequence number of a `<prefix><seq>.hdx` file name; `None` for any
/// other name, including that file's `.tmp` and `.corrupt` siblings.
fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(SEQ_EXT)?
        .parse()
        .ok()
}

/// Sequence numbers of the `<prefix><seq>.hdx` files in `dir`, ascending.
/// The files are not opened; a corrupt one is only found when read.
///
/// # Errors
/// [`CheckpointError::Io`] when `dir` cannot be scanned.
pub fn list_seqs(dir: &Path, prefix: &str) -> Result<Vec<u64>, CheckpointError> {
    let entries = fs::read_dir(dir).map_err(|e| CheckpointError::io(dir, &e))?;
    let mut seqs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| CheckpointError::io(dir, &e))?;
        if let Some(seq) = parse_seq(&entry.file_name().to_string_lossy(), prefix) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Renames a corrupt file aside to `<path>.corrupt`, so it can no longer
/// shadow a later rewrite. Best-effort: returns whether the file moved.
pub fn quarantine(path: &Path) -> bool {
    fs::rename(path, with_suffix(path, QUARANTINE_SUFFIX)).is_ok()
}

/// `path` with `.<suffix>` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".");
    name.push(suffix);
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hdx-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_replaces_the_file_and_leaves_no_scratch() {
        let dir = tmp_dir("write");
        let path = dir.join("f.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        assert!(!tmp_path(&path).exists());
        // Stale debris from a crash mid-write is simply overwritten.
        fs::write(tmp_path(&path), b"torn").unwrap();
        write_atomic(&path, b"third").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"third");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_the_destination_absent() {
        let dir = tmp_dir("missing");
        let path = dir.join("no-such-dir").join("f.bin");
        assert!(matches!(
            write_atomic(&path, b"x"),
            Err(CheckpointError::Io { .. })
        ));
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_files_list_in_order_and_ignore_siblings() {
        let dir = tmp_dir("seqs");
        for seq in [7, 0, 12] {
            fs::write(seq_path(&dir, "seg-", seq), b"").unwrap();
        }
        assert_eq!(
            seq_path(&dir, "seg-", 12).file_name().unwrap(),
            "seg-0000000012.hdx"
        );
        fs::write(tmp_path(&seq_path(&dir, "seg-", 13)), b"").unwrap();
        fs::write(dir.join("ckpt-0000000001.hdx"), b"").unwrap();
        fs::write(dir.join("seg-x.hdx"), b"").unwrap();
        assert!(quarantine(&seq_path(&dir, "seg-", 7)));
        assert!(dir.join("seg-0000000007.hdx.corrupt").is_file());
        assert_eq!(list_seqs(&dir, "seg-").unwrap(), vec![0, 12]);
        assert_eq!(list_seqs(&dir, "ckpt-").unwrap(), vec![1]);
        assert!(!quarantine(&dir.join("absent")));
        assert!(list_seqs(&dir.join("absent"), "seg-").is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}

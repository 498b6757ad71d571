//! The CRC-framed segmented write-ahead log.
//!
//! On-disk layout inside a WAL directory:
//!
//! ```text
//! wal-open.log      the open segment: raw CRC-framed rows, append-only
//! seg-0000000000.hdx  sealed segments: hdx-ckpt/v1 envelopes whose
//! seg-0000000001.hdx  payload is the open segment's frame stream
//! ```
//!
//! Each row is one frame: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! [`Wal::append_row`] writes the frame; [`Wal::commit`] fsyncs the open
//! segment — only then may the caller acknowledge the rows. When the open
//! segment outgrows [`WalConfig::segment_max_bytes`] it is *sealed*: its
//! bytes become the payload of a checkpoint envelope written by
//! [`durable::write_atomic`] (temp file → fsync → rename), and the open
//! segment restarts empty. Sealed segments are immutable and verified
//! wholesale by their envelope CRC; the open segment is verified frame by
//! frame.
//!
//! Recovery ([`Wal::open`]) is degrade-not-die: a sealed segment failing
//! envelope validation, or a torn/corrupt open-segment tail, is moved
//! aside (`.quarantine` / `.corrupt` suffix), counted into the returned
//! [`IngestReport`], and the scan continues with everything that remains
//! valid. Rows are never silently dropped — every quarantined byte is
//! reported — and recovery never fails on corrupt data.
//!
//! [`durable::write_atomic`]: hdx_checkpoint::durable::write_atomic

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use hdx_checkpoint::{durable, envelope};
use hdx_governor::fail_point;

use crate::error::IngestError;
use crate::report::IngestReport;

/// File name of the open (unsealed) segment inside a WAL directory.
pub const OPEN_FILE: &str = "wal-open.log";
/// File-name prefix of a sealed segment.
const SEG_PREFIX: &str = "seg-";
/// Bytes of frame header (`len` + `crc`).
const FRAME_HEADER: usize = 8;
/// Upper bound on a single frame's payload; a declared length above this
/// is treated as corruption, bounding what a torn length field can ask
/// recovery to buffer.
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Tunables for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Seal the open segment once it holds at least this many payload
    /// bytes (checked at [`Wal::commit`]).
    pub segment_max_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 1 << 20,
        }
    }
}

/// One sealed, immutable segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedSegment {
    /// Monotonic segment sequence number (its file name).
    pub seq: u64,
    /// Rows (frames) the segment holds.
    pub rows: u64,
    /// Payload bytes (the frame stream, excluding the envelope header).
    pub bytes: u64,
}

/// A durable, segmented row log. See the module docs for the format and
/// the recovery rules.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    sealed: Vec<SealedSegment>,
    open_rows: u64,
    open_bytes: u64,
    handle: Option<File>,
    /// Set when a frame write failed and may have left part of a frame
    /// after `open_bytes`. Rows appended behind those bytes would be
    /// quarantined by the next open, so appends and commits are refused
    /// until the WAL is reopened (which quarantines the tail).
    torn: bool,
}

impl Wal {
    /// Opens (creating if needed) the WAL at `dir`, running the recovery
    /// scan: sealed segments are validated wholesale by their envelope,
    /// the open segment frame by frame; anything invalid is quarantined
    /// into the returned [`IngestReport`] rather than failing the open.
    ///
    /// # Errors
    /// [`IngestError::Io`] only when the directory itself cannot be
    /// created, scanned, or the open segment cannot be opened for append —
    /// corrupt *data* never errors.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: WalConfig,
    ) -> Result<(Self, IngestReport), IngestError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| IngestError::io(&dir, &e))?;
        let mut report = IngestReport::default();

        let seqs = durable::list_seqs(&dir, SEG_PREFIX)?;
        let mut sealed = Vec::new();
        for seq in seqs {
            let path = seg_path(&dir, seq);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) => return Err(IngestError::io(&path, &e)),
            };
            let quarantined = match envelope::open(&bytes) {
                Ok(payload) => match scan_frames(&payload) {
                    ScanOutcome {
                        rows, valid_len, ..
                    } if valid_len == payload.len() => {
                        sealed.push(SealedSegment {
                            seq,
                            rows,
                            bytes: payload.len() as u64,
                        });
                        None
                    }
                    _ => Some("frame stream malformed inside a valid envelope".to_string()),
                },
                Err(err) => Some(err.to_string()),
            };
            if let Some(why) = quarantined {
                durable::quarantine(&path);
                report.quarantined_segments += 1;
                report.quarantined_bytes += bytes.len() as u64;
                report.note(format!(
                    "quarantined sealed segment `{}` ({} bytes): {why}",
                    path.display(),
                    bytes.len()
                ));
            }
        }

        let open_path = dir.join(OPEN_FILE);
        let open_bytes_on_disk = match fs::read(&open_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(IngestError::io(&open_path, &e)),
        };
        let scan = scan_frames(&open_bytes_on_disk);
        if scan.valid_len < open_bytes_on_disk.len() {
            // Torn or corrupt tail: append the dropped bytes to the
            // quarantine file, which keeps every earlier heal's bytes too,
            // then truncate the open segment back to its last valid frame.
            let torn = open_bytes_on_disk.get(scan.valid_len..).unwrap_or_default();
            let aside = dir.join(format!("{OPEN_FILE}.quarantine"));
            let _ = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&aside)
                .and_then(|mut file| {
                    file.write_all(torn)?;
                    file.sync_all()
                });
            let file = OpenOptions::new()
                .write(true)
                .open(&open_path)
                .map_err(|e| IngestError::io(&open_path, &e))?;
            file.set_len(scan.valid_len as u64)
                .map_err(|e| IngestError::io(&open_path, &e))?;
            let _ = file.sync_all();
            report.quarantined_frames += scan.dropped_frames.max(1);
            report.quarantined_bytes += torn.len() as u64;
            report.note(format!(
                "quarantined torn open-segment tail: {} byte(s) after row {} (saved to `{}`)",
                torn.len(),
                scan.rows,
                aside.display()
            ));
            hdx_obs::counter_add!(IngestFramesQuarantined, scan.dropped_frames.max(1));
            hdx_obs::counter_add!(IngestBytesQuarantined, torn.len() as u64);
        }
        let handle = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&open_path)
            .map_err(|e| IngestError::io(&open_path, &e))?;

        Ok((
            Self {
                dir,
                config,
                sealed,
                open_rows: scan.rows,
                open_bytes: scan.valid_len as u64,
                handle: Some(handle),
                torn: false,
            },
            report,
        ))
    }

    /// Total rows currently on disk: sealed segments plus the open
    /// segment (including rows appended since the last [`Wal::commit`] —
    /// callers must not acknowledge those until `commit` returns).
    pub fn total_rows(&self) -> u64 {
        self.sealed.iter().map(|s| s.rows).sum::<u64>() + self.open_rows
    }

    /// Rows in the open (unsealed) segment.
    pub fn open_rows(&self) -> u64 {
        self.open_rows
    }

    /// The sealed segments, oldest first.
    pub fn sealed_segments(&self) -> &[SealedSegment] {
        &self.sealed
    }

    /// Appends one row's payload as a CRC frame to the open segment. The
    /// row is *not* durable until the next [`Wal::commit`].
    ///
    /// # Errors
    /// [`IngestError::Io`] when the write fails; the in-memory counters
    /// are unchanged on failure. A failed write may leave part of a frame
    /// on disk, so from then on this handle refuses every `append_row`
    /// and [`Wal::commit`] until the WAL is reopened, which quarantines the
    /// torn tail.
    pub fn append_row(&mut self, payload: &[u8]) -> Result<(), IngestError> {
        let open_path = self.dir.join(OPEN_FILE);
        fail_point!("ingest::wal::append", |message: String| IngestError::Io {
            path: self.dir.join(OPEN_FILE),
            message,
        });
        #[cfg(feature = "hdx-fail")]
        if let Some(fault) = hdx_governor::failpoint::io_hit("ingest::wal::append") {
            if matches!(fault, hdx_governor::failpoint::IoFault::ShortWrite) {
                // Enact the torn write: half the frame really lands on
                // disk, which is exactly what recovery must quarantine.
                let frame = encode_frame(payload);
                let half = frame.get(..frame.len() / 2).unwrap_or_default();
                if let Some(handle) = self.handle.as_mut() {
                    let _ = handle.write_all(half);
                    let _ = handle.sync_data();
                }
            }
            // ENOSPC, too, can strike after part of the frame landed.
            self.torn = true;
            return Err(IngestError::Io {
                path: open_path,
                message: fault.to_error().to_string(),
            });
        }
        if self.torn {
            return Err(IngestError::Io {
                path: open_path,
                message: "open segment has a torn tail; reopen the WAL to recover".to_string(),
            });
        }
        let Some(handle) = self.handle.as_mut() else {
            return Err(IngestError::Io {
                path: open_path,
                message: "open segment handle is closed".to_string(),
            });
        };
        let frame = encode_frame(payload);
        if let Err(e) = handle.write_all(&frame) {
            // `write_all` may have landed part of the frame before failing.
            self.torn = true;
            return Err(IngestError::io(&open_path, &e));
        }
        self.open_rows += 1;
        self.open_bytes += frame.len() as u64;
        hdx_obs::counter_add!(IngestRowsAppended, 1);
        Ok(())
    }

    /// Makes every appended row durable (`fsync` of the open segment), and
    /// seals the segment if it outgrew [`WalConfig::segment_max_bytes`].
    /// Returns the total durable row count. Only after `commit` returns may
    /// the rows of preceding [`Wal::append_row`] calls be acknowledged.
    ///
    /// # Errors
    /// [`IngestError::Io`] when the fsync or the seal fails. Appended rows
    /// may or may not have reached disk in that case — exactly the promise
    /// an unacknowledged write has.
    pub fn commit(&mut self) -> Result<u64, IngestError> {
        fail_point!("ingest::wal::fsync", |message: String| IngestError::Io {
            path: self.dir.join(OPEN_FILE),
            message,
        });
        #[cfg(feature = "hdx-fail")]
        if let Some(fault) = hdx_governor::failpoint::io_hit("ingest::wal::fsync") {
            return Err(IngestError::Io {
                path: self.dir.join(OPEN_FILE),
                message: fault.to_error().to_string(),
            });
        }
        if self.torn {
            return Err(IngestError::Io {
                path: self.dir.join(OPEN_FILE),
                message: "open segment has a torn tail; reopen the WAL to recover".to_string(),
            });
        }
        let open_path = self.dir.join(OPEN_FILE);
        let Some(handle) = self.handle.as_mut() else {
            return Err(IngestError::Io {
                path: open_path,
                message: "open segment handle is closed".to_string(),
            });
        };
        handle
            .sync_data()
            .map_err(|e| IngestError::io(&open_path, &e))?;
        hdx_obs::counter_add!(IngestCommits, 1);
        if self.open_bytes >= self.config.segment_max_bytes {
            self.seal()?;
        }
        Ok(self.total_rows())
    }

    /// Seals the open segment (no-op when it is empty): its frame stream
    /// becomes the payload of a new `seg-<seq>.hdx` envelope written by
    /// [`durable::write_atomic`], and the open segment restarts empty.
    ///
    /// # Errors
    /// [`IngestError::Io`] on any filesystem failure; the open segment is
    /// left untouched in that case, so no row is lost.
    pub fn seal(&mut self) -> Result<(), IngestError> {
        if self.open_rows == 0 {
            return Ok(());
        }
        let open_path = self.dir.join(OPEN_FILE);
        let payload = fs::read(&open_path).map_err(|e| IngestError::io(&open_path, &e))?;
        // Only the validated prefix is sealed (equal to the whole file in
        // every non-faulted execution).
        let payload = payload.get(..self.open_bytes as usize).unwrap_or_default();
        let seq = self.sealed.last().map_or(0, |s| s.seq + 1);
        durable::write_atomic(&seg_path(&self.dir, seq), &envelope::seal(payload))?;
        // The segment is durable; restart the open segment.
        if let Some(handle) = self.handle.as_mut() {
            handle
                .set_len(0)
                .map_err(|e| IngestError::io(&open_path, &e))?;
            let _ = handle.sync_all();
        }
        self.sealed.push(SealedSegment {
            seq,
            rows: self.open_rows,
            bytes: self.open_bytes,
        });
        self.open_rows = 0;
        self.open_bytes = 0;
        hdx_obs::counter_add!(IngestSegmentsSealed, 1);
        Ok(())
    }

    /// Replays every row on disk, oldest first: sealed segments in
    /// sequence order, then the open segment.
    ///
    /// # Errors
    /// [`IngestError::Io`] when a segment that validated at open time can
    /// no longer be read (the disk changed underneath the process).
    pub fn rows(&self) -> Result<Vec<Vec<u8>>, IngestError> {
        let mut out = Vec::new();
        for seg in &self.sealed {
            out.extend(self.segment_rows(seg.seq)?);
        }
        let open_path = self.dir.join(OPEN_FILE);
        let bytes = match fs::read(&open_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(IngestError::io(&open_path, &e)),
        };
        let bytes = bytes.get(..self.open_bytes as usize).unwrap_or(&bytes);
        out.extend(frames_of(bytes));
        Ok(out)
    }

    /// Replays the rows of one sealed segment.
    ///
    /// # Errors
    /// [`IngestError::Io`] when the file cannot be read;
    /// [`IngestError::Corrupt`] when it no longer passes validation.
    fn segment_rows(&self, seq: u64) -> Result<Vec<Vec<u8>>, IngestError> {
        let path = seg_path(&self.dir, seq);
        let bytes = fs::read(&path).map_err(|e| IngestError::io(&path, &e))?;
        let payload = envelope::open(&bytes).map_err(|e| IngestError::Corrupt {
            message: format!("sealed segment `{}`: {e}", path.display()),
        })?;
        Ok(frames_of(&payload))
    }
}

/// Read-only replay of a WAL directory: every valid row, oldest first,
/// without *healing* — no truncation, no quarantine renames, no handles
/// kept. Invalid data is only counted into the report. Safe to call while
/// another process (or handle) is appending: each frame is written with a
/// single atomic append, so a concurrent reader sees a valid prefix that
/// only grows. A missing directory replays as zero rows.
///
/// # Errors
/// [`IngestError::Io`] when the directory exists but cannot be scanned.
pub fn replay_dir(dir: &Path) -> Result<(Vec<Vec<u8>>, IngestReport), IngestError> {
    let mut report = IngestReport::default();
    if !dir.is_dir() {
        return Ok((Vec::new(), report));
    }
    let mut out = Vec::new();
    for seq in durable::list_seqs(dir, SEG_PREFIX)? {
        let path = seg_path(dir, seq);
        let bytes = fs::read(&path).map_err(|e| IngestError::io(&path, &e))?;
        match envelope::open(&bytes) {
            Ok(payload) => out.extend(frames_of(&payload)),
            Err(err) => {
                report.quarantined_segments += 1;
                report.quarantined_bytes += bytes.len() as u64;
                report.note(format!(
                    "sealed segment `{}` invalid during replay: {err}",
                    path.display()
                ));
            }
        }
    }
    let open_path = dir.join(OPEN_FILE);
    let bytes = match fs::read(&open_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(IngestError::io(&open_path, &e)),
    };
    let scan = scan_frames(&bytes);
    if scan.valid_len < bytes.len() {
        report.quarantined_frames += scan.dropped_frames.max(1);
        report.quarantined_bytes += (bytes.len() - scan.valid_len) as u64;
        report.note(format!(
            "open segment has {} invalid tail byte(s) (unhealed; replaying the valid prefix)",
            bytes.len() - scan.valid_len
        ));
    }
    out.extend(frames_of(bytes.get(..scan.valid_len).unwrap_or_default()));
    Ok((out, report))
}

/// Encodes one payload as a frame: `[len][crc][payload]`.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    // ALLOC: emission site — one exactly-sized buffer per appended row.
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&hdx_checkpoint::crc::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What a frame scan found.
struct ScanOutcome {
    /// Valid frames, in order.
    rows: u64,
    /// Bytes of the valid prefix (everything after is torn/corrupt).
    valid_len: usize,
    /// Complete-looking frames inside the invalid suffix (0 when the
    /// suffix is a single partial frame). Best-effort: after the first bad
    /// frame, boundaries are unreliable.
    dropped_frames: u64,
}

/// Scans a frame stream, stopping at the first truncated or corrupt frame.
fn scan_frames(bytes: &[u8]) -> ScanOutcome {
    let mut off = 0usize;
    let mut rows = 0u64;
    while let Some((payload, next)) = next_frame(bytes, off) {
        let _ = payload;
        off = next;
        rows += 1;
    }
    let dropped = if off < bytes.len() { 1 } else { 0 };
    ScanOutcome {
        rows,
        valid_len: off,
        dropped_frames: dropped,
    }
}

/// Decodes the frame starting at `off`, returning its payload slice and
/// the offset of the next frame; `None` on truncation or CRC mismatch.
fn next_frame(bytes: &[u8], off: usize) -> Option<(&[u8], usize)> {
    let header = bytes.get(off..off + FRAME_HEADER)?;
    let (len_bytes, crc_bytes) = header.split_at(4);
    let len = u32::from_le_bytes(len_bytes.try_into().ok()?);
    let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    if len > MAX_FRAME_BYTES {
        return None;
    }
    let start = off + FRAME_HEADER;
    let payload = bytes.get(start..start + len as usize)?;
    if hdx_checkpoint::crc::crc32(payload) != crc {
        return None;
    }
    Some((payload, start + len as usize))
}

/// All valid frames of a stream (assumes a pre-validated stream; any
/// invalid tail is simply not yielded).
fn frames_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while let Some((payload, next)) = next_frame(bytes, off) {
        // ALLOC: emission — one owned row per replayed frame.
        out.push(payload.to_vec());
        off = next;
    }
    out
}

/// Path of sealed segment `seq` inside `dir`.
fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    durable::seq_path(dir, SEG_PREFIX, seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hdx-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn row(i: u64) -> Vec<u8> {
        format!("row-{i},a,{}", i % 7).into_bytes()
    }

    #[test]
    fn append_commit_reopen_replays_identically() {
        let dir = tmp_dir("replay");
        let (mut wal, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(report.is_clean());
        for i in 0..10 {
            wal.append_row(&row(i)).unwrap();
        }
        assert_eq!(wal.commit().unwrap(), 10);
        let before = wal.rows().unwrap();
        drop(wal); // simulate the process dying

        let (wal2, report2) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(report2.is_clean(), "{report2:?}");
        assert_eq!(wal2.total_rows(), 10);
        assert_eq!(wal2.rows().unwrap(), before, "byte-identical replay");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealing_moves_rows_into_envelope_segments() {
        let dir = tmp_dir("seal");
        let config = WalConfig {
            segment_max_bytes: 64,
        };
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        for i in 0..20 {
            wal.append_row(&row(i)).unwrap();
            wal.commit().unwrap();
        }
        assert!(!wal.sealed_segments().is_empty(), "auto-sealed");
        assert_eq!(wal.total_rows(), 20);
        let all = wal.rows().unwrap();
        assert_eq!(all.len(), 20);
        assert_eq!(all[0], row(0));
        assert_eq!(all[19], row(19));
        drop(wal);
        // Reopen re-validates every sealed segment via its envelope.
        let (wal2, report) = Wal::open(&dir, config).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(wal2.total_rows(), 20);
        assert_eq!(wal2.rows().unwrap(), all);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_open_tail_is_quarantined_not_fatal() {
        let dir = tmp_dir("torn");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..5 {
            wal.append_row(&row(i)).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        // Crash mid-append: a partial frame lands at the tail.
        let open = dir.join(OPEN_FILE);
        let mut bytes = fs::read(&open).unwrap();
        bytes.extend_from_slice(&[0x21, 0x00, 0x00, 0x00, 0xDE, 0xAD]); // torn header
        fs::write(&open, &bytes).unwrap();

        let (wal2, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal2.total_rows(), 5, "valid prefix survives");
        assert_eq!(report.quarantined_frames, 1);
        assert_eq!(report.quarantined_bytes, 6);
        assert!(!report.is_clean());
        assert!(
            report.notes[0].contains("torn open-segment tail"),
            "{report:?}"
        );
        assert!(dir.join(format!("{OPEN_FILE}.quarantine")).is_file());
        // A third open is quiet: the tail was truncated away.
        drop(wal2);
        let (wal3, report3) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(report3.is_clean(), "{report3:?}");
        assert_eq!(wal3.total_rows(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_healed_tail_is_kept_in_the_quarantine_file() {
        let dir = tmp_dir("two-heals");
        let open = dir.join(OPEN_FILE);
        let mut quarantined = Vec::new();
        let mut reported = 0;
        for (i, tail) in [&[0x21, 0, 0, 0, 0xDE][..], &[9, 0, 0, 0, 1, 2, 3]]
            .into_iter()
            .enumerate()
        {
            let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
            wal.append_row(&row(i as u64)).unwrap();
            wal.commit().unwrap();
            drop(wal);
            let mut bytes = fs::read(&open).unwrap();
            bytes.extend_from_slice(tail);
            fs::write(&open, &bytes).unwrap();
            let (_, report) = Wal::open(&dir, WalConfig::default()).unwrap();
            reported += report.quarantined_bytes;
            quarantined.extend_from_slice(tail);
        }
        assert_eq!(reported, 12, "tails of 5 and 7 bytes");
        let aside = fs::read(dir.join(format!("{OPEN_FILE}.quarantine"))).unwrap();
        assert_eq!(aside.len() as u64, reported, "both heals' bytes are kept");
        assert_eq!(aside, quarantined);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_mid_stream_quarantines_the_suffix() {
        let dir = tmp_dir("midcorrupt");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        for i in 0..4 {
            wal.append_row(&row(i)).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        // Flip a byte inside the third frame's payload.
        let open = dir.join(OPEN_FILE);
        let mut bytes = fs::read(&open).unwrap();
        let frame_len = FRAME_HEADER + row(0).len();
        bytes[2 * frame_len + FRAME_HEADER + 1] ^= 0xFF;
        fs::write(&open, &bytes).unwrap();

        let (wal2, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(wal2.total_rows(), 2, "rows before the corrupt frame");
        assert!(report.quarantined_bytes >= 2 * frame_len as u64);
        assert_eq!(wal2.rows().unwrap(), vec![row(0), row(1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sealed_segment_is_quarantined_and_the_rest_survive() {
        let dir = tmp_dir("badseg");
        let config = WalConfig {
            segment_max_bytes: 32,
        };
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        for i in 0..12 {
            wal.append_row(&row(i)).unwrap();
            wal.commit().unwrap();
        }
        let segs: Vec<u64> = wal.sealed_segments().iter().map(|s| s.seq).collect();
        assert!(segs.len() >= 2, "{segs:?}");
        drop(wal);
        // Corrupt the first sealed segment.
        let victim = seg_path(&dir, segs[0]);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();

        let (wal2, report) = Wal::open(&dir, config).unwrap();
        assert_eq!(report.quarantined_segments, 1);
        assert!(report.notes[0].contains("quarantined sealed segment"));
        assert!(!victim.exists(), "moved aside");
        let survived = wal2.total_rows();
        assert!(survived < 12 && survived > 0, "survived={survived}");
        assert!(wal2.rows().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_dir_matches_the_healing_open_without_mutating() {
        let dir = tmp_dir("replaydir");
        let config = WalConfig {
            segment_max_bytes: 48,
        };
        let (mut wal, _) = Wal::open(&dir, config).unwrap();
        for i in 0..8 {
            wal.append_row(&row(i)).unwrap();
            wal.commit().unwrap();
        }
        let expected = wal.rows().unwrap();
        drop(wal);
        // Torn tail: replay_dir must report it but NOT heal it.
        let open = dir.join(OPEN_FILE);
        let mut bytes = fs::read(&open).unwrap();
        let before_len = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0]);
        fs::write(&open, &bytes).unwrap();
        let (rows, report) = replay_dir(&dir).unwrap();
        assert_eq!(rows, expected);
        assert_eq!(report.quarantined_frames, 1);
        assert_eq!(report.quarantined_bytes, 4);
        assert_eq!(
            fs::read(&open).unwrap().len(),
            before_len + 4,
            "read-only replay must not truncate"
        );
        // A missing directory replays empty.
        let (none, clean) = replay_dir(&dir.join("nope")).unwrap();
        assert!(none.is_empty());
        assert!(clean.is_clean());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_wal_replays_and_seals_nothing() {
        let dir = tmp_dir("empty");
        let (mut wal, report) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert!(report.is_clean());
        assert_eq!(wal.total_rows(), 0);
        assert_eq!(wal.rows().unwrap(), Vec::<Vec<u8>>::new());
        wal.seal().unwrap(); // no-op
        assert!(wal.sealed_segments().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}

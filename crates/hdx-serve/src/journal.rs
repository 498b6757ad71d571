//! The durable per-job event journal (`events.ndjson` in the job dir).
//!
//! Every emitted event line is persisted through
//! [`hdx_checkpoint::durable::write_atomic`] — temp file, `fsync`, rename
//! over the destination, best-effort directory fsync — so the file on disk
//! is always a complete prefix of the stream: a `kill -9` can lose the
//! tail, never corrupt the middle. Sequence numbers are the line index, so
//! reopening a journal after a restart continues the monotonic numbering
//! exactly where the durable prefix ends, and serving the file verbatim
//! replays the stream byte-identically. An open journal is also its live
//! job's only in-memory event log: followers read `Journal::lines`, so a
//! line reaches them only once it is durable.
//!
//! Each append rewrites the whole file. Jobs emit a handful of events
//! (lifecycle transitions plus one snapshot line per mining call), so each
//! rewrite is a few KiB at most — the price of rename-atomicity without a
//! segment format, mirroring the KEEP=3 checkpoint store's simplicity-over-
//! throughput call.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hdx_checkpoint::durable;

/// The journal file name inside a job directory.
pub const EVENTS_FILE: &str = "events.ndjson";

/// An open per-job journal. One writer at a time (the live plane holds it
/// behind a mutex, and live followers read [`Journal::lines`] under that
/// mutex); retired jobs are read through [`read_journal`].
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Every durable line, trailing `\n` included, in sequence order.
    lines: Vec<String>,
}

impl Journal {
    /// Opens (or starts) the journal for `job_dir`, loading any durable
    /// prefix a previous process wrote so sequence numbering continues.
    ///
    /// # Errors
    /// I/O failure reading an existing journal file.
    pub fn open(job_dir: &Path) -> io::Result<Self> {
        let path = job_dir.join(EVENTS_FILE);
        let lines = match fs::read_to_string(&path) {
            Ok(text) => split_lines(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(Self { path, lines })
    }

    /// The sequence number the next appended event must carry.
    pub fn next_seq(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Every durable line so far, in sequence order — what a live
    /// `GET /jobs/<id>/events` follower reads.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The full stream so far (concatenated lines): the file's bytes.
    pub fn contents(&self) -> String {
        self.lines.concat()
    }

    /// Appends one encoded line (must be newline-terminated, as
    /// [`crate::events::encode_line`] produces) and makes it durable.
    ///
    /// # Errors
    /// I/O failure writing or renaming; the in-memory state is unchanged on
    /// failure, so a retry re-appends the same sequence number.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(line.ends_with('\n'), "journal lines are newline-framed");
        let mut bytes = self.contents();
        bytes.push_str(line);
        durable::write_atomic(&self.path, bytes.as_bytes()).map_err(io::Error::other)?;
        self.lines.push(line.to_string());
        Ok(())
    }
}

/// Reads a job's durable journal bytes (`None` when no journal exists) —
/// the replay path for jobs with no live channel.
///
/// # Errors
/// I/O failure other than the file not existing.
pub fn read_journal(job_dir: &Path) -> io::Result<Option<String>> {
    match fs::read_to_string(job_dir.join(EVENTS_FILE)) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Splits journal text back into newline-terminated lines. A truncated
/// final line (impossible under the rename protocol, but cheap to tolerate)
/// is dropped rather than re-served.
fn split_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find('\n') {
        lines.push(rest[..=i].to_string());
        rest = &rest[i + 1..];
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hdx-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn appends_are_durable_and_reopen_continues_the_sequence() {
        let dir = tmp_dir("reopen");
        let mut j = Journal::open(&dir).expect("open");
        assert_eq!(j.next_seq(), 0);
        j.append("{\"seq\":0,\"event\":\"admitted\"}\n")
            .expect("append");
        j.append("{\"seq\":1,\"event\":\"started\"}\n")
            .expect("append");
        let before = j.contents();
        drop(j); // simulate the process dying

        let j2 = Journal::open(&dir).expect("reopen");
        assert_eq!(j2.next_seq(), 2, "numbering continues after restart");
        assert_eq!(j2.contents(), before, "byte-identical reload");
        assert_eq!(
            read_journal(&dir).expect("read").as_deref(),
            Some(before.as_str())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_reads_as_none_and_opens_empty() {
        let dir = tmp_dir("missing");
        assert_eq!(read_journal(&dir).expect("read"), None);
        let j = Journal::open(&dir).expect("open");
        assert_eq!(j.next_seq(), 0);
        assert_eq!(j.contents(), "");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_partial_tmp_file_survives_an_append() {
        let dir = tmp_dir("tmpfile");
        let mut j = Journal::open(&dir).expect("open");
        j.append("{\"seq\":0}\n").expect("append");
        assert!(
            !durable::tmp_path(&dir.join(EVENTS_FILE)).exists(),
            "tmp is always renamed away"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_on_reload() {
        let dir = tmp_dir("truncated");
        fs::write(dir.join(EVENTS_FILE), "{\"seq\":0}\n{\"seq\":1}").expect("write");
        let j = Journal::open(&dir).expect("open");
        assert_eq!(j.next_seq(), 1, "partial line does not count");
        assert_eq!(j.contents(), "{\"seq\":0}\n");
        let _ = fs::remove_dir_all(&dir);
    }
}

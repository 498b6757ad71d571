//! The live plane: per-job event channels and the governor snapshot tap.
//!
//! One [`LivePlane`] per server wires two pieces together (DESIGN.md
//! §16):
//!
//! * every open job owns a `JobChannel`: its durable [`crate::journal`],
//!   which is also the only in-memory copy of the job's event lines, plus
//!   a condvar that wakes the `GET /jobs/<id>/events` followers reading
//!   those lines;
//! * a process-global `hdx_obs::SnapshotObserver` tap routes governor
//!   samples (the miner records one as each mining call returns), via a
//!   thread-local "current job" set by [`LivePlane::job_scope`] around the
//!   runner, into that job's channel — which is how a running job's
//!   progress reaches `GET /jobs/<id>/events` without the miners knowing
//!   the service exists.
//!
//! With the `obs` feature off this module compiles to the no-op twin at the
//! bottom of the file: no journal is written, no channel kept, no tap
//! installed — the zero-cost-when-disabled contract of hdx-obs extended to
//! the service.

#[cfg(feature = "obs")]
pub use enabled::{JobChannel, JobScope, LivePlane};
#[cfg(not(feature = "obs"))]
pub use stub::{JobScope, LivePlane};

/// Where a `GET /jobs/<id>/events` response comes from.
pub enum EventsSource {
    /// The job is live: follow its journal from the first line.
    #[cfg(feature = "obs")]
    Live(std::sync::Arc<JobChannel>),
    /// The job is terminal: its journal bytes, served verbatim and closed.
    Replay(String),
    /// No event stream exists (obs disabled, or nothing was journaled).
    Unavailable(&'static str),
}

#[cfg(feature = "obs")]
mod enabled {
    use super::EventsSource;
    use crate::events::{self, JobEvent};
    use crate::journal::{self, Journal};
    use hdx_obs::SnapshotSample;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::path::Path;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
    use std::time::Duration;

    thread_local! {
        /// The job the calling thread is currently executing (set by
        /// [`JobScope`]); the snapshot tap routes samples here.
        static CURRENT: RefCell<Option<Arc<JobChannel>>> = const { RefCell::new(None) };
    }

    /// The process-global snapshot tap. Routing is per-thread, so multiple
    /// servers in one process (tests) share it safely: whichever job the
    /// recording thread is scoped to receives the sample.
    struct Tap;

    impl hdx_obs::SnapshotObserver for Tap {
        fn on_snapshot(&self, sample: &SnapshotSample) {
            CURRENT.with(|c| {
                if let Some(channel) = c.borrow().as_ref() {
                    channel.emit(&JobEvent::Level {
                        sample: sample.clone(),
                    });
                }
            });
        }
    }

    /// What a channel's lock guards: the journal, whose lines are the
    /// job's one event log, and whether the job's terminal event has been
    /// emitted.
    struct Log {
        journal: Journal,
        closed: bool,
    }

    /// One live job's event channel: its journal (which owns sequence
    /// numbering and every line) and the condvar its followers wait on.
    pub struct JobChannel {
        job_id: String,
        log: Mutex<Log>,
        appended: Condvar,
    }

    impl JobChannel {
        fn lock(&self) -> MutexGuard<'_, Log> {
            // A holder that panicked left the journal at a line boundary
            // (lines are pushed only after their write), so keep serving.
            self.log.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Journals one event and wakes the followers. A journal write
        /// failure degrades durability (reported to stderr), not liveness:
        /// the line is in no log, so no follower sees it and the next
        /// event takes its sequence number.
        fn emit(&self, event: &JobEvent) {
            let mut log = self.lock();
            let line = events::encode_line(log.journal.next_seq(), event);
            match log.journal.append(&line) {
                Ok(()) => self.appended.notify_all(),
                Err(e) => eprintln!("hdx-serve: event journal for {} failed: {e}", self.job_id),
            }
        }

        /// Marks the log complete and wakes the followers so they finish.
        fn close(&self) {
            self.lock().closed = true;
            self.appended.notify_all();
        }

        /// The streaming handler's follow step: waits up to `wait` for
        /// journal lines past `*cursor`, returns them concatenated and
        /// advances the cursor. An empty string means nothing arrived in
        /// time; `None` means the log is closed and fully read.
        pub fn next_lines(&self, cursor: &mut usize, wait: Duration) -> Option<String> {
            let mut log = self.lock();
            if log.journal.lines().len() <= *cursor && !log.closed {
                log = self
                    .appended
                    .wait_timeout(log, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let lines = log.journal.lines().get(*cursor..).unwrap_or_default();
            if lines.is_empty() && log.closed {
                return None;
            }
            *cursor += lines.len();
            Some(lines.concat())
        }
    }

    /// RAII guard marking the calling thread as executing one job; the
    /// snapshot tap routes samples to that job's channel while the guard
    /// lives. Restores the previous scope on drop (scopes can in principle
    /// nest, though the service never does).
    pub struct JobScope {
        prev: Option<Arc<JobChannel>>,
    }

    impl Drop for JobScope {
        fn drop(&mut self) {
            CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        }
    }

    /// The server's live observability plane. See the module docs.
    pub struct LivePlane {
        channels: Mutex<HashMap<String, Arc<JobChannel>>>,
    }

    impl Default for LivePlane {
        fn default() -> Self {
            Self::new()
        }
    }

    impl LivePlane {
        /// An empty plane. Installs the process-global snapshot tap on
        /// first construction.
        pub fn new() -> Self {
            static INSTALL: Once = Once::new();
            INSTALL.call_once(|| {
                // First-install-wins is fine: the tap routes through
                // thread-locals, not through any one plane.
                let _ = hdx_obs::set_snapshot_observer(Box::new(Tap));
            });
            Self {
                channels: Mutex::new(HashMap::new()),
            }
        }

        fn channel(&self, job_id: &str) -> Option<Arc<JobChannel>> {
            self.channels
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(job_id)
                .cloned()
        }

        /// Opens a job's channel and emits its `admitted` event. For
        /// resumed orphans the reloaded journal keeps the prior process's
        /// lines, so numbering and replay continue seamlessly. A journal
        /// that cannot be opened leaves the job without a channel — status
        /// and results still work, only the stream is missing.
        pub fn open_job(&self, job_id: &str, job_dir: &Path, tenant: &str, resumed: bool) {
            let journal = match Journal::open(job_dir) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("hdx-serve: cannot open event journal for {job_id}: {e}");
                    return;
                }
            };
            let channel = Arc::new(JobChannel {
                job_id: job_id.to_string(),
                log: Mutex::new(Log {
                    journal,
                    closed: false,
                }),
                appended: Condvar::new(),
            });
            channel.emit(&JobEvent::Admitted {
                tenant: tenant.to_string(),
                resumed,
            });
            self.channels
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(job_id.to_string(), channel);
        }

        /// Emits a non-terminal lifecycle event for a job (no-op when the
        /// job has no channel).
        pub fn emit(&self, job_id: &str, event: &JobEvent) {
            if let Some(channel) = self.channel(job_id) {
                channel.emit(event);
            }
        }

        /// Emits a job's terminal event, closes its log (followers drain
        /// and finish), and retires the channel — replay for this job is
        /// served from the journal file from now on, keeping the channel
        /// map bounded by *live* jobs only.
        pub fn finish(&self, job_id: &str, event: &JobEvent) {
            let Some(channel) = self
                .channels
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(job_id)
            else {
                return;
            };
            channel.emit(event);
            channel.close();
        }

        /// Marks the calling thread as executing `job_id` for the guard's
        /// lifetime, routing recorded governor snapshots to its channel.
        pub fn job_scope(&self, job_id: &str) -> JobScope {
            let channel = self.channel(job_id);
            let prev = CURRENT.with(|c| c.borrow_mut().take());
            CURRENT.with(|c| *c.borrow_mut() = channel);
            JobScope { prev }
        }

        /// Resolves a `GET /jobs/<id>/events` request: the live channel to
        /// follow from its first line, a verbatim replay for a retired job,
        /// or unavailable.
        pub fn subscribe(&self, job_id: &str, job_dir: &Path) -> EventsSource {
            if let Some(channel) = self.channel(job_id) {
                return EventsSource::Live(channel);
            }
            match journal::read_journal(job_dir) {
                Ok(Some(bytes)) => EventsSource::Replay(bytes),
                Ok(None) => EventsSource::Unavailable("no events were recorded for this job"),
                Err(_) => EventsSource::Unavailable("event journal is unreadable"),
            }
        }

        /// The most recent governor snapshot for a job: the last `level`
        /// line of its live journal, or of the journal file once the job
        /// is retired.
        pub fn latest(&self, job_id: &str, job_dir: &Path) -> Option<SnapshotSample> {
            match self.channel(job_id) {
                Some(channel) => channel
                    .lock()
                    .journal
                    .lines()
                    .iter()
                    .rev()
                    .find_map(|line| events::last_level_sample(line)),
                None => journal::read_journal(job_dir)
                    .ok()
                    .flatten()
                    .and_then(|text| events::last_level_sample(&text)),
            }
        }
    }
}

/// No-op twins compiled when `obs` is off: the plane holds no state, emits
/// nothing, journals nothing, and reports every stream unavailable.
#[cfg(not(feature = "obs"))]
mod stub {
    use super::EventsSource;
    use crate::events::JobEvent;
    use std::path::Path;

    /// Zero-sized disabled twin of the live plane.
    #[derive(Debug, Default)]
    pub struct LivePlane;

    /// Zero-sized disabled twin of the per-job scope guard.
    #[derive(Debug)]
    pub struct JobScope;

    impl LivePlane {
        /// Does nothing; holds nothing.
        #[inline(always)]
        pub fn new() -> Self {
            Self
        }

        /// Does nothing.
        #[inline(always)]
        pub fn open_job(&self, _job_id: &str, _job_dir: &Path, _tenant: &str, _resumed: bool) {}

        /// Does nothing.
        #[inline(always)]
        pub fn emit(&self, _job_id: &str, _event: &JobEvent) {}

        /// Does nothing.
        #[inline(always)]
        pub fn finish(&self, _job_id: &str, _event: &JobEvent) {}

        /// Returns a zero-sized guard.
        #[inline(always)]
        pub fn job_scope(&self, _job_id: &str) -> JobScope {
            JobScope
        }

        /// Always unavailable when observability is compiled out.
        #[inline(always)]
        pub fn subscribe(&self, _job_id: &str, _job_dir: &Path) -> EventsSource {
            EventsSource::Unavailable("observability is disabled in this build (obs feature)")
        }

        /// Always `None` when observability is compiled out.
        #[inline(always)]
        pub fn latest(&self, _job_id: &str, _job_dir: &Path) -> Option<hdx_obs::SnapshotSample> {
            None
        }
    }
}

#[cfg(test)]
#[cfg(feature = "obs")]
mod tests {
    use super::*;
    use crate::events::JobEvent;
    use hdx_obs::SnapshotSample;
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hdx-live-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample(level: u64) -> SnapshotSample {
        SnapshotSample {
            level,
            elapsed_ns: level * 100,
            deadline_remaining_ns: None,
            itemsets: level,
            candidate_bytes: 0,
            tree_nodes: 0,
        }
    }

    fn done() -> JobEvent {
        JobEvent::Done {
            ok: true,
            state: "done".into(),
            termination: "complete".into(),
        }
    }

    /// Everything a follower of `channel` reads until the log closes.
    fn follow_to_close(channel: &JobChannel) -> String {
        let mut cursor = 0;
        let mut streamed = String::new();
        while let Some(lines) = channel.next_lines(&mut cursor, Duration::from_secs(1)) {
            streamed.push_str(&lines);
        }
        streamed
    }

    #[test]
    fn snapshot_tap_routes_to_the_scoped_job_only() {
        let plane = LivePlane::new();
        let dir_a = tmp_dir("route-a");
        let dir_b = tmp_dir("route-b");
        plane.open_job("j-a", &dir_a, "acme", false);
        plane.open_job("j-b", &dir_b, "zen", false);
        {
            let _scope = plane.job_scope("j-a");
            hdx_obs::record_snapshot(sample(1));
        }
        {
            let _scope = plane.job_scope("j-b");
            hdx_obs::record_snapshot(sample(2));
        }
        hdx_obs::record_snapshot(sample(3)); // unscoped: routed nowhere
        assert_eq!(plane.latest("j-a", &dir_a), Some(sample(1)));
        assert_eq!(plane.latest("j-b", &dir_b), Some(sample(2)));
        hdx_obs::reset();
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn subscribe_live_then_finish_then_replay_byte_identical() {
        let plane = LivePlane::new();
        let dir = tmp_dir("replay");
        plane.open_job("j-1", &dir, "acme", false);
        plane.emit("j-1", &JobEvent::Started { attempt: 1 });
        let EventsSource::Live(channel) = plane.subscribe("j-1", &dir) else {
            panic!("expected a live subscription");
        };
        let mut cursor = 0;
        let caught_up = channel
            .next_lines(&mut cursor, Duration::from_secs(1))
            .expect("the log is open");
        assert_eq!(cursor, 2, "admitted + started are caught up");
        assert_eq!(
            channel.next_lines(&mut cursor, Duration::from_millis(10)),
            Some(String::new()),
            "nothing new times out empty"
        );
        plane.finish("j-1", &done());
        let tail = channel
            .next_lines(&mut cursor, Duration::from_secs(1))
            .expect("the done line");
        assert_eq!(
            channel.next_lines(&mut cursor, Duration::from_millis(10)),
            None,
            "closed and fully read"
        );
        let streamed = format!("{caught_up}{tail}");
        let EventsSource::Replay(replayed) = plane.subscribe("j-1", &dir) else {
            panic!("retired job must replay from its journal");
        };
        assert_eq!(streamed, replayed, "live stream == durable replay");
        assert_eq!(replayed.lines().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_journal_write_reaches_no_follower() {
        let plane = LivePlane::new();
        let dir = tmp_dir("failed-write");
        plane.open_job("j-w", &dir, "acme", false);
        let EventsSource::Live(channel) = plane.subscribe("j-w", &dir) else {
            panic!("expected a live subscription");
        };
        // A directory where the journal's temp file goes fails exactly the
        // writes made while it stands.
        let blocker = hdx_checkpoint::durable::tmp_path(&dir.join(crate::EVENTS_FILE));
        fs::create_dir(&blocker).expect("block the journal's temp file");
        plane.emit("j-w", &JobEvent::Started { attempt: 1 });
        fs::remove_dir(&blocker).expect("unblock");
        plane.emit(
            "j-w",
            &JobEvent::Retry {
                attempt: 1,
                error: "blip".into(),
            },
        );
        plane.finish("j-w", &done());
        let streamed = follow_to_close(&channel);
        let EventsSource::Replay(replayed) = plane.subscribe("j-w", &dir) else {
            panic!("retired job must replay from its journal");
        };
        assert_eq!(streamed, replayed, "the follower saw exactly the journal");
        assert!(!replayed.contains("\"event\":\"started\""), "{replayed}");
        assert!(
            replayed.contains("{\"seq\":1,\"event\":\"retry\""),
            "{replayed}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_jobs_are_unavailable() {
        let plane = LivePlane::new();
        let dir = tmp_dir("unknown");
        assert!(matches!(
            plane.subscribe("j-x", &dir),
            EventsSource::Unavailable(_)
        ));
        assert_eq!(plane.latest("j-x", &dir), None);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The live plane: per-job event channels, the governor snapshot tap, and
//! the worker flight recorder.
//!
//! One [`LivePlane`] per server wires three pieces together (DESIGN.md
//! §16):
//!
//! * every open job owns a [`JobChannel`] — a durable [`crate::journal`]
//!   (sequence authority) plus a [`crate::ring`] broadcast ring fanning the
//!   same lines out to live stream consumers;
//! * a process-global `hdx_obs::SnapshotObserver` tap routes governor
//!   samples (the miner records one as each mining call returns), via a
//!   thread-local "current job" set by [`LivePlane::job_scope`] around the
//!   runner, into that job's channel — which is how a running job's
//!   progress reaches `GET /jobs/<id>/events` without the miners knowing
//!   the service exists;
//! * a thread-local flight recorder keeps the last [`FLIGHT_CAP`] event
//!   lines each worker emitted (across jobs), dumped to `flight.ndjson` on
//!   panic or exit-3 degradation so post-mortems start with context.
//!
//! With the `obs` feature off this module compiles to the no-op twin at the
//! bottom of the file: no journal is written, no ring allocated, no tap
//! installed — the zero-cost-when-disabled contract of hdx-obs extended to
//! the service.

#[cfg(feature = "obs")]
pub use enabled::{JobChannel, JobScope, LivePlane};
#[cfg(not(feature = "obs"))]
pub use stub::{JobScope, LivePlane};

/// Most recent event lines retained per worker thread for flight dumps.
pub const FLIGHT_CAP: usize = 256;

/// The flight-recorder dump file written into a job directory on panic or
/// degradation.
pub const FLIGHT_FILE: &str = "flight.ndjson";

/// Where a `GET /jobs/<id>/events` response comes from.
pub enum EventsSource {
    /// The job is live: send `catchup` (the durable prefix), then follow
    /// the channel's ring from `cursor`.
    #[cfg(feature = "obs")]
    Live {
        /// Journal bytes at subscription time.
        catchup: String,
        /// The channel to follow for lines with `seq >= cursor`.
        channel: std::sync::Arc<JobChannel>,
        /// First sequence number not covered by `catchup`.
        cursor: u64,
    },
    /// The job is terminal: its journal bytes, served verbatim and closed.
    Replay(String),
    /// No event stream exists (obs disabled, or nothing was journaled).
    Unavailable(&'static str),
}

/// Best-effort write of the calling thread's flight ring to
/// `<job_dir>/flight.ndjson`, headed by a line identifying the dump
/// `reason`. Post-mortem artifact: plain write, no rename dance, errors
/// reported to stderr only.
#[cfg(feature = "obs")]
fn write_flight(job_dir: &std::path::Path, reason: &str, lines: &[String]) {
    let mut out = format!(
        "{{\"flight_reason\":\"{}\",\"lines\":{}}}\n",
        hdx_obs::json::escape(reason),
        lines.len()
    );
    for line in lines {
        out.push_str(line);
    }
    if let Err(e) = std::fs::write(job_dir.join(FLIGHT_FILE), out) {
        eprintln!(
            "hdx-serve: flight dump to {} failed: {e}",
            job_dir.display()
        );
    }
}

#[cfg(feature = "obs")]
mod enabled {
    use super::{EventsSource, FLIGHT_CAP};
    use crate::events::{self, JobEvent};
    use crate::journal::{self, Journal};
    use crate::ring::{BroadcastRing, RingUpdate};
    use hdx_obs::SnapshotSample;
    use std::cell::RefCell;
    use std::collections::{HashMap, VecDeque};
    use std::path::Path;
    use std::sync::{Arc, Mutex, Once, PoisonError};
    use std::time::Duration;

    thread_local! {
        /// The job the calling thread is currently executing (set by
        /// [`JobScope`]); the snapshot tap routes samples here.
        static CURRENT: RefCell<Option<Arc<JobChannel>>> = const { RefCell::new(None) };
        /// The flight recorder: this worker's most recent event lines.
        static FLIGHT: RefCell<VecDeque<String>> = const { RefCell::new(VecDeque::new()) };
    }

    fn flight_push(line: &str) {
        FLIGHT.with(|f| {
            let mut f = f.borrow_mut();
            if f.len() >= FLIGHT_CAP {
                f.pop_front();
            }
            f.push_back(line.to_string());
        });
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

    /// One live job's event channel: the durable journal (which owns
    /// sequence numbering) and the broadcast ring fed in lockstep.
    pub struct JobChannel {
        job_id: String,
        ring: BroadcastRing,
        journal: Mutex<Journal>,
        latest: Mutex<Option<SnapshotSample>>,
    }

    impl JobChannel {
        /// Journals and broadcasts one event. The ring push happens under
        /// the journal lock so consumers observe sequence order; both sides
        /// are non-blocking beyond that lock, which only event emission
        /// takes. A journal write failure degrades durability (reported to
        /// stderr), not liveness: the line is still broadcast.
        fn emit(&self, event: &JobEvent) {
            let mut journal = self.journal.lock().unwrap_or_else(PoisonError::into_inner);
            let seq = journal.next_seq();
            let line = events::encode_line(seq, event);
            if let Err(e) = journal.append(&line) {
                eprintln!("hdx-serve: event journal for {} failed: {e}", self.job_id);
            }
            self.ring.push(seq, line.clone());
            drop(journal);
            if let JobEvent::Level { sample } = event {
                *self.latest.lock().unwrap_or_else(PoisonError::into_inner) = Some(sample.clone());
            }
            flight_push(&line);
        }

        /// Blocks up to `wait` for lines with `seq >= cursor` (see
        /// [`BroadcastRing::wait_next`]) — the streaming handler's follow
        /// loop.
        pub fn wait_next(&self, cursor: u64, wait: Duration) -> RingUpdate {
            self.ring.wait_next(cursor, wait)
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
        ring_cap: usize,
    }

    impl LivePlane {
        /// A plane whose per-job rings hold `ring_cap` lines. Installs the
        /// process-global snapshot tap on first construction.
        pub fn new(ring_cap: usize) -> Self {
            static INSTALL: Once = Once::new();
            INSTALL.call_once(|| {
                // First-install-wins is fine: the tap routes through
                // thread-locals, not through any one plane.
                let _ = hdx_obs::set_snapshot_observer(Box::new(Tap));
            });
            Self {
                channels: Mutex::new(HashMap::new()),
                ring_cap,
            }
        }

        fn channel(&self, job_id: &str) -> Option<Arc<JobChannel>> {
            self.channels
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(job_id)
                .cloned()
        }

        /// Opens a job's channel (journal + ring) and emits its `admitted`
        /// event. For resumed orphans the reloaded journal keeps the prior
        /// process's lines, so numbering and replay continue seamlessly. A
        /// journal that cannot be opened leaves the job without a channel
        /// — status and results still work, only the stream is missing.
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
                ring: BroadcastRing::new(self.ring_cap),
                journal: Mutex::new(journal),
                latest: Mutex::new(None),
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

        /// Emits a job's terminal event, closes its ring (stream consumers
        /// drain and finish), and retires the channel — replay for this job
        /// is served from the journal file from now on, keeping the channel
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
            channel.ring.close();
        }

        /// Marks the calling thread as executing `job_id` for the guard's
        /// lifetime, routing recorded governor snapshots to its channel.
        pub fn job_scope(&self, job_id: &str) -> JobScope {
            let channel = self.channel(job_id);
            let prev = CURRENT.with(|c| c.borrow_mut().take());
            CURRENT.with(|c| *c.borrow_mut() = channel);
            JobScope { prev }
        }

        /// Resolves a `GET /jobs/<id>/events` request: a live subscription
        /// (durable catch-up + ring cursor, taken under the journal lock so
        /// no line is missed or doubled), a verbatim replay for a retired
        /// job, or unavailable.
        pub fn subscribe(&self, job_id: &str, job_dir: &Path) -> EventsSource {
            if let Some(channel) = self.channel(job_id) {
                let journal = channel
                    .journal
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let catchup = journal.contents();
                let cursor = journal.next_seq();
                drop(journal);
                return EventsSource::Live {
                    catchup,
                    channel: Arc::clone(&channel),
                    cursor,
                };
            }
            match journal::read_journal(job_dir) {
                Ok(Some(bytes)) => EventsSource::Replay(bytes),
                Ok(None) => EventsSource::Unavailable("no events were recorded for this job"),
                Err(_) => EventsSource::Unavailable("event journal is unreadable"),
            }
        }

        /// The most recent governor snapshot for a job: the live channel's
        /// last sample, falling back to the journal on disk (covers retired
        /// jobs and freshly resumed ones that have not sampled yet).
        pub fn latest(&self, job_id: &str, job_dir: &Path) -> Option<SnapshotSample> {
            if let Some(channel) = self.channel(job_id) {
                let latest = channel
                    .latest
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone();
                if latest.is_some() {
                    return latest;
                }
            }
            journal::read_journal(job_dir)
                .ok()
                .flatten()
                .and_then(|text| events::last_level_sample(&text))
        }

        /// Dumps the calling worker's flight ring next to the job's
        /// quarantine report (see [`super::FLIGHT_FILE`]).
        pub fn dump_flight(&self, job_dir: &Path, reason: &str) {
            FLIGHT.with(|f| {
                let f = f.borrow();
                let lines: Vec<String> = f.iter().cloned().collect();
                super::write_flight(job_dir, reason, &lines);
            });
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
    #[derive(Debug)]
    pub struct LivePlane;

    /// Zero-sized disabled twin of the per-job scope guard.
    #[derive(Debug)]
    pub struct JobScope;

    impl LivePlane {
        /// Does nothing; holds nothing.
        #[inline(always)]
        pub fn new(_ring_cap: usize) -> Self {
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

        /// Does nothing.
        #[inline(always)]
        pub fn dump_flight(&self, _job_dir: &Path, _reason: &str) {}
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::events::JobEvent;
    use crate::ring::RingUpdate;
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

    #[test]
    fn snapshot_tap_routes_to_the_scoped_job_only() {
        let plane = LivePlane::new(16);
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
        let plane = LivePlane::new(16);
        let dir = tmp_dir("replay");
        plane.open_job("j-1", &dir, "acme", false);
        plane.emit("j-1", &JobEvent::Started { attempt: 1 });
        let EventsSource::Live {
            catchup,
            channel,
            cursor,
        } = plane.subscribe("j-1", &dir)
        else {
            panic!("expected a live subscription");
        };
        assert_eq!(cursor, 2, "admitted + started are caught up");
        plane.finish(
            "j-1",
            &JobEvent::Done {
                ok: true,
                state: "done".into(),
                termination: "complete".into(),
            },
        );
        let tail = match channel.wait_next(cursor, Duration::from_secs(1)) {
            RingUpdate::Lines(lines) => lines.into_iter().map(|(_, l)| l).collect::<String>(),
            other => panic!("expected the done line, got {other:?}"),
        };
        assert!(matches!(
            channel.wait_next(cursor + 1, Duration::from_millis(10)),
            RingUpdate::Closed
        ));
        let streamed = format!("{catchup}{tail}");
        let EventsSource::Replay(replayed) = plane.subscribe("j-1", &dir) else {
            panic!("retired job must replay from its journal");
        };
        assert_eq!(streamed, replayed, "live stream == durable replay");
        assert_eq!(replayed.lines().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_dump_holds_recent_lines_for_this_worker() {
        let plane = LivePlane::new(16);
        let dir = tmp_dir("flight");
        plane.open_job("j-f", &dir, "acme", false);
        {
            let _scope = plane.job_scope("j-f");
            hdx_obs::record_snapshot(sample(9));
        }
        plane.dump_flight(&dir, "worker panic: boom");
        let dump = fs::read_to_string(dir.join(FLIGHT_FILE)).expect("flight file");
        assert!(
            dump.starts_with("{\"flight_reason\":\"worker panic: boom\""),
            "{dump}"
        );
        assert!(dump.contains("\"event\":\"level\""), "{dump}");
        hdx_obs::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_jobs_are_unavailable() {
        let plane = LivePlane::new(4);
        let dir = tmp_dir("unknown");
        assert!(matches!(
            plane.subscribe("j-x", &dir),
            EventsSource::Unavailable(_)
        ));
        assert_eq!(plane.latest("j-x", &dir), None);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The HTTP job server: admission, supervision, recovery, drain.
//!
//! One [`Server`] owns a listener, a bounded [`AdmissionQueue`], a worker
//! pool watched by a supervisor, and an in-memory job registry backed by
//! per-job state directories. Every lifecycle decision favours staying up:
//! connection handlers and job executions run under `catch_unwind`, dead
//! workers are respawned, transient failures retry with jittered
//! exponential backoff, and overload is answered with `429 Retry-After`
//! instead of unbounded queues.
//!
//! Durability contract: a job is acknowledged (`202`) only after its
//! dataset and sealed manifest are on disk, so from the client's point of
//! view an accepted job survives `kill -9` — the next start's orphan scan
//! re-queues it and the checkpoint layer resumes it to the byte-identical
//! result.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hdx_checkpoint::durable::write_atomic;
use hdx_checkpoint::{list_manifests, write_sealed, CheckpointStore, COMPLETE_FILE, MANIFEST_FILE};
use hdx_governor::{fail_point, CancelToken, RunBudget};
use hdx_ingest::{IngestReport, Wal, WalConfig};
use hdx_obs::{counter_add, flush_thread, gauge_max, job_span, RunTelemetry};

use crate::events::JobEvent;
use crate::http::{read_request, respond, respond_error, respond_json, HttpError, Request};
use crate::job::{parse_submission, DoneRecord, JobSpec};
use crate::live::{EventsSource, LivePlane};
use crate::queue::{AdmissionQueue, Shed};
use crate::runner::{self, Attempt, JobRunOutcome};
use crate::DATA_FILE;
use hdx_obs::json::escape;

/// How long a worker parks on an empty queue before re-checking drain state.
const POP_WAIT: Duration = Duration::from_millis(100);
/// Ceiling of the backoff between retries of a transient failure.
const RETRY_CAP_MS: u64 = 2_000;
/// `Retry-After` seconds suggested to shed clients.
const RETRY_AFTER_SECS: u64 = 1;
/// Accept-loop poll interval while the listener has no pending connection.
const ACCEPT_WAIT: Duration = Duration::from_millis(10);
/// Supervisor poll interval for dead-worker detection.
const WATCHDOG_WAIT: Duration = Duration::from_millis(50);

/// Tunables for one service instance. `Default` is a small, safe local
/// deployment. Every field but `retry_base_ms` and
/// `append_backlog_max_rows` maps onto an `hdx serve` flag; those two are
/// set by embedders and tests.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Root state directory (job state lives under `<state_dir>/jobs/`).
    pub state_dir: PathBuf,
    /// Mining worker threads.
    pub workers: usize,
    /// Global queued-job cap (admissions beyond it shed with 429).
    pub queue_depth: usize,
    /// Per-tenant in-flight (queued + running) job cap.
    pub tenant_max_jobs: usize,
    /// Request-body byte cap (submissions beyond it shed with 413).
    pub max_body_bytes: usize,
    /// Concurrent connection cap (beyond it: 503, connection closed).
    pub max_connections: usize,
    /// Retries after the first attempt before a transient failure is final.
    pub retry_max: u32,
    /// Base backoff between retries (doubles per attempt, plus jitter, up
    /// to a 2 s ceiling).
    pub retry_base_ms: u64,
    /// Per-tenant wall-clock deadline; each admitted job gets at most this.
    pub tenant_deadline_ms: Option<u64>,
    /// Per-tenant itemset budget, split evenly across the tenant's
    /// concurrent job slots at admission.
    pub tenant_max_itemsets: Option<u64>,
    /// Ingest backpressure: maximum durable-but-unfolded WAL rows a job may
    /// accumulate before `POST /jobs/<id>/append` sheds with
    /// `429 Retry-After` and a jittered `retry_after_ms` hint.
    pub append_backlog_max_rows: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("hdx-serve-state"),
            workers: 2,
            queue_depth: 16,
            tenant_max_jobs: 2,
            max_body_bytes: 4 * 1024 * 1024,
            max_connections: 32,
            retry_max: 2,
            retry_base_ms: 50,
            tenant_deadline_ms: None,
            tenant_max_itemsets: None,
            append_backlog_max_rows: 100_000,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
enum JobPhase {
    /// Admitted and waiting for a worker.
    Queued,
    /// A worker is mining it.
    Running,
    /// A transient failure; the worker is waiting out the backoff.
    Backoff,
    /// Cancelled by shutdown drain; resumable by the next start.
    Drained,
    /// Terminal (successful, partial, or failed — see the record).
    Finished(DoneRecord),
}

impl JobPhase {
    fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Backoff => "backoff",
            JobPhase::Drained => "drained",
            JobPhase::Finished(record) if record.ok => "done",
            JobPhase::Finished(_) => "failed",
        }
    }
}

/// The in-memory shadow of a job's ingest WAL: durable row counts and
/// quarantine totals, kept current by the append handler and the recovery
/// scan. The durable truth is the WAL directory plus the sealed cursor.
#[derive(Debug, Clone, Copy, Default)]
struct IngestState {
    /// Rows durable in the WAL (acknowledged appends).
    durable_rows: u64,
    /// Rows covered by the last sealed mining result (the cursor).
    folded_rows: u64,
    /// Lifetime torn/corrupt frames quarantined for this job.
    quarantined_frames: u64,
    /// Lifetime quarantined bytes for this job.
    quarantined_bytes: u64,
}

impl IngestState {
    /// Durable rows not yet covered by a sealed result.
    fn pending_rows(self) -> u64 {
        self.durable_rows.saturating_sub(self.folded_rows)
    }
}

/// One job's open ingest WAL, behind the lock that serializes its
/// appends. Empty until the first append opens (and heals) the WAL, after
/// any append or commit error, and once the job is no longer queued or
/// running.
type WalSlot = Arc<Mutex<Option<Wal>>>;

/// Locks a WAL slot. A holder that panicked dropped the `Wal` it had
/// taken out of the slot, so a poisoned slot is merely empty.
fn lock_slot(slot: &Mutex<Option<Wal>>) -> MutexGuard<'_, Option<Wal>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job's in-memory state. The durable twin lives in its state dir.
struct JobRecord {
    spec: JobSpec,
    phase: JobPhase,
    attempts: u32,
    cancel: CancelToken,
    resumed: bool,
    /// Transient-failure messages accumulated across retries.
    retry_log: Vec<String>,
    /// Streaming-append bookkeeping (zero for jobs never appended to).
    ingest: IngestState,
    /// The job's open WAL. Lock order: a slot lock is taken before the
    /// registry lock, never while holding it.
    wal: WalSlot,
}

/// State shared by the accept loop, connection handlers, and workers.
///
/// Each job's registry record holds one open ingest WAL (a [`WalSlot`]).
/// It is healed on the first append and after any append or commit error,
/// and closed when the job reaches a terminal state (or is drained), so
/// open WAL files are bounded by queued and running jobs. Appends to one
/// job serialize on its slot. The mining runner never takes a slot: it
/// reads the WAL through the read-only `replay_dir`, which is safe beside
/// a live appender.
struct Shared {
    config: ServeConfig,
    jobs_dir: PathBuf,
    queue: AdmissionQueue,
    registry: Mutex<HashMap<String, JobRecord>>,
    draining: AtomicBool,
    next_id: AtomicU64,
    active_connections: AtomicUsize,
    started: Instant,
    /// Per-job event channels and the snapshot tap (a zero-sized no-op
    /// when the `obs` feature is off).
    plane: LivePlane,
    /// Process-lifetime metric accumulator behind `GET /metrics`: each
    /// scrape drains the worker pool's thread-local sinks into it, so
    /// counters are cumulative across scrapes as Prometheus expects.
    telemetry: Mutex<RunTelemetry>,
}

impl Shared {
    fn lock_registry(&self) -> MutexGuard<'_, HashMap<String, JobRecord>> {
        // Registry updates are single-statement map edits; a panicking
        // holder cannot leave them half-done, so serving beats wedging.
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        // ORDERING: Relaxed — the flag is a latch; every consumer re-checks
        // on its next loop iteration, so no edge ordering is needed.
        self.draining.load(Ordering::Relaxed)
    }

    fn job_dir(&self, job_id: &str) -> PathBuf {
        self.jobs_dir.join(job_id)
    }

    /// Marks a job terminal in memory, seals the durable marker if the
    /// runner didn't already, and frees the tenant slot.
    fn finish(&self, job_id: &str, record: DoneRecord, seal: bool) {
        if seal {
            // Best-effort: the in-memory registry still answers clients if
            // the marker can't be written; the next start will re-run the
            // job instead of remembering the failure, which is safe.
            let _ = write_sealed(&self.job_dir(job_id).join(COMPLETE_FILE), &record.encode());
        }
        if let Some(tenant) = self.settle(job_id, JobPhase::Finished(record)) {
            self.queue.release(&tenant);
        }
    }

    /// Parks a job the drain stopped; its durable state is left for the
    /// next start's orphan scan.
    fn mark_drained(&self, job_id: &str) {
        self.settle(job_id, JobPhase::Drained);
        self.plane.finish(job_id, &JobEvent::Drained);
    }

    /// Moves a job out of the queued/running phases and closes its WAL.
    /// The slot is emptied under its own lock before the phase flips, so
    /// a concurrent append either lands first (the post-run hook then
    /// re-queues the job) or sees the new phase (and re-queues it itself,
    /// reopening the WAL). Returns the job's tenant.
    fn settle(&self, job_id: &str, phase: JobPhase) -> Option<String> {
        let slot = self
            .lock_registry()
            .get(job_id)
            .map(|job| Arc::clone(&job.wal))?;
        let mut wal = lock_slot(&slot);
        *wal = None;
        let mut registry = self.lock_registry();
        let job = registry.get_mut(job_id)?;
        job.phase = phase;
        Some(job.spec.tenant.clone())
    }
}

/// A fault-tolerant, multi-tenant mining job service over HTTP/1.1.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    local_addr: SocketAddr,
    /// Startup recovery report: one line per resumed or quarantined entry.
    pub recovery_notes: Vec<String>,
}

impl Server {
    /// Binds the listener, prepares the state directory, and recovers
    /// orphaned jobs from a previous process.
    ///
    /// # Errors
    /// Returns an [`io::Error`] when the state directory or listen address
    /// is unusable.
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let jobs_dir = config.state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_depth, config.tenant_max_jobs),
            plane: LivePlane::new(),
            config,
            jobs_dir,
            registry: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            active_connections: AtomicUsize::new(0),
            started: Instant::now(),
            telemetry: Mutex::new(RunTelemetry::empty()),
        });
        let recovery_notes = recover(&shared).map_err(io::Error::other)?;
        Ok(Self {
            shared,
            listener,
            local_addr,
            recovery_notes,
        })
    }

    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the service until a drain completes: accepts connections,
    /// supervises the worker pool, and on `POST /shutdown` stops admission,
    /// cancels running jobs at their next governor poll, waits for every
    /// worker to reach a checkpoint boundary, and returns.
    ///
    /// # Errors
    /// Returns an [`io::Error`] only for unrecoverable listener failures;
    /// per-connection errors are answered in-band and per-job failures are
    /// recorded on the job.
    pub fn run(&self) -> io::Result<()> {
        let supervisor = {
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || supervise_workers(&shared))
        };
        // Serve until the supervisor reports the worker pool fully drained —
        // NOT merely until the drain flag flips. Clients keep polling job
        // status and fetching results while workers wind down, and
        // submissions during the drain get their 503 instead of a reset.
        while !supervisor.is_finished() {
            gauge_max!(
                ServeUptimeMs,
                self.shared.started.elapsed().as_millis() as u64
            );
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    // ORDERING: Relaxed — an approximate load cap; an
                    // off-by-one race sheds one connection early/late.
                    if shared.active_connections.fetch_add(1, Ordering::Relaxed)
                        >= shared.config.max_connections
                    {
                        // ORDERING: Relaxed — undoes the optimistic count above;
                        // the counter is advisory, not a synchronisation point.
                        shared.active_connections.fetch_sub(1, Ordering::Relaxed);
                        let mut stream = stream;
                        respond_error(
                            &mut stream,
                            503,
                            "Service Unavailable",
                            "too many connections",
                        );
                        continue;
                    }
                    thread::spawn(move || {
                        let mut stream = stream;
                        // A panicking handler must cost one connection, not
                        // the process.
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&shared, &mut stream);
                        }));
                        if caught.is_err() {
                            respond_error(
                                &mut stream,
                                500,
                                "Internal Server Error",
                                "request handler panicked",
                            );
                        }
                        // ORDERING: Relaxed — see the cap check above.
                        shared.active_connections.fetch_sub(1, Ordering::Relaxed);
                        flush_thread!();
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_WAIT);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain complete: admission was closed when the drain began; every
        // worker has stopped at a checkpoint boundary.
        let _ = supervisor.join();
        flush_thread!();
        Ok(())
    }

    /// Requests a drain as if `POST /shutdown` had been received.
    pub fn shutdown(&self) {
        start_drain(&self.shared);
    }
}

/// Scans the jobs directory and re-queues every incomplete job.
fn recover(shared: &Arc<Shared>) -> Result<Vec<String>, String> {
    let listing = list_manifests(&shared.jobs_dir).map_err(|e| e.to_string())?;
    let mut notes = listing.warnings.clone();
    let mut max_id = 0u64;
    for run in &listing.runs {
        let job_id = run
            .dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if let Some(n) = job_id
            .strip_prefix("j-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            max_id = max_id.max(n);
        }
        let spec = match JobSpec::decode(&run.manifest) {
            Ok(spec) => spec,
            Err(e) => {
                notes.push(format!("skipped `{job_id}`: undecodable manifest ({e})"));
                continue;
            }
        };
        // Heal the job's ingest WAL (if any) before deciding its fate:
        // recovery is the one moment no append handler can hold the WAL, so
        // torn tails and corrupt segments are quarantined here — into notes
        // and the status JSON, never into a failure.
        let ingest = recover_ingest(&run.dir, &job_id, &mut notes);
        match &run.completion {
            Some(payload) => {
                // Finished before the crash: keep the result queryable —
                // unless durable rows arrived after the sealed result, in
                // which case the job owes its clients a re-mine.
                match DoneRecord::decode(payload) {
                    Ok(record) if ingest.pending_rows() == 0 => {
                        shared.lock_registry().insert(
                            job_id,
                            JobRecord {
                                spec,
                                attempts: record.attempts,
                                resumed: record.resumed,
                                retry_log: record.retries.clone(),
                                phase: JobPhase::Finished(record),
                                cancel: CancelToken::new(),
                                ingest,
                                wal: WalSlot::default(),
                            },
                        );
                    }
                    Ok(_) => {
                        notes.push(format!(
                            "re-mining `{job_id}`: {} appended row(s) beyond its sealed result",
                            ingest.pending_rows()
                        ));
                        resume_orphan(shared, &job_id, spec, &mut notes);
                        set_ingest(shared, &job_id, ingest);
                    }
                    Err(e) => {
                        notes.push(format!(
                            "re-running `{job_id}`: undecodable completion marker ({e})"
                        ));
                        resume_orphan(shared, &job_id, spec, &mut notes);
                        set_ingest(shared, &job_id, ingest);
                    }
                }
            }
            None => {
                resume_orphan(shared, &job_id, spec, &mut notes);
                set_ingest(shared, &job_id, ingest);
            }
        }
    }
    // ORDERING: Relaxed — recovery runs before any worker or connection
    // thread exists; the store is just initialization.
    shared.next_id.store(max_id + 1, Ordering::Relaxed);
    Ok(notes)
}

/// Opens (and thereby heals) one job's ingest WAL at startup, returning
/// its in-memory shadow. Quarantine findings land in `notes` and in the
/// durable cursor's lifetime totals. A job without a WAL directory gets a
/// zero state; a WAL that cannot even be scanned degrades to zero too
/// (the job still runs on its base dataset).
fn recover_ingest(job_dir: &std::path::Path, job_id: &str, notes: &mut Vec<String>) -> IngestState {
    let wal_dir = job_dir.join(crate::WAL_DIR);
    if !wal_dir.is_dir() {
        return IngestState::default();
    }
    let (wal, report) = match hdx_ingest::Wal::open(&wal_dir, hdx_ingest::WalConfig::default()) {
        Ok(v) => v,
        Err(e) => {
            notes.push(format!("cannot recover ingest WAL of `{job_id}`: {e}"));
            return IngestState::default();
        }
    };
    let cursor = load_cursor(job_dir);
    let state = IngestState {
        durable_rows: wal.total_rows(),
        folded_rows: cursor.rows_folded,
        quarantined_frames: cursor.quarantined_frames + report.quarantined_frames,
        quarantined_bytes: cursor.quarantined_bytes + report.quarantined_bytes,
    };
    if !report.is_clean() {
        for line in &report.notes {
            notes.push(format!("`{job_id}`: {line}"));
        }
        // Persist the new lifetime totals so they survive the next crash.
        save_quarantine_totals(job_dir, state.quarantined_frames, state.quarantined_bytes);
    }
    state
}

/// A job's ingest cursor; a missing or unreadable one reads as the zero
/// cursor (it is scheduling metadata: the worst a lost one costs is a
/// redundant re-mine).
fn load_cursor(job_dir: &std::path::Path) -> hdx_ingest::IngestCursor {
    hdx_ingest::IngestCursor::load(&job_dir.join(hdx_ingest::CURSOR_FILE))
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Stores a job's lifetime quarantine totals in its ingest cursor, keeping
/// the fold count. Best-effort, like every cursor write.
fn save_quarantine_totals(job_dir: &std::path::Path, frames: u64, bytes: u64) {
    let _ = hdx_ingest::IngestCursor {
        quarantined_frames: frames,
        quarantined_bytes: bytes,
        ..load_cursor(job_dir)
    }
    .save(&job_dir.join(hdx_ingest::CURSOR_FILE));
}

/// Stamps a recovered ingest shadow onto a just-registered job.
fn set_ingest(shared: &Arc<Shared>, job_id: &str, ingest: IngestState) {
    if let Some(job) = shared.lock_registry().get_mut(job_id) {
        job.ingest = ingest;
    }
}

/// Registers one orphaned (incomplete) job and re-queues it.
fn resume_orphan(shared: &Arc<Shared>, job_id: &str, spec: JobSpec, notes: &mut Vec<String>) {
    notes.push(format!(
        "resuming orphaned job `{job_id}` (tenant `{}`)",
        spec.tenant
    ));
    counter_add!(ServeJobsResumed, 1);
    let tenant = spec.tenant.clone();
    shared.lock_registry().insert(
        job_id.to_string(),
        JobRecord {
            spec,
            phase: JobPhase::Queued,
            attempts: 0,
            cancel: CancelToken::new(),
            resumed: true,
            retry_log: Vec::new(),
            ingest: IngestState::default(),
            wal: WalSlot::default(),
        },
    );
    // Reopening the journal continues the previous process's sequence
    // numbering, so the resumed `admitted` line extends the stream.
    shared
        .plane
        .open_job(job_id, &shared.job_dir(job_id), &tenant, true);
    shared.queue.reserve_slot(&tenant);
    shared.queue.enqueue(job_id);
}

/// Closes admission, then cancels every running job with the shutdown
/// reason so workers stop at the next checkpoint boundary.
fn start_drain(shared: &Arc<Shared>) {
    shared.queue.close();
    {
        let registry = shared.lock_registry();
        for job in registry.values() {
            if matches!(job.phase, JobPhase::Running | JobPhase::Backoff) {
                job.cancel.cancel_for_shutdown();
            }
        }
    }
    // ORDERING: Relaxed — the queue closed above under its lock; consumers
    // of the flag re-poll, so no release edge is required.
    shared.draining.store(true, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Worker pool.

/// Spawns the pool, respawns dead workers, and joins them all at drain.
fn supervise_workers(shared: &Arc<Shared>) {
    let mut handles: Vec<thread::JoinHandle<()>> = (0..shared.config.workers.max(1))
        .map(|_| spawn_worker(shared))
        .collect();
    loop {
        thread::sleep(WATCHDOG_WAIT);
        if shared.draining() {
            break;
        }
        for handle in &mut handles {
            if handle.is_finished() {
                // A worker thread only exits early if a panic escaped the
                // per-job isolation (e.g. an armed `serve::worker` fail
                // point). The job itself was failed by its lease; the pool
                // must get its thread back.
                let dead = std::mem::replace(handle, spawn_worker(shared));
                let _ = dead.join();
                counter_add!(ServeWorkerRespawned, 1);
            }
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::spawn(move || worker_loop(&shared))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        match shared.queue.pop(POP_WAIT) {
            Some(job_id) => {
                if shared.draining() {
                    // Popped after the drain began: never *start* work while
                    // draining. The job is already durable (dataset +
                    // manifest, no completion marker), so the next start's
                    // orphan scan re-queues it — drain loses no accepted job.
                    shared.mark_drained(&job_id);
                    continue;
                }
                let lease = JobLease {
                    shared,
                    job_id,
                    settled: false,
                };
                // An armed `serve::worker` fail point panics *outside* the
                // per-job catch below: the worker thread dies (exercising
                // the supervisor's respawn path) and the lease's Drop marks
                // the job failed on the way out.
                fail_point!("serve::worker");
                lease.run();
            }
            None => {
                if shared.draining() {
                    break;
                }
            }
        }
        flush_thread!();
    }
    flush_thread!();
}

/// Pins one popped job to one worker. If the worker dies without settling
/// the job (a panic that escaped `catch_unwind`), `Drop` marks the job
/// failed so no client ever waits on a job nobody owns.
struct JobLease<'a> {
    shared: &'a Arc<Shared>,
    job_id: String,
    settled: bool,
}

impl Drop for JobLease<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // This Drop runs while the worker thread unwinds from a panic
            // that escaped per-job isolation: journal the loss, then settle
            // the job.
            let reason = "worker lost while running this job";
            self.shared.plane.emit(
                &self.job_id,
                &JobEvent::Panicked {
                    error: reason.to_string(),
                },
            );
            self.fail(reason.to_string());
        }
    }
}

impl JobLease<'_> {
    /// Runs the job to a terminal state (or drain), retrying transient
    /// failures with jittered exponential backoff.
    fn run(mut self) {
        loop {
            let Some((spec, cancel, attempt)) = ({
                let mut registry = self.shared.lock_registry();
                registry.get_mut(&self.job_id).map(|job| {
                    job.phase = JobPhase::Running;
                    job.attempts += 1;
                    let attempt = Attempt {
                        number: job.attempts,
                        retries: job.retry_log.clone(),
                        resumed: job.resumed,
                    };
                    (job.spec.clone(), job.cancel.clone(), attempt)
                })
            }) else {
                // Unknown id (stale queue entry); nothing to do.
                self.settled = true;
                return;
            };
            job_span!(&self.job_id, tenant & spec.tenant);
            let number = attempt.number;
            self.shared
                .plane
                .emit(&self.job_id, &JobEvent::Started { attempt: number });
            let dir = self.shared.job_dir(&self.job_id);
            let outcome = {
                // Scope the snapshot tap to this job for the execution:
                // every governor level sample the runner records streams
                // out as a `level` event on the job's channel.
                let _scope = self.shared.plane.job_scope(&self.job_id);
                catch_unwind(AssertUnwindSafe(|| {
                    runner::execute_attempt(&spec, &dir, cancel, attempt)
                }))
            };
            match outcome {
                Err(panic) => {
                    // Isolated: the job fails, the worker survives.
                    let msg = panic_message(&panic);
                    self.shared
                        .plane
                        .emit(&self.job_id, &JobEvent::Panicked { error: msg.clone() });
                    self.fail(format!("worker panicked: {msg}"));
                    return;
                }
                Ok(JobRunOutcome::Done(record)) => {
                    counter_add!(ServeJobsCompleted, 1);
                    if record.ok && record.termination != "complete" {
                        // A governor trip sealed partial results: surface
                        // the degradation.
                        self.shared.plane.emit(
                            &self.job_id,
                            &JobEvent::Degraded {
                                termination: record.termination.clone(),
                            },
                        );
                    }
                    let (ok, termination) = (record.ok, record.termination.clone());
                    // The runner already sealed the marker.
                    self.shared.finish(&self.job_id, record, false);
                    self.finish_event(ok, &termination);
                    // Rows appended while this run was folding are durable
                    // but not in the sealed result — re-queue immediately.
                    requeue_if_rows_pending(self.shared, &self.job_id);
                    self.settled = true;
                    return;
                }
                Ok(JobRunOutcome::Drained) => {
                    self.shared.mark_drained(&self.job_id);
                    self.settled = true;
                    return;
                }
                Ok(JobRunOutcome::Permanent(msg)) => {
                    self.fail(msg);
                    return;
                }
                Ok(JobRunOutcome::Transient(msg)) => {
                    let retries_left = number <= self.shared.config.retry_max;
                    if let Some(job) = self.shared.lock_registry().get_mut(&self.job_id) {
                        job.retry_log.push(msg.clone());
                        if retries_left {
                            job.phase = JobPhase::Backoff;
                        }
                    }
                    if !retries_left {
                        self.fail(format!("retries exhausted: {msg}"));
                        return;
                    }
                    counter_add!(ServeJobsRetried, 1);
                    self.shared.plane.emit(
                        &self.job_id,
                        &JobEvent::Retry {
                            attempt: number,
                            error: msg.clone(),
                        },
                    );
                    self.backoff(number);
                    if self.shared.draining() {
                        // Don't start another attempt mid-drain; the job is
                        // durable and the next start will pick it up.
                        self.shared.mark_drained(&self.job_id);
                        self.settled = true;
                        return;
                    }
                }
            }
        }
    }

    /// Settles the job as failed with `body` as its error: seals a failed
    /// completion record carrying the registry's attempt count, retries
    /// and resumed flag, counts the failure and emits the `done` event.
    fn fail(&mut self, body: String) {
        counter_add!(ServeJobsFailed, 1);
        let (attempts, retries, resumed) = self
            .shared
            .lock_registry()
            .get(&self.job_id)
            .map_or((0, Vec::new(), false), |job| {
                (job.attempts, job.retry_log.clone(), job.resumed)
            });
        let record = DoneRecord {
            ok: false,
            termination: "failed".to_string(),
            attempts,
            body,
            retries,
            resumed,
        };
        self.shared.finish(&self.job_id, record, true);
        self.finish_event(false, "failed");
        self.settled = true;
    }

    /// Emits the terminal `done` event and retires the job's channel.
    /// Runs after [`Shared::finish`] so a consumer that sees the `done`
    /// line can immediately fetch the result.
    fn finish_event(&self, ok: bool, termination: &str) {
        self.shared.plane.finish(
            &self.job_id,
            &JobEvent::Done {
                ok,
                state: if ok { "done" } else { "failed" }.to_string(),
                termination: termination.to_string(),
            },
        );
    }

    /// Sleeps out the backoff for `attempt`, in small slices so a drain is
    /// noticed promptly.
    fn backoff(&self, attempt: u32) {
        let config = &self.shared.config;
        let exp = config.retry_base_ms.saturating_mul(1u64 << attempt.min(16)) / 2;
        let jitter =
            splitmix64(seed_of(&self.job_id) ^ u64::from(attempt)) % config.retry_base_ms.max(1);
        let total = Duration::from_millis(exp.saturating_add(jitter).min(RETRY_CAP_MS));
        let slice = Duration::from_millis(20);
        let deadline = Instant::now() + total;
        while Instant::now() < deadline && !self.shared.draining() {
            thread::sleep(slice.min(deadline.saturating_duration_since(Instant::now())));
        }
    }
}

/// Renders a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// SplitMix64: deterministic backoff jitter without a rand dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn seed_of(job_id: &str) -> u64 {
    job_id.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// HTTP surface.

fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    // Slowloris guard: a client gets five seconds to deliver a request.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    fail_point!("serve::accept");
    let request = match read_request(stream, shared.config.max_body_bytes) {
        Ok(request) => request,
        Err(HttpError::Io(_)) => return,
        Err(e) => {
            if matches!(e, HttpError::BodyTooLarge) {
                counter_add!(ServeRequestsShed, 1);
            }
            let (status, reason) = e.status();
            respond_error(stream, status, reason, &format!("{e:?}"));
            return;
        }
    };
    route(shared, stream, &request);
}

fn route(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) {
    let path = request.path.trim_end_matches('/');
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            let body = format!("ok uptime_ms={}\n", shared.started.elapsed().as_millis());
            respond(stream, 200, "OK", "text/plain", &body, &[]);
        }
        ("GET", "/readyz") => {
            if shared.draining() {
                respond(
                    stream,
                    503,
                    "Service Unavailable",
                    "text/plain",
                    "draining\n",
                    &[],
                );
            } else {
                respond(stream, 200, "OK", "text/plain", "ready\n", &[]);
            }
        }
        ("POST", "/shutdown") => {
            start_drain(shared);
            respond_json(stream, 202, "Accepted", "{\"status\":\"draining\"}");
        }
        ("GET", "/metrics") => metrics(shared, stream),
        ("POST", "/jobs") => submit(shared, stream, &request.body),
        ("GET", _) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            if let Some(job_id) = rest.strip_suffix("/result") {
                job_result(shared, stream, job_id);
            } else if let Some(job_id) = rest.strip_suffix("/events") {
                job_events(shared, stream, job_id);
            } else if !rest.contains('/') {
                job_status(shared, stream, rest);
            } else {
                respond_error(stream, 404, "Not Found", "no such endpoint");
            }
        }
        ("POST", _) if path.starts_with("/jobs/") && path.ends_with("/cancel") => {
            let job_id = &path["/jobs/".len()..path.len() - "/cancel".len()];
            job_cancel(shared, stream, job_id);
        }
        ("POST", _) if path.starts_with("/jobs/") && path.ends_with("/append") => {
            let job_id = &path["/jobs/".len()..path.len() - "/append".len()];
            job_append(shared, stream, job_id, &request.body);
        }
        _ => respond_error(stream, 404, "Not Found", "no such endpoint"),
    }
}

/// Resolves the job's budget at admission: the tenant's fair share (the
/// per-tenant budget split across its job slots), tightened by anything the
/// request asked for. Persisted into the spec so a crash-recovered resume
/// runs under the identical budget.
fn resolve_budget(config: &ServeConfig, spec: &mut JobSpec) {
    let mut tenant_budget = RunBudget::unbounded();
    if let Some(ms) = config.tenant_deadline_ms {
        tenant_budget = tenant_budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(max) = config.tenant_max_itemsets {
        tenant_budget = tenant_budget.with_max_itemsets(max);
    }
    let share = tenant_budget.split_among(config.tenant_max_jobs as u64);
    let share_deadline_ms = share.deadline.map(|d| d.as_millis() as u64);
    spec.deadline_ms = match (spec.deadline_ms, share_deadline_ms) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    spec.max_itemsets = match (spec.max_itemsets, share.max_itemsets) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
}

fn submit(shared: &Arc<Shared>, stream: &mut TcpStream, body: &[u8]) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            respond_error(stream, 400, "Bad Request", "body is not UTF-8");
            return;
        }
    };
    let object = match crate::json::parse_object(text) {
        Ok(object) => object,
        Err(e) => {
            respond_error(stream, 400, "Bad Request", &format!("invalid JSON: {e}"));
            return;
        }
    };
    let (mut spec, csv) = match parse_submission(&object) {
        Ok(v) => v,
        Err(e) => {
            respond_error(stream, 400, "Bad Request", &e);
            return;
        }
    };
    resolve_budget(&shared.config, &mut spec);
    if let Err(shed) = shared.queue.admit(&spec.tenant) {
        counter_add!(ServeRequestsShed, 1);
        let retry_after = ("Retry-After", RETRY_AFTER_SECS.to_string());
        let (status, reason) = match shed {
            Shed::Draining => (503, "Service Unavailable"),
            _ => (429, "Too Many Requests"),
        };
        let body = format!("{{\"error\":\"{}\"}}", escape(&shed.describe()));
        respond(
            stream,
            status,
            reason,
            "application/json",
            &body,
            &[retry_after],
        );
        return;
    }
    // The tenant slot is held; everything below must release it on failure.
    // ORDERING: Relaxed — the id must be unique, not sequenced with other
    // memory; fetch_add alone guarantees uniqueness.
    let id_num = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let job_id = format!("j-{id_num:010}");
    let dir = shared.job_dir(&job_id);
    if let Err(e) = persist_admission(&dir, &spec, &csv) {
        shared.queue.release(&spec.tenant);
        let _ = std::fs::remove_dir_all(&dir);
        respond_error(
            stream,
            500,
            "Internal Server Error",
            &format!("cannot persist job: {e}"),
        );
        return;
    }
    shared.lock_registry().insert(
        job_id.clone(),
        JobRecord {
            spec: spec.clone(),
            phase: JobPhase::Queued,
            attempts: 0,
            cancel: CancelToken::new(),
            resumed: false,
            retry_log: Vec::new(),
            ingest: IngestState::default(),
            wal: WalSlot::default(),
        },
    );
    shared
        .plane
        .open_job(&job_id, &dir, &spec.tenant, /* resumed */ false);
    shared.queue.enqueue(&job_id);
    counter_add!(ServeJobsSubmitted, 1);
    gauge_max!(ServeQueueDepth, shared.queue.depth() as u64);
    let body = format!("{{\"job_id\":\"{job_id}\",\"status\":\"queued\"}}");
    respond_json(stream, 202, "Accepted", &body);
}

/// Writes the dataset and seals the manifest, both durably. The manifest
/// is last: its presence commits the admission.
fn persist_admission(dir: &std::path::Path, spec: &JobSpec, csv: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    write_atomic(&dir.join(DATA_FILE), csv.as_bytes()).map_err(|e| e.to_string())?;
    write_sealed(&dir.join(MANIFEST_FILE), &spec.encode()).map_err(|e| e.to_string())
}

fn job_status(shared: &Arc<Shared>, stream: &mut TcpStream, job_id: &str) {
    let Some((phase, attempts, resumed, tenant, retry_log, phase_record, ingest)) = ({
        let registry = shared.lock_registry();
        registry.get(job_id).map(|job| {
            (
                job.phase.as_str(),
                job.attempts,
                job.resumed,
                job.spec.tenant.clone(),
                job.retry_log.clone(),
                match &job.phase {
                    JobPhase::Finished(record) => Some(record.clone()),
                    _ => None,
                },
                job.ingest,
            )
        })
    }) else {
        respond_error(stream, 404, "Not Found", "unknown job");
        return;
    };
    // The newest sealed checkpoint: where a restart would resume the run.
    let checkpoints = CheckpointStore::open(shared.job_dir(job_id))
        .and_then(|store| store.sequences())
        .unwrap_or_default();
    let mut body = format!(
        "{{\"job_id\":\"{job_id}\",\"tenant\":\"{}\",\"state\":\"{phase}\",\
         \"attempts\":{attempts},\"resumed\":{resumed},\"latest_checkpoint_seq\":{}",
        escape(&tenant),
        checkpoints
            .last()
            .map_or("null".to_string(), u64::to_string),
    );
    // The latest governor snapshot, the last `level` line of the job's
    // journal: itemsets charged and what remained of the deadline budget
    // when the last mining call returned. Absent until the first mining
    // call returns or when the build has observability compiled out.
    if let Some(sample) = shared.plane.latest(job_id, &shared.job_dir(job_id)) {
        body.push_str(&format!(
            ",\"progress\":{{\"level\":{},\"itemsets\":{},\"elapsed_ns\":{},\
             \"deadline_remaining_ns\":{}}}",
            sample.level,
            sample.itemsets,
            sample.elapsed_ns,
            sample
                .deadline_remaining_ns
                .map_or("null".to_string(), |d| d.to_string()),
        ));
    }
    if !retry_log.is_empty() {
        let entries: Vec<String> = retry_log
            .iter()
            .map(|m| format!("\"{}\"", escape(m)))
            .collect();
        body.push_str(&format!(",\"retries\":[{}]", entries.join(",")));
    }
    if let Some(record) = phase_record {
        body.push_str(&format!(
            ",\"termination\":\"{}\",\"ok\":{}",
            escape(&record.termination),
            record.ok
        ));
    }
    // The streaming-ingest ledger: how many rows are durable in the WAL,
    // how many the sealed result covers, and the data-quality quarantine
    // totals (frames dropped during recovery instead of failing the job).
    if ingest.durable_rows > 0 || ingest.quarantined_frames > 0 {
        body.push_str(&format!(
            ",\"ingest\":{{\"durable_rows\":{},\"folded_rows\":{},\
             \"pending_rows\":{},\"quarantined_frames\":{},\
             \"quarantined_bytes\":{}}}",
            ingest.durable_rows,
            ingest.folded_rows,
            ingest.pending_rows(),
            ingest.quarantined_frames,
            ingest.quarantined_bytes,
        ));
    }
    body.push('}');
    respond_json(stream, 200, "OK", &body);
}

fn job_result(shared: &Arc<Shared>, stream: &mut TcpStream, job_id: &str) {
    let record = {
        let registry = shared.lock_registry();
        match registry.get(job_id) {
            None => {
                respond_error(stream, 404, "Not Found", "unknown job");
                return;
            }
            Some(job) => match &job.phase {
                JobPhase::Finished(record) => record.clone(),
                _ => {
                    respond_error(stream, 409, "Conflict", "job is not finished");
                    return;
                }
            },
        }
    };
    if record.ok {
        // The ranked-results JSON exactly as the runner sealed it — the
        // byte-identity surface for crash-recovery checks.
        respond_json(stream, 200, "OK", &record.body);
    } else {
        let body = format!(
            "{{\"error\":\"{}\",\"termination\":\"{}\"}}",
            escape(&record.body),
            escape(&record.termination)
        );
        respond_json(stream, 409, "Conflict", &body);
    }
}

/// `POST /jobs/<id>/append`: lands raw CSV rows (no header) in the job's
/// durable WAL and re-queues the job for an incremental re-mine.
///
/// The `202` ack is sent only after the WAL commit (fsync), so an
/// acknowledged row survives `kill -9`. Rows beyond the configured unfolded
/// backlog shed with `429 Retry-After` plus a jittered `retry_after_ms`
/// hint (clients should retry with jittered exponential backoff). The whole
/// batch is atomic from the client's view: it is validated, then appended
/// and committed as one unit, or rejected as one unit.
fn job_append(shared: &Arc<Shared>, stream: &mut TcpStream, job_id: &str, body: &[u8]) {
    if shared.draining() {
        respond_error(stream, 503, "Service Unavailable", "draining");
        return;
    }
    #[cfg(feature = "hdx-fail")]
    if let Some(msg) = hdx_governor::failpoint::hit("serve::ingest::append") {
        respond_error(
            stream,
            503,
            "Service Unavailable",
            &format!("injected append failure: {msg}"),
        );
        return;
    }
    let Ok(text) = std::str::from_utf8(body) else {
        respond_error(stream, 400, "Bad Request", "body is not UTF-8");
        return;
    };
    let rows: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if rows.is_empty() {
        respond_error(stream, 400, "Bad Request", "no rows in body");
        return;
    }
    // Snapshot the job under the registry lock; hold nothing across I/O.
    let Some((separator, slot)) = ({
        let registry = shared.lock_registry();
        registry
            .get(job_id)
            .map(|job| (job.spec.run.separator, Arc::clone(&job.wal)))
    }) else {
        respond_error(stream, 404, "Not Found", "unknown job");
        return;
    };
    // Schema check against the admitted dataset's header: every appended
    // row must split as the loader splits it (quotes honoured) into exactly
    // the admitted column count. Rejecting the batch here keeps the WAL
    // free of rows the loader would refuse or quarantine later.
    let dir = shared.job_dir(job_id);
    let fields = match expected_fields(&dir, separator) {
        Ok(n) => n,
        Err(e) => {
            respond_error(stream, 500, "Internal Server Error", &e);
            return;
        }
    };
    for (i, row) in rows.iter().enumerate() {
        let refusal = match hdx_data::split_record(row, separator, &mut []) {
            Ok(got) if got == fields => continue,
            Ok(got) => format!("row {i} has {got} field(s), dataset has {fields}"),
            Err(e) => format!("row {i}: {e}"),
        };
        respond_error(stream, 400, "Bad Request", &refusal);
        return;
    }
    let (appended, quarantined) = append_locked(shared, job_id, &slot, &rows);
    // A heal's findings are announced whatever became of the batch (after
    // a re-queue reopened the finished job's channel, on success).
    let announce_quarantine = || {
        if let Some((frames, bytes)) = quarantined {
            shared
                .plane
                .emit(job_id, &JobEvent::IngestQuarantined { frames, bytes });
        }
    };
    let (durable_rows, requeued) = match appended {
        Appended::Durable {
            durable_rows,
            requeued,
        } => (durable_rows, requeued),
        Appended::Shed { backlog } => {
            announce_quarantine();
            // Backpressure: durable-but-unfolded rows are bounded. 429 is
            // the degrade-not-die answer — the WAL never grows past what
            // re-mining can absorb, and the client gets explicit, jittered
            // retry guidance.
            counter_add!(ServeIngestShed, 1);
            let pending = backlog + rows.len() as u64;
            let base_ms = RETRY_AFTER_SECS * 1000;
            let jitter = splitmix64(seed_of(job_id) ^ pending) % base_ms;
            let body = format!(
                "{{\"error\":\"append backlog full ({backlog} unfolded rows)\",\
                 \"retry_after_ms\":{},\"retry\":\"jittered exponential backoff\"}}",
                base_ms + jitter,
            );
            respond(
                stream,
                429,
                "Too Many Requests",
                "application/json",
                &body,
                &[("Retry-After", RETRY_AFTER_SECS.to_string())],
            );
            return;
        }
        Appended::Failed(e) => {
            announce_quarantine();
            respond_error(
                stream,
                500,
                "Internal Server Error",
                &format!("append failed: {e}"),
            );
            return;
        }
        Appended::Vanished => {
            respond_error(stream, 404, "Not Found", "job vanished");
            return;
        }
    };
    counter_add!(ServeIngestAppends, rows.len() as u64);
    if let Some(tenant) = &requeued {
        // The finished job's event channel was retired; reopen it so the
        // re-mine's events extend the same journal.
        shared.plane.open_job(job_id, &dir, tenant, true);
    }
    shared.plane.emit(
        job_id,
        &JobEvent::IngestAppended {
            rows: rows.len() as u64,
            durable_rows,
        },
    );
    announce_quarantine();
    if let Some(tenant) = &requeued {
        shared.queue.reserve_slot(tenant);
        shared.queue.enqueue(job_id);
    }
    let body = format!(
        "{{\"job_id\":\"{job_id}\",\"appended\":{},\"durable_rows\":{durable_rows},\
         \"requeued\":{}}}",
        rows.len(),
        requeued.is_some()
    );
    respond_json(stream, 202, "Accepted", &body);
}

/// What one append did, decided under the job's WAL slot lock.
enum Appended {
    /// The batch is durable. `requeued` holds the tenant of a finished job
    /// the append re-queued.
    Durable {
        durable_rows: u64,
        requeued: Option<String>,
    },
    /// Shed by backpressure: `backlog` unfolded rows were already durable.
    Shed { backlog: u64 },
    /// The WAL could not be opened, appended to, or committed.
    Failed(String),
    /// The job left the registry.
    Vanished,
}

/// Appends one validated batch to the job's open WAL, holding its slot
/// lock throughout, so concurrent appends to one job serialize and each
/// checks the backlog against the rows of the ones before it:
///
/// 1. an empty slot opens (and heals) the WAL;
/// 2. the batch sheds if it would push the WAL's unfolded rows past
///    `append_backlog_max_rows`;
/// 3. the rows are appended and committed;
/// 4. the registry learns the durable total, and a finished job is
///    re-queued.
///
/// The `Wal` is taken out of the slot and put back only while it is
/// sound: after any error the slot stays empty, and the next append
/// reopens, and so heals, the WAL. Lock order: the slot, then the
/// registry. When the heal quarantined anything, the job's new lifetime
/// quarantine totals are persisted in its ingest cursor and returned.
fn append_locked(
    shared: &Shared,
    job_id: &str,
    slot: &Mutex<Option<Wal>>,
    rows: &[&str],
) -> (Appended, Option<(u64, u64)>) {
    let mut slot = lock_slot(slot);
    let (mut wal, healed) = match slot.take() {
        Some(wal) => (wal, IngestReport::default()),
        None => match Wal::open(
            shared.job_dir(job_id).join(crate::WAL_DIR),
            WalConfig::default(),
        ) {
            Ok(opened) => opened,
            Err(e) => return (Appended::Failed(e.to_string()), None),
        },
    };
    let (folded_rows, quarantined) = {
        let mut registry = shared.lock_registry();
        let Some(job) = registry.get_mut(job_id) else {
            return (Appended::Vanished, None);
        };
        job.ingest.quarantined_frames += healed.quarantined_frames;
        job.ingest.quarantined_bytes += healed.quarantined_bytes;
        let totals = (job.ingest.quarantined_frames, job.ingest.quarantined_bytes);
        (
            job.ingest.folded_rows,
            (!healed.is_clean()).then_some(totals),
        )
    };
    if let Some((frames, bytes)) = quarantined {
        // Under the slot lock, so no other heal interleaves. A re-mine
        // that rewrites the cursor with older totals is undone by the
        // post-run hook.
        save_quarantine_totals(&shared.job_dir(job_id), frames, bytes);
    }
    let backlog = wal.total_rows().saturating_sub(folded_rows);
    if backlog + rows.len() as u64 > shared.config.append_backlog_max_rows {
        *slot = Some(wal);
        return (Appended::Shed { backlog }, quarantined);
    }
    let committed = rows
        .iter()
        .try_for_each(|row| wal.append_row(row.as_bytes()))
        .and_then(|()| wal.commit());
    let durable_rows = match committed {
        Ok(durable_rows) => durable_rows,
        Err(e) => return (Appended::Failed(e.to_string()), quarantined),
    };
    *slot = Some(wal);
    // Update the in-memory shadow and decide whether to re-queue: only a
    // terminal job needs a fresh slot; queued/running jobs will observe the
    // new rows at their next (or post-finish) WAL comparison.
    let mut registry = shared.lock_registry();
    let Some(job) = registry.get_mut(job_id) else {
        return (Appended::Vanished, quarantined);
    };
    job.ingest.durable_rows = durable_rows;
    let requeued = matches!(job.phase, JobPhase::Finished(_)).then(|| {
        job.phase = JobPhase::Queued;
        job.cancel = CancelToken::new();
        job.spec.tenant.clone()
    });
    (
        Appended::Durable {
            durable_rows,
            requeued,
        },
        quarantined,
    )
}

/// Column count of the admitted dataset: its header (first non-blank line)
/// split as the loader splits it.
fn expected_fields(dir: &std::path::Path, separator: char) -> Result<usize, String> {
    let data = std::fs::File::open(dir.join(DATA_FILE))
        .map_err(|e| format!("cannot open dataset: {e}"))?;
    for line in std::io::BufRead::lines(std::io::BufReader::new(data)) {
        let line = line.map_err(|e| format!("cannot read dataset header: {e}"))?;
        if !line.trim().is_empty() {
            return hdx_data::split_record(&line, separator, &mut [])
                .map_err(|e| format!("cannot read dataset header: {e}"));
        }
    }
    Err("cannot read dataset header: no header row".to_string())
}

/// After a job finishes, compare the WAL's durable extent against the
/// freshly sealed cursor: rows that arrived *during* the run re-queue the
/// job immediately, so clients never wait on an append that landed in the
/// window between fold and seal. The run wrote the cursor with the
/// quarantine totals it loaded before it mined; totals a heal persisted
/// since are put back, under the slot lock that orders heals.
fn requeue_if_rows_pending(shared: &Arc<Shared>, job_id: &str) {
    let Some(slot) = shared
        .lock_registry()
        .get(job_id)
        .map(|job| Arc::clone(&job.wal))
    else {
        return;
    };
    let dir = shared.job_dir(job_id);
    let slot_guard = lock_slot(&slot);
    let cursor = load_cursor(&dir);
    let (requeue, tenant, totals) = {
        let mut registry = shared.lock_registry();
        let Some(job) = registry.get_mut(job_id) else {
            return;
        };
        job.ingest.folded_rows = cursor.rows_folded.max(job.ingest.folded_rows);
        let requeue = job.ingest.pending_rows() > 0 && matches!(job.phase, JobPhase::Finished(_));
        if requeue {
            job.phase = JobPhase::Queued;
            job.cancel = CancelToken::new();
        }
        let totals = (job.ingest.quarantined_frames, job.ingest.quarantined_bytes);
        (requeue, job.spec.tenant.clone(), totals)
    };
    if totals != (cursor.quarantined_frames, cursor.quarantined_bytes) {
        save_quarantine_totals(&dir, totals.0, totals.1);
    }
    drop(slot_guard);
    if requeue {
        shared.plane.open_job(job_id, &dir, &tenant, true);
        shared.queue.reserve_slot(&tenant);
        shared.queue.enqueue(job_id);
    }
}

fn job_cancel(shared: &Arc<Shared>, stream: &mut TcpStream, job_id: &str) {
    let registry = shared.lock_registry();
    match registry.get(job_id) {
        None => respond_error(stream, 404, "Not Found", "unknown job"),
        Some(job) => {
            job.cancel.cancel();
            respond_json(stream, 202, "Accepted", "{\"status\":\"cancelling\"}");
        }
    }
}

/// `GET /metrics`: one Prometheus text-format 0.0.4 scrape page.
///
/// Each scrape drains the thread-local/retired obs sinks into the server's
/// process-lifetime accumulator (so counters are cumulative, the way
/// Prometheus models them), renders the full typed registry, and appends
/// instantaneous serve-level gauges the registry's high-water gauges can't
/// express: live queue depth, per-tenant in-flight jobs and worker-pool
/// utilization. With `obs` compiled out the registry collects as all-zero,
/// which is still a valid exposition — the endpoint never disappears, it
/// just flatlines.
fn metrics(shared: &Arc<Shared>, stream: &mut TcpStream) {
    gauge_max!(ServeUptimeMs, shared.started.elapsed().as_millis() as u64);
    gauge_max!(ServeQueueDepth, shared.queue.depth() as u64);
    let scraped = {
        let collected = hdx_obs::collect();
        let mut telemetry = shared
            .telemetry
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        telemetry.merge_from(&collected);
        // Spans and snapshots have no exposition mapping; dropping them
        // after each merge keeps the accumulator bounded by the registry
        // size no matter how many jobs the process has run.
        telemetry.spans.clear();
        telemetry.snapshots.clear();
        telemetry.clone()
    };
    let mut page = hdx_obs::expo::Exposition::new();
    hdx_obs::expo::render_registry(&mut page, &scraped);
    page.gauge(
        "hdx_serve_live_queue_depth",
        "Jobs currently waiting in the admission queue.",
        shared.queue.depth() as f64,
    );
    let tenants: Vec<(String, f64)> = shared
        .queue
        .tenants()
        .into_iter()
        .map(|(tenant, n)| (tenant, n as f64))
        .collect();
    page.labeled_gauge(
        "hdx_serve_live_tenant_inflight",
        "In-flight (queued + running) jobs per tenant.",
        "tenant",
        &tenants,
    );
    let busy = shared
        .lock_registry()
        .values()
        .filter(|job| matches!(job.phase, JobPhase::Running | JobPhase::Backoff))
        .count();
    let pool = shared.config.workers.max(1);
    page.gauge(
        "hdx_serve_live_workers_busy",
        "Worker threads currently executing or backing off a job.",
        busy as f64,
    );
    page.gauge(
        "hdx_serve_live_worker_utilization",
        "Busy workers as a fraction of the pool size.",
        busy as f64 / pool as f64,
    );
    let body = page.finish();
    debug_assert!(
        hdx_obs::expo::check_grammar(&body).is_ok(),
        "{:?}",
        hdx_obs::expo::check_grammar(&body)
    );
    respond(
        stream,
        200,
        "OK",
        hdx_obs::expo::EXPOSITION_CONTENT_TYPE,
        &body,
        &[],
    );
}

/// `GET /jobs/<id>/events`: the job's NDJSON event stream.
///
/// Live jobs get a chunked response that follows the job's journal from
/// its first line until the job reaches a terminal state. Terminal jobs
/// replay their journal verbatim (the byte-identity surface). The handler
/// writes with the connection's 5s write timeout, so a consumer that stops
/// reading costs this handler thread, never a miner: emitting an event
/// only appends to the journal, whoever is or is not reading it.
fn job_events(shared: &Arc<Shared>, stream: &mut TcpStream, job_id: &str) {
    if !shared.lock_registry().contains_key(job_id) {
        respond_error(stream, 404, "Not Found", "unknown job");
        return;
    }
    match shared.plane.subscribe(job_id, &shared.job_dir(job_id)) {
        #[cfg(feature = "obs")]
        EventsSource::Live(channel) => stream_live(shared, stream, &channel),
        EventsSource::Replay(bytes) => {
            respond(stream, 200, "OK", "application/x-ndjson", &bytes, &[]);
        }
        EventsSource::Unavailable(reason) => {
            respond_error(stream, 404, "Not Found", reason);
        }
    }
}

/// Streams a live job's journal lines, chunk by chunk, until its log
/// closes (terminal event), the consumer goes away (write error — including
/// the 5s write timeout for stalled readers), or a drain ends the show.
#[cfg(feature = "obs")]
fn stream_live(shared: &Arc<Shared>, stream: &mut TcpStream, channel: &crate::live::JobChannel) {
    let Ok(mut response) =
        crate::http::ChunkedResponse::begin(stream, 200, "OK", "application/x-ndjson")
    else {
        return;
    };
    let mut cursor = 0;
    while let Some(lines) = channel.next_lines(&mut cursor, Duration::from_millis(250)) {
        // An empty chunk writes nothing: the wait timed out.
        if response.chunk(lines.as_bytes()).is_err() {
            return;
        }
        if lines.is_empty() && shared.draining() {
            break;
        }
    }
    let _ = response.finish();
}

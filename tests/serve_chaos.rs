//! Chaos tests for the job service (compiled only with `--features
//! hdx-fail`): inject worker panics, worker-thread deaths, checkpoint-write
//! failures, transient job faults, admission faults, and torn or stalled
//! appends, and assert the robustness contract — the process stays up,
//! overload sheds cleanly, and injected faults never corrupt a job's
//! result.
//!
//! The fail-point registry is process-global and several of these points
//! sit on the shared job path, so every test serialises on one lock and
//! resets the registry on entry and exit.

#![cfg(feature = "hdx-fail")]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use h_divexplorer::governor::failpoint::{self, FailAction, IoFault};
use h_divexplorer::serve::{ServeConfig, Server};
use hdx_obs::json::{parse, Json};

mod common;

use common::{await_terminal, http, shutdown, top_level_str};

/// Serialises the chaos tests (see the module docs).
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Locks the registry for one test and guarantees a clean slate on both
/// sides, even when the test body panics.
struct ChaosGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> ChaosGuard<'a> {
    fn acquire() -> Self {
        let guard = CHAOS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        failpoint::reset();
        Self(guard)
    }
}

impl Drop for ChaosGuard<'_> {
    fn drop(&mut self) {
        failpoint::reset();
    }
}

fn tmp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Data rows `range` of the sample dataset, without the header.
fn sample_rows(range: std::ops::Range<usize>) -> String {
    let mut csv = String::new();
    for r in range {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            u8::from(r % 3 == 0),
            u8::from(r % 4 == 0),
            r % 17,
            ["a", "b", "c"][r % 3],
        ));
    }
    csv
}

fn sample_csv(rows: usize) -> String {
    format!("class,pred,age,grp\n{}", sample_rows(0..rows))
}

fn submission(csv: &str) -> String {
    format!(
        r#"{{"csv":"{}","stat":"fpr","support":0.05}}"#,
        hdx_obs::json::escape(csv)
    )
}

/// The one-worker loopback configuration the chaos tests run.
fn chaos_config(state_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir,
        workers: 1,
        retry_base_ms: 5,
        ..ServeConfig::default()
    }
}

fn start(state_dir: PathBuf) -> (SocketAddr, thread::JoinHandle<()>) {
    start_with(chaos_config(state_dir))
}

fn start_with(config: ServeConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn submit(addr: SocketAddr, rows: usize) -> String {
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(rows)));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    top_level_str(&accepted.body, "job_id")
}

/// A panic in the mining kernel mid-level fails that job — and only that
/// job. The process keeps serving and the next submission completes.
#[test]
fn worker_panic_mid_level_fails_the_job_not_the_process() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("panic");
    let (addr, handle) = start(state.clone());
    // The default pipeline mines with the vertical algorithm.
    failpoint::arm_once("mining::vertical", FailAction::Panic, 1);

    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "failed");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 409);
    assert!(result.body.contains("panic"), "{}", result.body);

    // Still alive, still admitting, still completing work.
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    let second = submit(addr, 120);
    assert_eq!(await_terminal(addr, &second), "done");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// A worker thread that dies outside the per-job isolation is detected by
/// the supervisor and respawned; its job is settled as failed by the lease,
/// so no client waits on a job nobody owns.
#[test]
fn dead_worker_is_respawned_and_its_job_settled() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("respawn");
    let (addr, handle) = start(state.clone());
    failpoint::arm_once("serve::worker", FailAction::Panic, 1);

    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "failed");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 409);
    assert!(result.body.contains("worker lost"), "{}", result.body);

    // The pool got its thread back: new work still completes.
    let second = submit(addr, 120);
    assert_eq!(await_terminal(addr, &second), "done");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// A failing checkpoint write degrades durability, not correctness: the run
/// completes and serves its full result.
#[test]
fn checkpoint_write_failure_degrades_not_dies() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("ckpt");
    let (addr, handle) = start(state.clone());
    failpoint::arm_once(
        "checkpoint::write",
        FailAction::Error("disk full".into()),
        1,
    );

    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 200);
    assert!(result.body.contains("\"subgroups\""), "{}", result.body);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// An injected admission fault sheds the one submission with 429 and leaves
/// the service untouched; once disarmed, the same submission is accepted,
/// and its result matches a run that never saw a fault byte for byte.
#[test]
fn injected_queue_fault_sheds_cleanly() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("queue");
    let (addr, handle) = start(state.clone());
    failpoint::arm_once("serve::queue", FailAction::Error("injected".into()), 1);

    let shed = http(addr, "POST", "/jobs", &submission(&sample_csv(120)));
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.body.contains("injected"), "{}", shed.body);

    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    shutdown(addr, handle);

    // Control on a clean server: the post-fault result is byte-identical.
    let faulted = http_result_body(&state, &job_id);
    let control_state = tmp_state_dir("queue-control");
    let (addr, handle) = start(control_state.clone());
    let control_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &control_id), "done");
    let control = http(addr, "GET", &format!("/jobs/{control_id}/result"), "");
    shutdown(addr, handle);
    assert_eq!(
        faulted, control.body,
        "fault handling must not change results"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

/// Reads a finished job's sealed result body straight from its state
/// directory (for comparing results across server instances).
fn http_result_body(state: &std::path::Path, job_id: &str) -> String {
    let marker = state.join("jobs").join(job_id).join("done.hdx");
    let payload = h_divexplorer::checkpoint::read_sealed(&marker).expect("marker");
    h_divexplorer::serve::DoneRecord::decode(&payload)
        .expect("decodes")
        .body
}

/// A transient fault on the job path is retried with backoff and the job
/// still completes — with the byte-identical result of an untroubled run.
#[test]
fn transient_job_fault_retries_to_the_identical_result() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("transient");
    let (addr, handle) = start(state.clone());
    failpoint::arm_once("serve::job", FailAction::Error("blip".into()), 1);

    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert!(
        status.body.contains("\"attempts\":2") && status.body.contains("blip"),
        "the retry must be visible in the status: {}",
        status.body
    );
    shutdown(addr, handle);

    let retried = http_result_body(&state, &job_id);
    let control_state = tmp_state_dir("transient-control");
    let (addr, handle) = start(control_state.clone());
    let control_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &control_id), "done");
    let control = http(addr, "GET", &format!("/jobs/{control_id}/result"), "");
    shutdown(addr, handle);
    assert_eq!(retried, control.body, "retries must not change results");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

/// Exhausted retries are a terminal failure, not a hang: a persistently
/// transient job settles as failed with the retry log attached.
#[test]
fn exhausted_retries_settle_as_failure() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("exhausted");
    let (addr, handle) = start(state.clone());
    // Fires on every hit: no attempt can ever succeed.
    failpoint::arm("serve::job", FailAction::Error("always down".into()), 1);

    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "failed");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 409);
    assert!(result.body.contains("retries exhausted"), "{}", result.body);
    failpoint::disarm("serve::job");

    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// The integer member `ingest.<key>` of a status document (0 when absent).
fn ingest_u64(status: &str, key: &str) -> u64 {
    let doc = parse(status).unwrap_or_else(|e| panic!("{e}: {status}"));
    doc.get("ingest")
        .and_then(|ingest| ingest.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Polls until the job is `done` with `rows` WAL rows folded into its
/// sealed result; returns that status document.
fn await_folded(addr: SocketAddr, job_id: &str, rows: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = await_terminal(addr, job_id);
        let status = http(addr, "GET", &format!("/jobs/{job_id}"), "").body;
        if state == "done" && ingest_u64(&status, "folded_rows") == rows {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "job `{job_id}` never folded {rows} rows: {status}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// Concurrent appends cannot overrun the backlog bound together: each one
/// checks it under the job's WAL slot lock, against the rows the appends
/// before it made durable. With folding disabled, the first 60-row batch
/// fits under a 100-row bound and every other one sheds.
#[test]
fn concurrent_appends_cannot_overrun_the_backlog_bound() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("backlog-race");
    let (addr, handle) = start_with(ServeConfig {
        append_backlog_max_rows: 100,
        ..chaos_config(state.clone())
    });
    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    failpoint::arm(
        "serve::ingest::fold",
        FailAction::Error("no fold".into()),
        1,
    );

    let batch = Arc::new(sample_rows(120..180));
    let path = Arc::new(format!("/jobs/{job_id}/append"));
    let start_line = Arc::new(Barrier::new(8));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let (batch, path, start_line) = (
                Arc::clone(&batch),
                Arc::clone(&path),
                Arc::clone(&start_line),
            );
            thread::spawn(move || {
                start_line.wait();
                http(addr, "POST", &path, &batch).status
            })
        })
        .collect();
    let statuses: Vec<u16> = clients
        .into_iter()
        .map(|client| client.join().expect("client"))
        .collect();
    let count = |code| statuses.iter().filter(|&&s| s == code).count();
    assert_eq!((count(202), count(429)), (1, 7), "{statuses:?}");

    // The one accepted batch re-queued the job; its re-mine cannot fold.
    assert_eq!(await_terminal(addr, &job_id), "failed");
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "").body;
    assert_eq!(ingest_u64(&status, "durable_rows"), 60, "{status}");
    let wal_dir = state.join("jobs").join(&job_id).join("wal");
    let (rows, _) = h_divexplorer::ingest::replay_dir(&wal_dir).expect("replay the WAL");
    assert_eq!(rows.len(), 60);
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// Submits a job, tears one append with a short write and lands the next,
/// and waits for the re-mine to fold the landed batch. With
/// `fail_heal_save`, the ingest-cursor write that persists the heal's
/// quarantine totals fails. Returns the job id and its status document.
fn heal_a_torn_append(addr: SocketAddr, fail_heal_save: bool) -> (String, String) {
    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    let path = format!("/jobs/{job_id}/append");

    failpoint::arm_once(
        "ingest::wal::append",
        FailAction::Io(IoFault::ShortWrite),
        1,
    );
    let torn = http(addr, "POST", &path, &sample_rows(120..150));
    assert_eq!(torn.status, 500, "{}", torn.body);
    if fail_heal_save {
        // The heal's cursor save is the next sealed-file write.
        failpoint::arm_once("durable::write", FailAction::Error("disk full".into()), 1);
    }
    let healed = http(addr, "POST", &path, &sample_rows(150..180));
    assert_eq!(healed.status, 202, "{}", healed.body);

    let status = await_folded(addr, &job_id, 30);
    assert!(ingest_u64(&status, "quarantined_frames") >= 1, "{status}");
    assert_eq!(ingest_u64(&status, "durable_rows"), 30, "{status}");
    (job_id, status)
}

/// A torn append costs only itself. The short write answers 500 and leaves
/// the job's WAL slot empty, so the next append reopens the WAL and
/// quarantines the torn bytes into the status document, and the re-mine
/// matches a cold run over the acknowledged rows.
#[test]
fn torn_append_is_healed_by_the_next_append() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("torn-append");
    let (addr, handle) = start(state.clone());
    let (job_id, _) = heal_a_torn_append(addr, false);
    shutdown(addr, handle);

    // Control: a cold run over the base rows and the acknowledged batch.
    let streamed = http_result_body(&state, &job_id);
    let control_state = tmp_state_dir("torn-append-control");
    let (addr, handle) = start(control_state.clone());
    let cold_csv = format!("{}{}", sample_csv(120), sample_rows(150..180));
    let accepted = http(addr, "POST", "/jobs", &submission(&cold_csv));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let control_id = top_level_str(&accepted.body, "job_id");
    assert_eq!(await_terminal(addr, &control_id), "done");
    let control = http(addr, "GET", &format!("/jobs/{control_id}/result"), "");
    shutdown(addr, handle);
    assert_eq!(
        streamed, control.body,
        "healing a torn append must not change the result"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

/// A restart leaves a finished job's status document as it was: the
/// attempts and the retry log come from the sealed record, and the
/// quarantine totals of a heal made at append time from the job's ingest
/// cursor. When the heal's own cursor write is lost, the post-run hook
/// writes the totals back.
#[test]
fn a_restart_leaves_a_finished_jobs_status_unchanged() {
    let _guard = ChaosGuard::acquire();
    let status_across_a_restart = |state: &PathBuf, job_id: &str, before: String| {
        let (addr, handle) = start(state.clone());
        let after = http(addr, "GET", &format!("/jobs/{job_id}"), "").body;
        shutdown(addr, handle);
        assert_eq!(after, before, "a restart must not change the status");
        let _ = std::fs::remove_dir_all(state);
    };
    for fail_heal_save in [false, true] {
        let state = tmp_state_dir(&format!("restart-status-{fail_heal_save}"));
        let (addr, handle) = start(state.clone());
        let (job_id, before) = heal_a_torn_append(addr, fail_heal_save);
        assert!(before.contains("\"attempts\":2"), "{before}");
        shutdown(addr, handle);
        status_across_a_restart(&state, &job_id, before);
    }

    // A job whose first attempt hit a transient fault.
    let state = tmp_state_dir("restart-status-retry");
    let (addr, handle) = start(state.clone());
    failpoint::arm_once("serve::job", FailAction::Error("blip".into()), 1);
    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    let before = http(addr, "GET", &format!("/jobs/{job_id}"), "").body;
    assert!(
        before.contains("\"attempts\":2")
            && before.contains("\"retries\":[\"injected job failure: blip\"]"),
        "{before}"
    );
    shutdown(addr, handle);
    status_across_a_restart(&state, &job_id, before);
}

/// An append whose WAL open heals something persists the job's new
/// quarantine totals before it answers, so they survive a crash even when
/// no re-mine finishes: here every re-mine fails at its fold, and the
/// post-run hook never runs.
#[test]
fn a_heal_persists_its_totals_before_the_append_answers() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("heal-persist");
    let (addr, handle) = start(state.clone());
    let job_id = submit(addr, 120);
    assert_eq!(await_terminal(addr, &job_id), "done");
    failpoint::arm(
        "serve::ingest::fold",
        FailAction::Error("no fold".into()),
        1,
    );
    failpoint::arm_once(
        "ingest::wal::append",
        FailAction::Io(IoFault::ShortWrite),
        1,
    );
    let path = format!("/jobs/{job_id}/append");
    assert_eq!(
        http(addr, "POST", &path, &sample_rows(120..150)).status,
        500
    );
    assert_eq!(
        http(addr, "POST", &path, &sample_rows(150..180)).status,
        202
    );

    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "").body;
    let cursor_path = state
        .join("jobs")
        .join(&job_id)
        .join(h_divexplorer::ingest::CURSOR_FILE);
    let cursor = h_divexplorer::ingest::IngestCursor::load(&cursor_path)
        .expect("cursor readable")
        .expect("cursor present");
    assert!(cursor.quarantined_frames >= 1, "{cursor:?}");
    assert_eq!(
        (cursor.quarantined_frames, cursor.quarantined_bytes),
        (
            ingest_u64(&status, "quarantined_frames"),
            ingest_u64(&status, "quarantined_bytes")
        ),
        "{status}"
    );
    assert_eq!(await_terminal(addr, &job_id), "failed");
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

/// The `wal-open.log` files this process holds open under `root`.
#[cfg(target_os = "linux")]
fn open_wal_files(root: &std::path::Path) -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
        .filter(|target| {
            target.starts_with(root)
                && target.file_name() == Some(h_divexplorer::ingest::OPEN_FILE.as_ref())
        })
        .collect()
}

/// A job's WAL stays open only while the job is queued or running. Stalled
/// re-mines keep the appended jobs' WAL files open; once every job has
/// re-mined to `done`, none is.
#[cfg(target_os = "linux")]
#[test]
fn settled_jobs_hold_no_open_wal() {
    let _guard = ChaosGuard::acquire();
    let state = tmp_state_dir("wal-fds");
    let (addr, handle) = start(state.clone());
    let root = state.canonicalize().expect("state dir");
    // One at a time: the tenant may hold two jobs in flight.
    let jobs: Vec<String> = (0..3)
        .map(|_| {
            let job_id = submit(addr, 120);
            assert_eq!(await_terminal(addr, &job_id), "done");
            job_id
        })
        .collect();
    failpoint::arm(
        "serve::ingest::fold",
        FailAction::Stall(Duration::from_millis(200)),
        1,
    );
    for (i, job_id) in jobs.iter().enumerate() {
        let rows = sample_rows(120 + 10 * i..130 + 10 * i);
        let appended = http(addr, "POST", &format!("/jobs/{job_id}/append"), &rows);
        assert_eq!(appended.status, 202, "{}", appended.body);
    }
    // One worker re-mines the jobs in turn, each stalled at its fold: the
    // last job's WAL is still open.
    assert!(
        !open_wal_files(&root).is_empty(),
        "appends keep the WAL open"
    );
    for job_id in &jobs {
        await_folded(addr, job_id, 10);
    }
    assert_eq!(open_wal_files(&root), Vec::<PathBuf>::new());
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(&state);
}

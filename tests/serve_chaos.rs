//! Chaos tests for the job service (compiled only with `--features
//! hdx-fail`): inject worker panics, worker-thread deaths, checkpoint-write
//! failures, transient job faults, and admission faults, and assert the
//! robustness contract — the process stays up, overload sheds cleanly, and
//! injected faults never corrupt a job's result.
//!
//! The fail-point registry is process-global and several of these points
//! sit on the shared job path, so every test serialises on one lock and
//! resets the registry on entry and exit.

#![cfg(feature = "hdx-fail")]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread;

use h_divexplorer::governor::failpoint::{self, FailAction};
use h_divexplorer::serve::{ServeConfig, Server};

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

fn sample_csv(rows: usize) -> String {
    let mut csv = String::from("class,pred,age,grp\n");
    for r in 0..rows {
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

fn submission(csv: &str) -> String {
    format!(
        r#"{{"csv":"{}","stat":"fpr","support":0.05,"checkpoint_every":1}}"#,
        hdx_obs::json::escape(csv)
    )
}

fn start(state_dir: PathBuf) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir,
        workers: 1,
        retry_base_ms: 5,
        ..ServeConfig::default()
    })
    .expect("bind");
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

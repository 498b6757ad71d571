//! End-to-end service tests over real TCP: submit → poll → result, overload
//! shedding, cooperative cancel, graceful drain, and crash-style recovery
//! (a second server over the same state directory resumes the orphaned job
//! and serves the byte-identical result an uninterrupted server produces).

use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use hdx_serve::Server;

mod common;

use common::*;

#[test]
fn submit_poll_result_lifecycle() {
    let state = tmp_state_dir("lifecycle");
    let (addr, handle) = start(config(state.clone()));
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    assert_eq!(http(addr, "GET", "/readyz", "").status, 200);

    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(200), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);

    // Not finished yet (or already done on a fast machine) — the result
    // endpoint must never 500 either way.
    let early = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert!(
        early.status == 200 || early.status == 409,
        "{}",
        early.headers
    );

    assert_eq!(await_terminal(addr, &job_id), "done");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 200);
    assert!(result.body.contains("\"subgroups\""), "{}", result.body);
    assert!(result.body.contains("\"termination\":\"complete\""));

    assert_eq!(http(addr, "GET", "/jobs/j-9999999999", "").status, 404);
    assert_eq!(
        http(addr, "POST", "/jobs", "{not json").status,
        400,
        "malformed submissions are rejected"
    );

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// A separator the CSV reader treats as syntax (a quote or a line break)
/// is refused at submission, before any job is admitted.
#[test]
fn a_separator_that_is_csv_syntax_is_a_400() {
    let state = tmp_state_dir("syntax-separator");
    let (addr, handle) = start(config(state.clone()));
    for separator in [r#"\""#, r"\n", r"\r"] {
        let body = format!(r#"{{"csv":"a\nb\n1\n2\n","separator":"{separator}"}}"#);
        let rejected = http(addr, "POST", "/jobs", &body);
        assert_eq!(rejected.status, 400, "{}", rejected.body);
        assert!(
            rejected
                .body
                .contains("`separator` cannot be a quote or a line break"),
            "{}",
            rejected.body
        );
    }
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// Any single character that is not CSV syntax separates a served job's
/// fields: a job whose rows are split by `€`, grown by an append split the
/// same way, serves the result of the same rows split by `,`.
#[test]
fn a_multibyte_separator_serves_the_comma_result() {
    let state = tmp_state_dir("euro-separator");
    let (addr, handle) = start(config(state.clone()));
    let submit = |csv: &str, separator: &str| {
        let body = format!(
            r#"{{"csv":"{}","separator":"{separator}","stat":"fpr","support":0.02}}"#,
            hdx_serve::json::escape(csv)
        );
        let accepted = http(addr, "POST", "/jobs", &body);
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        extract_job_id(&accepted.body)
    };
    let comma = submit(&sample_csv(240), ",");
    let euro = submit(&sample_csv(200).replace(',', "€"), "€");
    assert_eq!(await_terminal(addr, &euro), "done");
    let rows = sample_rows(200..240).replace(',', "€");
    let appended = http(addr, "POST", &format!("/jobs/{euro}/append"), &rows);
    assert_eq!(appended.status, 202, "{}", appended.body);
    // The append re-queues the job; it is settled once no row is pending.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = await_terminal(addr, &euro);
        let status = http(addr, "GET", &format!("/jobs/{euro}"), "");
        if state == "done" && status.body.contains("\"pending_rows\":0") {
            break;
        }
        assert!(Instant::now() < deadline, "never folded: {}", status.body);
        thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(await_terminal(addr, &comma), "done");
    let result = |job_id: &str| http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    let (comma, euro) = (result(&comma), result(&euro));
    assert_eq!(euro.status, 200, "{}", euro.body);
    assert!(euro.body.contains("\"n_rows\":240"), "{}", euro.body);
    assert_eq!(euro.body, comma.body);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// A submission nested a million levels deep is a 400, not a stack
/// overflow that takes the whole service down.
#[test]
fn deeply_nested_submission_is_rejected_and_the_service_stays_up() {
    let state = tmp_state_dir("deep");
    let (addr, handle) = start(config(state.clone()));
    let body = format!("{{\"csv\":{}", "[".repeat(1_000_000));
    let rejected = http(addr, "POST", "/jobs", &body);
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    assert!(rejected.body.contains("invalid JSON"), "{}", rejected.body);
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn overload_sheds_with_retry_after_and_draining_refuses_work() {
    let state = tmp_state_dir("overload");
    let mut cfg = config(state.clone());
    cfg.tenant_max_jobs = 1;
    let (addr, handle) = start(cfg);

    // Slot 1: a job big enough to still be in flight when the second
    // submission lands a millisecond later.
    let first = http(
        addr,
        "POST",
        "/jobs",
        &submission(&sample_csv(4000), "acme"),
    );
    assert_eq!(first.status, 202, "{}", first.body);
    let first_id = extract_job_id(&first.body);

    let shed = http(addr, "POST", "/jobs", &submission(&sample_csv(10), "acme"));
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(
        shed.headers.contains("Retry-After:"),
        "shed responses advise a retry: {}",
        shed.headers
    );
    // Another tenant is unaffected by acme's cap.
    let other = http(addr, "POST", "/jobs", &submission(&sample_csv(10), "zen"));
    assert_eq!(other.status, 202, "{}", other.body);

    assert_eq!(await_terminal(addr, &first_id), "done");

    // Draining: readiness flips and submissions shed with 503. The late
    // connection opens before the drain, so a handler already holds it
    // when the request arrives; one still in the listen backlog when the
    // drain completes would be reset as the listener drops.
    let late = TcpStream::connect(addr).expect("connect");
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    let late = exchange(late, "POST", "/jobs", &submission(&sample_csv(10), "acme"));
    assert_eq!(late.status, 503, "{}", late.body);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn cancel_is_cooperative_and_keeps_partial_results() {
    let state = tmp_state_dir("cancel");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(
        addr,
        "POST",
        "/jobs",
        &submission(&sample_csv(4000), "acme"),
    );
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);

    let cancelled = http(addr, "POST", &format!("/jobs/{job_id}/cancel"), "");
    assert_eq!(cancelled.status, 202, "{}", cancelled.body);

    // A user cancel is terminal-with-results: the job finishes "done" with
    // a cancelled termination (or "complete" if it beat the cancel).
    assert_eq!(await_terminal(addr, &job_id), "done");
    let result = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(result.status, 200, "{}", result.body);
    assert!(
        result.body.contains("\"termination\":\"cancelled\"")
            || result.body.contains("\"termination\":\"complete\""),
        "{}",
        result.body
    );

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// Submits a job of `rows` rows to a fresh server and drains it at once,
/// then binds server #2 over the same state directory. A job that finished
/// before the drain landed leaves no orphan to recover, so the step is
/// repeated in a fresh state directory with twice the rows, until server
/// #2's recovery notes name the orphan (at most 6 attempts). Returns the
/// state directory, the CSV, the job id and server #2.
fn drain_an_orphan(mut rows: usize) -> (PathBuf, String, String, Server) {
    let mut notes = Vec::new();
    for attempt in 0..6 {
        let state = tmp_state_dir(&format!("recovery-{attempt}"));
        let csv = sample_csv(rows);

        // Server #1 accepts the job and is immediately drained: whether the
        // job was still queued or already mining, it must land on disk
        // incomplete.
        let (addr, handle) = start(config(state.clone()));
        let accepted = http(addr, "POST", "/jobs", &submission(&csv, "acme"));
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let job_id = extract_job_id(&accepted.body);
        assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
        handle.join().expect("drain");

        let server = Server::bind(config(state.clone())).expect("rebind");
        if server
            .recovery_notes
            .iter()
            .any(|n| n.contains(&job_id) && n.contains("resuming"))
        {
            return (state, csv, job_id, server);
        }
        notes = server.recovery_notes;
        let _ = std::fs::remove_dir_all(&state);
        rows *= 2;
    }
    panic!("recovery notes must name the orphan: {notes:?}");
}

#[test]
fn drain_then_restart_resumes_the_job_to_identical_bytes() {
    // Server #2 over the drained state directory: the orphan scan re-queues
    // the job and runs it to completion.
    let (state, csv, job_id, server) = drain_an_orphan(600);
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));
    assert_eq!(await_terminal(addr, &job_id), "done");
    let resumed = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(resumed.status, 200);
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert!(status.body.contains("\"resumed\":true"), "{}", status.body);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");

    // Control: an uninterrupted server over a fresh state directory.
    let control_state = tmp_state_dir("recovery-control");
    let (addr, handle) = start(config(control_state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&csv, "acme"));
    let control_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &control_id), "done");
    let control = http(addr, "GET", &format!("/jobs/{control_id}/result"), "");
    assert_eq!(control.status, 200);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");

    assert_eq!(
        resumed.body, control.body,
        "a recovered job must serve the byte-identical result"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

#[test]
fn metrics_scrape_is_valid_exposition_in_every_build() {
    let state = tmp_state_dir("metrics");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(100), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");

    let scrape = http(addr, "GET", "/metrics", "");
    assert_eq!(scrape.status, 200, "{}", scrape.body);
    assert!(
        scrape.headers.contains("text/plain; version=0.0.4"),
        "exposition content type: {}",
        scrape.headers
    );
    // The grammar self-check is the contract: whatever this build records
    // (all-zero without `obs`), the page must parse as text-format 0.0.4.
    hdx_obs::expo::check_grammar(&scrape.body).expect("scrape page grammar");
    for family in [
        "hdx_serve_jobs_submitted_total",
        "hdx_serve_live_queue_depth",
        "hdx_serve_live_worker_utilization",
        "hdx_discretize_split_gain_eval_ns_bucket",
    ] {
        assert!(scrape.body.contains(family), "missing `{family}`");
    }
    // Counters must be cumulative across scrapes (Prometheus semantics):
    // a second scrape parses too and never goes backwards.
    let again = http(addr, "GET", "/metrics", "");
    hdx_obs::expo::check_grammar(&again.body).expect("second scrape grammar");
    let submitted = |body: &str| {
        body.lines()
            .find(|l| l.starts_with("hdx_serve_jobs_submitted_total "))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("submitted counter sample")
    };
    assert!(submitted(&again.body) >= submitted(&scrape.body));

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// The page serves only what the service records: the bench harness times
/// itself, so no `hdx_bench_` family sits on it, always empty, and the
/// split-gain distribution is its one histogram.
#[test]
fn metrics_page_has_no_bench_family() {
    let state = tmp_state_dir("no-bench-family");
    let (addr, handle) = start(config(state.clone()));
    let scrape = http(addr, "GET", "/metrics", "");
    assert_eq!(scrape.status, 200, "{}", scrape.body);
    assert!(
        !scrape.body.contains("hdx_bench_"),
        "a bench family is served:\n{}",
        scrape.body
    );
    let histograms: Vec<&str> = scrape
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    assert_eq!(histograms, ["hdx_discretize_split_gain_eval_ns"]);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn oversized_bodies_are_refused_before_they_are_read() {
    let state = tmp_state_dir("toobig");
    let mut cfg = config(state.clone());
    cfg.max_body_bytes = 512;
    let (addr, handle) = start(cfg);
    let big = http(addr, "POST", "/jobs", &submission(&sample_csv(500), "acme"));
    assert_eq!(big.status, 413, "{}", big.headers);
    // The service is still healthy afterwards.
    assert_eq!(http(addr, "GET", "/healthz", "").status, 200);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

//! Streaming-ingestion tests over real TCP: appended rows re-mine to the
//! byte-identical result a cold run on the concatenated dataset produces,
//! backlogged appends shed with `429 Retry-After` plus a jittered retry
//! hint, malformed rows are rejected before they reach the WAL, and a torn
//! WAL tail is quarantined into the status document instead of failing
//! recovery.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use hdx_serve::Server;

mod common;

use common::*;
use hdx_obs::json::{parse, Json};

/// The top-level integer member `key` of a JSON body.
fn top_level_u64(body: &str, key: &str) -> u64 {
    let doc = parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no integer `{key}` in {body}"))
}

/// The integer member `key` of a status document's `ingest` block.
fn ingest_u64(status: &str, key: &str) -> u64 {
    let doc = parse(status).unwrap_or_else(|e| panic!("{e}: {status}"));
    doc.get("ingest")
        .and_then(|ingest| ingest.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no `ingest.{key}` in {status}"))
}

/// Polls until the job's sealed result covers every durable WAL row (the
/// append endpoint re-queues finished jobs, so "done" alone can still be
/// the *pre-append* result for a moment).
fn await_folded(addr: SocketAddr, job_id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = await_terminal(addr, job_id);
        let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
        let no_ingest = parse(&status.body).is_ok_and(|doc| doc.get("ingest").is_none());
        if no_ingest || ingest_u64(&status.body, "pending_rows") == 0 {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "job `{job_id}` never folded its appends: {}",
            status.body
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// The acceptance bar for the whole ingestion pipeline: a job that grows by
/// streamed appends — including appends landing after the job finished —
/// must serve the byte-identical ranked results a cold submission of the
/// concatenated CSV produces.
#[test]
fn appended_rows_remine_to_the_cold_run_bytes() {
    let state = tmp_state_dir("remine");
    let (addr, handle) = start(config(state.clone()));

    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(300), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");

    // Two append batches: the first against a finished job (explicit
    // re-queue), the second racing whatever state the first left behind.
    let batch_a = sample_rows(300..360);
    let appended = http(addr, "POST", &format!("/jobs/{job_id}/append"), &batch_a);
    assert_eq!(appended.status, 202, "{}", appended.body);
    assert_eq!(top_level_u64(&appended.body, "durable_rows"), 60);
    let batch_b = sample_rows(360..400);
    let appended = http(addr, "POST", &format!("/jobs/{job_id}/append"), &batch_b);
    assert_eq!(appended.status, 202, "{}", appended.body);
    assert_eq!(top_level_u64(&appended.body, "durable_rows"), 100);

    assert_eq!(await_folded(addr, &job_id), "done");
    let streamed = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(streamed.status, 200, "{}", streamed.body);

    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(ingest_u64(&status.body, "durable_rows"), 100);
    assert_eq!(ingest_u64(&status.body, "folded_rows"), 100);
    assert_eq!(ingest_u64(&status.body, "pending_rows"), 0);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");

    // Control: one cold submission of the full 400-row dataset.
    let control_state = tmp_state_dir("remine-control");
    let (addr, handle) = start(config(control_state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(400), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let control_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &control_id), "done");
    let control = http(addr, "GET", &format!("/jobs/{control_id}/result"), "");
    assert_eq!(control.status, 200);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");

    assert_eq!(
        streamed.body, control.body,
        "streamed appends must serve the cold run's bytes"
    );
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&control_state);
}

#[test]
fn append_backlog_sheds_with_jittered_retry_guidance() {
    let state = tmp_state_dir("backlog");
    let mut cfg = config(state.clone());
    cfg.append_backlog_max_rows = 2;
    let (addr, handle) = start(cfg);

    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(50), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");

    // Three rows against a two-row backlog cap: shed, whole batch refused.
    let shed = http(
        addr,
        "POST",
        &format!("/jobs/{job_id}/append"),
        &sample_rows(50..53),
    );
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(
        shed.headers.contains("Retry-After:"),
        "shed appends advise a retry: {}",
        shed.headers
    );
    assert!(
        top_level_u64(&shed.body, "retry_after_ms") >= 1,
        "{}",
        shed.body
    );
    assert!(shed.body.contains("jittered exponential backoff"));
    // Nothing landed: the WAL directory stays absent or empty of rows.
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert!(
        parse(&status.body).is_ok_and(|doc| doc.get("ingest").is_none()),
        "a fully-shed append must not create durable rows: {}",
        status.body
    );

    // A batch within the cap is accepted.
    let ok = http(
        addr,
        "POST",
        &format!("/jobs/{job_id}/append"),
        &sample_rows(50..52),
    );
    assert_eq!(ok.status, 202, "{}", ok.body);

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn malformed_appends_are_rejected_before_the_wal() {
    let state = tmp_state_dir("badrows");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(50), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);

    // Wrong column count: the dataset has five fields.
    let bad = http(addr, "POST", &format!("/jobs/{job_id}/append"), "1,0,3\n");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.contains("field(s)"), "{}", bad.body);
    // Empty body.
    let empty = http(addr, "POST", &format!("/jobs/{job_id}/append"), "\n\n");
    assert_eq!(empty.status, 400, "{}", empty.body);
    // Unknown job.
    let lost = http(addr, "POST", "/jobs/j-9999999999/append", "1,0,3,4,a\n");
    assert_eq!(lost.status, 404, "{}", lost.body);

    assert_eq!(await_terminal(addr, &job_id), "done");
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// Appended rows are split the way the loader splits them: a quoted
/// separator is one field (accepted, and the re-mine reads it), while a
/// stray or unterminated quote is refused before the WAL — acknowledging it
/// would make every later re-mine fail to read the dataset.
#[test]
fn appended_rows_are_split_like_the_loader_splits_them() {
    let state = tmp_state_dir("quoting");
    let (addr, handle) = start(config(state.clone()));
    // The header is the first non-blank line, for the loader and the
    // append check alike.
    let csv = format!("\n{}", sample_csv(50));
    let accepted = http(addr, "POST", "/jobs", &submission(&csv, "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");

    for bad in ["1,0,3,4,a\"b\n", "1,0,3,4,\"open\n", "1,0,\"3\"x\"y,4,a\n"] {
        let refused = http(addr, "POST", &format!("/jobs/{job_id}/append"), bad);
        assert_eq!(refused.status, 400, "{bad:?}: {}", refused.body);
        assert!(refused.body.contains("quote"), "{bad:?}: {}", refused.body);
    }
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert!(
        parse(&status.body).is_ok_and(|doc| doc.get("ingest").is_none()),
        "a refused append must not create durable rows: {}",
        status.body
    );

    let quoted = "1,0,3,4,\"Smith, J\"\n0,1,5,6,\"say \"\"hi\"\"\"\n";
    let appended = http(addr, "POST", &format!("/jobs/{job_id}/append"), quoted);
    assert_eq!(appended.status, 202, "{}", appended.body);
    assert_eq!(top_level_u64(&appended.body, "durable_rows"), 2);
    assert_eq!(await_folded(addr, &job_id), "done");
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(
        ingest_u64(&status.body, "folded_rows"),
        2,
        "{}",
        status.body
    );

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

/// Degrade-not-die: a torn frame at the WAL tail (the bytes a `kill -9`
/// mid-append leaves behind) is quarantined at the next recovery — the job
/// still re-mines the durable prefix and the status document reports the
/// dropped bytes instead of the service failing the job.
#[test]
fn torn_wal_tail_is_quarantined_into_the_status_document() {
    let state = tmp_state_dir("torn");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(300), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");
    let appended = http(
        addr,
        "POST",
        &format!("/jobs/{job_id}/append"),
        &sample_rows(300..320),
    );
    assert_eq!(appended.status, 202, "{}", appended.body);
    assert_eq!(await_folded(addr, &job_id), "done");
    let clean = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(clean.status, 200);
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");

    // Simulate the torn tail: a frame header promising more bytes than the
    // file holds, exactly what an interrupted append leaves.
    let open_log = state
        .join("jobs")
        .join(&job_id)
        .join("wal")
        .join(hdx_ingest::OPEN_FILE);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&open_log)
            .expect("open WAL tail");
        f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB])
            .expect("tear the tail");
    }

    // Restart over the same state directory: recovery quarantines the torn
    // bytes, notes it, and the job still serves its (unchanged) result.
    let server = Server::bind(config(state.clone())).expect("rebind");
    assert!(
        server
            .recovery_notes
            .iter()
            .any(|n| n.contains(&job_id) && n.contains("quarantin")),
        "recovery notes must mention the quarantine: {:?}",
        server.recovery_notes
    );
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));
    assert_eq!(await_folded(addr, &job_id), "done");
    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert!(
        ingest_u64(&status.body, "quarantined_frames") >= 1,
        "{}",
        status.body
    );
    assert!(
        ingest_u64(&status.body, "quarantined_bytes") >= 6,
        "{}",
        status.body
    );
    assert_eq!(ingest_u64(&status.body, "durable_rows"), 20);
    let after = http(addr, "GET", &format!("/jobs/{job_id}/result"), "");
    assert_eq!(after.status, 200);
    assert_eq!(
        after.body, clean.body,
        "quarantining the torn tail must not change the durable rows' result"
    );
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

//! End-to-end tests for the live observability plane (`obs` feature):
//! chunked event streaming, a stalled consumer that never holds up the
//! worker (events land in the job's journal, not on its socket),
//! byte-identical replay across a restart, and the progress summary
//! embedded in `GET /jobs/<id>`.
#![cfg(feature = "obs")]

use std::io::Write;
use std::net::TcpStream;

mod common;

use common::*;

/// Decodes a `Transfer-Encoding: chunked` payload back into its bytes.
fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    while let Some(nl) = rest.find("\r\n") {
        let size = usize::from_str_radix(rest[..nl].trim(), 16).expect("chunk size");
        if size == 0 {
            break;
        }
        let start = nl + 2;
        out.push_str(&rest[start..start + size]);
        rest = &rest[start + size + 2..];
    }
    out
}

/// The event payload of a response whether the server streamed it (chunked,
/// live subscription) or buffered it (replay with `Content-Length`).
fn event_bytes(response: &Response) -> String {
    if response.headers.contains("Transfer-Encoding: chunked") {
        dechunk(&response.body)
    } else {
        response.body.clone()
    }
}

#[test]
fn live_stream_and_replay_serve_identical_bytes() {
    let state = tmp_state_dir("stream");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(400), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);

    // Follow the stream to its end: the server closes the response at the
    // job's terminal event, so this blocks until the run finishes.
    let streamed = event_bytes(&http(addr, "GET", &format!("/jobs/{job_id}/events"), ""));
    assert_eq!(await_terminal(addr, &job_id), "done");

    let first = streamed.lines().next().expect("at least one event");
    assert!(first.contains("\"seq\":0"), "{first}");
    assert!(first.contains("\"event\":\"admitted\""), "{first}");
    assert!(streamed.contains("\"event\":\"started\""), "{streamed}");
    assert!(streamed.contains("\"event\":\"level\""), "{streamed}");
    let last = streamed.lines().last().expect("terminal event");
    assert!(last.contains("\"event\":\"done\""), "{last}");
    assert!(last.contains("\"ok\":true"), "{last}");

    // The job is terminal now, so a second request replays the journal —
    // and must serve exactly the bytes the live stream delivered.
    let replay = http(addr, "GET", &format!("/jobs/{job_id}/events"), "");
    assert_eq!(replay.status, 200);
    assert_eq!(
        event_bytes(&replay),
        streamed,
        "live stream and journal replay must be byte-identical"
    );

    assert_eq!(
        http(addr, "GET", "/jobs/j-9999999999/events", "").status,
        404,
        "unknown jobs have no stream"
    );
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn stalled_stream_consumer_never_blocks_the_miner() {
    let state = tmp_state_dir("slow");
    let cfg = config(state.clone());
    let (addr, handle) = start(cfg);
    let accepted = http(
        addr,
        "POST",
        "/jobs",
        &submission(&sample_csv(3000), "acme"),
    );
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);

    // A consumer that subscribes and then never reads a single byte. The
    // worker must keep mining regardless: events are appended to the job's
    // journal, and only this follower's connection thread, reading that
    // journal, writes to the socket.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .write_all(format!("GET /jobs/{job_id}/events HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("subscribe");

    assert_eq!(
        await_terminal(addr, &job_id),
        "done",
        "the job must finish while the consumer stalls"
    );
    drop(stalled);

    // Durability was not sacrificed to backpressure: the journal replay
    // still carries the full stream from `admitted` to `done`.
    let replay = http(addr, "GET", &format!("/jobs/{job_id}/events"), "");
    let bytes = event_bytes(&replay);
    assert!(
        bytes.starts_with("{\"seq\":0,\"event\":\"admitted\""),
        "{bytes}"
    );
    assert!(bytes
        .lines()
        .last()
        .expect("done line")
        .contains("\"event\":\"done\""));

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn completed_job_replays_byte_identically_after_restart() {
    let state = tmp_state_dir("replay-restart");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(200), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");
    let before = event_bytes(&http(addr, "GET", &format!("/jobs/{job_id}/events"), ""));
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");

    // A new process over the same state directory serves the finished
    // job's stream from its durable journal, byte for byte. (The CI
    // serve-smoke job exercises the same contract across `kill -9`.)
    let (addr, handle) = start(config(state.clone()));
    let after = http(addr, "GET", &format!("/jobs/{job_id}/events"), "");
    assert_eq!(after.status, 200, "{}", after.body);
    assert_eq!(
        event_bytes(&after),
        before,
        "restart must not change a completed job's event stream"
    );
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn job_status_embeds_latest_progress() {
    let state = tmp_state_dir("progress");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(300), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = extract_job_id(&accepted.body);
    assert_eq!(await_terminal(addr, &job_id), "done");

    let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
    assert_eq!(status.status, 200);
    assert!(
        status.body.contains("\"progress\":{\"level\":"),
        "status must embed the latest governor snapshot: {}",
        status.body
    );
    assert!(status.body.contains("\"itemsets\":"), "{}", status.body);
    assert!(
        status.body.contains("\"deadline_remaining_ns\":"),
        "{}",
        status.body
    );

    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&state);
}

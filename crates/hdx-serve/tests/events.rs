//! End-to-end tests for the live observability plane (`obs` feature):
//! chunked event streaming, drop-oldest backpressure under a stalled
//! consumer, byte-identical replay across a restart, and the progress
//! summary embedded in `GET /jobs/<id>`.
#![cfg(feature = "obs")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use hdx_serve::{ServeConfig, Server};

struct Response {
    status: u16,
    headers: String,
    body: String,
}

/// One HTTP exchange; reads until the server closes the connection, so a
/// chunked event stream is consumed to its terminator.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(_) if !raw.is_empty() => break,
            Err(e) => panic!("read: {e}"),
        }
    }
    let raw = String::from_utf8_lossy(&raw).into_owned();
    let (head, payload) = raw.split_once("\r\n\r\n").expect("blank line");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    Response {
        status,
        headers: head.to_string(),
        body: payload.to_string(),
    }
}

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

fn tmp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx-serve-ev-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_csv(rows: usize) -> String {
    let mut csv = String::from("class,pred,age,income,grp\n");
    for r in 0..rows {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            u8::from(r % 3 == 0),
            u8::from(r % 4 == 0),
            r % 23,
            (r * 37) % 101,
            ["a", "b", "c", "d"][r % 4],
        ));
    }
    csv
}

fn submission(csv: &str, tenant: &str) -> String {
    format!(
        r#"{{"csv":"{}","tenant":"{tenant}","stat":"fpr","support":0.02,"checkpoint_every":1}}"#,
        hdx_serve::json::escape(csv)
    )
}

fn config(state_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir,
        workers: 1,
        ..ServeConfig::default()
    }
}

fn start(config: ServeConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

fn json_str_field(body: &str, key: &str) -> String {
    let marker = format!("\"{key}\":\"");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("no `{key}` in {body}"))
        + marker.len();
    let rest = &body[start..];
    rest[..rest.find('"').expect("closing quote")].to_string()
}

fn await_terminal(addr: SocketAddr, job_id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
        assert_eq!(status.status, 200, "{}", status.body);
        let state = json_str_field(&status.body, "state");
        if !matches!(state.as_str(), "queued" | "running" | "backoff") {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "job `{job_id}` stuck in `{state}`"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn live_stream_and_replay_serve_identical_bytes() {
    let state = tmp_state_dir("stream");
    let (addr, handle) = start(config(state.clone()));
    let accepted = http(addr, "POST", "/jobs", &submission(&sample_csv(400), "acme"));
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = json_str_field(&accepted.body, "job_id");

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
    let mut cfg = config(state.clone());
    // A tiny ring forces drop-oldest almost immediately once the consumer
    // stops draining its socket.
    cfg.events_ring_cap = 2;
    let (addr, handle) = start(cfg);
    let accepted = http(
        addr,
        "POST",
        "/jobs",
        &submission(&sample_csv(3000), "acme"),
    );
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let job_id = json_str_field(&accepted.body, "job_id");

    // A consumer that subscribes and then never reads a single byte. The
    // worker must keep mining regardless: event pushes land in the bounded
    // ring (dropping the oldest), never on this socket.
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
    let job_id = json_str_field(&accepted.body, "job_id");
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
    let job_id = json_str_field(&accepted.body, "job_id");
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

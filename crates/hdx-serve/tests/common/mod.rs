//! Helpers shared by the service's integration tests: a one-request HTTP
//! client, a loopback server, the sample job, and JSON field access through
//! the workspace's JSON parser.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use hdx_obs::json::{parse, Json};
use hdx_serve::{ServeConfig, Server};

/// One HTTP exchange (the service closes the connection per request).
pub struct Response {
    pub status: u16,
    pub headers: String,
    pub body: String,
}

/// Sends one request and reads until the server closes the connection, so
/// a chunked event stream is consumed to its terminator.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    exchange(
        TcpStream::connect(addr).expect("connect"),
        method,
        path,
        body,
    )
}

/// [`http`] over a connection the caller opened earlier.
pub fn exchange(mut stream: TcpStream, method: &str, path: &str, body: &str) -> Response {
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
            // A reset after the response arrived is expected when the
            // service refuses a body without reading it (413).
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

/// A fresh state directory for one test.
pub fn tmp_state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdx-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Data rows (no header) of the sample dataset.
pub fn sample_rows(range: std::ops::Range<usize>) -> String {
    let mut csv = String::new();
    for r in range {
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

/// The sample dataset with its header: large enough at a few hundred rows
/// that a job does not finish between two back-to-back requests, small
/// enough to complete well inside the poll deadline.
pub fn sample_csv(rows: usize) -> String {
    format!("class,pred,age,income,grp\n{}", sample_rows(0..rows))
}

/// The `POST /jobs` body for `csv`.
pub fn submission(csv: &str, tenant: &str) -> String {
    format!(
        r#"{{"csv":"{}","tenant":"{tenant}","stat":"fpr","support":0.02}}"#,
        hdx_serve::json::escape(csv)
    )
}

/// A one-worker loopback configuration over `state_dir`.
pub fn config(state_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir,
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Binds and runs a server on a background thread, returning its address
/// and the join handle (the thread exits when the server drains).
pub fn start(config: ServeConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("serve"));
    (addr, handle)
}

/// The top-level string member `key` of a JSON body.
pub fn top_level_str(body: &str, key: &str) -> String {
    let doc = parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {body}"))
        .to_string()
}

/// The `job_id` of a `202 Accepted` submission reply.
pub fn extract_job_id(body: &str) -> String {
    top_level_str(body, "job_id")
}

/// Polls a job until it leaves the active states, returning its final state.
pub fn await_terminal(addr: SocketAddr, job_id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = http(addr, "GET", &format!("/jobs/{job_id}"), "");
        assert_eq!(status.status, 200, "{}", status.body);
        let state = top_level_str(&status.body, "state");
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

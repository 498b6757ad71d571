//! Helpers shared by the root tests that drive a live job service: a
//! one-request HTTP client, job polling, and JSON field access through the
//! workspace's JSON parser.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use hdx_obs::json::{parse, Json};

/// One HTTP exchange (the service closes the connection per request).
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
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
        body: payload.to_string(),
    }
}

/// The top-level string member `key` of a JSON body.
pub fn top_level_str(body: &str, key: &str) -> String {
    let doc = parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {body}"))
        .to_string()
}

/// Polls until the job leaves its active states; returns the final state.
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
        thread::sleep(Duration::from_millis(10));
    }
}

/// Drains the server and joins its thread.
pub fn shutdown(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    assert_eq!(http(addr, "POST", "/shutdown", "").status, 202);
    handle.join().expect("drain");
}

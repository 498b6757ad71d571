//! An in-process hdx-serve instance on loopback and a minimal HTTP/1.1
//! client for it: one request per connection, as the server speaks.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hdx_obs::json::{parse, Json};
use hdx_serve::{ServeConfig, Server};

use crate::stats::ms;

/// How often a client polls a job's status.
const POLL: Duration = Duration::from_millis(1);
/// A job that has not settled by then counts as failed.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(60);

/// The service configuration every workload runs: the defaults (two
/// workers) over `state_dir`.
pub fn config(state_dir: &Path) -> ServeConfig {
    ServeConfig {
        state_dir: state_dir.to_path_buf(),
        ..ServeConfig::default()
    }
}

/// A running server; stopping it drains the workers and joins its thread.
pub struct Service {
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    pub addr: SocketAddr,
    pub state_dir: PathBuf,
}

impl Service {
    /// Binds a server (recovering what its state dir holds) and starts
    /// serving on a background thread.
    pub fn start(config: ServeConfig) -> Result<Self, String> {
        let state_dir = config.state_dir.clone();
        let server =
            Arc::new(Server::bind(config).map_err(|e| format!("cannot bind server: {e}"))?);
        let addr = server.local_addr();
        let runner = Arc::clone(&server);
        let thread = std::thread::spawn(move || runner.run());
        Ok(Self {
            server,
            thread: Some(thread),
            addr,
            state_dir,
        })
    }

    /// Drains the server and waits for its thread.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.server.shutdown();
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    /// The ingest WAL directory of job `id`.
    pub fn wal_dir(&self, id: &str) -> PathBuf {
        self.state_dir
            .join("jobs")
            .join(id)
            .join(hdx_serve::WAL_DIR)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One HTTP exchange: the status code and the body.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_nodelay(true).map_err(fail)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    stream.write_all(&request).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let text =
        String::from_utf8(raw).map_err(|_| format!("{method} {path}: reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// `call` that also requires the expected status code.
fn expect(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Result<String, String> {
    match call(addr, method, path, body)? {
        (status, reply) if status == want => Ok(reply),
        (status, reply) => Err(format!("{method} {path}: {status} {reply}")),
    }
}

/// `POST /jobs`; returns the job id.
pub fn submit(addr: SocketAddr, submission: &str) -> Result<String, String> {
    let reply = expect(addr, "POST", "/jobs", submission, 202)?;
    parse(&reply)
        .ok()
        .and_then(|json| {
            json.get("job_id")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .ok_or_else(|| format!("submit reply has no job id: {reply}"))
}

/// `GET /jobs/<id>/result`.
pub fn result(addr: SocketAddr, id: &str) -> Result<String, String> {
    expect(addr, "GET", &format!("/jobs/{id}/result"), "", 200)
}

/// `POST /jobs/<id>/append` of CSV rows.
pub fn append(addr: SocketAddr, id: &str, rows: &str) -> Result<(), String> {
    expect(addr, "POST", &format!("/jobs/{id}/append"), rows, 202).map(drop)
}

/// `GET /healthz`.
pub fn healthz(addr: SocketAddr) -> Result<(), String> {
    expect(addr, "GET", "/healthz", "", 200).map(drop)
}

/// What a status poll reports.
struct Status {
    state: String,
    durable_rows: u64,
    folded_rows: u64,
}

/// `GET /jobs/<id>`.
fn status(addr: SocketAddr, id: &str) -> Result<Status, String> {
    let reply = expect(addr, "GET", &format!("/jobs/{id}"), "", 200)?;
    let json = parse(&reply).map_err(|e| format!("bad status reply ({e}): {reply}"))?;
    let ingest = |key| {
        json.get("ingest")
            .and_then(|i| i.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok(Status {
        state: json
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        durable_rows: ingest("durable_rows"),
        folded_rows: ingest("folded_rows"),
    })
}

/// Polls job `id` until it is done with `rows` WAL rows folded into its
/// result, timing each poll into `poll_ms` when given. Returns the number
/// of polls.
pub fn wait_done(
    addr: SocketAddr,
    id: &str,
    rows: u64,
    mut poll_ms: Option<&mut Vec<f64>>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut polls = 0;
    loop {
        polls += 1;
        let t = Instant::now();
        let s = status(addr, id)?;
        if let Some(samples) = poll_ms.as_deref_mut() {
            samples.push(ms(t.elapsed()));
        }
        match s.state.as_str() {
            "done" if s.durable_rows == rows && s.folded_rows == rows => return Ok(polls),
            "failed" => return Err(format!("job {id} failed")),
            _ if start.elapsed() > SETTLE_TIMEOUT => {
                return Err(format!("job {id} did not settle (state {})", s.state))
            }
            _ => std::thread::sleep(POLL),
        }
    }
}

//! A deliberately small HTTP/1.1 server-side codec.
//!
//! The service speaks just enough HTTP for `curl` and language-standard
//! clients: one request per connection (`Connection: close`), byte-capped
//! request heads and bodies, `Content-Length` bodies only (no chunked
//! transfer), and `Expect: 100-continue` acknowledged so large `curl`
//! uploads do not stall. Anything outside that envelope is answered with a
//! 4xx instead of being guessed at.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum bytes of request line + headers before the service answers 431.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps onto one status line.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or unsupported framing.
    Bad(String),
    /// Request head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Declared body exceeded the service's body cap.
    BodyTooLarge,
    /// Socket-level failure (timeout, reset); no response is owed.
    Io(std::io::Error),
}

impl HttpError {
    /// The `(status, reason)` pair this error should be answered with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Bad(_) => (400, "Bad Request"),
            HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::Io(_) => (400, "Bad Request"),
        }
    }
}

/// Reads one request from `stream`, enforcing the head cap and `max_body`.
///
/// # Errors
/// Returns an [`HttpError`] describing the framing problem; the caller
/// decides whether a response can still be written.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Read the head a byte at a time until the blank line. Requests are tiny
    // (the cap is 16 KiB) and one-shot, so simplicity beats buffering — and
    // a byte-wise read can never consume body bytes by accident.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err(HttpError::Bad("connection closed mid-request".into())),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Bad("request line has no target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut expects_continue = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad(format!("malformed header `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::Bad(format!("bad content-length `{value}`")))?;
            }
            "transfer-encoding" => {
                return Err(HttpError::Bad("chunked bodies are not supported".into()));
            }
            "expect" if value.eq_ignore_ascii_case("100-continue") => expects_continue = true,
            _ => {}
        }
    }
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }
    if expects_continue {
        // Acknowledge before reading the body or curl waits out a timer.
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(HttpError::Io)?;
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Request { method, path, body })
}

/// Writes one response and flushes it. `extra_headers` lets handlers attach
/// e.g. `Retry-After`. Write errors are swallowed: the client hung up and
/// there is nobody left to tell.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Writes a JSON response body.
pub fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    respond(stream, status, reason, "application/json", body, &[]);
}

/// Writes a JSON error object: `{"error":"..."}`.
pub fn respond_error(stream: &mut TcpStream, status: u16, reason: &str, message: &str) {
    let body = format!("{{\"error\":\"{}\"}}", hdx_obs::json::escape(message));
    respond_json(stream, status, reason, &body);
}

/// A streaming response using `Transfer-Encoding: chunked` — the one place
/// the codec departs from "one buffered body per connection", used by the
/// live event stream (`GET /jobs/<id>/events`) whose length is unknown
/// while the job is still running.
///
/// Unlike [`respond`], write errors are *returned*: for a stream the error
/// is the signal that the consumer went away and the producer loop should
/// stop following the ring.
#[derive(Debug)]
pub struct ChunkedResponse<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedResponse<'a> {
    /// Writes the status line and headers and switches to chunked framing.
    ///
    /// # Errors
    /// The underlying socket write failure.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Writes one chunk (empty input is skipped — a zero-length chunk would
    /// terminate the stream) and flushes so consumers see it immediately.
    ///
    /// # Errors
    /// The underlying socket write failure (consumer hung up).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk.
    ///
    /// # Errors
    /// The underlying socket write failure.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&raw).expect("write");
            s
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let got = read_request(&mut conn, max_body);
        drop(writer.join());
        got
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(
            b"POST /jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            64,
        )
        .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let err = roundtrip(b"POST /jobs HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 64)
            .expect_err("rejected");
        assert!(matches!(err, HttpError::BodyTooLarge));
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn rejects_oversized_heads_and_chunked_framing() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 8));
        assert!(matches!(
            roundtrip(&raw, 64).expect_err("head cap"),
            HttpError::HeadTooLarge
        ));
        let err = roundtrip(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 64)
            .expect_err("chunked");
        assert!(matches!(err, HttpError::Bad(_)));
    }

    #[test]
    fn chunked_responses_frame_and_terminate() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reader = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut raw = Vec::new();
            s.read_to_end(&mut raw).expect("read");
            String::from_utf8(raw).expect("utf8")
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let mut resp =
            ChunkedResponse::begin(&mut conn, 200, "OK", "application/x-ndjson").expect("begin");
        resp.chunk(b"{\"seq\":0}\n").expect("chunk");
        resp.chunk(b"").expect("empty chunk is a no-op");
        resp.chunk(b"{\"seq\":1}\n").expect("chunk");
        resp.finish().expect("finish");
        drop(conn);
        let raw = reader.join().expect("reader");
        assert!(raw.contains("Transfer-Encoding: chunked"), "{raw}");
        // Each chunk: hex length, CRLF, payload, CRLF; then the 0 terminator.
        assert!(raw.contains("a\r\n{\"seq\":0}\n\r\n"), "{raw}");
        assert!(raw.contains("a\r\n{\"seq\":1}\n\r\n"), "{raw}");
        assert!(raw.ends_with("0\r\n\r\n"), "{raw}");
    }

    #[test]
    fn acknowledges_expect_continue() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n")
                .expect("head");
            let mut ack = [0u8; 25];
            s.read_exact(&mut ack).expect("ack");
            assert!(ack.starts_with(b"HTTP/1.1 100 Continue"));
            s.write_all(b"ok").expect("body");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let req = read_request(&mut conn, 64).expect("parses");
        assert_eq!(req.body, b"ok");
        writer.join().expect("client");
    }
}

//! A deliberately small HTTP/1.1 layer over `std::net`.
//!
//! The workspace builds fully offline with no async runtime, so the
//! daemon speaks exactly the HTTP subset its API needs: one request per
//! connection (`Connection: close`), a request line, headers terminated
//! by a blank line, and an optional `Content-Length`-framed body. That
//! subset is what `curl`, Prometheus scrapers and the bundled
//! `dekg request` client all produce; anything fancier (chunked bodies,
//! keep-alive, upgrades) is rejected with a `400`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on an accepted request body. Rank requests are small;
/// anything larger is a client bug or abuse, shed before allocation.
pub(crate) const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on the request line and on each header line, terminator
/// included. A peer that never sends `\n` is cut off here instead of
/// growing the line buffer without bound.
pub(crate) const MAX_HEAD_LINE_BYTES: usize = 8 << 10;

/// Upper bound on the number of header lines in one request.
pub(crate) const MAX_HEADERS: usize = 64;

/// Per-connection IO budget: the whole request (head and body) must
/// arrive within it, and each response write gets it as a socket
/// timeout. A stalled or slow-trickling peer must not pin a connection
/// thread forever.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Upper-case method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or an error string for the 400 response.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_owned())
    }
}

/// Reads one request from `stream` within [`IO_TIMEOUT`]. Errors are
/// client-facing strings (they become the `400` body).
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    read_request_within(stream, IO_TIMEOUT)
}

/// [`read_request`] with an explicit budget: head and body share one
/// deadline `budget` from now, so a peer that keeps trickling bytes is
/// still cut off once it expires.
fn read_request_within(stream: &mut TcpStream, budget: Duration) -> Result<Request, String> {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(DeadlineReader { stream, deadline: Instant::now() + budget });

    let request_line = read_head_line(&mut reader, "request line")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_owned();
    let target = parts.next().ok_or("request line has no target")?;
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut content_length: Option<usize> = None;
    let mut headers = 0;
    loop {
        let line = read_head_line(&mut reader, "header")?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} header lines"));
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| format!("header line without a colon: {line:?}"))?;
        if name.eq_ignore_ascii_case("content-length") {
            let length = value
                .trim()
                .parse()
                .map_err(|_| format!("bad Content-Length {:?}", value.trim()))?;
            // A repeat must agree: which of two lengths frames the body
            // is exactly what a request smuggler exploits.
            if content_length.is_some_and(|first| first != length) {
                return Err("conflicting Content-Length headers".to_owned());
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err("chunked transfer encoding is not supported".to_owned());
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES} cap"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("reading body: {e}"))?;
    Ok(Request { method, path, body })
}

/// A socket reader that enforces one total deadline: before every read
/// the socket timeout is set to the time left, so a read fails with
/// `TimedOut` once the deadline passes, however the bytes trickle in.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let expired = || std::io::Error::new(ErrorKind::TimedOut, "request deadline exceeded");
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(expired());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        match stream.read(buf) {
            // The socket timeout is the time left: hitting it is the deadline.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(expired())
            }
            read => read,
        }
    }
}

/// Reads one line of the request head (request line or header), at most
/// [`MAX_HEAD_LINE_BYTES`] long. Returns an empty string at end of
/// stream.
fn read_head_line(reader: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = String::new();
    let n = reader
        .take(MAX_HEAD_LINE_BYTES as u64)
        .read_line(&mut line)
        .map_err(|e| format!("reading {what}: {e}"))?;
    if n == MAX_HEAD_LINE_BYTES && !line.ends_with('\n') {
        return Err(format!("{what} exceeds the {MAX_HEAD_LINE_BYTES}-byte cap"));
    }
    Ok(line)
}

/// One response, written with `Connection: close` framing.
#[derive(Debug)]
pub(crate) struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra response headers (`X-Dekg-*` timing/provenance).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response { status, content_type: "application/json", body, headers: Vec::new() }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.to_owned(),
            headers: Vec::new(),
        }
    }

    /// A JSON error envelope: `{"error": "<message>"}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body =
            serde::Value::Object(vec![("error".to_owned(), serde::Value::Str(message.to_owned()))]);
        Response::json(status, serde_json::to_string(&body).unwrap_or_default())
    }

    /// Appends one extra response header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_owned(), value));
        self
    }

    /// Serializes the response onto `stream`.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Canonical reason phrase for the status codes this daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Minimal blocking HTTP client for the daemon's API — shared by the
/// `dekg request` subcommand, the serve smoke in `scripts/check.sh`,
/// the benchmark's load generator and the integration tests.
///
/// Sends one request and reads the full response (the server closes the
/// connection after each exchange). Returns `(status, body)`.
///
/// # Errors
/// Connection, IO or response-framing failures.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let (status, _, body) = http_call_with_headers(addr, method, path, body)?;
    Ok((status, body))
}

/// Response headers as `(lower-cased name, trimmed value)` pairs in
/// wire order.
pub type HeaderList = Vec<(String, String)>;

/// [`http_call`] plus the response headers, lower-cased names in wire
/// order — `dekg request --timing` reads the daemon's `x-dekg-*`
/// timing/provenance headers from here without touching the body.
///
/// # Errors
/// Connection, IO or response-framing failures.
pub fn http_call_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, HeaderList, String)> {
    let err = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let payload = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        payload.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(&mut stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(format!("malformed status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut headers: HeaderList = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        let line = line.trim_end();
        if n == 0 || line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| err("response body is not UTF-8".to_owned()))?
        }
        None => {
            // `Connection: close` framing: read to EOF.
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One-shot echo server: accepts a single connection, parses the
    /// request, responds with `method path body-length`.
    fn echo_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            match read_request(&mut stream) {
                Ok(req) => {
                    let body = format!("{} {} {}", req.method, req.path, req.body.len());
                    Response::text(200, &body).write_to(&mut stream).unwrap();
                }
                Err(e) => Response::error(400, &e).write_to(&mut stream).unwrap(),
            }
        });
        (addr, handle)
    }

    #[test]
    fn round_trip_post_with_body() {
        let (addr, handle) = echo_server();
        let (status, body) =
            http_call(&addr.to_string(), "POST", "/rank", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "POST /rank 7");
        handle.join().unwrap();
    }

    #[test]
    fn round_trip_get_strips_query() {
        let (addr, handle) = echo_server();
        let (status, body) = http_call(&addr.to_string(), "GET", "/metrics?x=1", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "GET /metrics 0");
        handle.join().unwrap();
    }

    #[test]
    fn custom_headers_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream);
            Response::text(200, "ok")
                .with_header("X-Dekg-Score-Us", "123".to_owned())
                .write_to(&mut stream)
                .unwrap();
        });
        let (status, headers, body) =
            http_call_with_headers(&addr.to_string(), "GET", "/", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        let v = headers.iter().find(|(k, _)| k == "x-dekg-score-us").map(|(_, v)| v.as_str());
        assert_eq!(v, Some("123"));
        handle.join().unwrap();
    }

    /// Sends `raw` as-is and returns whatever response bytes arrive. The
    /// server may reset the connection after answering, since it stops
    /// reading an over-cap head, so a read error after data is expected.
    fn raw_exchange(addr: std::net::SocketAddr, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }

    #[test]
    fn endless_request_line_is_a_400() {
        let (addr, handle) = echo_server();
        let raw = vec![b'A'; MAX_HEAD_LINE_BYTES + 1024];
        let response = raw_exchange(addr, &raw);
        handle.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "response: {response:?}");
        assert!(response.contains("request line exceeds"), "response: {response:?}");
    }

    #[test]
    fn header_flood_is_a_400() {
        let (addr, handle) = echo_server();
        let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend_from_slice(format!("X-Flood-{i}: 1\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let response = raw_exchange(addr, &raw);
        handle.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "response: {response:?}");
        assert!(response.contains("header lines"), "response: {response:?}");
    }

    /// Sends a POST with `headers` and a 2-byte body, returning the
    /// response.
    fn post_with_headers(headers: &str) -> String {
        let (addr, handle) = echo_server();
        let raw = format!("POST /rank HTTP/1.1\r\n{headers}\r\nab");
        let response = raw_exchange(addr, raw.as_bytes());
        handle.join().unwrap();
        response
    }

    #[test]
    fn conflicting_content_lengths_are_a_400() {
        let response = post_with_headers("Content-Length: 2\r\nContent-Length: 1\r\n");
        assert!(response.starts_with("HTTP/1.1 400 "), "response: {response:?}");
        assert!(response.contains("conflicting Content-Length"), "response: {response:?}");
        // A repeat of the same length frames the body unambiguously.
        let response = post_with_headers("Content-Length: 2\r\ncontent-length: 2\r\n");
        assert!(response.ends_with("POST /rank 2"), "response: {response:?}");
    }

    #[test]
    fn header_line_without_colon_is_a_400() {
        let response = post_with_headers("Content-Length: 2\r\nX-Broken header\r\n");
        assert!(response.starts_with("HTTP/1.1 400 "), "response: {response:?}");
        assert!(response.contains("without a colon"), "response: {response:?}");
    }

    #[test]
    fn head_at_the_caps_is_accepted() {
        let (addr, handle) = echo_server();
        let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS - 1 {
            raw.extend_from_slice(format!("X-H-{i}: 1\r\n").as_bytes());
        }
        // The last header fills its line exactly to the cap.
        let prefix = b"X-Long: ";
        raw.extend_from_slice(prefix);
        raw.extend(std::iter::repeat(b'v').take(MAX_HEAD_LINE_BYTES - prefix.len() - 2));
        raw.extend_from_slice(b"\r\n\r\n");
        let response = raw_exchange(addr, &raw);
        handle.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 "), "response: {response:?}");
        assert!(response.ends_with("GET /healthz 0"), "response: {response:?}");
    }

    #[test]
    fn slow_trickle_is_cut_off_at_the_deadline() {
        // The peer sends a byte of an endless header every 10 ms: every
        // single read succeeds well inside any per-read timeout, so only
        // a total deadline stops it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let budget = Duration::from_millis(300);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let started = Instant::now();
            let result = read_request_within(&mut stream, budget);
            (result.map(|r| r.path), started.elapsed())
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"GET /healthz HTTP/1.1\r\nX-Trickle: ").unwrap();
        let trickle_until = Instant::now() + Duration::from_secs(5);
        while !server.is_finished() && Instant::now() < trickle_until {
            if client.write_all(b"v").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let (result, elapsed) = server.join().unwrap();
        let message = result.expect_err("a trickled request must not complete");
        assert!(message.contains("deadline"), "message: {message}");
        // Slack for timer granularity; the point is "not long before".
        assert!(elapsed + Duration::from_millis(50) >= budget, "cut off early: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(3), "not cut off at the deadline: {elapsed:?}");
    }

    #[test]
    fn error_envelope_is_json() {
        let r = Response::error(429, "queue full");
        assert_eq!(r.status, 429);
        assert_eq!(r.body, "{\"error\":\"queue full\"}");
    }
}

//! A deliberately small HTTP/1.1 reader and writer.
//!
//! The workspace carries no network dependency, so the serve layer reads
//! requests straight off a [`std::io::Read`] and writes responses to a
//! [`std::io::Write`]. Exactly the subset the API needs is supported:
//! request line + headers + `Content-Length` bodies (no chunked encoding,
//! no continuation lines), keep-alive negotiation via the `Connection`
//! header, and fixed-length responses. Head and body sizes are capped so a
//! hostile peer cannot grow memory without bound.
//!
//! [`HttpReader`] buffers across calls, so back-to-back requests on one
//! keep-alive connection (including pipelined bytes that arrive early) are
//! handled correctly.

use std::io::{Read, Write};

/// Cap on the request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/v1/predict` (query strings are not split).
    pub path: String,
    /// True for `HTTP/1.1`, false for `HTTP/1.0`.
    pub http11: bool,
    /// Headers in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`; HTTP/1.0 must
    /// opt in with `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        if self.http11 {
            !conn.eq_ignore_ascii_case("close")
        } else {
            conn.eq_ignore_ascii_case("keep-alive")
        }
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, RequestError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| RequestError::Malformed("body is not valid UTF-8".into()))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection cleanly before sending anything.
    Closed,
    /// The socket read timed out (idle keep-alive connection).
    Timeout,
    /// Head or body exceeded its size cap.
    TooLarge,
    /// The bytes were not a parseable HTTP/1.x request.
    Malformed(String),
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Timeout => write!(f, "read timed out"),
            RequestError::TooLarge => write!(f, "request too large"),
            RequestError::Malformed(why) => write!(f, "malformed request: {why}"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// A request reader that buffers unconsumed bytes across calls, so one
/// reader serves every request of a keep-alive connection.
pub struct HttpReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
}

impl<R: Read> HttpReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> Self {
        HttpReader {
            inner,
            buf: Vec::new(),
        }
    }

    fn fill(&mut self) -> Result<usize, RequestError> {
        let mut chunk = [0u8; 4096];
        match self.inner.read(&mut chunk) {
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(RequestError::Timeout)
            }
            Err(e) => Err(RequestError::Io(e)),
        }
    }

    /// Read one request, waiting for bytes as needed. `max_body` caps the
    /// `Content-Length` the reader is willing to buffer.
    pub fn read_request(&mut self, max_body: usize) -> Result<Request, RequestError> {
        // Accumulate until the blank line that ends the head. Each scan
        // resumes where the last one stopped (less the 3 bytes a split
        // `\r\n\r\n` can leave behind), so a head that arrives a byte
        // at a time costs linear, not quadratic, time.
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf, scanned) {
                break pos;
            }
            scanned = self.buf.len().saturating_sub(3);
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(RequestError::TooLarge);
            }
            let n = self.fill()?;
            if n == 0 {
                return if self.buf.is_empty() {
                    Err(RequestError::Closed)
                } else {
                    Err(RequestError::Malformed("eof inside request head".into()))
                };
            }
        };
        if head_end > MAX_HEAD_BYTES {
            return Err(RequestError::TooLarge);
        }
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| RequestError::Malformed("head is not valid UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && !p.is_empty() => {
                (m.to_string(), p.to_string(), v)
            }
            _ => {
                return Err(RequestError::Malformed(format!(
                    "bad request line '{request_line}'"
                )))
            }
        };
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            other => {
                return Err(RequestError::Malformed(format!(
                    "unsupported version '{other}'"
                )))
            }
        };
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(RequestError::Malformed(format!("bad header '{line}'")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length = content_length(&headers)?;
        if content_length > max_body {
            return Err(RequestError::TooLarge);
        }
        let body_start = head_end + 4; // past the \r\n\r\n
        while self.buf.len() < body_start + content_length {
            let n = self.fill()?;
            if n == 0 {
                return Err(RequestError::Malformed("eof inside request body".into()));
            }
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Ok(Request {
            method,
            path,
            http11,
            headers,
            body,
        })
    }
}

/// The body length a request head declares: 0 without `Content-Length`.
/// Every `Content-Length` value must be all ASCII digits and all of them
/// must agree (RFC 9112 §6.3); anything else leaves the body's end
/// ambiguous — the opening a smuggled second request needs — so it is
/// malformed, and the server answers 400 and closes the connection.
fn content_length(headers: &[(String, String)]) -> Result<usize, RequestError> {
    let mut length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(RequestError::Malformed(format!("bad content-length '{v}'"))),
        };
        if length.is_some_and(|m| m != n) {
            return Err(RequestError::Malformed(
                "conflicting content-length headers".into(),
            ));
        }
        length = Some(n);
    }
    Ok(length.unwrap_or(0))
}

/// Where the head's closing `\r\n\r\n` starts, searching from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|pos| from + pos)
}

/// One HTTP response, written with an explicit `Content-Length`.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Type`, `Retry-After`, ...).
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response::new(status)
            .with_header("Content-Type", "application/json")
            .with_body(body.into().into_bytes())
    }

    /// A `text/plain` response (the Prometheus exposition endpoint).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response::new(status)
            .with_header("Content-Type", "text/plain; version=0.0.4")
            .with_body(body.into().into_bytes())
    }

    /// Same response with an extra header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Same response with the given body.
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// The standard reason phrase for the status codes the API uses.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize onto `w`: status line, `Content-Length`, `Connection`
    /// (`keep-alive` or `close`), the extra headers, then the body — in
    /// one `write_all`. A head sent apart from its body would leave the
    /// body behind Nagle's algorithm until the client's delayed ACK.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(bytes: &[u8]) -> Result<Request, RequestError> {
        HttpReader::new(bytes).read_request(1 << 20)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            read_one(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn parses_back_to_back_requests_on_one_reader() {
        let bytes: Vec<u8> =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec();
        let mut reader = HttpReader::new(&bytes[..]);
        let a = reader.read_request(1024).unwrap();
        assert_eq!(a.path, "/healthz");
        assert!(a.body.is_empty());
        let b = reader.read_request(1024).unwrap();
        assert_eq!(b.path, "/metrics");
        assert!(!b.wants_keep_alive());
        assert!(matches!(
            reader.read_request(1024),
            Err(RequestError::Closed)
        ));
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = read_one(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.http11);
        assert!(!req.wants_keep_alive());
        let req = read_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn rejects_malformed_and_oversized_input() {
        assert!(matches!(read_one(b""), Err(RequestError::Closed)));
        assert!(matches!(
            read_one(b"GARBAGE\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            read_one(b"GET / HTTP/2\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            read_one(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            read_one(b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        // Body over the cap is refused before it is buffered.
        let res = HttpReader::new(&b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789"[..])
            .read_request(4);
        assert!(matches!(res, Err(RequestError::TooLarge)));
        // Truncated body.
        assert!(matches!(
            read_one(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(RequestError::Malformed(_))
        ));
        // Conflicting lengths: reading either one would leave the rest of
        // the bytes to run as a second, smuggled request.
        let body = r#"{"source":"cannon:96,4"}GET /healthz HTTP/1.1\r\n\r\n"#;
        let smuggle = format!(
            "POST /v1/predict HTTP/1.1\r\nContent-Length: 24\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert!(matches!(
            read_one(smuggle.as_bytes()),
            Err(RequestError::Malformed(_))
        ));
        // Lengths that are not all digits.
        for bad in ["+24", "-1", "2 4", "24,24", "0x18", ""] {
            let req = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n{:24}", "");
            assert!(
                matches!(read_one(req.as_bytes()), Err(RequestError::Malformed(_))),
                "Content-Length: {bad:?} must be refused"
            );
        }
        // Repeating the same length is harmless.
        let req =
            read_one(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        Response::json(429, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nConnection: close\r\n\
             Content-Type: application/json\r\nRetry-After: 1\r\n\r\n{}"
        );
        // A response must itself be parseable as far as the head grammar
        // goes (cheap sanity: one blank line, then the body).
        assert_eq!(text.matches("\r\n\r\n").count(), 1);
    }

    /// A `Write` that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct WriteCalls(Vec<Vec<u8>>);

    impl Write for WriteCalls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        let mut calls = WriteCalls::default();
        Response::json(429, "{}")
            .with_header("Retry-After", "1")
            .write_to(&mut calls, false)
            .unwrap();
        assert_eq!(calls.0.len(), 1, "head and body must leave together");
        assert_eq!(
            String::from_utf8(calls.0.remove(0)).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nConnection: close\r\n\
             Content-Type: application/json\r\nRetry-After: 1\r\n\r\n{}"
        );
    }

    /// A `Read` that yields one byte per call, so every boundary —
    /// `\r\n\r\n` included — is split across reads.
    struct Drip<'a>(&'a [u8]);

    impl Read for Drip<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            match self.0.split_first() {
                Some((&byte, rest)) if !out.is_empty() => {
                    out[0] = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn parses_requests_that_arrive_a_byte_at_a_time() {
        let req = HttpReader::new(Drip(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        ))
        .read_request(1 << 20)
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(req.wants_keep_alive());

        let mut reader = HttpReader::new(Drip(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        ));
        let a = reader.read_request(1024).unwrap();
        assert_eq!(a.path, "/healthz");
        assert!(a.body.is_empty());
        let b = reader.read_request(1024).unwrap();
        assert_eq!(b.path, "/metrics");
        assert!(!b.wants_keep_alive());
        assert!(matches!(
            reader.read_request(1024),
            Err(RequestError::Closed)
        ));
    }
}

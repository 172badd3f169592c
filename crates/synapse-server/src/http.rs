//! A minimal HTTP/1.1 layer, hand-rolled the way the vendored crates
//! hand-roll serde: the workspace is offline, so instead of pulling a
//! framework the server implements exactly the protocol surface its
//! endpoints need — request parsing with hard size caps, plain
//! `Content-Length` responses, and `Transfer-Encoding: chunked` for
//! the NDJSON event streams.
//!
//! Deliberate non-goals: keep-alive (every response closes the
//! connection), request pipelining, compression, TLS.

use std::io::BufRead;

/// Cap on the request line + headers (bytes) before `431` is returned.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on a request body (bytes) before `413` is returned. Campaign
/// specs are small; a megabyte of TOML is already a pathological spec.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Methods the router understands at all (anything else is a parse
/// error — `501` — before routing even sees it).
const KNOWN_METHODS: [&str; 7] = ["GET", "POST", "DELETE", "PUT", "HEAD", "OPTIONS", "PATCH"];

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token.
    pub method: String,
    /// Request target as sent (path + optional query).
    pub target: String,
    /// Lower-cased header names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (query stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The target's raw query string, if any (without the `?`).
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// First value of a query parameter (`?axis=machine`), if present
    /// with a value. A bare key reads as absent.
    pub fn query_value(&self, name: &str) -> Option<&str> {
        self.query()?.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=')?;
            (key == name).then_some(value)
        })
    }

    /// Whether a boolean query parameter is set: present bare
    /// (`?cluster`) or with a truthy value (`?cluster=1`). `=0` and
    /// `=false` read as unset.
    pub fn query_flag(&self, name: &str) -> bool {
        let Some(query) = self.query() else {
            return false;
        };
        query.split('&').any(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            key == name && !matches!(value, "0" | "false")
        })
    }
}

/// Why a request could not be parsed. Each variant maps onto the
/// status code the connection handler answers with.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header or length field → `400`.
    BadRequest(String),
    /// Head grew past [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// Body longer than [`MAX_BODY_BYTES`] → `413`.
    BodyTooLarge,
    /// Method token is not HTTP at all → `501`.
    UnknownMethod(String),
    /// The peer closed before a full request arrived.
    Closed,
    /// Transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// The status line this error is answered with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::UnknownMethod(_) => (501, "Not Implemented"),
            HttpError::Closed | HttpError::Io(_) => (400, "Bad Request"),
        }
    }
}

/// Method, target and headers of a parsed request head.
type ParsedHead = (String, String, Vec<(String, String)>);

/// Parse one completed head (request line + headers, no blank line).
fn parse_head(text: &str) -> Result<ParsedHead, HttpError> {
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty head".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line has no version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest(
            "request line has extra fields".into(),
        ));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    if !KNOWN_METHODS.contains(&method.as_str()) {
        return Err(HttpError::UnknownMethod(method));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "target {target:?} is not an absolute path"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // trailing fragment of the blank terminator
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method, target, headers))
}

/// What the incremental parser is waiting for next.
enum ParseState {
    /// Accumulating head bytes until the blank line.
    Head,
    /// Head parsed; accumulating `Content-Length` body bytes.
    Body {
        method: String,
        target: String,
        headers: Vec<(String, String)>,
        need: usize,
    },
    /// A full request was handed out; further bytes are ignored
    /// (every response closes the connection — no pipelining).
    Done,
}

/// An incremental (feed-bytes) request parser: the reactor pushes
/// whatever a nonblocking read returned and gets `Some(Request)` back
/// once the request is complete — no thread ever blocks on a partial
/// read. Size caps are enforced *as bytes arrive*, so a slow-loris
/// head or an endless body cannot balloon memory before tripping.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// How far the head scan progressed (`buf` is only rescanned from
    /// here, so byte-at-a-time feeding stays linear).
    scanned: usize,
    state: Option<ParseState>,
}

impl RequestParser {
    /// A parser waiting for the first byte.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            scanned: 0,
            state: Some(ParseState::Head),
        }
    }

    /// Feed the next bytes off the wire. Returns `Ok(Some(request))`
    /// exactly once, when the request completes; errors are terminal.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        self.buf.extend_from_slice(bytes);
        loop {
            match self.state.take().expect("parser state") {
                ParseState::Head => {
                    // Find the blank line: a '\n' followed (modulo one
                    // '\r') by another '\n'.
                    let mut head_end = None;
                    let from = self.scanned.saturating_sub(2);
                    for i in from..self.buf.len() {
                        if self.buf[i] != b'\n' {
                            continue;
                        }
                        let line_start = match self.buf[..i].iter().rposition(|&b| b == b'\n') {
                            Some(prev) => prev + 1,
                            None => 0,
                        };
                        let line = &self.buf[line_start..i];
                        if i > 0 && (line.is_empty() || line == b"\r") {
                            head_end = Some(i + 1);
                            break;
                        }
                    }
                    let Some(head_end) = head_end else {
                        if self.buf.len() > MAX_HEAD_BYTES {
                            return Err(HttpError::HeadTooLarge);
                        }
                        self.scanned = self.buf.len();
                        self.state = Some(ParseState::Head);
                        return Ok(None);
                    };
                    if head_end > MAX_HEAD_BYTES {
                        return Err(HttpError::HeadTooLarge);
                    }
                    let head = std::str::from_utf8(&self.buf[..head_end])
                        .map_err(|_| HttpError::BadRequest("non-UTF-8 header line".into()))?;
                    let (method, target, headers) = parse_head(head.trim_end_matches('\n'))?;
                    let need = headers
                        .iter()
                        .find(|(n, _)| n == "content-length")
                        .map(|(_, v)| {
                            v.parse::<usize>().map_err(|_| {
                                HttpError::BadRequest(format!("bad content-length {v:?}"))
                            })
                        })
                        .transpose()?
                        .unwrap_or(0);
                    if need > MAX_BODY_BYTES {
                        return Err(HttpError::BodyTooLarge);
                    }
                    self.buf.drain(..head_end);
                    self.scanned = 0;
                    self.state = Some(ParseState::Body {
                        method,
                        target,
                        headers,
                        need,
                    });
                }
                ParseState::Body {
                    method,
                    target,
                    headers,
                    need,
                } => {
                    if self.buf.len() < need {
                        self.state = Some(ParseState::Body {
                            method,
                            target,
                            headers,
                            need,
                        });
                        return Ok(None);
                    }
                    let body = self.buf.drain(..need).collect();
                    self.state = Some(ParseState::Done);
                    return Ok(Some(Request {
                        method,
                        target,
                        headers,
                        body,
                    }));
                }
                ParseState::Done => {
                    self.state = Some(ParseState::Done);
                    return Ok(None);
                }
            }
        }
    }
}

/// Parse one request from the reader (blocking until complete or
/// erroneous) — the [`RequestParser`] driven off a blocking transport.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(HttpError::Closed);
        }
        let n = buf.len();
        let parsed = parser.feed(buf);
        reader.consume(n);
        if let Some(request) = parsed? {
            return Ok(request);
        }
    }
}

/// A complete response (head + `Content-Length` body + close
/// semantics) as wire bytes, ready for a nonblocking writer.
pub fn response_bytes(status: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    response_bytes_with(status, reason, &[], content_type, body)
}

/// [`response_bytes`] with extra head fields (`Allow` on a `405`).
pub fn response_bytes_with(
    status: u16,
    reason: &str,
    fields: &[(&str, &str)],
    content_type: &str,
    body: &[u8],
) -> Vec<u8> {
    let fields: String = fields
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\n{fields}Content-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A complete JSON response as wire bytes.
pub fn json_bytes(status: u16, reason: &str, value: &impl serde::Serialize) -> Vec<u8> {
    let body = serde_json::to_string(value).unwrap_or_else(|_| "{}".into());
    response_bytes(status, reason, "application/json", body.as_bytes())
}

/// The head of a `Transfer-Encoding: chunked` streaming response.
pub fn stream_head_bytes(content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// Append one chunked-encoding frame to an output buffer (empty data
/// is skipped — a zero-length chunk would terminate the stream).
pub fn append_chunk(out: &mut Vec<u8>, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    out.extend_from_slice(format!("{:x}\r\n", data.len()).as_bytes());
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// The zero-length chunk that terminates a chunked stream.
pub const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    /// A reader that hands out its data a few bytes at a time, the way
    /// a TCP stream delivers a request split across segments.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let end = (self.pos + self.step).min(self.data.len());
            let n = (end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn parse(text: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_with_headers_and_query() {
        let req = parse(
            "GET /campaigns/j1/events?workers=4 HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/campaigns/j1/events", "query stripped");
        assert_eq!(req.query(), Some("workers=4"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn query_flags_parse_bare_and_valued_forms() {
        let req = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert!(req("/campaigns?cluster").query_flag("cluster"));
        assert!(req("/campaigns?cluster=1").query_flag("cluster"));
        assert!(req("/campaigns?a=b&cluster=true").query_flag("cluster"));
        assert!(!req("/campaigns?cluster=0").query_flag("cluster"));
        assert!(!req("/campaigns?cluster=false").query_flag("cluster"));
        assert!(!req("/campaigns").query_flag("cluster"));
        assert!(!req("/campaigns?clustered").query_flag("cluster"));
        assert_eq!(req("/campaigns").query(), None);
    }

    #[test]
    fn parses_post_with_body() {
        let body = "name = \"x\"";
        let text = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = parse(&text).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body.as_bytes());
    }

    #[test]
    fn handles_partial_reads_across_every_boundary() {
        // The same request must parse no matter how the transport
        // fragments it — byte-at-a-time included.
        let body = "{\"name\":\"frag\"}";
        let text = format!(
            "POST /campaigns HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for step in [1, 2, 3, 7, 16] {
            let mut reader = BufReader::with_capacity(
                4, // tiny buffer so refills also fragment
                Trickle {
                    data: text.clone().into_bytes(),
                    pos: 0,
                    step,
                },
            );
            let req = read_request(&mut reader).unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(req.method, "POST");
            assert_eq!(req.body, body.as_bytes(), "step {step}");
        }
    }

    #[test]
    fn rejects_oversized_heads() {
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge), Err(HttpError::HeadTooLarge)));
        // One oversized *line* trips the cap too (no unbounded
        // read_until growth).
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&long_line), Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let text = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&text), Err(HttpError::BodyTooLarge)));
    }

    #[test]
    fn rejects_bad_methods_and_malformed_request_lines() {
        assert!(matches!(
            parse("BREW /coffee HTTP/1.1\r\n\r\n"),
            Err(HttpError::UnknownMethod(m)) if m == "BREW"
        ));
        assert!(matches!(
            parse("GET /\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET relative HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn truncated_requests_report_closed() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: h"),
            Err(HttpError::Closed)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn error_statuses_map_sensibly() {
        assert_eq!(HttpError::HeadTooLarge.status().0, 431);
        assert_eq!(HttpError::BodyTooLarge.status().0, 413);
        assert_eq!(HttpError::UnknownMethod("BREW".into()).status().0, 501);
        assert_eq!(HttpError::BadRequest("x".into()).status().0, 400);
    }

    #[test]
    fn incremental_parser_completes_byte_at_a_time() {
        let body = "{\"name\":\"drip\"}";
        let text = format!(
            "POST /campaigns HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut parser = RequestParser::new();
        let bytes = text.as_bytes();
        let mut request = None;
        for (i, b) in bytes.iter().enumerate() {
            match parser.feed(std::slice::from_ref(b)) {
                Ok(Some(r)) => {
                    assert_eq!(i, bytes.len() - 1, "completes exactly on the last byte");
                    request = Some(r);
                }
                Ok(None) => assert!(i < bytes.len() - 1),
                Err(e) => panic!("byte {i}: {e}"),
            }
        }
        let request = request.expect("request completed");
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, body.as_bytes());
        // Bytes after a complete request are ignored (no pipelining).
        assert_eq!(parser.feed(b"GET / HTTP/1.1\r\n\r\n").unwrap(), None);
    }

    #[test]
    fn incremental_parser_handles_terminator_straddling_feeds() {
        // The \r\n\r\n boundary split across every possible feed seam.
        let text = "GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n";
        for split in 1..text.len() {
            let mut parser = RequestParser::new();
            assert_eq!(
                parser.feed(&text.as_bytes()[..split]).unwrap(),
                None,
                "split {split}: incomplete prefix"
            );
            let request = parser
                .feed(&text.as_bytes()[split..])
                .unwrap()
                .unwrap_or_else(|| panic!("split {split}: request must complete"));
            assert_eq!(request.path(), "/healthz");
        }
    }

    #[test]
    fn incremental_parser_caps_heads_as_bytes_arrive() {
        // A never-ending head trips the cap mid-feed, long before any
        // blank line shows up.
        let mut parser = RequestParser::new();
        let chunk = vec![b'a'; 4096];
        let mut result = Ok(None);
        for _ in 0..8 {
            result = parser.feed(&chunk);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(HttpError::HeadTooLarge)));
    }

    #[test]
    fn stream_head_and_chunks_frame_as_chunked_encoding() {
        let head = stream_head_bytes("application/x-ndjson");
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.ends_with("\r\n\r\n"));

        let mut out = Vec::new();
        append_chunk(&mut out, b"{\"a\":1}\n");
        append_chunk(&mut out, b""); // skipped: must not terminate
        out.extend_from_slice(CHUNK_TERMINATOR);
        assert_eq!(out, b"8\r\n{\"a\":1}\n\r\n0\r\n\r\n");
    }

    #[test]
    fn plain_response_has_content_length() {
        let buf = response_bytes(404, "Not Found", "text/plain", b"nope");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nnope"));
        let allowed =
            response_bytes_with(405, "Method Not Allowed", &[("Allow", "GET")], "a/b", b"");
        assert!(allowed.starts_with(
            b"HTTP/1.1 405 Method Not Allowed\r\nAllow: GET\r\nContent-Type: a/b\r\n"
        ));
    }
}

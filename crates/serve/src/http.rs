//! Minimal HTTP/1.1 request parser and response writer.
//!
//! Implements exactly the slice of HTTP/1.1 the recommendation server
//! needs: one request per connection, `Content-Length` bodies, and a
//! strict set of size limits so a hostile peer can neither exhaust
//! memory nor trip a panic (the crate is under the workspace's clippy
//! no-panic lints). Every malformed input maps to a typed
//! [`ParseError`] that the server renders as a `4xx` response.
//! [`Response::write_to`] renders a whole response into one buffer and
//! sends it with a single `write_all`, so each reply costs the socket
//! one `write(2)` rather than one per formatted piece.
//!
//! Limits (documented in DESIGN.md §5):
//!
//! | limit                 | value   | violation |
//! |-----------------------|---------|-----------|
//! | request line          | 8 KiB   | 400       |
//! | header count          | 64      | 413       |
//! | single header line    | 8 KiB   | 413       |
//! | body (Content-Length) | 1 MiB   | 413       |

use std::io::{BufRead, Read, Write};

/// Maximum request-line length in bytes (method + path + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum number of header lines accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Maximum length of a single header line in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum request body size in bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/recommend`.
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Returns the value of header `name` (ASCII case-insensitive), if
    /// present. First occurrence wins.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or a 400-class error if it is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body).map_err(|_| ParseError::Malformed("body is not UTF-8"))
    }
}

/// Why a request failed to parse, with the HTTP status it maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Syntactically invalid or truncated input → `400 Bad Request`.
    Malformed(&'static str),
    /// A size limit was exceeded → `413 Content Too Large`.
    TooLarge(&'static str),
}

impl ParseError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Malformed(_) => 400,
            ParseError::TooLarge(_) => 413,
        }
    }

    /// Human-readable reason, used as the error-body message.
    pub fn message(&self) -> &'static str {
        match self {
            ParseError::Malformed(m) | ParseError::TooLarge(m) => m,
        }
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, refusing to buffer
/// more than `cap` bytes. EOF before the newline is a truncation error;
/// exceeding `cap` is a size error.
fn read_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
    over: &'static str,
    truncated: &'static str,
) -> Result<String, ParseError> {
    let mut buf = Vec::new();
    // `cap + 2` leaves room for the CRLF terminator of a maximal line.
    let mut limited = reader.take(cap as u64 + 2);
    limited
        .read_until(b'\n', &mut buf)
        .map_err(|_| ParseError::Malformed(truncated))?;
    if buf.last() != Some(&b'\n') {
        if buf.len() > cap {
            return Err(ParseError::TooLarge(over));
        }
        return Err(ParseError::Malformed(truncated));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    if buf.len() > cap {
        return Err(ParseError::TooLarge(over));
    }
    String::from_utf8(buf).map_err(|_| ParseError::Malformed("header bytes are not UTF-8"))
}

/// Parses one HTTP/1.1 request from `reader`, enforcing the module's
/// size limits. Never panics: every malformed or oversized input
/// returns a typed [`ParseError`].
///
/// ```
/// use std::io::BufReader;
/// let raw = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n";
/// let req = tg_serve::http::parse_request(&mut BufReader::new(&raw[..])).unwrap();
/// assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/stats"));
/// ```
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, ParseError> {
    let line = read_line(
        reader,
        MAX_REQUEST_LINE,
        "request line too long",
        "truncated request line",
    )?;
    if line.is_empty() {
        return Err(ParseError::Malformed("empty request line"));
    }
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ParseError::Malformed("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("malformed method token"));
    }
    if !path.starts_with('/') {
        return Err(ParseError::Malformed("request target must be absolute"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(
            reader,
            MAX_HEADER_LINE,
            "header line too long",
            "truncated headers",
        )?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooLarge("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line missing ':'"));
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(ParseError::Malformed("empty header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed("chunked bodies are not supported"));
    }

    let body_len = match request.header("content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Err(ParseError::Malformed("invalid Content-Length")),
        },
        None => 0,
    };
    if body_len > MAX_BODY {
        return Err(ParseError::TooLarge("body too large"));
    }
    let mut body = vec![0u8; body_len];
    reader
        .read_exact(&mut body)
        .map_err(|_| ParseError::Malformed("truncated body"))?;
    Ok(Request { body, ..request })
}

/// An HTTP response ready to serialise: status, JSON body, and the
/// optional `Retry-After` hint carried by load-shed `503`s.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (already rendered).
    pub body: String,
    /// Seconds to advertise in a `Retry-After` header, if any.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response with the given status and already-rendered body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    /// An error response with body `{"error": <message>}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            tg_json::JsonObject::new().str("error", message).render(),
        )
    }

    /// Serialises the response (status line, headers, body) to `w`.
    /// Always sends `Content-Length` and `Connection: close`.
    ///
    /// The status line, headers and body are rendered into one buffer
    /// and handed to `w` in a single `write_all`. On an unbuffered
    /// `&TcpStream` every `write` is a syscall, so formatting piece by
    /// piece would cost one per header; one write also leaves Nagle's
    /// algorithm nothing to hold back, so no `TCP_NODELAY` is needed.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        // The status line and headers take under 160 bytes.
        let mut wire = Vec::with_capacity(self.body.len() + 160);
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        )?;
        if let Some(secs) = self.retry_after {
            write!(wire, "Retry-After: {secs}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(self.body.as_bytes());
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Canonical reason phrase for the status codes the server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
#[expect(
    clippy::let_underscore_must_use,
    reason = "the hostile-input test only checks that parsing returns instead of unwinding"
)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        parse_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = parse(b"POST /score HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\": 1}x").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\": 1}x");
        assert_eq!(req.body_utf8().unwrap(), "{\"a\": 1}x");
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse(b"GET /stats HTTP/1.0\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/stats");
    }

    #[test]
    fn truncated_request_line_is_400() {
        for raw in [&b""[..], b"GET", b"GET /stats HTTP/1.1"] {
            let err = parse(raw).unwrap_err();
            assert_eq!(
                err.status(),
                400,
                "input {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            &b"\r\n\r\n"[..],                                         // empty request line
            b"GET /stats\r\n\r\n",                                    // missing version
            b"GET /stats HTTP/2.0\r\n\r\n",                           // unsupported version
            b"GET /stats HTTP/1.1 extra\r\n\r\n",                     // trailing token
            b"get /stats HTTP/1.1\r\n\r\n",                           // lower-case method
            b"GET stats HTTP/1.1\r\n\r\n",                            // relative target
            b"POST / HTTP/1.1\r\nNoColonHere\r\n\r\n",                // bad header
            b"POST / HTTP/1.1\r\n: empty-name\r\n\r\n",               // empty header name
            b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",        // bad length
            b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",    // truncated body
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", // chunked
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(
                err.status(),
                400,
                "input {:?} gave {err:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn oversized_request_line_is_413() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 413);
    }

    #[test]
    fn oversized_header_line_is_413() {
        let mut raw = b"GET /stats HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_LINE));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 413);
    }

    #[test]
    fn too_many_headers_is_413() {
        let mut raw = b"GET /stats HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("X-H-{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 413);
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST /score HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse(raw.as_bytes()).unwrap_err().status(), 413);
    }

    #[test]
    fn hostile_inputs_never_panic() {
        // Every prefix of a valid request, plus binary garbage: the
        // parser must return an error (or a request), never unwind.
        let valid = b"POST /recommend HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        for n in 0..valid.len() {
            let _ = parse(&valid[..n]);
        }
        let garbage: Vec<u8> = (0u16..=255).map(|b| b as u8).cycle().take(4096).collect();
        let _ = parse(&garbage);
        let _ = parse(b"\xff\xfe GET / HTTP/1.1\r\n\r\n");
    }

    /// Records every `write` call, as a socket would see them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The exact bytes of a `200`, a `400` and a shed `503`, and one
    /// `write` call each (one syscall on a `TcpStream`).
    #[test]
    fn responses_are_locked_bytes_in_one_write() {
        let mut shed = Response::error(503, "server saturated; retry shortly");
        shed.retry_after = Some(1);
        for (response, wire) in [
            (
                Response::json(200, "{\"logme\": -0.5}".to_string()),
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\
                 Connection: close\r\n\r\n{\"logme\": -0.5}",
            ),
            (
                Response::error(400, "empty body; expected a JSON object"),
                "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
                 Content-Length: 52\r\nConnection: close\r\n\r\n\
                 {\n  \"error\": \"empty body; expected a JSON object\"\n}\n",
            ),
            (
                shed,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 49\r\nConnection: close\r\nRetry-After: 1\r\n\r\n\
                 {\n  \"error\": \"server saturated; retry shortly\"\n}\n",
            ),
        ] {
            let mut out = CountingWriter::default();
            response.write_to(&mut out).unwrap();
            assert_eq!(String::from_utf8(out.bytes).unwrap(), wire);
            assert_eq!(out.writes, 1, "status {}", response.status);
        }
    }
}

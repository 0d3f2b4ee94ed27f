//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The build environment has no registry access, so — like the
//! `shims/` crates — this module implements exactly the protocol
//! subset the service needs and nothing more:
//!
//! * request line + headers + `Content-Length`-framed bodies (no
//!   chunked transfer encoding — requests carrying
//!   `Transfer-Encoding` are rejected outright, and every
//!   `Content-Length` must be plain digits agreeing with every other
//!   copy, which closes the classic request-smuggling ambiguities);
//! * persistent connections (`keep-alive` is the HTTP/1.1 default;
//!   `Connection: close` and HTTP/1.0 semantics are honored), which
//!   makes pipelined requests work for free: requests are read
//!   back-to-back off one buffered stream;
//! * `Expect: 100-continue` (the interim response is written before
//!   the body is read, so `curl -d @large-file` does not stall);
//! * hard limits on header-section and body sizes, with the proper
//!   `431`/`413`/`411` status codes, so an untrusted peer cannot make
//!   the server buffer unbounded input.

use rq_common::json::write_i64;
use std::io::{BufRead, Read, Write};

/// Size limits applied while reading one request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers (`431` beyond).
    pub max_head_bytes: usize,
    /// Maximum body bytes (`413` beyond).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method token, e.g. `GET`.
    pub method: String,
    /// The request target, e.g. `/query` (query strings are kept
    /// verbatim; the service's endpoints use none).
    pub path: String,
    /// Whether the request spoke HTTP/1.1 (anything else is treated as
    /// HTTP/1.0: no keep-alive unless asked for explicitly).
    pub http11: bool,
    /// Header `(name, value)` pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes, already read).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close, and an
    /// explicit `Connection:` header overrides either way.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// A transport error (includes read timeouts).
    Io(std::io::Error),
    /// The bytes were not a parseable HTTP request.  Respond `400`.
    Malformed(String),
    /// Request line + headers exceeded [`Limits::max_head_bytes`].
    /// Respond `431`.
    HeadTooLarge,
    /// `Content-Length` exceeded [`Limits::max_body_bytes`].  Respond
    /// `413`.  The body was not read, so the connection must close.
    BodyTooLarge(u64),
    /// A request with a body arrived without `Content-Length`.
    /// Respond `411`.
    LengthRequired,
}

impl RequestError {
    /// The status a server answers this error with, or `None` when
    /// there is nobody to answer (a clean close, a dead transport).
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::Closed | RequestError::Io(_) => None,
            RequestError::Malformed(_) => Some(400),
            RequestError::LengthRequired => Some(411),
            RequestError::BodyTooLarge(_) => Some(413),
            RequestError::HeadTooLarge => Some(431),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Io(e) => write!(f, "transport error: {e}"),
            RequestError::Malformed(why) => write!(f, "malformed request: {why}"),
            RequestError::HeadTooLarge => write!(f, "request head too large"),
            RequestError::BodyTooLarge(n) => write!(f, "request body of {n} bytes too large"),
            RequestError::LengthRequired => write!(f, "content-length required"),
        }
    }
}

/// Read one request head (request line + headers) off `reader`.  The
/// body is **not** read yet — callers honoring `Expect: 100-continue`
/// write the interim response first, then call [`read_body`].
pub fn read_head(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, RequestError> {
    let mut head_bytes = 0usize;
    // Tolerate a few stray blank lines between pipelined requests
    // (bounded, so a CRLF stream cannot spin the reader forever).
    let mut request_line = String::new();
    for blanks in 0.. {
        match read_crlf_line(reader, limits, &mut head_bytes)? {
            None => return Err(RequestError::Closed),
            Some(line) if line.is_empty() && blanks < 4 => continue,
            Some(line) if line.is_empty() => {
                return Err(RequestError::Malformed("blank lines only".into()))
            }
            Some(line) => {
                request_line = line;
                break;
            }
        }
    }
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    if !path.starts_with('/') {
        return Err(RequestError::Malformed(format!(
            "request target `{path}` is not origin-form"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_crlf_line(reader, limits, &mut head_bytes)? else {
            return Err(RequestError::Malformed(
                "connection closed mid-request".into(),
            ));
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!(
                "header line without `:`: `{line}`"
            )));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        http11: version == "HTTP/1.1",
        headers,
        body: Vec::new(),
    })
}

/// Read the request body announced by `request`'s headers into
/// `request.body`, enforcing [`Limits::max_body_bytes`].
pub fn read_body(
    reader: &mut impl BufRead,
    request: &mut Request,
    limits: &Limits,
) -> Result<(), RequestError> {
    if request.header("transfer-encoding").is_some() {
        // No chunked support; rejecting outright also forecloses
        // TE/CL request-smuggling ambiguity.
        return Err(RequestError::Malformed(
            "transfer-encoding is not supported; frame the body with content-length".into(),
        ));
    }
    let length = match content_length(request)? {
        Some(length) => length,
        None if matches!(request.method.as_str(), "POST" | "PUT" | "PATCH") => {
            return Err(RequestError::LengthRequired)
        }
        None => 0,
    };
    if length > limits.max_body_bytes as u64 {
        return Err(RequestError::BodyTooLarge(length));
    }
    let mut body = vec![0u8; length as usize];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        // Like a head cut short: the peer stopped sending mid-request.
        std::io::ErrorKind::UnexpectedEof => {
            RequestError::Malformed("connection closed mid-body".into())
        }
        _ => RequestError::Io(e),
    })?;
    request.body = body;
    Ok(())
}

/// The body length `request` announces, if it announces one.  Every
/// `Content-Length` copy must be `1*DIGIT` (so no sign, no list) and
/// all copies must agree: framing by one of two different lengths is
/// the CL/CL request-smuggling ambiguity.
fn content_length(request: &Request) -> Result<Option<u64>, RequestError> {
    let mut length = None;
    for (_, text) in request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
    {
        let bad = || RequestError::Malformed(format!("bad content-length `{text}`"));
        if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad());
        }
        let value = text.parse::<u64>().map_err(|_| bad())?;
        if length.is_some_and(|first| first != value) {
            return Err(RequestError::Malformed(
                "conflicting content-length headers".into(),
            ));
        }
        length = Some(value);
    }
    Ok(length)
}

/// Read one CRLF-terminated line, charging its bytes against the head
/// budget.  Lone-LF line endings are tolerated; `None` means the
/// stream ended before any byte of this line.
fn read_crlf_line(
    reader: &mut impl BufRead,
    limits: &Limits,
    head_bytes: &mut usize,
) -> Result<Option<String>, RequestError> {
    let mut raw = Vec::new();
    // Bound the read itself, not just the accumulated total: `take`
    // caps how much one unterminated line can buffer.
    let budget = (limits.max_head_bytes - *head_bytes + 1) as u64;
    let read = reader
        .take(budget)
        .read_until(b'\n', &mut raw)
        .map_err(RequestError::Io)?;
    if read == 0 {
        return Ok(None);
    }
    *head_bytes += read;
    if *head_bytes > limits.max_head_bytes {
        return Err(RequestError::HeadTooLarge);
    }
    if raw.last() != Some(&b'\n') {
        return Err(RequestError::Malformed("unterminated header line".into()));
    }
    raw.pop();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|_| RequestError::Malformed("non-UTF-8 header bytes".into()))
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Assemble one response — head and body — in `out` (cleared first).
/// `content_type` names the body's media type (JSON everywhere except
/// the Prometheus `/metrics` exposition); `keep_alive` decides the
/// `Connection` header.  One buffer means one `write_all`: on a
/// `TCP_NODELAY` socket a head written apart from its body is a
/// segment, and a client wake-up, of its own.
pub fn frame_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    out.clear();
    out.extend_from_slice(b"HTTP/1.1 ");
    write_i64(i64::from(status), out);
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\ncontent-type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\ncontent-length: ");
    write_i64(body.len() as i64, out);
    out.extend_from_slice(if keep_alive {
        &b"\r\nconnection: keep-alive\r\n\r\n"[..]
    } else {
        &b"\r\nconnection: close\r\n\r\n"[..]
    });
    out.extend_from_slice(body);
}

/// Write one response ([`frame_response`]) with a single `write_all`;
/// the caller closes the stream when `keep_alive` is `false`.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut frame = Vec::new();
    frame_response(
        &mut frame,
        status,
        content_type,
        body.as_bytes(),
        keep_alive,
    );
    stream.write_all(&frame)?;
    stream.flush()
}

/// Write the interim `100 Continue` response.
pub fn write_continue(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{BufReader, Cursor};

    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        let mut reader = BufReader::new(bytes);
        let limits = Limits::default();
        let mut request = read_head(&mut reader, &limits)?;
        read_body(&mut reader, &mut request, &limits)?;
        Ok(request)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_get_without_length() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_header_overrides_keep_alive() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive());
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive(), "HTTP/1.0 defaults to close");
        let old_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_ka.keep_alive());
    }

    #[test]
    fn missing_length_on_post_is_411() {
        assert!(matches!(
            parse(b"POST /query HTTP/1.1\r\n\r\n"),
            Err(RequestError::LengthRequired)
        ));
    }

    #[test]
    fn oversized_body_is_413_without_reading_it() {
        let text = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            (1 << 20) + 1
        );
        assert!(matches!(
            parse(text.as_bytes()),
            Err(RequestError::BodyTooLarge(_))
        ));
    }

    #[test]
    fn oversized_head_is_431() {
        let text = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(20 << 10));
        assert!(matches!(
            parse(text.as_bytes()),
            Err(RequestError::HeadTooLarge)
        ));
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        for head in [
            "Content-Length: +5",
            "Content-Length: -1",
            "Content-Length: 5, 5",
            "Content-Length: 0x5",
            "Content-Length:",
            "Content-Length: 5\r\nContent-Length: 100",
            "Content-Length: 99999999999999999999999",
        ] {
            let text = format!("POST /query HTTP/1.1\r\n{head}\r\n\r\nhello");
            assert!(
                matches!(parse(text.as_bytes()), Err(RequestError::Malformed(_))),
                "{head:?}"
            );
        }
        // Agreeing copies frame the body like one.
        let req =
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 005\r\n\r\nhello")
                .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn garbage_is_malformed_and_eof_is_closed() {
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(parse(b""), Err(RequestError::Closed)));
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET http://absolute/ HTTP/1.1\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn pipelined_requests_read_back_to_back() {
        let bytes = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(&bytes[..]);
        let limits = Limits::default();
        let mut paths = Vec::new();
        loop {
            match read_head(&mut reader, &limits) {
                Ok(mut req) => {
                    read_body(&mut reader, &mut req, &limits).unwrap();
                    paths.push(req.path.clone());
                }
                Err(RequestError::Closed) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(paths, vec!["/a", "/b", "/c"]);
    }

    /// Records each `write` call, accepting at most `cap` bytes of it.
    struct Sink {
        cap: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.writes.push(buf[..n].to_vec());
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_goes_out_as_one_buffer() {
        // A sink that takes everything sees exactly one write: head
        // and body leave together.
        let mut whole = Sink {
            cap: usize::MAX,
            writes: Vec::new(),
        };
        write_response(&mut whole, 404, "application/json", "{}", false).unwrap();
        assert_eq!(whole.writes.len(), 1, "head and body in one write");
        assert_eq!(
            whole.writes[0],
            b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\
              content-length: 2\r\nconnection: close\r\n\r\n{}"
        );
        // A short-writing sink still receives every byte, in order.
        let mut short = Sink {
            cap: 5,
            writes: Vec::new(),
        };
        write_response(&mut short, 404, "application/json", "{}", false).unwrap();
        assert!(short.writes.len() > 1);
        assert_eq!(short.writes.concat(), whole.writes[0]);
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            "x 1\n",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("content-type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.contains("connection: close\r\n"));
    }

    /// Run `bytes` through the parser under `limits`, checking what must
    /// hold of any input: the reads — and so every buffer — stay within
    /// `max_head_bytes + 1` and `max_body_bytes`, and every error is one
    /// a server answers (400, 411, 413, 431) or a clean close.
    fn parse_bounded(bytes: &[u8], limits: &Limits) -> Result<Request, RequestError> {
        let mut reader = Cursor::new(bytes);
        let head = read_head(&mut reader, limits);
        let head_read = reader.position() as usize;
        assert!(
            head_read <= limits.max_head_bytes + 1,
            "head read {head_read} bytes"
        );
        let outcome = head
            .and_then(|mut request| read_body(&mut reader, &mut request, limits).map(|()| request));
        let body_read = reader.position() as usize - head_read;
        assert!(
            body_read <= limits.max_body_bytes,
            "body read {body_read} bytes"
        );
        if let Err(e) = &outcome {
            assert!(
                matches!(e, RequestError::Closed)
                    || matches!(e.status(), Some(400 | 411 | 413 | 431)),
                "{e:?}"
            );
        }
        outcome
    }

    /// Method, path, headers and body of one valid request.
    type Parts = (String, String, Vec<(String, String)>, Vec<u8>);

    fn valid_request() -> impl Strategy<Value = Parts> {
        (
            "[A-Z]{1,7}",
            "/[a-z0-9/_.?=-]{0,16}",
            prop::collection::vec(("x-[a-zA-Z0-9-]{1,10}", "[!-~][ -~]{0,16}"), 0..6),
            prop::collection::vec(0u8..=255, 0..48),
        )
    }

    /// `parts` on the wire; the body is framed by a trailing
    /// `Content-Length` header.
    fn frame_request((method, path, headers, body): &Parts) -> Vec<u8> {
        let mut head = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        [head.as_bytes(), body].concat()
    }

    /// Room for anything [`valid_request`] generates.
    const ROOMY: Limits = Limits {
        max_head_bytes: 1024,
        max_body_bytes: 64,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_stay_bounded(
            junk in prop::collection::vec(0u8..=255, 0..300),
            max_head_bytes in 16usize..160,
            max_body_bytes in 0usize..48,
        ) {
            let limits = Limits { max_head_bytes, max_body_bytes };
            let _ = parse_bounded(&junk, &limits);
            // Behind a valid request line, so the junk reaches headers.
            let _ = parse_bounded(&[&b"POST / HTTP/1.1\r\n"[..], &junk].concat(), &limits);
        }

        #[test]
        fn flipped_or_truncated_requests_stay_bounded(
            parts in valid_request(),
            at in 0usize..1 << 16,
            flip in 1u8..=255,
            max_head_bytes in 16usize..160,
            max_body_bytes in 0usize..48,
        ) {
            let bytes = frame_request(&parts);
            for limits in [ROOMY, Limits { max_head_bytes, max_body_bytes }] {
                let mut flipped = bytes.clone();
                flipped[at % bytes.len()] ^= flip;
                let _ = parse_bounded(&flipped, &limits);
                let _ = parse_bounded(&bytes[..at % bytes.len()], &limits);
            }
        }

        #[test]
        fn valid_requests_survive_reframing(parts in valid_request()) {
            let parsed = parse_bounded(&frame_request(&parts), &ROOMY).unwrap();
            let (method, path, headers, body) = &parts;
            let mut expected: Vec<(String, String)> = headers
                .iter()
                .map(|(n, v)| (n.to_ascii_lowercase(), v.trim().to_string()))
                .collect();
            expected.push(("content-length".into(), body.len().to_string()));
            prop_assert_eq!(&parsed.method, method);
            prop_assert_eq!(&parsed.path, path);
            prop_assert_eq!(&parsed.headers, &expected);
            prop_assert_eq!(&parsed.body, body);
            // Framed again from what was parsed, it parses the same.
            let (mut headers, body) = (parsed.headers.clone(), parsed.body.clone());
            headers.pop();
            let again = frame_request(&(parsed.method.clone(), parsed.path.clone(), headers, body));
            let reparsed = parse_bounded(&again, &ROOMY).unwrap();
            prop_assert_eq!(&reparsed.method, &parsed.method);
            prop_assert_eq!(&reparsed.path, &parsed.path);
            prop_assert_eq!(&reparsed.headers, &parsed.headers);
            prop_assert_eq!(&reparsed.body, &parsed.body);
        }
    }
}

//! A minimal, limit-enforcing HTTP/1.1 message layer.
//!
//! The workspace is fully offline, so there is no hyper/axum to lean on;
//! this module is the smallest slice of RFC 9112 the control plane
//! needs, written defensively: every input path is bounded (request-line
//! length, header count and size, body size), parsing is incremental so
//! torn reads and pipelined requests both work from one buffer, and
//! every malformed input maps to a typed [`ParseError`] carrying the
//! 4xx status the connection should answer before closing. The parser
//! never panics on any byte sequence — property-tested in
//! `tests/http_proptest.rs`.

use std::fmt;

/// Hard limits on one request. Exceeding any of them is a client error,
/// never a server panic or an unbounded allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Most accepted header fields.
    pub max_headers: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_line: usize,
    /// Largest accepted body, bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 4096,
            max_headers: 64,
            max_header_line: 4096,
            max_body: 64 * 1024,
        }
    }
}

/// Request methods the control plane routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// Any other token — syntactically valid, answered `405`/`501`.
    Other(String),
}

impl Method {
    pub(crate) fn parse(token: &str) -> Option<Method> {
        if token.is_empty() || !token.bytes().all(|b| b.is_ascii_uppercase()) {
            return None;
        }
        Some(match token {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_owned()),
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Get => f.write_str("GET"),
            Method::Post => f.write_str("POST"),
            Method::Other(m) => f.write_str(m),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request target (origin form, e.g. `/v1/safe-point/17`).
    pub target: String,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A request target's path: everything before any `?query`.
pub(crate) fn path(target: &str) -> &str {
    target.split_once('?').map_or(target, |(path, _)| path)
}

/// Why a buffer failed to parse. Every variant maps to the 4xx/5xx the
/// server answers before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line is malformed (bad method token, missing target,
    /// target not origin-form, embedded control bytes).
    BadRequestLine,
    /// The request line exceeds [`Limits::max_request_line`].
    RequestLineTooLong,
    /// A header line is malformed (no colon, control bytes in the name).
    BadHeader,
    /// A single header line exceeds [`Limits::max_header_line`].
    HeaderLineTooLong,
    /// More than [`Limits::max_headers`] header fields.
    TooManyHeaders,
    /// `Content-Length` is unparseable or duplicated inconsistently.
    BadContentLength,
    /// The declared body exceeds [`Limits::max_body`].
    BodyTooLarge,
    /// The request uses a transfer encoding this server does not
    /// implement (chunked uploads).
    UnsupportedTransferEncoding,
    /// Not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion,
}

impl ParseError {
    /// The status code the connection answers with before closing.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequestLine | ParseError::BadHeader | ParseError::BadContentLength => {
                400
            }
            ParseError::RequestLineTooLong => 414,
            ParseError::HeaderLineTooLong | ParseError::TooManyHeaders => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::UnsupportedTransferEncoding => 501,
            ParseError::UnsupportedVersion => 505,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParseError::BadRequestLine => "malformed request line",
            ParseError::RequestLineTooLong => "request line too long",
            ParseError::BadHeader => "malformed header",
            ParseError::HeaderLineTooLong => "header line too long",
            ParseError::TooManyHeaders => "too many headers",
            ParseError::BadContentLength => "bad content-length",
            ParseError::BodyTooLarge => "body too large",
            ParseError::UnsupportedTransferEncoding => "unsupported transfer-encoding",
            ParseError::UnsupportedVersion => "unsupported http version",
        };
        f.write_str(s)
    }
}

/// Outcome of one incremental parse attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A full request was parsed; `consumed` bytes of the buffer belong
    /// to it (the rest is the next pipelined request, if any).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed.
        consumed: usize,
    },
    /// The buffer holds a syntactically-fine-so-far prefix; read more.
    Incomplete,
}

/// Finds `\r\n` starting at `from`, returning the line without the
/// terminator and the index just past it.
fn find_line(buf: &[u8], from: usize) -> Option<(&[u8], usize)> {
    let mut i = from;
    while i + 1 < buf.len() {
        if buf[i] == b'\r' && buf[i + 1] == b'\n' {
            return Some((&buf[from..i], i + 2));
        }
        i += 1;
    }
    None
}

/// Incrementally parses one request off the front of `buf`.
///
/// Returns [`Parsed::Incomplete`] while the buffer is a valid prefix,
/// [`Parsed::Complete`] with the consumed length once a full message is
/// present (pipelined followers stay in the buffer), and a
/// [`ParseError`] as soon as the prefix can no longer become a valid
/// request — limits are enforced on the prefix, so an attacker cannot
/// make the server buffer an unbounded request line, header block or
/// body. Never panics, for any input.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed, ParseError> {
    // --- Request line. ---
    let (line, mut pos) = match find_line(buf, 0) {
        Some(found) => found,
        None => {
            if buf.len() > limits.max_request_line {
                return Err(ParseError::RequestLineTooLong);
            }
            return Ok(Parsed::Incomplete);
        }
    };
    if line.len() > limits.max_request_line {
        return Err(ParseError::RequestLineTooLong);
    }
    let line = std::str::from_utf8(line).map_err(|_| ParseError::BadRequestLine)?;
    if line.bytes().any(|b| b.is_ascii_control()) {
        return Err(ParseError::BadRequestLine);
    }
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::BadRequestLine),
    };
    let method = Method::parse(method).ok_or(ParseError::BadRequestLine)?;
    if !target.starts_with('/') {
        return Err(ParseError::BadRequestLine);
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::UnsupportedVersion);
    }

    // --- Headers. ---
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let (line, next) = match find_line(buf, pos) {
            Some(found) => found,
            None => {
                if buf.len() - pos > limits.max_header_line {
                    return Err(ParseError::HeaderLineTooLong);
                }
                return Ok(Parsed::Incomplete);
            }
        };
        if line.len() > limits.max_header_line {
            return Err(ParseError::HeaderLineTooLong);
        }
        pos = next;
        if line.is_empty() {
            break; // end of the header block
        }
        if headers.len() == limits.max_headers {
            return Err(ParseError::TooManyHeaders);
        }
        let line = std::str::from_utf8(line).map_err(|_| ParseError::BadHeader)?;
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        if name.is_empty()
            || name
                .bytes()
                .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
            || value.bytes().any(|b| b.is_ascii_control())
        {
            return Err(ParseError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    // --- Body. ---
    let transfer_encoding = headers.iter().any(|(n, _)| n == "transfer-encoding");
    if transfer_encoding {
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    let mut content_length: Option<usize> = None;
    for (name, value) in &headers {
        if name == "content-length" {
            let parsed: usize = value.parse().map_err(|_| ParseError::BadContentLength)?;
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(ParseError::BadContentLength);
            }
            content_length = Some(parsed);
        }
    }
    let body_len = content_length.unwrap_or(0);
    if body_len > limits.max_body {
        return Err(ParseError::BodyTooLarge);
    }
    if buf.len() < pos + body_len {
        return Ok(Parsed::Incomplete);
    }
    let body = buf[pos..pos + body_len].to_vec();
    Ok(Parsed::Complete {
        request: Request {
            method,
            target: target.to_owned(),
            headers,
            body,
        },
        consumed: pos + body_len,
    })
}

/// One response, rendered by [`Response::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
    /// Optional entity tag, emitted as an `etag` header so clients can
    /// revalidate with `If-None-Match`.
    pub etag: Option<String>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            close: false,
            etag: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            close: false,
            etag: None,
        }
    }

    /// An empty `304 Not Modified`: the client's cached representation
    /// (named by its `If-None-Match` tag) is still current.
    pub fn not_modified() -> Self {
        Response::json(304, Vec::new())
    }

    /// Attaches an entity tag, emitted as an `etag` header.
    pub fn with_etag(mut self, tag: impl Into<String>) -> Self {
        self.etag = Some(tag.into());
        self
    }

    /// The standard JSON error envelope.
    pub fn error(status: u16, message: &str) -> Self {
        let mut escaped = String::with_capacity(message.len());
        for c in message.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        Response::json(status, format!("{{\"error\":\"{escaped}\"}}"))
    }

    /// Marks the response as connection-closing.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// The canonical reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Content Too Large",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Serializes the response head and body to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        if let Some(tag) = &self.etag {
            head.push_str("etag: ");
            head.push_str(tag);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Parsed, ParseError> {
        parse_request(bytes, &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let buf = b"GET /v1/safe-point/17 HTTP/1.1\r\nhost: x\r\n\r\n";
        match parse(buf).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(consumed, buf.len());
                assert_eq!(request.method, Method::Get);
                assert_eq!(request.target, "/v1/safe-point/17");
                assert_eq!(request.header("host"), Some("x"));
                assert!(!request.wants_close());
                assert!(request.body.is_empty());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_pipelined_follower() {
        let buf =
            b"POST /v1/campaigns HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET / HTTP/1.1\r\n\r\n";
        match parse(buf).unwrap() {
            Parsed::Complete { request, consumed } => {
                assert_eq!(request.method, Method::Post);
                assert_eq!(request.body, b"abcd");
                // The follower is untouched and parses on its own.
                match parse(&buf[consumed..]).unwrap() {
                    Parsed::Complete { request, .. } => assert_eq!(request.target, "/"),
                    other => panic!("expected follower, got {other:?}"),
                }
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn torn_requests_stay_incomplete_until_whole() {
        let buf = b"GET /x HTTP/1.1\r\nhost: a\r\n\r\n";
        for cut in 0..buf.len() {
            assert_eq!(
                parse(&buf[..cut]).unwrap(),
                Parsed::Incomplete,
                "prefix of length {cut}"
            );
        }
        assert!(matches!(parse(buf).unwrap(), Parsed::Complete { .. }));
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for bad in [
            &b"GET\r\n\r\n"[..],
            b" GET / HTTP/1.1\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"G\x01T / HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(parse(bad).unwrap_err().status(), 400, "{bad:?}");
        }
        assert_eq!(
            parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err(),
            ParseError::UnsupportedVersion
        );
    }

    #[test]
    fn limits_bound_every_dimension() {
        let limits = Limits {
            max_request_line: 32,
            max_headers: 2,
            max_header_line: 32,
            max_body: 8,
        };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert_eq!(
            parse_request(long_line.as_bytes(), &limits).unwrap_err(),
            ParseError::RequestLineTooLong
        );
        // Even with no CRLF in sight, an oversized prefix errors rather
        // than buffering forever.
        assert_eq!(
            parse_request("G".repeat(64).as_bytes(), &limits).unwrap_err(),
            ParseError::RequestLineTooLong
        );
        let many_headers = "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert_eq!(
            parse_request(many_headers.as_bytes(), &limits).unwrap_err(),
            ParseError::TooManyHeaders
        );
        let long_header = format!("GET / HTTP/1.1\r\nh: {}\r\n\r\n", "v".repeat(64));
        assert_eq!(
            parse_request(long_header.as_bytes(), &limits).unwrap_err(),
            ParseError::HeaderLineTooLong
        );
        let big_body = "POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n123456789";
        assert_eq!(
            parse_request(big_body.as_bytes(), &limits).unwrap_err(),
            ParseError::BodyTooLarge
        );
    }

    #[test]
    fn content_length_must_be_a_consistent_number() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: x\r\n\r\n").unwrap_err(),
            ParseError::BadContentLength
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n")
                .unwrap_err(),
            ParseError::BadContentLength
        );
        // Two agreeing lengths are tolerated.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 1\r\n\r\nZ").unwrap(),
            Parsed::Complete { .. }
        ));
    }

    #[test]
    fn chunked_uploads_are_rejected_as_unimplemented() {
        let err = parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::UnsupportedTransferEncoding);
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn responses_encode_with_length_and_connection() {
        let bytes = Response::json(200, "{}").encode();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let closing = Response::error(400, "bad \"x\"").closing().encode();
        let text = String::from_utf8(closing).unwrap();
        assert!(text.contains("connection: close"));
        assert!(text.ends_with("{\"error\":\"bad \\\"x\\\"\"}"));
    }

    #[test]
    fn etags_render_in_the_head_and_304_is_empty() {
        let tagged = Response::json(200, "{}").with_etag("\"sp-7\"");
        let text = String::from_utf8(tagged.encode()).unwrap();
        assert!(text.contains("etag: \"sp-7\"\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let revalidated = Response::not_modified().with_etag("\"sp-7\"");
        assert_eq!(revalidated.status, 304);
        let text = String::from_utf8(revalidated.encode()).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(text.contains("content-length: 0\r\n"));
        assert!(text.contains("etag: \"sp-7\"\r\n"));

        // Untagged responses keep the historical head shape.
        let plain = String::from_utf8(Response::json(200, "{}").encode()).unwrap();
        assert!(!plain.contains("etag:"));
    }
}

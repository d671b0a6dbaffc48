//! Incremental HTTP/1.1 request parsing.
//!
//! [`RequestParser`] is a push parser: the connection layer feeds it
//! whatever bytes arrived (a torn header, half a body, three pipelined
//! requests — any framing the network produces) and asks for complete
//! requests. It never blocks and never loses bytes, which is what lets
//! the event loop feed it straight from readiness callbacks.
//!
//! Malformed input is a first-class outcome, not a dropped connection:
//! every framing violation maps to a [`ParseError`] carrying the HTTP
//! status (`400` for malformed lines/bodies, `431` for oversized
//! headers) and a human-readable detail, so the caller can answer with
//! a JSON error body before closing.

/// Maximum bytes of request line + headers before `431`.
pub const MAX_HEAD: usize = 64 * 1024;
/// Maximum declared `Content-Length` before `400`.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request, ready for [`crate::http`]'s `route()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    pub method: String,
    pub path: String,
    /// Whether the *client* allows connection reuse (HTTP/1.1 default
    /// yes, HTTP/1.0 default no, `Connection:` header overrides).
    pub keep_alive: bool,
    pub body: Vec<u8>,
}

/// A framing violation. The connection must be closed after answering —
/// the parser cannot resynchronise on a malformed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Request line is not `METHOD SP PATH [SP VERSION]`.
    BadRequestLine(String),
    /// A header line with no `:` separator.
    BadHeader(String),
    /// `Content-Length` not a base-10 integer.
    BadContentLength(String),
    /// Head grew past [`MAX_HEAD`] without terminating.
    HeadTooLarge(usize),
    /// Declared body larger than [`MAX_BODY`].
    BodyTooLarge(usize),
}

impl ParseError {
    /// The HTTP status the error response should carry.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge(_) => 431,
            _ => 400,
        }
    }

    /// Machine-readable error label for the JSON body.
    pub fn label(&self) -> &'static str {
        match self {
            ParseError::BadRequestLine(_) => "bad_request_line",
            ParseError::BadHeader(_) => "bad_header",
            ParseError::BadContentLength(_) => "bad_content_length",
            ParseError::HeadTooLarge(_) => "headers_too_large",
            ParseError::BodyTooLarge(_) => "body_too_large",
        }
    }

    /// Human-readable detail for the JSON body.
    pub fn detail(&self) -> String {
        match self {
            ParseError::BadRequestLine(line) => format!("malformed request line {line:?}"),
            ParseError::BadHeader(line) => format!("malformed header line {line:?}"),
            ParseError::BadContentLength(v) => format!("invalid content-length {v:?}"),
            ParseError::HeadTooLarge(n) => {
                format!("request head exceeds {MAX_HEAD} bytes ({n} buffered)")
            }
            ParseError::BodyTooLarge(n) => format!("declared body of {n} bytes exceeds {MAX_BODY}"),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail())
    }
}

/// Incremental push parser for a stream of pipelined HTTP/1.1 requests.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for `\r\n\r\n` (resume point, so
    /// repeated feeds of a large head stay O(total), not O(total²)).
    scanned: usize,
    /// Set once a framing violation is seen; the stream is poisoned.
    failed: bool,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    pub fn new() -> Self {
        RequestParser {
            buf: Vec::new(),
            scanned: 0,
            failed: false,
        }
    }

    /// Appends newly received bytes. Never fails; violations surface on
    /// the next [`next_request`](Self::next_request).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True when a partial request is sitting in the buffer (used to
    /// distinguish an idle keep-alive connection from one torn mid-way).
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to extract the next complete request.
    ///
    /// `Ok(None)` means "need more bytes"; call [`feed`](Self::feed) and
    /// retry. `Err` poisons the parser: the connection must answer the
    /// error and close (pipelined bytes after a violation are
    /// unrecoverable since framing is lost).
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, ParseError> {
        if self.failed {
            return Ok(None);
        }
        let Some(head_end) = self.find_head_end() else {
            if self.buf.len() > MAX_HEAD {
                self.failed = true;
                return Err(ParseError::HeadTooLarge(self.buf.len()));
            }
            return Ok(None);
        };
        match self.parse_at(head_end) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn parse_at(&mut self, head_end: usize) -> Result<Option<HttpRequest>, ParseError> {
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return Err(ParseError::BadRequestLine(clip(request_line)));
        };
        // HTTP/1.0 defaults to close; 1.1 (and an absent version token,
        // which simple clients omit) to keep-alive.
        let mut keep_alive = parts.next() != Some("HTTP/1.0");
        let mut content_length = 0usize;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ParseError::BadHeader(clip(line)));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| ParseError::BadContentLength(clip(value)))?;
            } else if name == "connection" {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
        if content_length > MAX_BODY {
            return Err(ParseError::BodyTooLarge(content_length));
        }
        let total = head_end + 4 + content_length;
        if self.buf.len() < total {
            return Ok(None); // body still in flight
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        self.scanned = 0;
        Ok(Some(HttpRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            keep_alive,
            body,
        }))
    }

    fn find_head_end(&mut self) -> Option<usize> {
        // Rescan from 3 bytes before the high-water mark so a terminator
        // split across feeds is still found.
        let start = self.scanned.saturating_sub(3);
        let pos = self.buf[start..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + start);
        // Advance the high-water mark only while searching; once found,
        // pin it at the terminator so a body-still-in-flight retry
        // relocates the same head.
        self.scanned = pos.unwrap_or(self.buf.len());
        pos
    }
}

fn clip(s: &str) -> String {
    const LIMIT: usize = 80;
    if s.len() <= LIMIT {
        s.to_owned()
    } else {
        let mut end = LIMIT;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser_with(bytes: &[u8]) -> RequestParser {
        let mut p = RequestParser::new();
        p.feed(bytes);
        p
    }

    #[test]
    fn whole_request_in_one_feed() {
        let mut p = parser_with(b"POST /explain HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/explain");
        assert_eq!(req.body, b"hi");
        assert!(req.keep_alive);
        assert_eq!(p.buffered(), 0);
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_partial_reads() {
        // The pathological framing: every byte arrives in its own feed.
        let raw = b"POST /recommend HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd";
        let mut p = RequestParser::new();
        for (i, b) in raw.iter().enumerate() {
            assert_eq!(p.next_request().unwrap(), None, "complete at byte {i}?");
            p.feed(&[*b]);
        }
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.path, "/recommend");
        assert_eq!(req.body, b"abcd");
        assert!(!req.keep_alive);
    }

    #[test]
    fn pipelined_requests_in_one_buffer() {
        let mut p = parser_with(
            b"POST /a HTTP/1.1\r\nContent-Length: 1\r\n\r\nxGET /b HTTP/1.1\r\n\r\nPOST /c HTTP/1.1\r\nContent-Length: 3\r\n\r\nyyy",
        );
        let a = p.next_request().unwrap().unwrap();
        let b = p.next_request().unwrap().unwrap();
        let c = p.next_request().unwrap().unwrap();
        assert_eq!((a.path.as_str(), a.body.as_slice()), ("/a", &b"x"[..]));
        assert_eq!((b.method.as_str(), b.path.as_str()), ("GET", "/b"));
        assert_eq!((c.path.as_str(), c.body.as_slice()), ("/c", &b"yyy"[..]));
        assert_eq!(p.next_request().unwrap(), None);
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn torn_header_across_feeds() {
        // The head terminator itself is split across feeds, and a header
        // line straddles a feed boundary.
        let mut p = RequestParser::new();
        p.feed(b"GET /healthz HTTP/1.1\r\nConn");
        assert_eq!(p.next_request().unwrap(), None);
        p.feed(b"ection: close\r\n\r");
        assert_eq!(p.next_request().unwrap(), None);
        p.feed(b"\n");
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive);
    }

    #[test]
    fn torn_body_waits_for_remainder() {
        let mut p = parser_with(b"POST /x HTTP/1.1\r\nContent-Length: 6\r\n\r\nabc");
        assert_eq!(p.next_request().unwrap(), None);
        p.feed(b"def");
        assert_eq!(p.next_request().unwrap().unwrap().body, b"abcdef");
    }

    #[test]
    fn malformed_request_line_is_400() {
        let mut p = parser_with(b"garbage\r\n\r\n");
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status(), 400);
        assert_eq!(err.label(), "bad_request_line");
        // Poisoned: later feeds never yield requests.
        p.feed(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap(), None);
    }

    #[test]
    fn header_without_colon_is_400() {
        let mut p = parser_with(b"GET / HTTP/1.1\r\nthis is not a header\r\n\r\n");
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status(), 400);
        assert_eq!(err.label(), "bad_header");
    }

    #[test]
    fn bad_content_length_is_400_not_silently_zero() {
        // The old parser `unwrap_or(0)`-ed this and desynced on framing.
        let mut p = parser_with(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status(), 400);
        assert_eq!(err.label(), "bad_content_length");
    }

    #[test]
    fn oversized_head_is_431() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nX-Pad: ");
        while p.buffered() <= MAX_HEAD {
            match p.next_request() {
                Ok(None) => p.feed(&[b'a'; 4096]),
                Ok(Some(r)) => panic!("unterminated head yielded {r:?}"),
                Err(e) => {
                    assert_eq!(e.status(), 431);
                    assert_eq!(e.label(), "headers_too_large");
                    return;
                }
            }
        }
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn oversized_body_is_400() {
        let mut p = parser_with(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        let err = p.next_request().unwrap_err();
        assert_eq!(err.status(), 400);
        assert_eq!(err.label(), "body_too_large");
    }

    #[test]
    fn http_10_defaults_to_close() {
        let mut p =
            parser_with(b"GET / HTTP/1.0\r\n\r\nGET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!p.next_request().unwrap().unwrap().keep_alive);
        assert!(p.next_request().unwrap().unwrap().keep_alive);
    }
}

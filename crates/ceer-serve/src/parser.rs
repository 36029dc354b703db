//! Zero-copy incremental HTTP/1.1 request parsing: the one request parser
//! of the server and of the cluster gateway.
//!
//! The event loop cannot block, so this module parses whatever bytes
//! have arrived so far *in place*:
//! [`parse_head`] scans the connection's receive buffer and either
//! reports the head incomplete (`Ok(None)` — wait for more bytes), fully
//! parsed ([`Head`], byte offsets into the buffer, no allocation beyond
//! error strings), or hopeless ([`ParseError`] — answer 4xx and close).
//! Once `buffer.len() >= head.total_len()`, [`Head::request`] yields a
//! [`RequestRef`] borrowing method/path/body straight out of the buffer.
//!
//! Semantics are pinned to a line-based reference reader (a `BufRead`
//! over the request, kept in `tests/http_parser_prop.rs`, which compares
//! the two on generated input): LF or CRLF line endings, whitespace-split
//! request line, `HTTP/1.` version prefix, absolute path, last-wins
//! `Content-Length` checked against the body cap at header-parse time,
//! `X-Ceer-Attempt` read leniently, the same per-line length cap, and
//! the same error strings. Two knowing divergences, both at the margins
//! of what a blocking `read_line` can express: a non-UTF-8 head is
//! `Malformed` here (400) where the reference sees an I/O error, and
//! bytes that end without a line terminator are "incomplete" here (the
//! state machine closes on EOF) where the reference parses the partial
//! line.

use crate::http::ReadError;

/// Largest accepted request head (request line + headers + blank line).
/// The per-line cap bounds each line; this bounds how many of them a
/// peer can send before we give up on ever finding the blank line.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Largest accepted request-line/header line, *including* its
/// terminator — the same arithmetic as the reference reader, which
/// measures `read_line`'s output before stripping `\r\n`.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// Why a head cannot parse. Maps onto the matching [`ReadError`]
/// variants, which pick the response and the counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Syntactically broken — answered with 400.
    Malformed(String),
    /// Declared body exceeds the configured limit — answered with 413.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
}

impl From<ParseError> for ReadError {
    fn from(error: ParseError) -> Self {
        match error {
            ParseError::Malformed(message) => ReadError::Malformed(message),
            ParseError::BodyTooLarge { declared, limit } => {
                ReadError::BodyTooLarge { declared, limit }
            }
        }
    }
}

/// A fully parsed request head: byte offsets into the receive buffer it
/// was parsed from, plus the handful of header values the server reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Bytes consumed by the head (through the blank line).
    pub head_len: usize,
    /// Declared `Content-Length` (0 when absent), already checked
    /// against the configured cap.
    pub content_length: usize,
    /// `X-Ceer-Attempt` header value (0 when absent or unparsable).
    pub retry_attempt: u32,
    /// `false` iff the request asked `Connection: close`.
    pub keep_alive: bool,
    /// Method substring, as a `(start, end)` byte range.
    method: (usize, usize),
    /// Path substring, as a `(start, end)` byte range.
    path: (usize, usize),
}

/// A request viewed in place: borrowed slices of the connection buffer.
/// The borrow pins the buffer — dispatch before draining it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// Request method (`GET`, `POST`, …), verbatim.
    pub method: &'a str,
    /// Request target path, verbatim (query strings kept).
    pub path: &'a str,
    /// Request body (empty without a `Content-Length`).
    pub body: &'a [u8],
    /// `X-Ceer-Attempt` retry marker (0 when absent).
    pub retry_attempt: u32,
}

impl Head {
    /// Total bytes of the request: head plus declared body.
    pub fn total_len(&self) -> usize {
        self.head_len.saturating_add(self.content_length)
    }

    /// The request as borrowed slices of `buf` (the same buffer
    /// [`parse_head`] ran over). `None` if the body has not fully
    /// arrived yet (`buf.len() < self.total_len()`).
    pub fn request<'a>(&self, buf: &'a [u8]) -> Option<RequestRef<'a>> {
        let method = std::str::from_utf8(buf.get(self.method.0..self.method.1)?).ok()?;
        let path = std::str::from_utf8(buf.get(self.path.0..self.path.1)?).ok()?;
        let body = buf.get(self.head_len..self.total_len())?;
        Some(RequestRef { method, path, body, retry_attempt: self.retry_attempt })
    }
}

/// One line of the head: content range `[start, end)` (terminator and
/// trailing `\r`/`\n` stripped) and the offset just past the `\n`.
struct Line {
    start: usize,
    end: usize,
    next: usize,
}

/// Scans for the next `\n` from `start`. `Ok(None)` = no terminator yet
/// (incomplete); the per-line cap applies to terminated *and* still
/// growing lines, so an endless header line fails fast, not at EOF.
fn take_line(buf: &[u8], start: usize) -> Result<Option<Line>, ParseError> {
    let rest = buf.get(start..).unwrap_or(&[]);
    let Some(i) = rest.iter().position(|&b| b == b'\n') else {
        if rest.len() > MAX_LINE_BYTES {
            return Err(ParseError::Malformed("header line too long".to_string()));
        }
        return Ok(None);
    };
    if i + 1 > MAX_LINE_BYTES {
        return Err(ParseError::Malformed("header line too long".to_string()));
    }
    let mut end = start + i;
    while end > start && matches!(buf.get(end - 1), Some(b'\r' | b'\n')) {
        end -= 1;
    }
    Ok(Some(Line { start, end, next: start + i + 1 }))
}

fn line_str<'a>(buf: &'a [u8], line: &Line) -> Result<&'a str, ParseError> {
    std::str::from_utf8(buf.get(line.start..line.end).unwrap_or(&[]))
        .map_err(|_| ParseError::Malformed("non-UTF-8 request head".to_string()))
}

/// ASCII-whitespace-separated tokens of `s` as subranges of `[base, …)`.
/// (The reference reader uses `split_whitespace`; request lines are ASCII
/// in practice, and non-UTF-8 heads were already rejected above.)
fn tokens(s: &str, base: usize) -> Vec<(usize, usize)> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        let start = i;
        while i < bytes.len() && !bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        if i > start {
            out.push((base + start, base + i));
        }
    }
    out
}

/// Parses a request head from the front of `buf`.
///
/// `Ok(None)` means the head is still arriving — call again once more
/// bytes land (each call re-scans from the front; heads are a few
/// hundred bytes, so this stays cheap and keeps the parser stateless).
///
/// # Errors
///
/// [`ParseError::Malformed`] for anything the reference reader answers
/// 400 to, [`ParseError::BodyTooLarge`] for a declared body over
/// `max_body_bytes` — both checked as soon as the offending line is
/// complete, before the body arrives.
pub fn parse_head(buf: &[u8], max_body_bytes: usize) -> Result<Option<Head>, ParseError> {
    let too_big = || {
        (buf.len() > MAX_HEAD_BYTES)
            .then(|| ParseError::Malformed("request head too large".to_string()))
    };

    let Some(request_line) = take_line(buf, 0)? else {
        return too_big().map_or(Ok(None), Err);
    };
    let line = line_str(buf, &request_line)?;
    let parts = tokens(line, request_line.start);
    let part = |i: usize| {
        parts
            .get(i)
            .and_then(|&(s, e)| buf.get(s..e))
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or("")
    };
    let (method_str, path_str, version) = (part(0), part(1), part(2));
    if method_str.is_empty() || !path_str.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!("malformed request line {line:?}")));
    }
    let method = parts.first().copied().unwrap_or((0, 0));
    let path = parts.get(1).copied().unwrap_or((0, 0));

    let mut content_length = 0usize;
    let mut retry_attempt = 0u32;
    let mut keep_alive = true;
    let mut pos = request_line.next;
    loop {
        let Some(header) = take_line(buf, pos)? else {
            return too_big().map_or(Ok(None), Err);
        };
        pos = header.next;
        if header.end == header.start {
            break; // blank line: head complete
        }
        let line = line_str(buf, &header)?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!("malformed header line {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                ParseError::Malformed(format!("bad Content-Length {:?}", value.trim()))
            })?;
            if content_length > max_body_bytes {
                return Err(ParseError::BodyTooLarge {
                    declared: content_length,
                    limit: max_body_bytes,
                });
            }
        } else if name.eq_ignore_ascii_case("x-ceer-attempt") {
            // A client-side retry marker; unparsable values read as 0.
            retry_attempt = value.trim().parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.trim().eq_ignore_ascii_case("close");
        }
    }

    Ok(Some(Head { head_len: pos, content_length, retry_attempt, keep_alive, method, path }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(raw: &[u8]) -> Head {
        parse_head(raw, crate::http::MAX_BODY_BYTES).unwrap().unwrap()
    }

    #[test]
    fn parses_get_in_place() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let h = head(raw);
        assert_eq!(h.content_length, 0);
        assert!(h.keep_alive);
        let req = h.request(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn body_slices_out_of_the_same_buffer() {
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloEXTRA";
        let h = head(raw);
        assert_eq!(h.total_len(), raw.len() - 5);
        let req = h.request(raw).unwrap();
        assert_eq!(req.body, b"hello");
        // Pipelined bytes after the body are simply not part of this
        // request.
    }

    #[test]
    fn incomplete_heads_ask_for_more() {
        for raw in
            [&b"GET"[..], b"GET /x HTTP/1.1", b"GET /x HTTP/1.1\r\nHost", b"GET /x HTTP/1.1\r\n"]
        {
            assert_eq!(parse_head(raw, 1024), Ok(None), "{raw:?}");
        }
    }

    #[test]
    fn incomplete_body_defers_request_view() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        let h = head(raw);
        assert!(h.request(raw).is_none());
    }

    #[test]
    fn malformed_heads_error_like_the_blocking_reader() {
        for raw in [
            &b"not http at all\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: huge\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
        ] {
            assert!(matches!(parse_head(raw, 1024), Err(ParseError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn oversized_bodies_reject_at_header_time() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 11\r\n\r\n";
        assert_eq!(parse_head(raw, 10), Err(ParseError::BodyTooLarge { declared: 11, limit: 10 }));
    }

    #[test]
    fn last_content_length_wins_and_each_is_checked() {
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(head(raw).content_length, 5);
        let raw = b"POST /p HTTP/1.1\r\nContent-Length: 99\r\nContent-Length: 3\r\n\r\n";
        assert!(matches!(parse_head(raw, 10), Err(ParseError::BodyTooLarge { declared: 99, .. })));
    }

    #[test]
    fn connection_close_is_detected() {
        assert!(!head(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(head(b"GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        assert!(!head(b"GET /x HTTP/1.1\r\nconnection:  CLOSE \r\n\r\n").keep_alive);
    }

    #[test]
    fn retry_attempt_header_reads_leniently() {
        assert_eq!(head(b"GET /x HTTP/1.1\r\nX-Ceer-Attempt: 2\r\n\r\n").retry_attempt, 2);
        assert_eq!(head(b"GET /x HTTP/1.1\r\nx-ceer-attempt: nope\r\n\r\n").retry_attempt, 0);
    }

    #[test]
    fn bare_lf_lines_parse() {
        let h = head(b"GET /x HTTP/1.1\nHost: y\n\n");
        let raw = b"GET /x HTTP/1.1\nHost: y\n\n";
        assert_eq!(h.request(raw).unwrap().path, "/x");
    }

    #[test]
    fn endless_line_fails_before_the_terminator_arrives() {
        let raw = vec![b'A'; MAX_LINE_BYTES + 2];
        assert!(matches!(parse_head(&raw, 1024), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn endless_headers_fail_at_the_head_cap() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"X-Pad: yes\r\n");
        }
        assert!(matches!(parse_head(&raw, 1024), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn non_utf8_head_is_malformed_not_a_panic() {
        let raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n";
        assert!(matches!(parse_head(raw, 1024), Err(ParseError::Malformed(_))));
    }
}

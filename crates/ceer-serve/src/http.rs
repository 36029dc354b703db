//! Minimal HTTP/1.1 framing — just enough for a JSON API:
//! `Content-Length` bodies, no chunked encoding, no TLS.
//!
//! Requests are parsed by [`crate::parser`]; this module holds what both
//! sides of the wire share around it: the classified request-read
//! failures ([`ReadError`], so the server can answer 400 vs 408 vs 413
//! and count each kind), response serialization ([`Response`]), and the
//! client's bounded response reader ([`read_response`]).

use std::io::{BufRead, Read, Write};

/// Default largest accepted request body; bigger requests are rejected
/// before buffering (the JSON requests this API takes are a few hundred
/// bytes). Override per server with
/// [`crate::ServerConfig::max_body_bytes`].
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Why a request could not be read. Each variant maps to one response
/// and one metrics counter in the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Syntactically broken request — answered with 400.
    Malformed(String),
    /// Declared body exceeds the configured limit — answered with 413.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// A per-read timeout or the total request deadline expired —
    /// answered with 408 (best effort) and closed.
    TimedOut,
    /// The connection failed or closed mid-request — closed silently.
    Io(String),
}

/// Reads until EOF or `limit` bytes, whichever comes first, without ever
/// holding more than `limit` bytes. This is the blessed bounded
/// replacement for `read_to_end` on network streams (the `unbounded-io`
/// lint rule flags direct calls).
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn read_to_limit(reader: &mut impl Read, limit: usize) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    while out.len() < limit {
        let want = chunk.len().min(limit - out.len());
        // ceer-lint: allow(panic-reachability) -- want <= chunk.len() by the min above
        let n = match reader.read(&mut chunk[..want]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        // ceer-lint: allow(panic-reachability) -- read() returns n <= the buffer it filled
        out.extend_from_slice(&chunk[..n]);
    }
    Ok(out)
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always JSON in this API).
    pub body: String,
    /// When set, a `Retry-After: <secs>` header is emitted (429/503).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status. The body is newline-terminated
    /// so `POST /predict` answers with the exact bytes `ceer predict --json`
    /// prints (which ends in `println!`'s newline).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response { status, body, retry_after: None }
    }

    /// Adds a `Retry-After` header (seconds) — for 429/503 shed responses.
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// Whether the status signals an error (4xx/5xx).
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }

    /// Serializes the full response. `keep_alive` picks the `Connection`
    /// header (`false` = `close`); everything else is the same either
    /// way.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
        )
        .into_bytes();
        if let Some(secs) = self.retry_after {
            out.extend_from_slice(format!("Retry-After: {secs}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// Writes the response and flushes; the connection is then closed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        writer.write_all(&self.to_bytes(false))?;
        writer.flush()
    }
}

/// Largest response body a client will buffer (the service's responses
/// are all far smaller; this only bounds damage from a corrupted length).
pub const MAX_RESPONSE_BYTES: usize = 1 << 24;

/// A raw HTTP exchange as seen by a client: status code, body text, the
/// parsed `Retry-After` header (seconds) when the server sent one, and
/// whether the server closes the connection after this response.
///
/// Shared by [`crate::Client`] and the `ceer-cluster` router so both
/// sides of the wire agree on one parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON for every endpoint).
    pub body: String,
    /// Parsed `Retry-After` header, seconds (emitted on 429/503 sheds).
    pub retry_after: Option<u64>,
    /// The server sent `Connection: close`: this response is the last
    /// one on its connection (every error response, and every response
    /// to a request that asked to close).
    pub close: bool,
}

/// Reads one HTTP/1.1 response: status line, headers (`Content-Length`,
/// `Retry-After`, `Connection`), then a bounded body read.
///
/// # Errors
///
/// Errors on transport failure, malformed framing, or a declared body
/// larger than [`MAX_RESPONSE_BYTES`].
pub fn read_response(reader: &mut impl BufRead) -> Result<RawResponse, String> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("cannot read status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;

    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    let mut close = false;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| format!("cannot read header: {e}"))?;
        if n == 0 || line.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    Some(value.trim().parse().map_err(|e| format!("bad Content-Length: {e}"))?);
            } else if name.eq_ignore_ascii_case("retry-after") {
                // Unparsable values (e.g. an HTTP-date) read as absent —
                // the client then falls back to its own backoff.
                retry_after = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }

    let body = match content_length {
        Some(len) if len > MAX_RESPONSE_BYTES => {
            return Err(format!("response Content-Length {len} exceeds the client cap"));
        }
        Some(len) => {
            let mut buffer = vec![0u8; len];
            reader.read_exact(&mut buffer).map_err(|e| format!("truncated body: {e}"))?;
            buffer
        }
        // No Content-Length: drain to EOF, bounded (never `read_to_end`
        // on a network stream — see the `unbounded-io` lint rule).
        None => read_to_limit(reader, MAX_RESPONSE_BYTES)
            .map_err(|e| format!("cannot read body: {e}"))?,
    };
    let body = String::from_utf8(body).map_err(|e| format!("non-UTF-8 body: {e}"))?;
    Ok(RawResponse { status, body, retry_after, close })
}

/// The canonical reason phrase for the statuses this API emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn read_to_limit_caps_and_drains() {
        let mut src: &[u8] = b"abcdefgh";
        assert_eq!(read_to_limit(&mut src, 5).unwrap(), b"abcde");
        let mut src: &[u8] = b"abc";
        assert_eq!(read_to_limit(&mut src, 1024).unwrap(), b"abc");
        let mut src: &[u8] = b"";
        assert!(read_to_limit(&mut src, 8).unwrap().is_empty());
    }

    #[test]
    fn responses_serialize_with_framing() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\": \"shed\"}")
            .with_retry_after(1)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn response_parse_handles_missing_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"ok\": true}";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"ok\": true}");
        assert_eq!(response.retry_after, None);
        assert!(response.close);
    }

    #[test]
    fn response_parse_reads_retry_after() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 3\r\n\r\n{}";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.retry_after, Some(3));
        assert!(!response.close, "no Connection header reads as keep-alive");
        // An HTTP-date (or garbage) falls back to None, not an error.
        let raw = b"HTTP/1.1 429 X\r\nContent-Length: 2\r\nRetry-After: Wed, 21 Oct\r\n\r\n{}";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.retry_after, None);
    }

    #[test]
    fn response_roundtrips_through_its_own_writer() {
        let mut wire = Vec::new();
        Response::json(429, "{\"error\": \"shed\"}")
            .with_retry_after(2)
            .write_to(&mut wire)
            .unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.retry_after, Some(2));
        assert_eq!(parsed.body, "{\"error\": \"shed\"}\n");
        assert!(parsed.close);
        let kept = Response::json(200, "{}").to_bytes(true);
        assert!(!read_response(&mut BufReader::new(&kept[..])).unwrap().close);
    }

    #[test]
    fn absurd_response_length_is_rejected() {
        let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", MAX_RESPONSE_BYTES + 1);
        assert!(read_response(&mut BufReader::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn new_statuses_have_reason_phrases() {
        for (status, phrase) in [
            (408, "Request Timeout"),
            (413, "Payload Too Large"),
            (429, "Too Many Requests"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(reason(status), phrase);
        }
    }
}

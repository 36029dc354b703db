//! Property tests for the zero-copy HTTP/1.1 head parser
//! (`ceer_serve::parser`) against a line-based reference reader
//! ([`read_request`], defined below): a `BufRead` loop that reads the
//! request line, then header lines, then the declared body, under a
//! body cap and an optional deadline. It is the behavioral reference the
//! parser is pinned to, and its own unit tests live at the bottom.
//!
//! Three families of properties:
//!
//! * **totality** — arbitrary bytes, at arbitrary split points, never
//!   panic the parser and never parse a prefix inconsistently with the
//!   whole;
//! * **equivalence** — on generated *valid* requests, the zero-copy view
//!   is field-for-field identical to the reference's owned `Request`;
//! * **error parity** — generated *malformed* requests fail both parsers
//!   with the same classification (the same 4xx) and the same message.
//!
//! One documented divergence is pinned by a regression test rather than
//! a property: a non-UTF-8 head is `Malformed` (400) for the zero-copy
//! parser but an I/O failure for the line reader, which loses the
//! information inside `read_line`.

use std::io::{BufRead, BufReader};
use std::time::Instant;

use ceer::serve::http::{ReadError, MAX_BODY_BYTES};
use ceer::serve::parser::parse_head;
use proptest::prelude::*;

const MAX_BODY: usize = 1024;

const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_/.-";
const NAME_CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-";
const PRINTABLE: &[u8] =
    b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";
/// Printable ASCII minus `:` — a header line drawn from this set can
/// never contain the name/value separator.
const NO_COLON: &[u8] =
    b" !\"#$%&'()*+,-./0123456789;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";
/// Characters that can never form a parsable `usize`.
const NON_NUMERIC: &[u8] = b"abcdefghijxyzABC!%+.-";

fn budget() -> ReadBudget {
    ReadBudget { max_body_bytes: MAX_BODY, deadline: None }
}

/// Runs the reference reader over raw bytes.
fn reference(bytes: &[u8]) -> Result<Option<Request>, ReadError> {
    read_request(&mut BufReader::new(bytes), &budget())
}

/// A random string over a fixed character set.
fn string_of(charset: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..charset.len(), len)
        .prop_map(move |ix| ix.into_iter().map(|i| charset[i] as char).collect())
}

/// A plausible HTTP method (the reference accepts any non-empty token).
fn method_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("GET".to_string()),
        Just("POST".to_string()),
        Just("PUT".to_string()),
        Just("DELETE".to_string()),
        string_of(UPPER, 1..8),
    ]
}

/// A path that the request-line validator accepts (starts with `/`).
fn path_strategy() -> impl Strategy<Value = String> {
    string_of(PATH_CHARS, 0..24).prop_map(|tail| format!("/{tail}"))
}

/// A benign extra header: the `X-H` prefix keeps the name from ever
/// colliding (case-insensitively) with `Content-Length`,
/// `X-Ceer-Attempt`, or `Connection`; the value is printable ASCII,
/// colons allowed.
fn extra_header_strategy() -> impl Strategy<Value = (String, String)> {
    (string_of(NAME_CHARS, 0..10), string_of(PRINTABLE, 0..24))
        .prop_map(|(suffix, value)| (format!("X-H{suffix}"), value))
}

/// A whole valid request, rendered to wire bytes.
fn valid_request_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        method_strategy(),
        path_strategy(),
        prop::collection::vec(0u8..=255, 0..200),
        (any::<bool>(), 0u32..5).prop_map(|(present, v)| present.then_some(v)),
        prop::collection::vec(extra_header_strategy(), 0..4),
        any::<bool>(),
    )
        .prop_map(|(method, path, body, attempt, extras, close)| {
            let mut wire = format!("{method} {path} HTTP/1.1\r\n");
            for (name, value) in &extras {
                wire.push_str(&format!("{name}: {value}\r\n"));
            }
            if let Some(attempt) = attempt {
                wire.push_str(&format!("X-Ceer-Attempt: {attempt}\r\n"));
            }
            if close {
                wire.push_str("Connection: close\r\n");
            }
            wire.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut bytes = wire.into_bytes();
            bytes.extend_from_slice(&body);
            bytes
        })
}

/// A request line that is malformed *by construction* — each shape
/// violates exactly the check the parsers share (empty method, path not
/// starting `/`, version not `HTTP/1.`).
fn malformed_request_line_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        // A lone token: no path at all.
        method_strategy(),
        // Two tokens: no version.
        (method_strategy(), path_strategy()).prop_map(|(m, p)| format!("{m} {p}")),
        // Wrong protocol in the version slot.
        (method_strategy(), path_strategy()).prop_map(|(m, p)| format!("{m} {p} FTP/1.1")),
        // Path missing its leading slash.
        (method_strategy(), string_of(PATH_CHARS, 0..12))
            .prop_map(|(m, tail)| format!("{m} x{tail} HTTP/1.1")),
    ]
}

proptest! {
    /// Arbitrary bytes — including truncations at arbitrary split points —
    /// never panic the zero-copy parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..2048)) {
        let _ = parse_head(&bytes, MAX_BODY);
        // Re-scan a few prefixes too (the evented loop re-parses as
        // bytes dribble in).
        for cut in [0, 1, bytes.len() / 3, bytes.len() / 2, bytes.len().saturating_sub(1)] {
            let _ = parse_head(&bytes[..cut.min(bytes.len())], MAX_BODY);
        }
    }

    /// On valid requests the zero-copy view equals the reference's owned
    /// request, field for field.
    #[test]
    fn valid_requests_parse_identically(bytes in valid_request_strategy()) {
        let old = reference(&bytes)
            .expect("reference reader accepts generated request")
            .expect("not a clean close");
        let head = parse_head(&bytes, MAX_BODY)
            .expect("zero-copy parser accepts generated request")
            .expect("head is complete");
        // The request consumes exactly its bytes.
        prop_assert_eq!(head.total_len(), bytes.len());
        let view = head.request(&bytes).expect("buffer holds the whole request");
        prop_assert_eq!(view.method, old.method.as_str());
        prop_assert_eq!(view.path, old.path.as_str());
        prop_assert_eq!(view.body, old.body.as_slice());
        prop_assert_eq!(view.retry_attempt, old.retry_attempt);
    }

    /// Feeding a valid request split at every byte boundary: each prefix
    /// is either "incomplete, wait for more" or parses to the same head
    /// as the whole — never an error, never a different answer.
    #[test]
    fn every_split_point_is_incomplete_or_identical(bytes in valid_request_strategy()) {
        let full = parse_head(&bytes, MAX_BODY).expect("valid").expect("complete");
        for cut in 0..bytes.len() {
            match parse_head(&bytes[..cut], MAX_BODY) {
                Ok(None) => {} // still reading the head
                Ok(Some(head)) => {
                    // A complete head parses the same at any later split.
                    prop_assert_eq!(
                        (head.head_len, head.content_length),
                        (full.head_len, full.content_length)
                    );
                }
                Err(e) => {
                    prop_assert!(
                        false,
                        "prefix of a valid request must never error, cut={cut}: {e:?}"
                    );
                }
            }
        }
    }

    /// A garbage request line fails both parsers with the same 400 and
    /// the same message.
    #[test]
    fn malformed_request_lines_fail_identically(line in malformed_request_line_strategy()) {
        let bytes = format!("{line}\r\n\r\n").into_bytes();
        let old = reference(&bytes).expect_err("reference rejects a malformed request line");
        let new = parse_head(&bytes, MAX_BODY).expect_err("zero-copy rejects it too");
        prop_assert_eq!(ReadError::from(new), old);
    }

    /// A header line without a colon fails both parsers identically.
    #[test]
    fn malformed_header_lines_fail_identically(garbage in string_of(NO_COLON, 1..30)) {
        let bytes = format!("GET /x HTTP/1.1\r\n{garbage}\r\n\r\n").into_bytes();
        let old = reference(&bytes).expect_err("reference rejects a colon-less header");
        let new = parse_head(&bytes, MAX_BODY).expect_err("zero-copy rejects it too");
        prop_assert_eq!(ReadError::from(new), old);
    }

    /// An unparsable Content-Length fails both parsers identically.
    #[test]
    fn bad_content_length_fails_identically(value in string_of(NON_NUMERIC, 1..12)) {
        let bytes = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\n").into_bytes();
        let old = reference(&bytes).expect_err("reference rejects a bad Content-Length");
        let new = parse_head(&bytes, MAX_BODY).expect_err("zero-copy rejects it too");
        prop_assert_eq!(ReadError::from(new), old);
    }

    /// A declared body over the limit is a 413 from both parsers, with
    /// the same declared/limit pair.
    #[test]
    fn oversized_bodies_fail_identically(extra in 1usize..100_000) {
        let declared = MAX_BODY + extra;
        let bytes = format!("POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        let old = reference(&bytes).expect_err("reference rejects an oversized body");
        let new = parse_head(&bytes, MAX_BODY).expect_err("zero-copy rejects it too");
        prop_assert_eq!(ReadError::from(new), old);
        prop_assert_eq!(
            reference(&bytes).expect_err("reference rejects an oversized body"),
            ReadError::BodyTooLarge { declared, limit: MAX_BODY }
        );
    }
}

/// The one documented divergence: a non-UTF-8 request head. The
/// line-based reference loses the parse inside `read_line` and reports a
/// generic I/O failure; the zero-copy parser sees the bytes and
/// classifies them as malformed (400). Pinned here so a future refactor
/// changes it knowingly.
#[test]
fn non_utf8_heads_are_malformed_for_the_zero_copy_parser() {
    let bytes = b"GET /\xff\xfe HTTP/1.1\r\n\r\n";
    match parse_head(bytes, MAX_BODY) {
        Err(e) => {
            assert_eq!(
                ReadError::from(e),
                ReadError::Malformed("non-UTF-8 request head".to_string())
            );
        }
        other => panic!("expected a malformed-head error, got {other:?}"),
    }
    assert!(
        matches!(reference(bytes), Err(ReadError::Io(_))),
        "the reference reports non-UTF-8 as an I/O failure"
    );
}

// ---------------------------------------------------------------------------
// The reference reader, and its own unit tests.
// ---------------------------------------------------------------------------

/// Largest accepted request-line/header line.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Value of the `X-Ceer-Attempt` header (0 when absent): how many
    /// times the client retried before this attempt, so the server can
    /// count retried requests in its metrics.
    pub retry_attempt: u32,
}

/// Limits and deadline for reading one request.
#[derive(Debug, Clone, Copy)]
pub struct ReadBudget {
    /// Largest accepted `Content-Length`.
    pub max_body_bytes: usize,
    /// Absolute deadline for the whole request read; `None` disables the
    /// total deadline (per-read socket timeouts still apply).
    pub deadline: Option<Instant>,
}

impl Default for ReadBudget {
    fn default() -> Self {
        ReadBudget { max_body_bytes: MAX_BODY_BYTES, deadline: None }
    }
}

impl ReadBudget {
    fn expired(&self) -> bool {
        // Deadline enforcement for request reads; never feeds a prediction.
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Reads one request from `reader` within `budget`.
///
/// Returns `Ok(None)` when the peer closed the connection before sending a
/// request line (a clean no-request close, e.g. a health probe).
///
/// # Errors
///
/// Classified in [`ReadError`]; the caller picks the response and counter.
pub fn read_request(
    reader: &mut impl BufRead,
    budget: &ReadBudget,
) -> Result<Option<Request>, ReadError> {
    let request_line = match read_line(reader, budget)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !path.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("malformed request line {request_line:?}")));
    }

    let mut content_length = 0usize;
    let mut retry_attempt = 0u32;
    loop {
        let line = read_line(reader, budget)?
            .ok_or_else(|| ReadError::Io("connection closed mid-headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("malformed header line {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                ReadError::Malformed(format!("bad Content-Length {:?}", value.trim()))
            })?;
            if content_length > budget.max_body_bytes {
                return Err(ReadError::BodyTooLarge {
                    declared: content_length,
                    limit: budget.max_body_bytes,
                });
            }
        } else if name.eq_ignore_ascii_case("x-ceer-attempt") {
            // A client-side retry marker; unparsable values read as 0.
            retry_attempt = value.trim().parse().unwrap_or(0);
        }
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        if budget.expired() {
            return Err(ReadError::TimedOut);
        }
        // `filled < content_length == body.len()`: the slice stays in range.
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(ReadError::Io(format!(
                    "connection closed mid-body ({filled}/{content_length} bytes)"
                )))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(classify_io(&e)),
        }
    }
    Ok(Some(Request { method, path, body, retry_attempt }))
}

/// Maps socket-timeout error kinds onto [`ReadError::TimedOut`]; anything
/// else is a transport failure.
fn classify_io(error: &std::io::Error) -> ReadError {
    match error.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::TimedOut,
        _ => ReadError::Io(format!("read error: {error}")),
    }
}

/// Reads one CRLF- (or LF-) terminated line; `None` on immediate EOF.
fn read_line(reader: &mut impl BufRead, budget: &ReadBudget) -> Result<Option<String>, ReadError> {
    if budget.expired() {
        return Err(ReadError::TimedOut);
    }
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(|e| classify_io(&e))?;
    if n == 0 {
        return Ok(None);
    }
    if budget.expired() {
        return Err(ReadError::TimedOut);
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(ReadError::Malformed("header line too long".to_string()));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

mod reference_reader_tests {
    use super::*;
    use std::time::Duration;

    fn parse(raw: &str) -> Result<Option<Request>, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), &ReadBudget::default())
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert_eq!(req.retry_attempt, 0);
    }

    #[test]
    fn parses_post_with_content_length() {
        let req = parse(
            "POST /predict HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 15\r\n\r\n{\"cnn\": \"vgg\"}x",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body.len(), 15);
    }

    #[test]
    fn retry_attempt_header_is_parsed() {
        let req = parse("GET /healthz HTTP/1.1\r\nX-Ceer-Attempt: 2\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.retry_attempt, 2);
        let req = parse("GET /healthz HTTP/1.1\r\nx-ceer-attempt: nope\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.retry_attempt, 0);
    }

    #[test]
    fn empty_connection_is_a_clean_close() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        for raw in [
            "not http at all\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: huge\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
        ] {
            assert!(matches!(parse(raw), Err(ReadError::Malformed(_))), "{raw:?}");
        }
    }

    #[test]
    fn oversized_bodies_are_rejected_up_front() {
        let raw = format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        match parse(&raw) {
            Err(ReadError::BodyTooLarge { declared, limit }) => {
                assert_eq!(declared, MAX_BODY_BYTES + 1);
                assert_eq!(limit, MAX_BODY_BYTES);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn per_server_body_limit_is_honoured() {
        let budget = ReadBudget { max_body_bytes: 10, deadline: None };
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        let result = read_request(&mut BufReader::new(raw.as_bytes()), &budget);
        assert!(matches!(result, Err(ReadError::BodyTooLarge { declared: 11, limit: 10 })));
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello worl";
        assert!(read_request(&mut BufReader::new(raw.as_bytes()), &budget).is_ok());
    }

    #[test]
    fn truncated_body_errors() {
        assert!(matches!(
            parse("POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ReadError::Io(_))
        ));
    }

    #[test]
    fn expired_deadline_times_out() {
        let budget = ReadBudget {
            max_body_bytes: MAX_BODY_BYTES,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let result = read_request(&mut BufReader::new(raw.as_bytes()), &budget);
        assert_eq!(result, Err(ReadError::TimedOut));
    }
}

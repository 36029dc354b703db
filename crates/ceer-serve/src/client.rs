//! Minimal blocking clients for the service, used by the integration
//! tests, `examples/serve_client.rs` and the benchmark: [`Client`] opens
//! one TCP connection per call and asks the server to close it;
//! [`ClientConn`] keeps one connection alive across calls. Both send
//! every request through [`ClientConn::request_with_retry`].
//!
//! The clients can retry with capped exponential backoff and *seeded*
//! jitter ([`RetryPolicy`]): transport failures are retried only for
//! idempotent (`GET`) requests, while `429` sheds are retried for any
//! method (a shed request was never processed, so replaying it is safe).
//! When the shed carries a `Retry-After` header the client honors it,
//! capped at the policy's `max_delay_ms`. Retried attempts carry an
//! `X-Ceer-Attempt` header so the server's metrics count them.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ceer_stats::rng::DeterministicRng;
use serde::{Deserialize, Serialize};

use crate::api::{
    CatalogEntry, ErrorResponse, PredictBatchRequest, PredictBatchResponse, PredictRequest,
    PredictResponse, RecommendRequest, RecommendResponse, ZooEntry,
};
use crate::http::read_response;
pub use crate::http::RawResponse;
use crate::metrics::MetricsSnapshot;

/// Client-side retry policy: capped exponential backoff with seeded
/// jitter, so chaos tests replay the exact same retry timing from a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before retry `n` starts at `base_delay_ms * 2^(n-1)`…
    pub base_delay_ms: u64,
    /// …and is capped here.
    pub max_delay_ms: u64,
    /// Seed for the jitter draw (pure in `(seed, attempt)`).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries at all — the default for [`Client::new`], keeping its
    /// behavior identical to the pre-retry client.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_delay_ms: 0, max_delay_ms: 0, jitter_seed: 0 }
    }

    /// `attempts` tries with 10ms base / 500ms cap, jittered from `seed`.
    pub fn retries(attempts: u32, seed: u64) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
            base_delay_ms: 10,
            max_delay_ms: 500,
            jitter_seed: seed,
        }
    }

    /// The jittered backoff before attempt `attempt` (1-based retry
    /// index): exponential, capped, then scaled into `[cap/2, cap)` by a
    /// seeded draw so synchronized clients fan out deterministically.
    fn delay(&self, attempt: u32) -> Duration {
        let exponent = attempt.saturating_sub(1).min(16);
        let raw = self.base_delay_ms.saturating_mul(1u64 << exponent);
        let capped = raw.min(self.max_delay_ms);
        if capped == 0 {
            return Duration::ZERO;
        }
        let mut rng = DeterministicRng::from_seed(self.jitter_seed).substream(u64::from(attempt));
        let draw = rng.uniform();
        let jittered = (capped as f64 / 2.0) * (1.0 + draw);
        Duration::from_millis(jittered as u64)
    }

    /// The sleep before attempt `attempt`, honoring a server-supplied
    /// `Retry-After` (seconds) when present: the server's ask wins over
    /// the client's own backoff, but is still capped at `max_delay_ms` —
    /// a confused (or hostile) server must not park the client for an
    /// hour.
    fn pacing(&self, attempt: u32, retry_after_secs: Option<u64>) -> Duration {
        match retry_after_secs {
            Some(secs) => {
                let asked_ms = secs.saturating_mul(1000);
                Duration::from_millis(asked_ms.min(self.max_delay_ms))
            }
            None => self.delay(attempt),
        }
    }
}

/// A blocking client bound to one server address.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
    retry: RetryPolicy,
}

impl Client {
    /// A client for the server at `addr` (e.g. [`crate::EventedServer::addr`]).
    /// Retries are off by default; opt in with [`Client::with_retry`].
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, retry: RetryPolicy::none() }
    }

    /// The same client with a retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// `GET /healthz`; Ok when the server answers 200.
    ///
    /// # Errors
    ///
    /// Errors on connection failure or a non-200 answer.
    pub fn health(&self) -> Result<(), String> {
        let response = self.get("/healthz")?;
        if response.status == 200 {
            Ok(())
        } else {
            Err(format!("unhealthy: status {}", response.status))
        }
    }

    /// `POST /predict`.
    ///
    /// # Errors
    ///
    /// Errors on transport failure or when the server rejects the request.
    pub fn predict(&self, request: &PredictRequest) -> Result<PredictResponse, String> {
        self.post_json("/predict", request)
    }

    /// `POST /predict_batch`: many predictions in one round trip. The
    /// response answers item-by-item; an invalid item errors inside its
    /// slot, not at this level.
    ///
    /// # Errors
    ///
    /// Errors on transport failure or when the batch envelope is rejected.
    pub fn predict_batch(
        &self,
        request: &PredictBatchRequest,
    ) -> Result<PredictBatchResponse, String> {
        self.post_json("/predict_batch", request)
    }

    /// `POST /recommend`.
    ///
    /// # Errors
    ///
    /// Errors on transport failure or when the server rejects the request.
    pub fn recommend(&self, request: &RecommendRequest) -> Result<RecommendResponse, String> {
        self.post_json("/recommend", request)
    }

    /// `GET /zoo`.
    ///
    /// # Errors
    ///
    /// Errors on transport failure.
    pub fn zoo(&self) -> Result<Vec<ZooEntry>, String> {
        parse_body(&self.get("/zoo")?)
    }

    /// `GET /catalog`.
    ///
    /// # Errors
    ///
    /// Errors on transport failure.
    pub fn catalog(&self) -> Result<Vec<CatalogEntry>, String> {
        parse_body(&self.get("/catalog")?)
    }

    /// `GET /metrics`.
    ///
    /// # Errors
    ///
    /// Errors on transport failure.
    pub fn metrics(&self) -> Result<MetricsSnapshot, String> {
        parse_body(&self.get("/metrics")?)
    }

    /// `POST /reload`; returns the server's total successful reload count.
    ///
    /// # Errors
    ///
    /// Errors on transport failure or when the reload fails server-side.
    pub fn reload(&self) -> Result<u64, String> {
        let response = self.request("POST", "/reload", b"")?;
        if response.status != 200 {
            return Err(server_error(&response));
        }
        let value: serde_json::Value = serde_json::from_str(&response.body)
            .map_err(|e| format!("unparseable reload response: {e}"))?;
        value
            .get("reloads")
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| "reload response missing \"reloads\"".to_string())
    }

    /// A raw `GET`, exposed for tests probing error paths.
    ///
    /// # Errors
    ///
    /// Errors on transport failure only (HTTP error statuses are returned).
    pub fn get(&self, path: &str) -> Result<RawResponse, String> {
        self.request("GET", path, b"")
    }

    /// A raw request with an arbitrary body, exposed for tests probing
    /// error paths. Applies the client's [`RetryPolicy`]: transport
    /// failures retry only for `GET` (idempotent); `429` sheds retry for
    /// any method (a shed request was never processed). When the shed
    /// response carries a `Retry-After` header, the client honors it —
    /// capped at the policy's `max_delay_ms` — instead of its own
    /// backoff, so a loaded server paces its clients.
    ///
    /// # Errors
    ///
    /// Errors on transport failure only (HTTP error statuses are returned).
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<RawResponse, String> {
        let mut conn = ClientConn::new(self.addr);
        conn.set_header("Connection", "close");
        conn.request_with_retry(&self.retry, method, path, body)
    }

    fn post_json<Req, Resp>(&self, path: &str, request: &Req) -> Result<Resp, String>
    where
        Req: Serialize,
        Resp: Deserialize,
    {
        let body = serde_json::to_string(request).map_err(|e| format!("bad request: {e}"))?;
        let response = self.request("POST", path, body.as_bytes())?;
        parse_body(&response)
    }
}

/// A keep-alive client connection: one TCP stream, many exchanges.
///
/// [`crate::EventedServer`] keeps successful connections open and closes
/// after every error response, saying so with `Connection: close`; the
/// stream is dropped after such a response and the next request
/// connects afresh. A connection the server closed without saying so is
/// re-established transparently — but only when the *send* failed (the
/// request never reached the server); a failed *receive* surfaces as an
/// error so [`ClientConn::request_with_retry`] can apply the idempotency
/// rules.
///
/// Headers set with [`ClientConn::set_header`] persist across requests
/// on the connection — that is the point of reusing it — which is
/// exactly why per-attempt markers like `X-Ceer-Attempt` must *replace*
/// their previous value rather than append: the retry loop once pushed a
/// fresh copy per attempt, and a request retried twice on a reused
/// connection went out with two contradictory attempt headers.
/// `set_header` now dedupes by name; the regression is pinned in this
/// module's tests.
#[derive(Debug)]
pub struct ClientConn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    headers: Vec<(String, String)>,
}

enum ExchangeError {
    /// The request could not be written — the server never saw it.
    Send(String),
    /// The request went out but the response could not be read.
    Recv(String),
}

impl ClientConn {
    /// A connection to the server at `addr`, established lazily on the
    /// first request.
    pub fn new(addr: SocketAddr) -> Self {
        ClientConn { addr, stream: None, headers: Vec::new() }
    }

    /// Whether a TCP stream is currently held open for reuse.
    pub fn connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Sets a header sent with every subsequent request on this
    /// connection, *replacing* any previous value under the same
    /// (case-insensitive) name — never duplicating it.
    pub fn set_header(&mut self, name: &str, value: impl Into<String>) {
        self.remove_header(name);
        self.headers.push((name.to_string(), value.into()));
    }

    /// Removes a header previously set with [`ClientConn::set_header`].
    pub fn remove_header(&mut self, name: &str) {
        self.headers.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }

    /// Marks the next requests as retry attempt `attempt`; 0 clears the
    /// marker (first tries carry no header, matching [`Client`]).
    pub fn set_attempt(&mut self, attempt: u32) {
        if attempt == 0 {
            self.remove_header("X-Ceer-Attempt");
        } else {
            self.set_header("X-Ceer-Attempt", attempt.to_string());
        }
    }

    /// The wire bytes of one request, including the persistent headers.
    /// No `Connection: close` unless set as a header: the server decides
    /// whether to keep the connection (it does, on success).
    fn render(&self, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        for (name, value) in &self.headers {
            wire.push_str(&format!("{name}: {value}\r\n"));
        }
        wire.push_str("\r\n");
        let mut bytes = wire.into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    fn exchange(
        reader: &mut BufReader<TcpStream>,
        wire: &[u8],
    ) -> Result<RawResponse, ExchangeError> {
        reader
            .get_mut()
            .write_all(wire)
            .and_then(|()| reader.get_mut().flush())
            .map_err(|e| ExchangeError::Send(format!("cannot send request: {e}")))?;
        read_response(reader).map_err(ExchangeError::Recv)
    }

    /// One request over the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Errors on transport failure only (HTTP error statuses are
    /// returned). A stale kept-alive stream whose *send* fails is
    /// reconnected once, transparently.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<RawResponse, String> {
        let wire = self.render(method, path, body);
        let response = match self.stream.as_mut().map(|reader| Self::exchange(reader, &wire)) {
            Some(Ok(response)) => response,
            Some(Err(ExchangeError::Recv(error))) => {
                self.stream = None;
                return Err(error);
            }
            // No stream yet, or a stale one the request never reached.
            Some(Err(ExchangeError::Send(_))) | None => {
                let stream = TcpStream::connect(self.addr)
                    .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
                let reader = self.stream.insert(BufReader::new(stream));
                match Self::exchange(reader, &wire) {
                    Ok(response) => response,
                    Err(ExchangeError::Send(error) | ExchangeError::Recv(error)) => {
                        self.stream = None;
                        return Err(error);
                    }
                }
            }
        };
        if response.close {
            self.stream = None;
        }
        Ok(response)
    }

    /// [`ClientConn::request`] under a [`RetryPolicy`]: transport failures
    /// retry only `GET`, `429` sheds retry any method and honor
    /// `Retry-After`. Each retry *replaces* the connection's
    /// `X-Ceer-Attempt` marker via [`ClientConn::set_attempt`].
    ///
    /// # Errors
    ///
    /// Errors on transport failure once retries are exhausted.
    pub fn request_with_retry(
        &mut self,
        retry: &RetryPolicy,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<RawResponse, String> {
        let idempotent = method == "GET";
        let mut attempt: u32 = 0;
        loop {
            self.set_attempt(attempt);
            let can_retry = attempt + 1 < retry.max_attempts;
            let mut server_pacing: Option<u64> = None;
            match self.request(method, path, body) {
                Ok(response) if response.status == 429 && can_retry => {
                    server_pacing = response.retry_after;
                }
                Ok(response) => {
                    self.set_attempt(0);
                    return Ok(response);
                }
                Err(_) if idempotent && can_retry => {}
                Err(error) => return Err(error),
            }
            attempt += 1;
            std::thread::sleep(retry.pacing(attempt, server_pacing));
        }
    }
}

fn parse_body<Resp: Deserialize>(response: &RawResponse) -> Result<Resp, String> {
    if response.status != 200 {
        return Err(server_error(response));
    }
    serde_json::from_str(&response.body)
        .map_err(|e| format!("unparseable response body: {e}\nbody: {}", response.body))
}

fn server_error(response: &RawResponse) -> String {
    match serde_json::from_str::<ErrorResponse>(&response.body) {
        Ok(err) => format!("server error {}: {}", response.status, err.error),
        Err(_) => format!("server error {}: {}", response.status, response.body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_seeded_and_capped() {
        let policy = RetryPolicy::retries(5, 42);
        let delays: Vec<Duration> = (1..=6).map(|n| policy.delay(n)).collect();
        let replay: Vec<Duration> = (1..=6).map(|n| policy.delay(n)).collect();
        assert_eq!(delays, replay, "same seed must replay the same backoff");
        for delay in &delays {
            assert!(delay.as_millis() < 500 + 1, "cap violated: {delay:?}");
        }
        // The exponential ramp is visible before the cap bites: the raw
        // (pre-jitter) base doubles, so late delays sit near the cap.
        assert!(delays[5] >= Duration::from_millis(250));
        let other = RetryPolicy::retries(5, 43);
        assert_ne!(
            (1..=6).map(|n| other.delay(n)).collect::<Vec<_>>(),
            delays,
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn none_policy_never_sleeps() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.delay(1), Duration::ZERO);
        assert_eq!(policy.delay(10), Duration::ZERO);
    }

    fn conn() -> ClientConn {
        ClientConn::new("127.0.0.1:9".parse().unwrap())
    }

    fn wire_text(conn: &ClientConn) -> String {
        String::from_utf8(conn.render("GET", "/healthz", b"")).unwrap()
    }

    /// Regression: the retry loop used to push a fresh `X-Ceer-Attempt`
    /// per attempt into the connection's persistent header scratch, so a
    /// request retried on a reused connection carried every previous
    /// attempt value at once. Replacing, not appending, is the contract.
    #[test]
    fn reused_connection_never_duplicates_the_attempt_header() {
        let mut conn = conn();
        conn.set_attempt(1);
        assert_eq!(wire_text(&conn).matches("X-Ceer-Attempt").count(), 1);
        conn.set_attempt(2);
        let wire = wire_text(&conn);
        assert_eq!(
            wire.matches("X-Ceer-Attempt").count(),
            1,
            "one marker after two attempts, got:\n{wire}"
        );
        assert!(wire.contains("X-Ceer-Attempt: 2\r\n"), "the marker is the latest attempt");
        conn.set_attempt(0);
        assert_eq!(
            wire_text(&conn).matches("X-Ceer-Attempt").count(),
            0,
            "a successful exchange clears the marker for the next request"
        );
    }

    #[test]
    fn set_header_replaces_case_insensitively() {
        let mut conn = conn();
        conn.set_header("X-Trace", "a");
        conn.set_header("x-trace", "b");
        let wire = wire_text(&conn);
        assert_eq!(wire.to_ascii_lowercase().matches("x-trace").count(), 1);
        assert!(wire.contains("x-trace: b\r\n"));
        conn.remove_header("X-TRACE");
        assert_eq!(wire_text(&conn).to_ascii_lowercase().matches("x-trace").count(), 0);
    }

    #[test]
    fn keep_alive_requests_omit_connection_close() {
        let conn = conn();
        let wire = wire_text(&conn);
        assert!(
            !wire.to_ascii_lowercase().contains("connection:"),
            "the server owns the keep-alive decision, got:\n{wire}"
        );
        assert!(wire.ends_with("\r\n\r\n"), "head terminates cleanly");
    }

    #[test]
    fn retry_after_overrides_backoff_but_is_capped() {
        let policy = RetryPolicy::retries(3, 1);
        // The server's ask wins over the jittered backoff…
        assert_eq!(policy.pacing(1, Some(0)), Duration::ZERO);
        // …but never exceeds the policy cap (500ms for `retries`).
        assert_eq!(policy.pacing(1, Some(1)), Duration::from_millis(500));
        assert_eq!(policy.pacing(1, Some(3600)), Duration::from_millis(500));
        // Without the header, the seeded backoff applies unchanged.
        assert_eq!(policy.pacing(2, None), policy.delay(2));
    }
}

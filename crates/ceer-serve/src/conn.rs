//! Per-connection state for the evented server: one receive buffer the
//! zero-copy parser borrows from, one output buffer with a write cursor,
//! and the `ReadHead → ReadBody → Dispatch → Write` state machine the
//! event loop drives from readiness events. Dispatch is not a state: a
//! fully buffered request is answered inline and its response queued.
//!
//! A connection never owns a socket — the [`crate::evented`] loop talks
//! to the transport through its `EventSource` token and keeps all
//! per-connection bookkeeping here, which is what lets the same machine
//! run over epoll and under the sim driver.

use crate::http::Response;
use crate::parser::Head;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Accumulating bytes until the head parses.
    ReadHead,
    /// Head parsed; waiting for `Content-Length` bytes of body.
    ReadBody,
    /// Response queued; draining `out` to the socket.
    Write,
}

/// One connection's state machine.
pub struct Conn {
    /// Received bytes not yet consumed by a dispatched request. The
    /// parser borrows slices of this; it is drained per request, so
    /// pipelined requests queue behind the current one.
    pub buf: Vec<u8>,
    /// The parsed head of the in-progress request, once known.
    pub head: Option<Head>,
    /// Response bytes not yet written.
    pub out: Vec<u8>,
    /// How much of `out` has reached the socket.
    pub out_pos: usize,
    /// Current machine state.
    pub state: ConnState,
    /// Close once `out` drains (errors, `Connection: close`, sheds).
    pub close_after_write: bool,
    /// The peer half-closed; no more bytes will arrive.
    pub eof: bool,
    /// Clock ms of the last byte received (idle-timeout anchor).
    pub last_activity_ms: u64,
    /// Clock ms when the current request's first byte arrived
    /// (whole-request deadline anchor); `None` between requests.
    pub head_started_ms: Option<u64>,
    /// Requests fully answered on this connection (keep-alive count).
    pub requests_served: u64,
    /// Skip the `IoError` counter when writing this response fails: only
    /// write failures of routed responses count, not those of
    /// best-effort error responses.
    pub silent_write_errors: bool,
    /// The last write hit `WouldBlock`; don't retry until the transport
    /// reports writable again.
    pub write_blocked: bool,
    /// Deadline of the connection's armed wheel timer, if any.
    pub timer_at: Option<u64>,
}

impl Conn {
    /// A fresh connection accepted at clock time `now_ms`.
    pub fn new(now_ms: u64) -> Self {
        Conn {
            buf: Vec::new(),
            head: None,
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::ReadHead,
            close_after_write: false,
            eof: false,
            last_activity_ms: now_ms,
            head_started_ms: None,
            requests_served: 0,
            silent_write_errors: false,
            write_blocked: false,
            timer_at: None,
        }
    }

    /// Whether unsent response bytes remain.
    pub fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The unsent tail of the output buffer.
    pub fn pending_output(&self) -> &[u8] {
        self.out.get(self.out_pos..).unwrap_or(&[])
    }

    /// Advances the write cursor after `n` bytes reached the socket;
    /// compacts once everything sent.
    pub fn advance_output(&mut self, n: usize) {
        self.out_pos = (self.out_pos + n).min(self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Queues a response. `keep_alive` is what the *response* commits to
    /// on the wire; pass `false` when closing after (it also sets
    /// [`Conn::close_after_write`]).
    pub fn queue_response(&mut self, response: &Response, keep_alive: bool) {
        self.out.extend_from_slice(&response.to_bytes(keep_alive));
        if !keep_alive {
            self.close_after_write = true;
        }
        self.state = ConnState::Write;
    }

    /// Consumes the current request's bytes from the front of the buffer
    /// and resets the per-request state, leaving any pipelined bytes in
    /// place.
    pub fn consume_request(&mut self, len: usize) {
        self.buf.drain(..len.min(self.buf.len()));
        self.head = None;
        self.head_started_ms = None;
        self.requests_served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_cursor_tracks_partial_writes() {
        let mut conn = Conn::new(0);
        conn.queue_response(&Response::json(200, "{}"), true);
        assert!(conn.has_output());
        let total = conn.pending_output().len();
        conn.advance_output(5);
        assert_eq!(conn.pending_output().len(), total - 5);
        conn.advance_output(total - 5);
        assert!(!conn.has_output());
        assert_eq!(conn.out_pos, 0, "buffer compacts when drained");
        assert!(!conn.close_after_write);
    }

    #[test]
    fn closing_responses_mark_the_connection() {
        let mut conn = Conn::new(0);
        conn.queue_response(&Response::json(400, "{}"), false);
        assert!(conn.close_after_write);
        assert_eq!(conn.state, ConnState::Write);
    }

    #[test]
    fn consume_request_leaves_pipelined_bytes() {
        let mut conn = Conn::new(0);
        conn.buf.extend_from_slice(b"REQ1REQ2");
        conn.head_started_ms = Some(3);
        conn.consume_request(4);
        assert_eq!(conn.buf, b"REQ2");
        assert_eq!(conn.head_started_ms, None);
        assert_eq!(conn.requests_served, 1);
    }
}

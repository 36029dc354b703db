//! The serve transport: every connection served from one thread by a
//! readiness-driven loop over nonblocking sockets — accept, read, parse
//! in place, dispatch, write — with a timer wheel for deadlines.
//!
//! The loop ([`EventedCore`]) is written against
//! [`ceer_sim::ready::EventSource`] + [`ceer_sim::Clock`] and never
//! touches a socket or the wall clock directly. Under real TCP
//! ([`EventedServer`], Linux only) those traits are epoll + nonblocking
//! streams and a monotonic clock; under test they are
//! [`ceer_sim::SimSource`] + a virtual clock, and a whole
//! slowloris-plus-flood chaos run becomes a pure function of
//! `(seed, scenario)` — replayable byte for byte.
//!
//! Routes and bodies come from the shared [`App`]; faults land at the
//! `serve.accept`, `serve.dispatch`, `serve.http.read` and
//! `serve.http.write` sites; every 4xx and robustness event is counted.
//! Connections are HTTP/1.1 keep-alive with pipelining, and one loop
//! thread holds 10k+ concurrent connections. Every request, `/predict`
//! cache misses included, is answered inline through [`App::route`] on
//! the loop thread, so an uncached request holds up every other
//! connection until it is answered.
//!
//! Timeout semantics: [`ServerConfig::read_timeout_ms`] bounds the gap
//! between bytes in either direction (a stalled mid-request peer gets
//! `408`; an idle keep-alive connection between requests, or a peer that
//! stops draining its response, is closed silently), and
//! [`ServerConfig::request_timeout_ms`] bounds a whole request read.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ceer_faults::{FaultEvent, FaultKind, FaultPlan};
use ceer_sim::ready::{EventSource, IoOutcome, Token, Wake};
use ceer_sim::Clock;

use crate::app::{canonical_route, App};
use crate::conn::{Conn, ConnState};
use crate::http::{self, ReadError};
use crate::metrics::ServerEvent;
use crate::parser::{parse_head, Head};
use crate::registry::ModelRegistry;
use crate::wheel::TimerWheel;

/// Server configuration for [`EventedServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind.
    pub host: String,
    /// Port to bind (0 picks a free port; see [`EventedServer::addr`]).
    pub port: u16,
    /// Prediction-cache capacity in responses (0 disables caching).
    pub cache_capacity: usize,
    /// Longest tolerated gap between bytes received from, or drained
    /// by, a peer, ms (0 disables).
    pub read_timeout_ms: u64,
    /// Total deadline for reading one request, ms (0 disables).
    pub request_timeout_ms: u64,
    /// Largest accepted request body in bytes; bigger requests get `413`.
    pub max_body_bytes: usize,
    /// Max open connections; connections beyond it are shed with `429` +
    /// `Retry-After`.
    pub max_pending: usize,
    /// Seeded fault plan for chaos runs (`None` = no injection).
    pub faults: Option<FaultPlan>,
    /// Directory for crash-safe persistence (WAL + snapshots). `None`
    /// serves purely from memory; `Some` recovers the registry and
    /// online-engine state at boot and logs every state-changing
    /// decision (see [`crate::durable`]).
    pub data_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 8100,
            cache_capacity: 256,
            read_timeout_ms: 5_000,
            request_timeout_ms: 10_000,
            max_body_bytes: http::MAX_BODY_BYTES,
            max_pending: 128,
            faults: None,
            data_dir: None,
        }
    }
}

/// The knobs the event loop reads (the slice of [`ServerConfig`] the
/// sim driver needs too).
#[derive(Debug, Clone, Copy)]
pub struct EventedConfig {
    /// Longest tolerated gap between received bytes, ms (0 disables):
    /// `408` mid-request, silent close for an idle keep-alive connection.
    pub read_timeout_ms: u64,
    /// Total deadline for reading one request, ms (0 disables).
    pub request_timeout_ms: u64,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Max open connections; beyond it, accepts are shed with `429`.
    pub max_conns: usize,
}

impl From<&ServerConfig> for EventedConfig {
    fn from(config: &ServerConfig) -> Self {
        EventedConfig {
            read_timeout_ms: config.read_timeout_ms,
            request_timeout_ms: config.request_timeout_ms,
            max_body_bytes: config.max_body_bytes,
            max_conns: config.max_pending.max(1),
        }
    }
}

/// What the buffer examiner decided about a connection.
enum Step {
    /// Nothing dispatchable yet; wait for more bytes.
    Wait,
    /// Peer closed cleanly between requests.
    CloseClean,
    /// Peer closed mid-request: counted as an I/O error, closed silently.
    CloseIo,
    /// The head cannot parse: answer the mapped 4xx and close.
    Fail(ReadError),
    /// A full request is buffered.
    Dispatch(Head),
}

/// The readiness-driven serve loop, generic over its event source.
/// Drive it with [`EventedCore::tick`] (or [`EventedCore::run_until`]
/// under the sim driver).
pub struct EventedCore<S: EventSource> {
    app: Arc<App>,
    source: S,
    clock: Arc<dyn Clock>,
    cfg: EventedConfig,
    conns: BTreeMap<Token, Conn>,
    wheel: TimerWheel,
    draining: bool,
}

impl<S: EventSource> EventedCore<S> {
    /// A loop over `source`, reading time from `clock`.
    pub fn new(app: Arc<App>, source: S, clock: Arc<dyn Clock>, cfg: EventedConfig) -> Self {
        EventedCore {
            app,
            source,
            clock,
            cfg,
            conns: BTreeMap::new(),
            wheel: TimerWheel::new(),
            draining: false,
        }
    }

    /// The shared serving core.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// The event source (sim tests inspect scripted client state here).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Mutable access to the event source (sim tests schedule more
    /// scripted traffic mid-run).
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Open connections (includes those still draining a response).
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    /// Timers in the wheel, lazily cancelled ones included: at most one
    /// live one per connection.
    pub fn armed_timers(&self) -> usize {
        self.wheel.len()
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Whether nothing is in flight (drain complete).
    pub fn is_idle(&self) -> bool {
        self.conns.is_empty()
    }

    /// Stops accepting and flips `/readyz` to 503; open connections keep
    /// being served until they finish or time out.
    pub fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.app.ready.store(false, Ordering::SeqCst);
        self.source.stop_accepting();
    }

    /// One loop iteration: wait (bounded by the nearest timer deadline
    /// and `cap_ms`), handle readiness, fire due timers, flush writes.
    /// Returns how many wakes + timers were handled.
    ///
    /// # Errors
    ///
    /// Errors when the event source itself fails (listener death).
    pub fn tick(&mut self, cap_ms: Option<u64>, wakes: &mut Vec<Wake>) -> Result<usize, String> {
        let now = self.clock.now_ms();
        let wheel_delta = self.wheel.next_deadline().map(|d| d.saturating_sub(now));
        let timeout = match (wheel_delta, cap_ms) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // ceer-lint: allow(blocking-in-reactor) -- the event-source poll is the reactor's one intentional block
        self.source.wait(timeout, wakes)?;
        let mut handled = wakes.len();
        for i in 0..wakes.len() {
            match wakes.get(i).cloned() {
                Some(Wake::Accept) => self.drain_accepts()?,
                Some(Wake::Io { token, readable, writable }) => {
                    if writable {
                        self.guarded(token, Self::on_writable);
                    }
                    if readable {
                        self.guarded(token, Self::on_readable);
                    }
                }
                None => {}
            }
        }
        let due = self.wheel.advance(self.clock.now_ms());
        handled += due.len();
        for timer in due {
            self.guarded(timer.token, Self::on_conn_timer);
        }
        self.flush_writes();
        Ok(handled)
    }

    /// Ticks until the clock reaches `deadline_ms`, the loop goes fully
    /// quiescent, or `max_iters` safety cap. The sim harness's main
    /// entry point; under a virtual clock this runs a whole scenario in
    /// microseconds of real time.
    ///
    /// # Errors
    ///
    /// Propagates [`EventedCore::tick`] errors.
    pub fn run_until(&mut self, deadline_ms: u64, max_iters: usize) -> Result<(), String> {
        let mut wakes = Vec::new();
        for _ in 0..max_iters {
            let now = self.clock.now_ms();
            if now >= deadline_ms {
                break;
            }
            let handled = self.tick(Some(deadline_ms - now), &mut wakes)?;
            if handled == 0 && self.clock.now_ms() == now {
                break; // quiescent: no events, no timers, time cannot move
            }
        }
        Ok(())
    }

    /// Runs `f(self, token)` with panic containment: a panic anywhere in
    /// one connection's handling (injected poison, a routing bug) closes
    /// that connection and bumps `panics_recovered` — the loop itself
    /// must never die.
    fn guarded(&mut self, token: Token, f: fn(&mut Self, Token)) {
        let outcome = catch_unwind(AssertUnwindSafe(|| f(self, token)));
        if outcome.is_err() {
            self.app.metrics.bump(ServerEvent::PanicRecovered);
            self.close_token(token);
        }
    }

    fn close_token(&mut self, token: Token) {
        if self.conns.remove(&token).is_some() {
            self.source.close(token);
        }
    }

    fn drain_accepts(&mut self) -> Result<(), String> {
        while let Some(token) = self.source.accept()? {
            let now = self.clock.now_ms();
            match self.app.faults.as_deref().and_then(|f| f.check("serve.accept")) {
                Some(FaultKind::Delay(ms)) => self.source.pause(ms),
                Some(_) => {
                    // Injected accept failure: the connection is lost
                    // before dispatch.
                    self.app.metrics.bump(ServerEvent::IoError);
                    self.source.close(token);
                    continue;
                }
                None => {}
            }
            if self.draining {
                self.source.close(token);
                continue;
            }
            if self.conns.len() >= self.cfg.max_conns {
                // At capacity: shed with 429 + Retry-After.
                let response = self.app.shed_response();
                let mut conn = Conn::new(now);
                conn.silent_write_errors = true;
                conn.queue_response(&response, false);
                self.conns.insert(token, conn);
            } else {
                self.conns.insert(token, Conn::new(now));
            }
            self.arm_conn_timer(token);
        }
        Ok(())
    }

    /// The earliest deadline this connection can hit, or `None` while
    /// timeouts are off.
    fn conn_deadline(&self, conn: &Conn) -> Option<u64> {
        let read = (self.cfg.read_timeout_ms > 0)
            .then(|| conn.last_activity_ms.saturating_add(self.cfg.read_timeout_ms));
        let request = conn
            .head_started_ms
            .filter(|_| self.cfg.request_timeout_ms > 0)
            .map(|start| start.saturating_add(self.cfg.request_timeout_ms));
        match (read, request) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn arm_conn_timer(&mut self, token: Token) {
        if let Some(at) = self.conns.get(&token).and_then(|c| self.conn_deadline(c)) {
            self.arm_conn_timer_at(token, at);
        }
    }

    /// Arms `token`'s timer for `at` unless an armed one fires no later:
    /// that one recomputes the deadline and re-arms when it fires, so a
    /// connection keeps one live wheel entry however many requests it
    /// serves (otherwise every answered `/predict` would leave an entry
    /// in the wheel for a whole read timeout).
    fn arm_conn_timer_at(&mut self, token: Token, at: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.timer_at.is_some_and(|armed| armed <= at) {
            return;
        }
        conn.timer_at = Some(at);
        self.wheel.schedule(at, token);
    }

    /// A connection timer fired. Deadlines are lazy: recompute from
    /// current state, re-arm if the connection made progress since the
    /// timer was set, act if genuinely expired.
    fn on_conn_timer(&mut self, token: Token) {
        let now = self.clock.now_ms();
        enum Act {
            Rearm(u64),
            Close,
            Timeout,
            Nothing,
        }
        // Every timer due by `now` has fired, the armed one included.
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.timer_at.is_some_and(|armed| armed <= now) {
                conn.timer_at = None;
            }
        }
        let act = {
            let Some(conn) = self.conns.get(&token) else { return };
            match self.conn_deadline(conn) {
                None => Act::Nothing,
                Some(deadline) if deadline > now => Act::Rearm(deadline),
                Some(_) => {
                    if conn.close_after_write && conn.has_output() {
                        // A final response the peer never drained.
                        Act::Close
                    } else if conn.requests_served > 0
                        && conn.head_started_ms.is_none()
                        && conn.buf.is_empty()
                    {
                        // Idle keep-alive connection between requests.
                        Act::Close
                    } else {
                        Act::Timeout
                    }
                }
            }
        };
        match act {
            Act::Nothing => {}
            Act::Rearm(at) => self.arm_conn_timer_at(token, at),
            Act::Close => self.close_token(token),
            Act::Timeout => {
                // Stalled mid-request (slowloris): 408, count, close.
                if let Some(response) = self.app.read_error_response(&ReadError::TimedOut) {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.silent_write_errors = true;
                        conn.queue_response(&response, false);
                    }
                }
                // Bound the close-out write too.
                let grace = match (self.cfg.read_timeout_ms, self.cfg.request_timeout_ms) {
                    (0, 0) => None,
                    (0, r) => Some(r),
                    (r, _) => Some(r),
                };
                if let Some(grace) = grace {
                    self.arm_conn_timer_at(token, now.saturating_add(grace));
                }
            }
        }
    }

    fn on_writable(&mut self, token: Token) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.write_blocked = false;
        }
        self.write_conn(token);
    }

    fn on_readable(&mut self, token: Token) {
        let mut scratch = [0u8; 8192];
        loop {
            let Some(conn) = self.conns.get(&token) else { return };
            if conn.eof {
                // Nothing more can arrive; don't re-read the EOF.
                break;
            }
            // A condemned connection still drains its socket so
            // readiness quiesces; its bytes are discarded.
            let discard = conn.close_after_write;
            let mut cap = scratch.len();
            match self.app.faults.as_deref().and_then(|f| f.check("serve.http.read")) {
                Some(FaultKind::Error) => {
                    self.app.metrics.bump(ServerEvent::IoError);
                    self.close_token(token);
                    return;
                }
                Some(FaultKind::Delay(ms)) => self.source.pause(ms),
                Some(FaultKind::ShortRead(n)) => cap = n.min(cap).max(1),
                // ceer-lint: allow(panic-reachability) -- injected poison, contained by the loop's guarded() catch_unwind
                Some(FaultKind::Poison) => panic!("injected poison at serve.http.read"),
                Some(FaultKind::ShortWrite(_)) | None => {}
            }
            let end = cap.min(scratch.len());
            let Some(buf) = scratch.get_mut(..end) else { break };
            match self.source.read(token, buf) {
                IoOutcome::Data(n) => {
                    let now = self.clock.now_ms();
                    if let Some(conn) = self.conns.get_mut(&token) {
                        if !discard {
                            conn.buf.extend_from_slice(scratch.get(..n).unwrap_or(&scratch));
                        }
                        conn.last_activity_ms = now;
                    }
                }
                IoOutcome::WouldBlock => break,
                IoOutcome::Closed => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.eof = true;
                    }
                    break;
                }
                IoOutcome::Err(_) => {
                    self.app.metrics.bump(ServerEvent::IoError);
                    self.close_token(token);
                    return;
                }
            }
        }
        self.process_buffer(token);
    }

    /// Advances the parse/dispatch machine over whatever is buffered,
    /// looping across pipelined requests until the connection blocks.
    fn process_buffer(&mut self, token: Token) {
        loop {
            let now = self.clock.now_ms();
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.close_after_write {
                return;
            }
            let had_start = conn.head_started_ms.is_some();
            let step = examine(conn, self.cfg.max_body_bytes, now);
            let started_request =
                !had_start && self.conns.get(&token).is_some_and(|c| c.head_started_ms.is_some());
            if started_request && self.cfg.read_timeout_ms == 0 && self.cfg.request_timeout_ms > 0 {
                // With no read timeout there is no standing timer; the
                // request deadline needs one of its own.
                self.arm_conn_timer_at(token, now.saturating_add(self.cfg.request_timeout_ms));
            }
            match step {
                Step::Wait => return,
                Step::CloseClean => {
                    self.close_token(token);
                    return;
                }
                Step::CloseIo => {
                    // EOF mid-request: silent close, counted as an
                    // I/O error.
                    let _ = self.app.read_error_response(&ReadError::Io(
                        "connection closed mid-request".to_string(),
                    ));
                    self.close_token(token);
                    return;
                }
                Step::Fail(error) => {
                    if let Some(response) = self.app.read_error_response(&error) {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.silent_write_errors = true;
                            conn.queue_response(&response, false);
                        }
                    } else {
                        self.close_token(token);
                    }
                    return;
                }
                Step::Dispatch(head) => {
                    if !self.dispatch(token, &head) {
                        return;
                    }
                }
            }
        }
    }

    /// Dispatches one fully buffered request. Returns whether the loop
    /// may continue onto pipelined requests behind it.
    fn dispatch(&mut self, token: Token, head: &Head) -> bool {
        match self.app.faults.as_deref().and_then(|f| f.check("serve.dispatch")) {
            Some(FaultKind::Delay(ms)) => self.source.pause(ms),
            // ceer-lint: allow(panic-reachability) -- injected poison, contained by the loop's guarded() catch_unwind
            Some(FaultKind::Poison) => panic!("injected poison at serve.dispatch"),
            Some(_) => {
                // Injected dispatch failure: the connection drops before
                // the request is handled.
                self.app.metrics.bump(ServerEvent::IoError);
                self.close_token(token);
                return false;
            }
            None => {}
        }
        if head.retry_attempt > 0 {
            self.app.metrics.bump(ServerEvent::RetriedRequest);
        }

        let started_us = self.clock.now_us();
        let response = {
            let Some(conn) = self.conns.get(&token) else { return false };
            let Some(request) = head.request(&conn.buf) else { return false };
            let response = self.app.route(request);
            let latency = self.clock.now_us().saturating_sub(started_us) as f64;
            let label = format!("{} {}", request.method, canonical_route(request.path));
            self.app.metrics.record_with(&label, latency, response.is_error(), &self.app.faults);
            response
        };
        // Success keeps the connection alive (unless the request said
        // close); every error response closes.
        let keep = head.keep_alive && !response.is_error();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.silent_write_errors = false;
            conn.consume_request(head.total_len());
            conn.queue_response(&response, keep);
        }
        keep
    }

    /// Drives every connection with queued output until each is drained
    /// or blocked on the socket.
    fn flush_writes(&mut self) {
        loop {
            let tokens: Vec<Token> = self
                .conns
                .iter()
                .filter(|(_, c)| c.has_output() && !c.write_blocked)
                .map(|(&t, _)| t)
                .collect();
            if tokens.is_empty() {
                return;
            }
            for token in tokens {
                self.guarded(token, Self::write_conn);
            }
        }
    }

    fn write_conn(&mut self, token: Token) {
        loop {
            let Some(conn) = self.conns.get(&token) else { return };
            if !conn.has_output() {
                return;
            }
            let mut cap = conn.pending_output().len();
            match self.app.faults.as_deref().and_then(|f| f.check("serve.http.write")) {
                Some(FaultKind::Error) => {
                    let silent = self.conns.get(&token).is_some_and(|c| c.silent_write_errors);
                    if !silent {
                        self.app.metrics.bump(ServerEvent::IoError);
                    }
                    self.close_token(token);
                    return;
                }
                Some(FaultKind::Delay(ms)) => self.source.pause(ms),
                Some(FaultKind::ShortWrite(n)) => cap = n.min(cap).max(1),
                // ceer-lint: allow(panic-reachability) -- injected poison, contained by the loop's guarded() catch_unwind
                Some(FaultKind::Poison) => panic!("injected poison at serve.http.write"),
                Some(FaultKind::ShortRead(_)) | None => {}
            }
            let outcome = {
                let Some(conn) = self.conns.get(&token) else { return };
                let data = conn.pending_output();
                let data = data.get(..cap).unwrap_or(data);
                self.source.write(token, data)
            };
            match outcome {
                IoOutcome::Data(n) => {
                    let now = self.clock.now_ms();
                    let mut drained = false;
                    let mut close = false;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.advance_output(n);
                        // Write progress counts as liveness for the
                        // stuck-response check in `on_conn_timer`.
                        conn.last_activity_ms = now;
                        if !conn.has_output() {
                            drained = true;
                            close = conn.close_after_write;
                            if conn.state == ConnState::Write {
                                conn.state = ConnState::ReadHead;
                            }
                        }
                    }
                    if drained {
                        self.source.want_write(token, false);
                        if close {
                            self.close_token(token);
                        } else {
                            // Pipelined bytes may already be buffered.
                            self.process_buffer(token);
                        }
                        return;
                    }
                }
                IoOutcome::WouldBlock => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.write_blocked = true;
                    }
                    self.source.want_write(token, true);
                    return;
                }
                IoOutcome::Closed | IoOutcome::Err(_) => {
                    let silent = self.conns.get(&token).is_some_and(|c| c.silent_write_errors);
                    if !silent {
                        self.app.metrics.bump(ServerEvent::IoError);
                    }
                    self.close_token(token);
                    return;
                }
            }
        }
    }
}

/// Looks at a connection's buffer and decides the next step, updating
/// the per-request anchors (`head_started_ms`, cached head, state) as a
/// side effect. Free function so the caller keeps disjoint borrows.
fn examine(conn: &mut Conn, max_body_bytes: usize, now_ms: u64) -> Step {
    // Never close while a response is still draining: the write path
    // calls back in here once the output is flushed (or the deadline
    // timer gives up on the peer).
    if conn.eof && conn.has_output() {
        return Step::Wait;
    }
    if conn.buf.is_empty() {
        return if conn.eof { Step::CloseClean } else { Step::Wait };
    }
    if conn.head_started_ms.is_none() {
        conn.head_started_ms = Some(now_ms);
    }
    let head = match &conn.head {
        Some(head) => head.clone(),
        None => match parse_head(&conn.buf, max_body_bytes) {
            Ok(Some(head)) => {
                conn.head = Some(head.clone());
                head
            }
            Ok(None) => {
                return if conn.eof {
                    Step::CloseIo
                } else {
                    conn.state = ConnState::ReadHead;
                    Step::Wait
                };
            }
            Err(error) => return Step::Fail(error.into()),
        },
    };
    if conn.buf.len() < head.total_len() {
        if conn.eof {
            return Step::CloseIo;
        }
        conn.state = ConnState::ReadBody;
        return Step::Wait;
    }
    Step::Dispatch(head)
}

/// The server over real TCP: one loop thread on epoll, so serving is
/// Linux-only. Every endpoint answers through the shared [`App`].
pub struct EventedServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
    app: Arc<App>,
}

impl EventedServer {
    /// Binds and starts the loop thread with the given registry.
    ///
    /// # Errors
    ///
    /// Errors when the address cannot be bound (or on non-Linux hosts,
    /// where no epoll backend exists).
    #[cfg(target_os = "linux")]
    pub fn start(config: &ServerConfig, registry: ModelRegistry) -> Result<Self, String> {
        // ceer-lint: allow(nondeterminism-taint) -- real-transport bootstrap; deterministic tests drive tick() through a SimSource instead
        let listener = std::net::TcpListener::bind((config.host.as_str(), config.port))
            .map_err(|e| format!("cannot bind {}:{}: {e}", config.host, config.port))?;
        let addr = listener.local_addr().map_err(|e| format!("no local address: {e}"))?;
        let faults = config.faults.clone().map_or_else(ceer_faults::none, ceer_faults::injector);
        let app = Arc::new(App::new(registry, config.cache_capacity, faults));
        if let Some(data_dir) = &config.data_dir {
            // Recovery failure is fatal before the first connection is
            // accepted: refusing to serve beats serving from state the
            // directory contradicts.
            crate::durable::attach_fs_durability(&app, data_dir)?;
        }
        let clock: Arc<dyn Clock> = Arc::new(ceer_sim::SystemClock::new());
        let source = crate::epoll::EpollSource::new(listener)?;
        let cfg = EventedConfig::from(config);
        let drain_ms = if config.request_timeout_ms > 0 { config.request_timeout_ms } else { 250 };
        let mut core = EventedCore::new(Arc::clone(&app), source, clock, cfg);
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("ceer-serve-evented".to_string())
                // ceer-lint: allow(thread-spawn) -- the single loop thread created once at server start; it answers every request inline
                .spawn(move || {
                    let mut wakes = Vec::new();
                    let mut drain_deadline = u64::MAX;
                    loop {
                        if stop.load(Ordering::SeqCst) && !core.draining() {
                            core.begin_drain();
                            drain_deadline = core.clock.now_ms().saturating_add(drain_ms);
                        }
                        if core.draining()
                            && (core.is_idle() || core.clock.now_ms() >= drain_deadline)
                        {
                            return;
                        }
                        // 25ms cap so the stop flag is observed promptly
                        // even on an idle listener.
                        if core.tick(Some(25), &mut wakes).is_err() {
                            return;
                        }
                    }
                })
                .map_err(|e| format!("cannot spawn evented loop: {e}"))?
        };
        Ok(EventedServer { addr, stop, handle, app })
    }

    /// Non-Linux hosts have no epoll backend, so serving over TCP is
    /// Linux-only; the sim driver still works everywhere.
    #[cfg(not(target_os = "linux"))]
    pub fn start(_config: &ServerConfig, _registry: ModelRegistry) -> Result<Self, String> {
        Err("serving requires Linux (epoll); only the sim driver runs elsewhere".to_string())
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Every fault the injector has fired so far, sorted by
    /// `(site, call)` — empty without a fault plan.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.app.faults.as_ref().map(|f| f.events()).unwrap_or_default()
    }

    /// A stable one-line-per-event rendering of
    /// [`EventedServer::fault_events`], for byte-identical replay
    /// assertions.
    pub fn fault_digest(&self) -> String {
        self.app.faults.as_ref().map(|f| f.digest()).unwrap_or_default()
    }

    /// Flips `/readyz` to 503, stops accepting, drains in-flight
    /// requests (bounded by the request timeout), and joins the loop.
    pub fn shutdown(self) {
        self.app.ready.store(false, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        // ceer-lint: allow(blocking-in-reactor) -- joins the reactor from the controlling thread; the loop itself never calls this
        let _ = self.handle.join();
    }

    /// Blocks until the loop thread exits (foreground mode).
    pub fn wait(self) {
        // ceer-lint: allow(blocking-in-reactor) -- foreground join from the controlling thread; the loop itself never calls this
        let _ = self.handle.join();
    }
}

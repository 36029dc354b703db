//! Client-side wire helpers: the exact request bytes the production
//! clients send, and the pipelined open-loop stream (the production
//! `ClientConn` waits for each answer, which would close the loop).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Instant;

use ceer_serve::http::read_response;
use ceer_serve::RawResponse;

/// A request as `ceer_serve::ClientConn` renders it (no extra headers).
pub fn render(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Takes one complete response off the front of `buf`, parsed by the
/// production client's `read_response`, with the bytes it used; `None`
/// while the buffer does not yet hold a whole one. `read_response` reads
/// a blocking stream, so it is handed a response only once its head is
/// in: a body still in flight then reads as an error, and waits for more
/// bytes (a response that never parses ends in the give-up timeout).
fn take_response(buf: &[u8]) -> Option<(RawResponse, usize)> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let mut cursor = std::io::Cursor::new(buf);
    let response = read_response(&mut cursor).ok()?;
    Some((response, cursor.position() as usize))
}

/// Answers whose body the open loop keeps for the oracle: one in this
/// many (the rest are only timed, so memory does not grow with the rate).
const KEEP_BODY_ONE_IN: usize = 64;

/// One answered request of the open loop.
pub struct Answered {
    /// Index into the request list the stream cycled through.
    pub index: usize,
    pub status: u16,
    /// The response body, for one answer in `KEEP_BODY_ONE_IN`.
    pub body: Option<String>,
    /// Completion minus the time the request was due, µs.
    pub latency_us: f64,
    /// When the answer arrived, seconds after the stream started.
    pub done_s: f64,
}

pub struct OpenLoop {
    pub answered: Vec<Answered>,
    /// How late each request left the generator, µs.
    pub lag_us: Vec<f64>,
    pub sent: usize,
    pub transport_errors: usize,
    pub elapsed_s: f64,
}

/// Sends `requests[order[i]]` at `rate` per second for `seconds` over one
/// keep-alive connection without waiting for answers (HTTP pipelining),
/// and times each answer from when its request was due.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    order: &[usize],
    rate: f64,
    seconds: f64,
) -> OpenLoop {
    let mut out = OpenLoop {
        answered: Vec::new(),
        lag_us: Vec::new(),
        sent: 0,
        transport_errors: 0,
        elapsed_s: 0.0,
    };
    let Ok(mut stream) = TcpStream::connect(addr) else {
        out.transport_errors += 1;
        return out;
    };
    stream.set_nodelay(true).ok();
    if stream.set_nonblocking(true).is_err() {
        out.transport_errors += 1;
        return out;
    }
    let interval_ns = (1e9 / rate) as u64;
    let run_ns = (seconds * 1e9) as u64;
    let give_up_ns = run_ns + 5_000_000_000;
    let started = Instant::now();
    let now_ns = || started.elapsed().as_nanos() as u64;
    let mut next_due = 0u64;
    let mut outstanding: std::collections::VecDeque<(u64, usize)> = Default::default();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let now = now_ns();
        while next_due <= now && next_due < run_ns {
            let index = order[out.sent % order.len()];
            if stream.write_all(&requests[index]).is_err() {
                out.transport_errors += 1;
                return out;
            }
            out.lag_us.push((now_ns() - next_due) as f64 / 1e3);
            outstanding.push_back((next_due, index));
            out.sent += 1;
            next_due += interval_ns;
        }
        if next_due >= run_ns && outstanding.is_empty() {
            break;
        }
        if now > give_up_ns {
            out.transport_errors += outstanding.len();
            break;
        }
        let wait_ns = if next_due < run_ns { next_due.saturating_sub(now_ns()) } else { 1_000_000 };
        if !readable_within(&stream, wait_ns) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                out.transport_errors += outstanding.len();
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                out.transport_errors += outstanding.len();
                break;
            }
        }
        let done = now_ns();
        while let Some((response, used)) = take_response(&buf) {
            buf.drain(..used);
            let Some((due, index)) = outstanding.pop_front() else {
                out.transport_errors += 1;
                break;
            };
            let latency_us = (done - due) as f64 / 1e3;
            let done_s = done as f64 / 1e9;
            let keep = out.answered.len().is_multiple_of(KEEP_BODY_ONE_IN);
            let body = keep.then_some(response.body);
            out.answered.push(Answered {
                index,
                status: response.status,
                body,
                latency_us,
                done_s,
            });
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` is readable or `wait_ns` passes. `ppoll` takes a
/// nanosecond timeout on a high-resolution timer; a socket read timeout
/// rounds up to a scheduler tick, which would make the generator late by
/// milliseconds.
fn readable_within(stream: &TcpStream, wait_ns: u64) -> bool {
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let timeout = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fd` and `timeout` are live, properly laid out locals for the
    // duration of the call; one descriptor is passed and the signal mask is
    // null (leave it unchanged), as ppoll(2) permits.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    ready > 0
}

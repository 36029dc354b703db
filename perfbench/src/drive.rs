//! Starting the serving stacks and driving closed-loop clients at them.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use ceer_cluster::{Cluster, ClusterConfig};
use ceer_serve::{Client, ClientConn, EventedServer, ModelRegistry, RawResponse, ServerConfig};

use crate::layers::{Replay, Wire};
use crate::oracle::{Kind, Oracle};

/// How long a freshly started stack may take to answer its probe.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// Polls `path` until it answers 200.
fn wait_ready(addr: SocketAddr, path: &str) -> Result<(), String> {
    let started = Instant::now();
    let client = Client::new(addr);
    loop {
        match client.get(path) {
            Ok(response) if response.status == 200 => return Ok(()),
            _ if started.elapsed() > READY_TIMEOUT => {
                return Err(format!("{addr}{path} never answered 200"));
            }
            _ => std::thread::yield_now(),
        }
    }
}

/// The serve configuration every server workload uses: the CLI defaults
/// on an ephemeral loopback port.
pub fn server_config(cache_capacity: usize) -> ServerConfig {
    ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity,
        ..ServerConfig::default()
    }
}

/// One block of timed set-ups lasts a second, with at least `MIN_SETUPS`
/// and at most `MAX_SETUPS` of them: a cluster set-up takes half a
/// millisecond and opens several loopback connections, and thousands of
/// them would fill the host's TIME_WAIT table, which slows every later
/// connect.
const SETUP_BLOCK: Duration = Duration::from_secs(1);
const MIN_SETUPS: usize = 25;
const MAX_SETUPS: usize = 200;

/// Times one block of set-ups, each stack stopped again.
fn time_setups<T>(
    mut start: impl FnMut() -> Result<T, String>,
    stop: impl Fn(T),
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let began = Instant::now();
    while times.len() < MIN_SETUPS || (began.elapsed() < SETUP_BLOCK && times.len() < MAX_SETUPS) {
        let started = Instant::now();
        let stack = start()?;
        times.push(started.elapsed().as_secs_f64());
        stop(stack);
    }
    Ok(times)
}

/// Starts the evented server from the model file, as
/// `ceer serve --evented --model` does, and waits for its first `/readyz`
/// 200.
pub fn start_server(model: &Path, cache_capacity: usize) -> Result<EventedServer, String> {
    let server = EventedServer::start(&server_config(cache_capacity), ModelRegistry::load(model)?)?;
    wait_ready(server.addr(), "/readyz")?;
    Ok(server)
}

/// One block of server set-ups, seconds each: file → first `/readyz` 200.
pub fn server_setups(model: &Path, cache_capacity: usize) -> Result<Vec<f64>, String> {
    time_setups(|| start_server(model, cache_capacity), EventedServer::shutdown)
}

/// The TCP cluster every cluster phase uses: 3 shards, R = 2, defaults
/// otherwise (as `ceer cluster` runs it).
pub fn cluster_config(model: &Path) -> ClusterConfig {
    ClusterConfig {
        shards: 3,
        replicas: 2,
        model_path: model.to_path_buf(),
        ..ClusterConfig::default()
    }
}

/// Starts the cluster and waits for its first `/healthz` 200.
pub fn start_cluster(model: &Path) -> Result<Cluster, String> {
    let cluster = Cluster::start(&cluster_config(model))?;
    wait_ready(cluster.http_addr(), "/healthz")?;
    Ok(cluster)
}

/// One block of cluster set-ups, seconds each: file → first `/healthz` 200.
pub fn cluster_setups(model: &Path) -> Result<Vec<f64>, String> {
    time_setups(|| start_cluster(model), Cluster::shutdown)
}

/// A production client: one keep-alive connection, or one connection per
/// request (the cluster gateway answers `Connection: close`, and
/// `ClientConn` mishandles that — see the benchmark notes).
pub enum Conn {
    KeepAlive(ClientConn),
    PerRequest(Client),
}

impl Conn {
    pub fn post(&mut self, path: &str, body: &[u8]) -> Result<RawResponse, String> {
        match self {
            Conn::KeepAlive(conn) => conn.request("POST", path, body),
            Conn::PerRequest(client) => client.request("POST", path, body),
        }
    }

    pub fn get(&mut self, path: &str) -> Result<RawResponse, String> {
        match self {
            Conn::KeepAlive(conn) => conn.request("GET", path, b""),
            Conn::PerRequest(client) => client.get(path),
        }
    }
}

/// Length of the windows a stream's figures are taken over.
const WINDOW_S: f64 = 1.0;

/// Figures of one closed window.
struct Window {
    completed: usize,
    p50_us: f64,
    p99_us: f64,
    span_s: f64,
}

/// Latencies kept per window: a uniform sample beyond this (a p99 from
/// 8,192 samples has 82 beyond it), so the benchmark's own memory is the
/// same whatever the throughput and `rss_mib` reads the server.
const WINDOW_SAMPLE: usize = 8_192;

/// One client stream's outcome. Latencies are kept only for the open
/// window, as a fixed-size uniform sample (reservoir sampling).
pub struct Stream {
    open: Vec<f64>,
    open_seen: usize,
    sampler: crate::gen::Rng,
    opened_s: f64,
    windows: Vec<Window>,
    /// Successful requests.
    pub completed: u64,
    pub attempted: u64,
    /// Non-2xx answers plus transport errors.
    pub failed: u64,
    pub elapsed_s: f64,
}

impl Default for Stream {
    fn default() -> Stream {
        Stream {
            open: Vec::with_capacity(WINDOW_SAMPLE),
            open_seen: 0,
            sampler: crate::gen::Rng::new(0, 0x5A3D),
            opened_s: 0.0,
            windows: Vec::new(),
            completed: 0,
            attempted: 0,
            failed: 0,
            elapsed_s: 0.0,
        }
    }
}

impl Stream {
    /// Records one successful request's latency.
    pub fn record(&mut self, latency_us: f64) {
        self.open_seen += 1;
        if self.open.len() < WINDOW_SAMPLE {
            self.open.push(latency_us);
        } else {
            let slot = self.sampler.below(self.open_seen);
            if let Some(kept) = self.open.get_mut(slot) {
                *kept = latency_us;
            }
        }
        self.completed += 1;
    }

    /// Closes every window that ends by `elapsed_s`.
    pub fn tick(&mut self, elapsed_s: f64) {
        while elapsed_s >= (self.windows.len() + 1) as f64 * WINDOW_S {
            self.close(elapsed_s);
        }
    }

    fn close(&mut self, now_s: f64) {
        self.windows.push(Window {
            completed: self.open_seen,
            p50_us: crate::stats::quantile(&self.open, 0.5),
            p99_us: crate::stats::quantile(&self.open, 0.99),
            span_s: now_s - self.opened_s,
        });
        self.open.clear();
        self.open_seen = 0;
        self.opened_s = now_s;
    }

    /// Ends the stream; a stream shorter than one window becomes one.
    pub fn finish(&mut self, elapsed_s: f64) {
        self.elapsed_s = elapsed_s;
        if self.windows.is_empty() && self.open_seen > 0 {
            self.close(elapsed_s);
        }
    }

    /// Median over windows of a per-window figure: one bad second of a
    /// shared host moves it less than a figure over the whole run.
    fn windowed(&self, figure: impl Fn(&Window) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.windows.iter().filter_map(figure).collect();
        crate::stats::quantile(&values, 0.5)
    }

    pub fn p50_us(&self) -> f64 {
        self.windowed(|w| (w.completed > 0).then_some(w.p50_us))
    }

    pub fn p99_us(&self) -> f64 {
        self.windowed(|w| (w.completed > 0).then_some(w.p99_us))
    }

    /// Median over windows of the completions per second, each over the
    /// time the window actually spanned.
    pub fn rps(&self) -> f64 {
        self.windowed(|w| (w.span_s > 0.0).then(|| w.completed as f64 / w.span_s))
    }
}

/// Requests a traced window keeps for the replay: a uniform sample of its
/// answered requests (reservoir sampling), which bounds the spans a fast
/// workload produces.
const MAX_TRACED: usize = 1_000;

/// Sends `POST path` requests back to back for `seconds`, the next only
/// after the previous answer. With `replay`, the window also keeps a
/// uniform sample of its answered requests with their round trips, and
/// once the window has closed those requests are replayed through the
/// layers in the order they were sent.
pub fn closed_loop(
    conn: &mut Conn,
    addr: SocketAddr,
    path: &str,
    seconds: f64,
    mut next: impl FnMut() -> Vec<u8>,
    oracle: &mut Oracle,
    replay: Option<&mut Replay>,
) -> Stream {
    let kind = if path == "/recommend" { Kind::Recommend } else { Kind::Predict };
    let mut stream = Stream::default();
    let clock = replay.as_ref().map(|r| r.tracer.clock());
    let now_ns = |clock: Instant| clock.elapsed().as_nanos() as u64;
    // (order sent, body, round-trip start and end on the tracer's clock)
    let mut traced: Vec<(u64, Vec<u8>, u64, u64)> = Vec::new();
    let mut sampler = crate::gen::Rng::new(0, 0x7ACE);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let body = next();
        let wire_start = clock.map_or(0, now_ns);
        let sent = Instant::now();
        let result = conn.post(path, &body);
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        let wire_end = clock.map_or(0, now_ns);
        stream.attempted += 1;
        match result {
            Ok(response) if response.status == 200 => {
                stream.record(latency_us);
                oracle.offer(kind, &body, &response.body);
                if clock.is_some() {
                    let entry = (stream.completed, body, wire_start, wire_end);
                    if traced.len() < MAX_TRACED {
                        traced.push(entry);
                    } else if let Some(slot) =
                        traced.get_mut(sampler.below(stream.completed as usize))
                    {
                        *slot = entry;
                    }
                }
            }
            _ => stream.failed += 1,
        }
        stream.tick(started.elapsed().as_secs_f64());
    }
    stream.finish(started.elapsed().as_secs_f64());
    if let Some(replay) = replay {
        traced.sort_by_key(|entry| entry.0);
        for (request, (_, body, start_ns, end_ns)) in traced.iter().enumerate() {
            let bytes = crate::wire::render(addr, "POST", path, body);
            let wire = Wire {
                request: request as u64,
                bytes: &bytes,
                start_ns: *start_ns,
                end_ns: *end_ns,
            };
            match kind {
                Kind::Predict => replay.predict(&wire, body),
                Kind::Recommend => replay.recommend(&wire, body),
            }
        }
    }
    stream
}

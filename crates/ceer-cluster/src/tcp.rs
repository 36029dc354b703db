//! The real transport: the same [`Node`] state machines, driven by
//! threads, sockets, and a [`SystemClock`] instead of the simulator.
//!
//! This is the *only* file in the crate allowed to touch `std::net` (the
//! `direct-net` lint rule pins that down): everything above it — router,
//! shards, protocol — is transport-blind. Frames are length-prefixed
//! (`from: u32 LE`, `len: u32 LE`, payload), one frame per connection,
//! mirroring the serve stack's connection-per-request simplicity. All
//! socket operations carry timeouts and all reads are bounded; a failed
//! send is dropped, matching the simulator's lossy-network semantics
//! (the state machines already tolerate loss).
//!
//! [`Cluster`] assembles a full process-local cluster: one HTTP gateway
//! (reusing `ceer_serve::http` framing), one router node, N shard nodes,
//! each with a frame listener and a driver thread.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ceer_faults::Faults;
use ceer_serve::http::{self, Response};
use ceer_serve::parser::parse_head;
use ceer_sim::{Clock, Event, Net, Node, NodeId, SystemClock, EXTERNAL};

use crate::proto::{self, Msg};
use crate::router::{RouterConfig, RouterNode};
use crate::shard::{ShardConfig, ShardNode};

/// Largest accepted inter-node frame (reload frames carry a whole model).
const MAX_FRAME_BYTES: usize = 1 << 26;

/// Per-node driver tick: how often the loop re-checks timers and the
/// stop flag even when no message arrives.
const TICK_MS: u64 = 25;

/// The real [`Net`]: sends length-prefixed frames over TCP, keeps a
/// monotonic clock, and drives timers from a local heap.
struct TcpNet {
    id: NodeId,
    clock: Arc<SystemClock>,
    peers: BTreeMap<u32, SocketAddr>,
    timers: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// Router only: pending HTTP client streams, keyed by request id.
    gateway: Option<Arc<Mutex<BTreeMap<u64, TcpStream>>>>,
    io_timeout: Duration,
    io_errors: u64,
}

impl TcpNet {
    fn respond_http(&mut self, bytes: &[u8]) {
        let Ok(Msg::ClientResponse { id, status, body, retry_after }) = proto::decode(bytes) else {
            self.io_errors += 1;
            return;
        };
        let Some(stream) = self
            .gateway
            .as_ref()
            .and_then(|streams| streams.lock().ok().and_then(|mut map| map.remove(&id)))
        else {
            self.io_errors += 1;
            return;
        };
        let mut response = Response::json(status, body);
        if let Some(secs) = retry_after {
            response = response.with_retry_after(secs);
        }
        let mut stream = stream;
        stream.set_write_timeout(Some(self.io_timeout)).ok();
        if response.write_to(&mut stream).is_err() {
            self.io_errors += 1;
        }
    }
}

impl Net for TcpNet {
    fn id(&self) -> NodeId {
        self.id
    }

    fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    fn send(&mut self, to: NodeId, bytes: Vec<u8>) {
        if to == EXTERNAL {
            self.respond_http(&bytes);
            return;
        }
        let Some(&addr) = self.peers.get(&to.0) else {
            self.io_errors += 1;
            return;
        };
        let sent = TcpStream::connect_timeout(&addr, self.io_timeout).and_then(|mut stream| {
            stream.set_write_timeout(Some(self.io_timeout))?;
            stream.write_all(&self.id.0.to_le_bytes())?;
            let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
            stream.write_all(&len.to_le_bytes())?;
            stream.write_all(&bytes)?;
            stream.flush()
        });
        if sent.is_err() {
            // Fire-and-forget, like the simulated network: the state
            // machines already tolerate loss, so a failed send is
            // counted and dropped, never retried here.
            self.io_errors += 1;
        }
    }

    fn set_timer(&mut self, delay_ms: u64, tag: u64) {
        let at = self.clock.now_ms().saturating_add(delay_ms);
        self.timers.push(std::cmp::Reverse((at, tag)));
    }

    fn log(&mut self, line: &str) {
        eprintln!("[{} {}ms] {line}", self.id, self.clock.now_ms());
    }
}

/// Drives one node: timers from the heap, messages from the inbox.
fn run_node(
    mut node: Box<dyn Node>,
    mut net: TcpNet,
    inbox: &Receiver<(u32, Vec<u8>)>,
    stop: &AtomicBool,
) {
    node.on_event(&mut net, Event::Start);
    while !stop.load(Ordering::Relaxed) {
        loop {
            let now = net.clock.now_ms();
            match net.timers.peek() {
                Some(&std::cmp::Reverse((at, tag))) if at <= now => {
                    net.timers.pop();
                    node.on_event(&mut net, Event::Timer { tag });
                }
                _ => break,
            }
        }
        let now = net.clock.now_ms();
        let until_next =
            net.timers.peek().map_or(TICK_MS, |&std::cmp::Reverse((at, _))| at.saturating_sub(now));
        let wait = until_next.clamp(1, TICK_MS);
        match inbox.recv_timeout(Duration::from_millis(wait)) {
            Ok((from, bytes)) => {
                node.on_event(&mut net, Event::Message { from: NodeId(from), bytes });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Accepts inter-node frames and forwards them into a node's inbox.
fn run_frame_listener(
    listener: &TcpListener,
    tx: &Sender<(u32, Vec<u8>)>,
    stop: &AtomicBool,
    io_timeout: Duration,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        stream.set_read_timeout(Some(io_timeout)).ok();
        let mut header = [0u8; 8];
        if stream.read_exact(&mut header).is_err() {
            continue; // shutdown poke or a broken peer
        }
        let from = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_FRAME_BYTES {
            continue;
        }
        let mut payload = vec![0u8; len];
        if stream.read_exact(&mut payload).is_ok() {
            tx.send((from, payload)).ok();
        }
    }
}

/// One owned HTTP request as the gateway hands it to the router.
struct GatewayRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Reads one request with the serve stack's zero-copy head parser — the
/// same incremental state machine the evented transport runs — over a
/// growing buffer: read a chunk, re-scan, until the head and declared
/// body are complete. The socket's `SO_RCVTIMEO` bounds every read, so
/// a stalled peer surfaces as [`http::ReadError::TimedOut`].
fn read_gateway_request(
    stream: &mut TcpStream,
    max_body_bytes: usize,
) -> Result<Option<GatewayRequest>, http::ReadError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match parse_head(&buf, max_body_bytes) {
            Err(error) => return Err(error.into()),
            Ok(Some(head)) => {
                if let Some(req) = head.request(&buf) {
                    return Ok(Some(GatewayRequest {
                        method: req.method.to_string(),
                        path: req.path.to_string(),
                        body: req.body.to_vec(),
                    }));
                }
                // Head complete, body still arriving: keep reading.
            }
            Ok(None) => {}
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None) // clean close before any bytes
                } else {
                    Err(http::ReadError::Io(format!(
                        "connection closed mid-request ({} bytes buffered)",
                        buf.len()
                    )))
                };
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(http::ReadError::TimedOut)
            }
            Err(e) => return Err(http::ReadError::Io(format!("read failed: {e}"))),
        }
    }
}

/// Accepts HTTP clients, parses requests with the serve stack's
/// zero-copy head parser, and forwards them to the router as
/// [`Msg::ClientRequest`] frames from [`EXTERNAL`]. The response travels
/// back through the stream parked in `streams` until the router answers.
fn run_gateway(
    listener: &TcpListener,
    router_tx: &Sender<(u32, Vec<u8>)>,
    streams: &Mutex<BTreeMap<u64, TcpStream>>,
    next_req: &AtomicU64,
    stop: &AtomicBool,
    io_timeout: Duration,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        stream.set_read_timeout(Some(io_timeout)).ok();
        stream.set_write_timeout(Some(io_timeout)).ok();
        let request = read_gateway_request(&mut stream, http::MAX_BODY_BYTES);
        match request {
            Ok(Some(req)) => match String::from_utf8(req.body) {
                Ok(body) => {
                    let id = next_req.fetch_add(1, Ordering::Relaxed);
                    let msg = Msg::ClientRequest { id, method: req.method, path: req.path, body };
                    if let Ok(mut map) = streams.lock() {
                        map.insert(id, stream);
                    }
                    router_tx.send((EXTERNAL.0, proto::encode(&msg))).ok();
                }
                Err(_) => {
                    Response::json(400, "{\"error\": \"body is not UTF-8\"}")
                        .write_to(&mut stream)
                        .ok();
                }
            },
            Ok(None) => {}
            Err(error) => {
                let (status, message) = match error {
                    http::ReadError::BodyTooLarge { .. } => (413, "body too large"),
                    http::ReadError::TimedOut => (408, "request timed out"),
                    _ => (400, "malformed request"),
                };
                Response::json(status, format!("{{\"error\": \"{message}\"}}"))
                    .write_to(&mut stream)
                    .ok();
            }
        }
    }
}

/// Configuration for a process-local TCP cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Interface for every listener.
    pub host: String,
    /// HTTP gateway port (0 picks a free one).
    pub port: u16,
    /// Number of shard nodes.
    pub shards: u32,
    /// Replication degree R.
    pub replicas: usize,
    /// The fitted model archive; also re-read on `/reload`.
    pub model_path: PathBuf,
    /// Modeled per-prediction service time (see [`ShardConfig`]).
    pub service_ms: u64,
    /// Shard shed threshold.
    pub max_backlog_ms: u64,
    /// Heartbeat period.
    pub heartbeat_ms: u64,
    /// Suspicion timeout.
    pub suspicion_ms: u64,
    /// Router per-item timeout.
    pub request_timeout_ms: u64,
    /// Cap on honoring shard `retry_after_ms` hints.
    pub retry_after_cap_ms: u64,
    /// Router attempts per item.
    pub max_attempts: u32,
    /// Per-shard prediction-cache capacity.
    pub cache_capacity: usize,
    /// Timeout for every socket operation.
    pub io_timeout_ms: u64,
    /// Fault injection handle (e.g. [`ceer_faults::FaultPlan::from_env`]).
    pub faults: Faults,
    /// Root directory for per-shard crash-safe persistence; each shard
    /// gets `<data_dir>/shard-<index>`. `None` serves purely from memory.
    pub data_dir: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            shards: 3,
            replicas: 2,
            model_path: PathBuf::from("model.json"),
            service_ms: 0,
            max_backlog_ms: 200,
            heartbeat_ms: 250,
            suspicion_ms: 1_500,
            request_timeout_ms: 2_000,
            retry_after_cap_ms: 500,
            max_attempts: 4,
            cache_capacity: 256,
            io_timeout_ms: 2_000,
            faults: None,
            data_dir: None,
        }
    }
}

/// A running process-local cluster: gateway + router + shards, each on
/// its own thread, all on loopback TCP.
pub struct Cluster {
    http_addr: SocketAddr,
    poke_addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Cluster {
    /// Boots the cluster: binds every listener, loads the model, spawns
    /// the node and listener threads.
    ///
    /// # Errors
    ///
    /// Errors when a listener cannot bind or the model file is invalid.
    pub fn start(config: &ClusterConfig) -> Result<Cluster, String> {
        let model_json = std::fs::read_to_string(&config.model_path)
            .map_err(|e| format!("cannot read {:?}: {e}", config.model_path))?;
        let model: ceer_core::CeerModel = serde_json::from_str(&model_json)
            .map_err(|e| format!("invalid model in {:?}: {e}", config.model_path))?;
        let model = Arc::new(model);

        let stop = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(SystemClock::new());
        let io_timeout = Duration::from_millis(config.io_timeout_ms.max(1));

        // Node ids: 1 = router, 2.. = shards. Bind every frame listener
        // first so the full peer map exists before any node starts.
        let router_id = NodeId(1);
        let shard_ids: Vec<NodeId> = (0..config.shards).map(|i| NodeId(2 + i)).collect();
        let mut listeners: BTreeMap<u32, TcpListener> = BTreeMap::new();
        let mut peers: BTreeMap<u32, SocketAddr> = BTreeMap::new();
        for id in std::iter::once(router_id).chain(shard_ids.iter().copied()) {
            let listener = TcpListener::bind((config.host.as_str(), 0))
                .map_err(|e| format!("cannot bind frame listener: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            listeners.insert(id.0, listener);
            peers.insert(id.0, addr);
        }
        let gateway_listener = TcpListener::bind((config.host.as_str(), config.port))
            .map_err(|e| format!("cannot bind {}:{}: {e}", config.host, config.port))?;
        let http_addr = gateway_listener.local_addr().map_err(|e| e.to_string())?;

        let mut poke_addrs: Vec<SocketAddr> = peers.values().copied().collect();
        poke_addrs.push(http_addr);

        let mut threads = Vec::new();
        let streams: Arc<Mutex<BTreeMap<u64, TcpStream>>> = Arc::new(Mutex::new(BTreeMap::new()));

        // One inbox per node; listener threads feed them.
        let mut inboxes: BTreeMap<u32, Receiver<(u32, Vec<u8>)>> = BTreeMap::new();
        let mut senders: BTreeMap<u32, Sender<(u32, Vec<u8>)>> = BTreeMap::new();
        for &id in listeners.keys() {
            let (tx, rx) = std::sync::mpsc::channel();
            inboxes.insert(id, rx);
            senders.insert(id, tx);
        }
        for (id, listener) in listeners {
            let Some(tx) = senders.get(&id).cloned() else { continue };
            let stop = Arc::clone(&stop);
            // ceer-lint: allow(thread-spawn) -- the transport layer owns its threads; node logic stays single-threaded per node
            threads.push(std::thread::spawn(move || {
                run_frame_listener(&listener, &tx, &stop, io_timeout);
            }));
        }

        // The HTTP gateway feeds the router's inbox as EXTERNAL.
        {
            let Some(router_tx) = senders.get(&router_id.0).cloned() else {
                return Err("router inbox missing".to_string());
            };
            let streams = Arc::clone(&streams);
            let stop = Arc::clone(&stop);
            let next_req = Arc::new(AtomicU64::new(1));
            // ceer-lint: allow(thread-spawn) -- the transport layer owns its threads; node logic stays single-threaded per node
            threads.push(std::thread::spawn(move || {
                run_gateway(&gateway_listener, &router_tx, &streams, &next_req, &stop, io_timeout);
            }));
        }

        // Router node.
        {
            let shard_list: Vec<(NodeId, String)> =
                shard_ids.iter().enumerate().map(|(i, &id)| (id, format!("shard-{i}"))).collect();
            let mut router_config = RouterConfig::new(shard_list, config.replicas);
            router_config.request_timeout_ms = config.request_timeout_ms;
            router_config.retry_after_cap_ms = config.retry_after_cap_ms;
            router_config.max_attempts = config.max_attempts;
            router_config.suspicion_ms = config.suspicion_ms;
            router_config.metrics_wait_ms = config.request_timeout_ms / 2;
            router_config.reload_wait_ms = config.request_timeout_ms;
            let model_path = config.model_path.clone();
            let reload_source = Box::new(move || {
                std::fs::read_to_string(&model_path)
                    .map_err(|e| format!("cannot read {model_path:?}: {e}"))
            });
            let node = Box::new(RouterNode::new(router_config, reload_source));
            let net = TcpNet {
                id: router_id,
                clock: Arc::clone(&clock),
                peers: peers.clone(),
                timers: std::collections::BinaryHeap::new(),
                gateway: Some(Arc::clone(&streams)),
                io_timeout,
                io_errors: 0,
            };
            let Some(inbox) = inboxes.remove(&router_id.0) else {
                return Err("router inbox missing".to_string());
            };
            let stop = Arc::clone(&stop);
            // ceer-lint: allow(thread-spawn) -- the transport layer owns its threads; node logic stays single-threaded per node
            threads.push(std::thread::spawn(move || run_node(node, net, &inbox, &stop)));
        }

        // Shard nodes.
        for (index, &id) in shard_ids.iter().enumerate() {
            let mut shard_config = ShardConfig::new(format!("shard-{index}"), router_id);
            shard_config.peers = shard_ids.iter().copied().filter(|&p| p != id).collect();
            shard_config.service_ms = config.service_ms;
            shard_config.max_backlog_ms = config.max_backlog_ms;
            shard_config.heartbeat_ms = config.heartbeat_ms;
            shard_config.cache_capacity = config.cache_capacity;
            let mut shard = ShardNode::new(shard_config, Arc::clone(&model), config.faults.clone());
            if let Some(data_dir) = &config.data_dir {
                // Boot-time recovery failure is fatal for the whole
                // cluster: a shard that cannot trust its directory must
                // not rejoin diverged.
                let storage =
                    ceer_durable::FsStorage::open(data_dir.join(format!("shard-{index}")))?;
                shard = shard.with_durability(Arc::new(storage))?;
            }
            let node = Box::new(shard);
            let net = TcpNet {
                id,
                clock: Arc::clone(&clock),
                peers: peers.clone(),
                timers: std::collections::BinaryHeap::new(),
                gateway: None,
                io_timeout,
                io_errors: 0,
            };
            let Some(inbox) = inboxes.remove(&id.0) else {
                return Err("shard inbox missing".to_string());
            };
            let stop = Arc::clone(&stop);
            // ceer-lint: allow(thread-spawn) -- the transport layer owns its threads; node logic stays single-threaded per node
            threads.push(std::thread::spawn(move || run_node(node, net, &inbox, &stop)));
        }

        Ok(Cluster { http_addr, poke_addrs, stop, threads })
    }

    /// The HTTP gateway address (`ceer_serve::Client` speaks to this).
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Stops every thread and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for addr in &self.poke_addrs {
            // Wake blocked accept() calls so listener threads observe stop.
            TcpStream::connect_timeout(addr, Duration::from_millis(200)).ok();
        }
        for handle in self.threads.drain(..) {
            handle.join().ok();
        }
    }

    /// Blocks until the cluster is externally terminated.
    pub fn wait(mut self) {
        for handle in self.threads.drain(..) {
            handle.join().ok();
        }
    }
}

//! The four workloads, each as an untraced end-to-end run and as a phase
//! of the traced run.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceer_cluster::{
    ClusterMetrics, Msg, RouterConfig, RouterNode, ScriptEntry, ShardConfig, ShardNode, SimClient,
};
use ceer_core::CeerModel;
use ceer_serve::api::{self, PredictRequest};
use ceer_serve::{Client, ClientConn, MetricsSnapshot, ModelVersion, PredictionCache};
use ceer_sim::{NetProfile, NodeId, Sim};

use crate::drive::{self, closed_loop, Conn, Stream};
use crate::gen::{self, FreshSamples, Rng, Zipf};
use crate::layers::Replay;
use crate::oracle::{Kind, Oracle};
use crate::stats::{quantile, rss_mib, Records};

/// The serve default cache size (`ceer serve --cache`).
const CACHE: usize = 256;
/// Canonical requests behind `predict_hit` (all fit in the cache).
const HOT_KEYS: usize = 64;
/// Zipf exponent of `predict_hit`'s key popularity.
const HOT_ZIPF: f64 = 1.0;
/// Canonical requests the open-loop stream of `recommend_mix` cycles through.
const MIX_HOT_KEYS: usize = 16;
/// The open-loop `/predict` rate of `recommend_mix`, per second: far below
/// the cached path's saturation (tens of thousands per second).
const MIX_RATE: f64 = 1_000.0;
/// Zipf exponent over the 1,080 cluster keys; puts the shard-cache hit
/// ratio between one half and nine tenths.
const CLUSTER_ZIPF: f64 = 0.8;
/// Cluster shards times their cache size: the single-server baseline of
/// `cluster.hop_us` gets the same total cache.
const CLUSTER_CACHE_TOTAL: usize = 3 * 256;
/// Warm-up before any timed window.
const WARMUP_S: f64 = 1.0;

pub struct Ctx<'a> {
    pub model_path: &'a Path,
    pub seed: u64,
    pub seconds: f64,
}

/// One workload run or traced phase.
pub struct Phase {
    pub records: Records,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    fn new(workload: &str, seed: u64) -> Phase {
        Phase { records: Records::new(workload, seed), attempted: 0, failed: 0 }
    }

    fn count(&mut self, stream: &Stream) {
        self.attempted += stream.attempted;
        self.failed += stream.failed;
    }

    /// The end-to-end `/predict` figures of one stream: medians over its
    /// one-second windows.
    fn predict_figures(&mut self, stream: &Stream) {
        let r = &mut self.records;
        let n = stream.completed as usize;
        r.scalar("predict_rps", "e2e", "req/s", stream.rps(), n);
        r.scalar("predict_p50_us", "e2e", "us", stream.p50_us(), n);
        r.scalar("predict_p99_us", "e2e", "us", stream.p99_us(), n);
    }

    /// `setup_s`: the median of the set-ups timed before the measured
    /// window and of a second block timed after it, so that it spans the
    /// run rather than its first second.
    fn setup_figure(&mut self, ctx: &Ctx<'_>, mut times: Vec<f64>) -> Result<(), String> {
        let layer = if self.records.workload == "cluster_mix" {
            times.extend(drive::cluster_setups(ctx.model_path)?);
            "ceer-cluster"
        } else {
            times.extend(drive::server_setups(ctx.model_path, CACHE)?);
            "ceer-serve"
        };
        self.records.scalar("setup_s", layer, "s", median(&times), times.len());
        Ok(())
    }
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn serve_metrics(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    Client::new(addr).metrics()
}

/// Robustness counters of a server phase, as deltas over the phase.
fn robustness(phase: &mut Phase, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let r = &mut phase.records;
    let shed = after.robustness.shed - before.robustness.shed;
    let io = after.robustness.io_errors - before.robustness.io_errors;
    r.scalar("robustness.shed", "ceer-serve", "count", shed as f64, 1);
    r.scalar("robustness.io_errors", "ceer-serve", "count", io as f64, 1);
}

// ---------------------------------------------------------------- predict_miss

/// Uncached `/predict`s; `pass` gives another run of epoch sizes over the
/// same request mix, so every pass misses the cache again.
fn miss_generator(seed: u64, pass: u64) -> impl FnMut() -> Vec<u8> {
    let mut deck = gen::MissDeck::new(Rng::new(seed, 1));
    let mut fresh = FreshSamples::new(seed.wrapping_add(pass.wrapping_mul(7_919)));
    move || gen::body(&deck.next(fresh.next()))
}

pub fn predict_miss(ctx: &Ctx<'_>, oracle: &mut Oracle) -> Result<Phase, String> {
    let mut phase = Phase::new("predict_miss", ctx.seed);
    let setups = drive::server_setups(ctx.model_path, CACHE)?;
    let server = drive::start_server(ctx.model_path, CACHE)?;
    let addr = server.addr();
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    let mut next = miss_generator(ctx.seed, 0);
    let warm = closed_loop(&mut conn, addr, "/predict", WARMUP_S, &mut next, oracle, None);
    phase.count(&warm);
    let before = serve_metrics(addr)?;
    let stream = closed_loop(&mut conn, addr, "/predict", ctx.seconds, &mut next, oracle, None);
    phase.records.scalar("rss_mib", "process", "MiB", rss_mib(), 1);
    let after = serve_metrics(addr)?;
    drop(conn);
    server.shutdown();
    phase.setup_figure(ctx, setups)?;
    phase.count(&stream);
    phase.predict_figures(&stream);
    robustness(&mut phase, &before, &after);
    Ok(phase)
}

/// Traced `predict_miss`: an untraced half, then a traced half whose
/// requests are replayed through the layers.
pub fn trace_predict_miss(
    ctx: &Ctx<'_>,
    oracle: &mut Oracle,
    spans: &mut Vec<(String, Replay)>,
) -> Result<Phase, String> {
    let mut phase = Phase::new("predict_miss", ctx.seed);
    let server = drive::start_server(ctx.model_path, CACHE)?;
    let addr = server.addr();
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    let warm = closed_loop(
        &mut conn,
        addr,
        "/predict",
        WARMUP_S,
        miss_generator(ctx.seed, 1),
        oracle,
        None,
    );
    // Both windows send the same request mix in the same order, so their
    // medians differ only by what tracing costs.
    let window = ctx.seconds / 2.0;
    let untraced =
        closed_loop(&mut conn, addr, "/predict", window, miss_generator(ctx.seed, 2), oracle, None);
    let mut replay = Replay::new(ctx.model_path, CACHE)?;
    let before = serve_metrics(addr)?;
    let traced = closed_loop(
        &mut conn,
        addr,
        "/predict",
        window,
        miss_generator(ctx.seed, 3),
        oracle,
        Some(&mut replay),
    );
    let after = serve_metrics(addr)?;
    drop(conn);
    server.shutdown();
    for stream in [&warm, &untraced, &traced] {
        phase.count(stream);
    }
    robustness(&mut phase, &before, &after);

    let selfs = replay.tracer.self_times();
    let r = &mut phase.records;
    for (name, metric, layer) in [
        ("graph.expand", "graph.expand_us", "ceer-graph"),
        ("features.extract", "features.extract_us", "ceer-core"),
        ("estimate.predict_iteration", "estimate.predict_iteration_us", "ceer-core"),
        ("report.coverage", "report.coverage_us", "ceer-core"),
        ("report.parameters", "report.parameters_us", "ceer-graph"),
        ("graph.drop", "graph.drop_us", "ceer-graph"),
        ("cloud.catalog", "cloud.catalog_us", "ceer-cloud"),
        ("serialize.predict", "serialize.predict_us", "serialize"),
        ("cache.insert", "cache.insert_us", "ceer-serve.cache"),
    ] {
        r.dist(metric, layer, "us", selfs.get(name).map_or(&[][..], Vec::as_slice));
    }
    let c = &replay.counts;
    r.dist("graph.ops", "ceer-graph", "count", &c.ops);
    r.dist("features.extract_calls", "ceer-core", "count", &c.extract_calls);
    r.dist("estimate.calls", "ceer-core", "count", &c.estimate_calls);
    r.dist("serialize.predict_bytes", "serialize", "bytes", &c.predict_bytes);
    let inserted = after.cache.misses - before.cache.misses;
    let grown = after.cache.entries.saturating_sub(before.cache.entries);
    r.scalar(
        "cache.evictions",
        "ceer-serve.cache",
        "count",
        inserted.saturating_sub(grown) as f64,
        1,
    );

    // The self-time checks, per request, as medians over the traced
    // requests. App::route on the mirror App is timed on its own, and the
    // named layers under it are separate calls, so their sum over the
    // route's duration checks the split; what the route spent outside
    // them is unattributed. Transport is, by definition, the round trip
    // less the route, so the layers' self times with the unattributed time
    // left out, over the request's round trip, reads 1 less the
    // unattributed share. (The workload mixes CNNs of 106 to 2,012 ops,
    // so a median of sums over a sample is not compared with a median
    // round trip of the whole window.)
    let route = replay.tracer.split("app.route");
    let round_trips = replay.tracer.split("request");
    let mut split_ratios = Vec::new();
    let mut unattributed = Vec::new();
    let mut sum_ratios = Vec::new();
    for (request, &(route_us, named_us)) in &route {
        let rtt_us = round_trips.get(request).map_or(0.0, |t| t.0);
        split_ratios.push(named_us / route_us.max(1e-9));
        unattributed.push(route_us - named_us);
        sum_ratios.push((rtt_us - route_us + named_us) / rtt_us.max(1e-9));
    }
    let untraced_p50 = untraced.p50_us();
    let traced_p50 = traced.p50_us();
    let n = route.len();
    r.scalar("trace.e2e_untraced_p50_us", "trace", "us", untraced_p50, untraced.completed as usize);
    r.scalar("trace.e2e_traced_p50_us", "trace", "us", traced_p50, traced.completed as usize);
    r.scalar(
        "trace.overhead_us",
        "trace",
        "us",
        traced_p50 - untraced_p50,
        traced.completed as usize,
    );
    r.scalar("trace.route_split_ratio", "trace", "ratio", median(&split_ratios), n);
    r.dist("trace.unattributed_us", "trace", "us", &unattributed);
    r.scalar("trace.self_sum_ratio", "trace", "ratio", median(&sum_ratios), n);
    spans.push(("predict_miss".to_string(), replay));
    Ok(phase)
}

// ----------------------------------------------------------------- predict_hit

/// The 64 canonical requests, as bodies, and a Zipf drawer over them.
fn hot_set(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 2);
    gen::distinct_predicts(&mut rng, count).iter().map(gen::body).collect()
}

fn hit_generator(keys: &[Vec<u8>], seed: u64) -> impl FnMut() -> Vec<u8> + '_ {
    let zipf = Zipf::new(keys.len(), HOT_ZIPF);
    let mut rng = Rng::new(seed, 3);
    move || keys[zipf.draw(&mut rng)].clone()
}

/// Sends every hot key once so the measured window only hits.
fn warm_keys(conn: &mut Conn, keys: &[Vec<u8>], phase: &mut Phase) {
    for key in keys {
        phase.attempted += 1;
        match conn.post("/predict", key) {
            Ok(response) if response.status == 200 => {}
            _ => phase.failed += 1,
        }
    }
}

pub fn predict_hit(ctx: &Ctx<'_>, oracle: &mut Oracle) -> Result<Phase, String> {
    let mut phase = Phase::new("predict_hit", ctx.seed);
    let setups = drive::server_setups(ctx.model_path, CACHE)?;
    let server = drive::start_server(ctx.model_path, CACHE)?;
    let addr = server.addr();
    let keys = hot_set(ctx.seed, HOT_KEYS);
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    warm_keys(&mut conn, &keys, &mut phase);
    let mut next = hit_generator(&keys, ctx.seed);
    let warm = closed_loop(&mut conn, addr, "/predict", WARMUP_S, &mut next, oracle, None);
    phase.count(&warm);
    let before = serve_metrics(addr)?;
    let stop = AtomicBool::new(false);
    let (stream, scrapes) = std::thread::scope(|scope| {
        // A monitoring-style scraper on its own connection, once a second.
        // ceer-lint: allow(thread-spawn) -- the benchmark's second client; joined by the scope
        let scraper = scope.spawn(|| scrape_every_second(addr, &stop));
        let stream = closed_loop(&mut conn, addr, "/predict", ctx.seconds, &mut next, oracle, None);
        stop.store(true, Ordering::SeqCst);
        (stream, scraper.join().unwrap_or_default())
    });
    phase.records.scalar("rss_mib", "process", "MiB", rss_mib(), 1);
    let after = serve_metrics(addr)?;
    drop(conn);
    server.shutdown();
    phase.setup_figure(ctx, setups)?;
    phase.count(&stream);
    phase.count(&scrapes);
    phase.predict_figures(&stream);
    robustness(&mut phase, &before, &after);
    Ok(phase)
}

fn scrape_every_second(addr: SocketAddr, stop: &AtomicBool) -> Stream {
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    let mut stream = Stream::default();
    let started = Instant::now();
    let mut next = 1.0;
    while !stop.load(Ordering::SeqCst) {
        if started.elapsed().as_secs_f64() < next {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        next += 1.0;
        stream.attempted += 1;
        let sent = Instant::now();
        match conn.get("/metrics") {
            Ok(response) if response.status == 200 => {
                stream.record(sent.elapsed().as_secs_f64() * 1e6);
            }
            _ => stream.failed += 1,
        }
    }
    stream.finish(started.elapsed().as_secs_f64());
    stream
}

/// Traced `predict_hit`: an untraced third, then the rest replayed.
pub fn trace_predict_hit(
    ctx: &Ctx<'_>,
    oracle: &mut Oracle,
    spans: &mut Vec<(String, Replay)>,
) -> Result<Phase, String> {
    let mut phase = Phase::new("predict_hit", ctx.seed);
    let server = drive::start_server(ctx.model_path, CACHE)?;
    let addr = server.addr();
    let keys = hot_set(ctx.seed, HOT_KEYS);
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    warm_keys(&mut conn, &keys, &mut phase);
    let mut replay = Replay::new(ctx.model_path, CACHE)?;
    for key in &keys {
        replay.absorb(&crate::wire::render(addr, "POST", "/predict", key));
    }
    let mut next = hit_generator(&keys, ctx.seed);
    let untraced =
        closed_loop(&mut conn, addr, "/predict", ctx.seconds / 3.0, &mut next, oracle, None);
    let before = serve_metrics(addr)?;
    let traced = closed_loop(
        &mut conn,
        addr,
        "/predict",
        ctx.seconds * 2.0 / 3.0,
        &mut next,
        oracle,
        Some(&mut replay),
    );
    let after = serve_metrics(addr)?;
    drop(conn);
    server.shutdown();
    phase.count(&untraced);
    phase.count(&traced);
    robustness(&mut phase, &before, &after);

    let selfs = replay.tracer.self_times();
    let r = &mut phase.records;
    for (name, metric, layer) in [
        ("evented.transport", "evented.transport_us", "ceer-serve.evented"),
        ("parser.parse_head", "parser.parse_head_us", "ceer-serve.parser"),
        ("app.parse_predict", "app.parse_predict_us", "ceer-serve.app"),
        ("cache.get", "cache.get_us", "ceer-serve.cache"),
        ("metrics.record", "metrics.record_us", "ceer-serve.metrics"),
        ("http.to_bytes", "http.to_bytes_us", "ceer-serve.http"),
    ] {
        r.dist(metric, layer, "us", selfs.get(name).map_or(&[][..], Vec::as_slice));
    }
    // App::route whole (its parts are the two above); the round trips are
    // what the server's latency window holds.
    let route = replay.tracer.split("app.route");
    let route_us: Vec<f64> = route.values().map(|&(whole, _)| whole).collect();
    r.dist("app.route_us", "ceer-serve.app", "us", &route_us);
    let round_trips: Vec<f64> = replay.tracer.split("request").values().map(|s| s.0).collect();
    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;
    r.scalar(
        "cache.hit_ratio",
        "ceer-serve.cache",
        "ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    replay.fill_latency_window("POST /predict", &round_trips);
    let snapshots: Vec<f64> = (0..50).map(|_| replay.snapshot_us()).collect();
    r.dist("metrics.snapshot_us", "ceer-serve.metrics", "us", &snapshots);
    spans.push(("predict_hit".to_string(), replay));
    Ok(phase)
}

// --------------------------------------------------------------- recommend_mix

/// Uncached `/recommend`s; `pass` as for `miss_generator`.
fn recommend_generator(seed: u64, pass: u64) -> impl FnMut() -> Vec<u8> {
    let mut deck = gen::CnnDeck::new(Rng::new(seed, 4));
    let mut fresh = FreshSamples::new(seed.wrapping_add(pass.wrapping_mul(7_919)));
    move || gen::body(&gen::recommend(deck.next(), fresh.next()))
}

/// The open-loop stream's request wires and its seeded cycling order.
fn mix_hot(addr: SocketAddr, seed: u64) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<usize>) {
    let bodies = hot_set(seed ^ 0x5EED, MIX_HOT_KEYS);
    let wires = bodies.iter().map(|b| crate::wire::render(addr, "POST", "/predict", b)).collect();
    let mut rng = Rng::new(seed, 5);
    let order = (0..4096).map(|_| rng.below(MIX_HOT_KEYS)).collect();
    (bodies, wires, order)
}

/// Runs the open loop and tallies its answers as a stream.
fn run_open_loop(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    order: &[usize],
    seconds: f64,
) -> (crate::wire::OpenLoop, Stream) {
    let open = crate::wire::open_loop(addr, wires, order, MIX_RATE, seconds);
    let mut stream = Stream::default();
    stream.attempted = open.sent as u64;
    stream.failed = open.transport_errors as u64;
    for answer in &open.answered {
        stream.tick(answer.done_s);
        if answer.status == 200 {
            stream.record(answer.latency_us);
        } else {
            stream.failed += 1;
        }
    }
    stream.finish(open.elapsed_s);
    (open, stream)
}

fn offer_open_loop(open: &crate::wire::OpenLoop, bodies: &[Vec<u8>], oracle: &mut Oracle) {
    for answer in open.answered.iter().filter(|a| a.status == 200) {
        if let Some(body) = &answer.body {
            oracle.offer(Kind::Predict, &bodies[answer.index], body);
        }
    }
}

/// Connection A: closed-loop `/recommend` misses; connection B: cached
/// `/predict` at `MIX_RATE`, open loop. Returns `(A, B, B's lags)`.
fn mix(
    addr: SocketAddr,
    seconds: f64,
    seed: u64,
    pass: u64,
    hot: &(Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<usize>),
    oracle: &mut Oracle,
    replay: Option<&mut Replay>,
) -> (Stream, Stream, Vec<f64>) {
    let (bodies, wires, order) = hot;
    let mut next = recommend_generator(seed, pass);
    let (a, (open, b)) = std::thread::scope(|scope| {
        // ceer-lint: allow(thread-spawn) -- the benchmark's second client; joined by the scope
        let b = scope.spawn(|| run_open_loop(addr, wires, order, seconds));
        let mut conn = Conn::KeepAlive(ClientConn::new(addr));
        let a = closed_loop(&mut conn, addr, "/recommend", seconds, &mut next, oracle, replay);
        (a, b.join().expect("open-loop client thread"))
    });
    offer_open_loop(&open, bodies, oracle);
    (a, b, open.lag_us)
}

fn recommend_figures(phase: &mut Phase, a: &Stream) {
    let r = &mut phase.records;
    let n = a.completed as usize;
    r.scalar("recommend_rps", "e2e", "req/s", a.rps(), n);
    r.scalar("recommend_p50_us", "e2e", "us", a.p50_us(), n);
    r.scalar("recommend_p99_us", "e2e", "us", a.p99_us(), n);
}

pub fn recommend_mix(ctx: &Ctx<'_>, oracle: &mut Oracle) -> Result<Phase, String> {
    let mut phase = Phase::new("recommend_mix", ctx.seed);
    let setups = drive::server_setups(ctx.model_path, CACHE)?;
    let server = drive::start_server(ctx.model_path, CACHE)?;
    let addr = server.addr();
    let hot = mix_hot(addr, ctx.seed);
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    warm_keys(&mut conn, &hot.0, &mut phase);
    let (warm_a, warm_b, _) = mix(addr, WARMUP_S, ctx.seed, 0, &hot, oracle, None);
    let before = serve_metrics(addr)?;
    let (a, b, lags) = mix(addr, ctx.seconds, ctx.seed, 1, &hot, oracle, None);
    phase.records.scalar("rss_mib", "process", "MiB", rss_mib(), 1);
    let after = serve_metrics(addr)?;
    drop(conn);
    server.shutdown();
    phase.setup_figure(ctx, setups)?;
    for stream in [&warm_a, &warm_b, &a, &b] {
        phase.count(stream);
    }
    phase.predict_figures(&b);
    recommend_figures(&mut phase, &a);
    phase.records.scalar("loadgen.lag_p99_us", "loadgen", "us", quantile(&lags, 0.99), lags.len());
    robustness(&mut phase, &before, &after);
    Ok(phase)
}

/// Traced `recommend_mix`: the open loop alone (the no-contention
/// baseline), the mix untraced (head-of-line wait, lag, `/recommend`
/// figures), then `/recommend` alone with every request replayed.
pub fn trace_recommend_mix(
    ctx: &Ctx<'_>,
    oracle: &mut Oracle,
    spans: &mut Vec<(String, Replay)>,
) -> Result<Phase, String> {
    let mut phase = Phase::new("recommend_mix", ctx.seed);
    let server = drive::start_server(ctx.model_path, CACHE)?;
    let addr = server.addr();
    let hot = mix_hot(addr, ctx.seed);
    let mut conn = Conn::KeepAlive(ClientConn::new(addr));
    warm_keys(&mut conn, &hot.0, &mut phase);
    let before = serve_metrics(addr)?;
    let (alone, alone_stream) = run_open_loop(addr, &hot.1, &hot.2, ctx.seconds / 4.0);
    offer_open_loop(&alone, &hot.0, oracle);
    let (a, b, lags) = mix(addr, ctx.seconds * 3.0 / 8.0, ctx.seed, 1, &hot, oracle, None);
    let mut replay = Replay::new(ctx.model_path, CACHE)?;
    let mut next = recommend_generator(ctx.seed, 2);
    let traced = closed_loop(
        &mut conn,
        addr,
        "/recommend",
        ctx.seconds * 3.0 / 8.0,
        &mut next,
        oracle,
        Some(&mut replay),
    );
    let after = serve_metrics(addr)?;
    drop(conn);
    server.shutdown();
    for stream in [&alone_stream, &a, &b, &traced] {
        phase.count(stream);
    }
    robustness(&mut phase, &before, &after);
    recommend_figures(&mut phase, &a);

    let selfs = replay.tracer.self_times();
    let r = &mut phase.records;
    for (name, metric, layer) in [
        ("graph.memory_estimate", "graph.memory_estimate_us", "ceer-graph"),
        ("serialize.recommend", "serialize.recommend_us", "serialize"),
    ] {
        r.dist(metric, layer, "us", selfs.get(name).map_or(&[][..], Vec::as_slice));
    }
    let c = &replay.counts;
    r.dist("recommend.sweep_us", "ceer-core", "us", &c.sweep_us);
    r.dist("recommend.candidates", "ceer-core", "count", &c.candidates);
    r.dist("par.sweep_serial_us", "ceer-par", "us", &c.sweep_serial_us);
    r.scalar(
        "par.speedup",
        "ceer-par",
        "ratio",
        median(&c.sweep_serial_us) / median(&c.sweep_us).max(1e-9),
        c.sweep_us.len(),
    );
    r.dist("serialize.recommend_bytes", "serialize", "bytes", &c.recommend_bytes);
    let (p50, p99) = (b.p50_us() - alone_stream.p50_us(), b.p99_us() - alone_stream.p99_us());
    r.difference("evented.hol_wait_us", "ceer-serve.evented", "us", p50, p99, b.completed as usize);
    r.scalar("loadgen.lag_p99_us", "loadgen", "us", quantile(&lags, 0.99), lags.len());
    r.scalar(
        "hot.open_loop_alone_p50_us",
        "trace",
        "us",
        alone_stream.p50_us(),
        alone_stream.completed as usize,
    );
    spans.push(("recommend_mix".to_string(), replay));
    Ok(phase)
}

// ----------------------------------------------------------------- cluster_mix

fn cluster_generator(seed: u64) -> impl FnMut() -> Vec<u8> {
    let mut rng = Rng::new(seed, 6);
    let keys: Vec<Vec<u8>> = gen::cluster_keys(&mut rng).iter().map(gen::body).collect();
    let zipf = Zipf::new(keys.len(), CLUSTER_ZIPF);
    move || keys[zipf.draw(&mut rng)].clone()
}

pub fn cluster_mix(ctx: &Ctx<'_>, oracle: &mut Oracle) -> Result<Phase, String> {
    let mut phase = Phase::new("cluster_mix", ctx.seed);
    let setups = drive::cluster_setups(ctx.model_path)?;
    let cluster = drive::start_cluster(ctx.model_path)?;
    let addr = cluster.http_addr();
    let mut conn = Conn::PerRequest(Client::new(addr));
    let mut next = cluster_generator(ctx.seed);
    let warm = closed_loop(&mut conn, addr, "/predict", WARMUP_S, &mut next, oracle, None);
    let stream = closed_loop(&mut conn, addr, "/predict", ctx.seconds, &mut next, oracle, None);
    phase.records.scalar("rss_mib", "process", "MiB", rss_mib(), 1);
    cluster.shutdown();
    phase.setup_figure(ctx, setups)?;
    phase.count(&warm);
    phase.count(&stream);
    phase.predict_figures(&stream);
    Ok(phase)
}

fn cluster_metrics(addr: SocketAddr) -> Result<ClusterMetrics, String> {
    let response = Client::new(addr).get("/metrics")?;
    serde_json::from_str(&response.body).map_err(|e| format!("cluster /metrics: {e}"))
}

/// Traced `cluster_mix`: the cluster untraced (its `/metrics` counters
/// over the window), the same key stream against one evented server
/// (the hop), then ring, protocol and simulated-cluster layers in-process.
pub fn trace_cluster_mix(ctx: &Ctx<'_>, oracle: &mut Oracle) -> Result<Phase, String> {
    let mut phase = Phase::new("cluster_mix", ctx.seed);
    let cluster = drive::start_cluster(ctx.model_path)?;
    let addr = cluster.http_addr();
    let mut conn = Conn::PerRequest(Client::new(addr));
    let mut next = cluster_generator(ctx.seed);
    let warm = closed_loop(&mut conn, addr, "/predict", WARMUP_S, &mut next, oracle, None);
    let before = cluster_metrics(addr)?;
    let window = ctx.seconds * 0.4;
    let on_cluster = closed_loop(&mut conn, addr, "/predict", window, &mut next, oracle, None);
    let after = cluster_metrics(addr)?;
    cluster.shutdown();

    let server = drive::start_server(ctx.model_path, CLUSTER_CACHE_TOTAL)?;
    let single_addr = server.addr();
    let mut single_conn = Conn::PerRequest(Client::new(single_addr));
    let mut next = cluster_generator(ctx.seed);
    let single_warm =
        closed_loop(&mut single_conn, single_addr, "/predict", WARMUP_S, &mut next, oracle, None);
    let single =
        closed_loop(&mut single_conn, single_addr, "/predict", window, &mut next, oracle, None);
    server.shutdown();
    for stream in [&warm, &on_cluster, &single_warm, &single] {
        phase.count(stream);
    }

    let r = &mut phase.records;
    let requests = on_cluster.attempted.max(1) as f64;
    let d =
        |f: fn(&ceer_cluster::RouterStats) -> u64| (f(&after.router) - f(&before.router)) as f64;
    r.scalar(
        "router.forwards_per_request",
        "ceer-cluster.router",
        "ratio",
        d(|s| s.forwards) / requests,
        on_cluster.attempted as usize,
    );
    r.scalar("router.failovers", "ceer-cluster.router", "count", d(|s| s.failovers), 1);
    r.scalar("router.timeouts", "ceer-cluster.router", "count", d(|s| s.timeouts), 1);
    let shard_sum = |m: &ClusterMetrics, f: fn(&ceer_cluster::ShardStats) -> u64| -> u64 {
        m.shards.values().map(f).sum()
    };
    let hits = shard_sum(&after, |s| s.cache_hits) - shard_sum(&before, |s| s.cache_hits);
    let misses = shard_sum(&after, |s| s.cache_misses) - shard_sum(&before, |s| s.cache_misses);
    r.scalar(
        "shard.cache_hit_ratio",
        "ceer-cluster.shard",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    let shed = shard_sum(&after, |s| s.shed) - shard_sum(&before, |s| s.shed);
    r.scalar("shard.shed", "ceer-cluster.shard", "count", shed as f64, 1);
    let (p50, p99) = (on_cluster.p50_us() - single.p50_us(), on_cluster.p99_us() - single.p99_us());
    r.difference("cluster.hop_us", "ceer-cluster", "us", p50, p99, on_cluster.completed as usize);

    let model = Arc::new(load_model(ctx.model_path)?);
    let (attempted, failed) = in_process_cluster_layers(&mut phase.records, &model, ctx.seed);
    phase.attempted += attempted;
    phase.failed += failed;
    Ok(phase)
}

pub fn load_model(path: &Path) -> Result<CeerModel, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("invalid model in {path:?}: {e}"))
}

/// Requests behind the in-process cluster layers.
const IN_PROCESS_REQUESTS: usize = 1_000;

/// Ring, frame codec and the simulated cluster on the `cluster_mix` key
/// stream. Returns the simulated requests attempted and failed.
fn in_process_cluster_layers(r: &mut Records, model: &Arc<CeerModel>, seed: u64) -> (u64, u64) {
    let mut next = cluster_generator(seed);
    let bodies: Vec<String> = (0..IN_PROCESS_REQUESTS)
        .map(|_| String::from_utf8(next()).expect("generated bodies are UTF-8"))
        .collect();

    // Answers once per distinct key, for the response frames.
    let mut answers: std::collections::BTreeMap<&str, String> = Default::default();
    for body in &bodies {
        if !answers.contains_key(body.as_str()) {
            let request: PredictRequest =
                serde_json::from_str(body).expect("generated bodies parse");
            let rendered = api::predict(model, &request)
                .and_then(|r| serde_json::to_string_pretty(&r).map_err(|e| e.to_string()))
                .unwrap_or_default();
            answers.insert(body, rendered);
        }
    }

    let version = ModelVersion::INITIAL;
    let shards = [2u32, 3, 4];
    let mut owners_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut frame_bytes = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let id = i as u64;
        let started = Instant::now();
        let ring = ceer_cluster::Ring::new(shards);
        std::hint::black_box(ring.owners(&format!("{version}/{body}"), 2));
        owners_us.push(started.elapsed().as_secs_f64() * 1e6);

        let answer = answers.get(body.as_str()).cloned().unwrap_or_default();
        let frames = [
            Msg::ClientRequest {
                id,
                method: "POST".into(),
                path: "/predict".into(),
                body: body.clone(),
            },
            Msg::Predict { id, version, body: body.clone() },
            Msg::PredictOk { id, version, body: answer.clone(), cached: true },
            Msg::ClientResponse { id, status: 200, body: answer, retry_after: None },
        ];
        let started = Instant::now();
        let encoded: Vec<Vec<u8>> = frames.iter().map(ceer_cluster::proto::encode).collect();
        encode_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        for bytes in &encoded {
            std::hint::black_box(ceer_cluster::proto::decode(bytes).ok());
        }
        decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        frame_bytes.push(encoded.iter().map(Vec::len).sum::<usize>() as f64);
    }
    r.dist("ring.owners_us", "ceer-cluster.ring", "us", &owners_us);
    r.dist("proto.encode_us", "ceer-cluster.proto", "us", &encode_us);
    r.dist("proto.decode_us", "ceer-cluster.proto", "us", &decode_us);
    r.dist("proto.frame_bytes", "ceer-cluster.proto", "bytes", &frame_bytes);

    // The same script through the single-threaded simulated cluster, less
    // the same script evaluated directly behind one cache of the cluster's
    // total size: what is left is router and shard logic, not TCP.
    let (sim_us, failed) = simulate(model, &bodies, seed);
    let direct = PredictionCache::new(CLUSTER_CACHE_TOTAL);
    let started = Instant::now();
    for body in &bodies {
        if direct.get(body).is_none() {
            let request: PredictRequest =
                serde_json::from_str(body).expect("generated bodies parse");
            let rendered = api::predict(model, &request)
                .and_then(|r| serde_json::to_string_pretty(&r).map_err(|e| e.to_string()))
                .unwrap_or_default();
            direct.insert(body.clone(), rendered);
        }
    }
    let direct_us = started.elapsed().as_secs_f64() * 1e6;
    let per_request = (sim_us - direct_us) / bodies.len() as f64;
    r.scalar("cluster.state_machine_us", "ceer-cluster", "us", per_request, bodies.len());
    (bodies.len() as u64, failed as u64)
}

/// Wall time of the simulated cluster answering `bodies`, µs, and how
/// many requests it did not answer 200.
fn simulate(model: &Arc<CeerModel>, bodies: &[String], seed: u64) -> (f64, usize) {
    let mut sim = Sim::with(seed, NetProfile::default(), None);
    let router_id = NodeId(1);
    let shard_ids: Vec<NodeId> = (0..3).map(|i| NodeId(2 + i)).collect();
    let labels: Vec<(NodeId, String)> =
        shard_ids.iter().enumerate().map(|(i, &id)| (id, format!("shard-{i}"))).collect();
    // The knobs `Cluster::start` derives from the TCP cluster's config.
    let tcp = drive::cluster_config(Path::new(""));
    let mut router = RouterConfig::new(labels, tcp.replicas);
    router.request_timeout_ms = tcp.request_timeout_ms;
    router.retry_after_cap_ms = tcp.retry_after_cap_ms;
    router.max_attempts = tcp.max_attempts;
    router.suspicion_ms = tcp.suspicion_ms;
    router.metrics_wait_ms = tcp.request_timeout_ms / 2;
    router.reload_wait_ms = tcp.request_timeout_ms;
    let reload = Box::new(|| Err("no reload in the benchmark".to_string()));
    sim.add_node("router", Box::new(RouterNode::new(router, reload)));
    for (i, &id) in shard_ids.iter().enumerate() {
        let mut config = ShardConfig::new(format!("shard-{i}"), router_id);
        config.peers = shard_ids.iter().copied().filter(|&p| p != id).collect();
        config.service_ms = tcp.service_ms;
        config.max_backlog_ms = tcp.max_backlog_ms;
        config.heartbeat_ms = tcp.heartbeat_ms;
        config.cache_capacity = tcp.cache_capacity;
        sim.add_node(
            &format!("shard-{i}"),
            Box::new(ShardNode::new(config, Arc::clone(model), None)),
        );
    }
    let script: Vec<ScriptEntry> = bodies
        .iter()
        .enumerate()
        .map(|(i, body)| ScriptEntry::post(10 + i as u64, "/predict", body.clone()))
        .collect();
    let client = sim.add_node("client", Box::new(SimClient::new(router_id, script)));
    let started = Instant::now();
    sim.run_until(10 + bodies.len() as u64 + 5_000);
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let ok = sim
        .node::<SimClient>(client)
        .map_or(0, |c| c.answers.iter().filter(|a| a.status == 200).count());
    (wall_us, bodies.len() - ok)
}

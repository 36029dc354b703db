//! Chaos suite for the server: a real epoll-backed
//! `ceer-serve` server on an OS-assigned port, killed on purpose through
//! seeded fault plans — plus fully simulated scenarios (the `sim_`
//! tests) that drive the *same* event-loop state machines through
//! `ceer-sim`'s readiness driver over a virtual clock, where a whole run
//! is a pure function of `(seed, scenario)`.
//!
//! Every plan here is parsed with [`chaos_seed`] (CEER_FAULT_SEED, default
//! 7), so CI can replay the whole suite under several fixed seeds: the
//! injected schedule is a pure function of `(seed, site, call)`, and the
//! determinism tests assert a byte-identical fault (or readiness-trace)
//! digest across two runs of the same scenario. The scenarios are the
//! classic server killers — slowloris stalls, truncated requests,
//! mid-response disconnects, reload races against a failing disk,
//! poisoned locks, floods past the connection bound, spurious wakeups,
//! partial writes, accept storms — and the assertions are always the
//! same shape: the server answers (or closes) within its deadlines,
//! keeps serving afterwards, and its robustness counters account for
//! every shed, timed-out, and errored request.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ceer::faults::{injector, none, FaultPlan};
use ceer::model::{Ceer, CeerModel, EstimateOptions, FitConfig};
use ceer::serve::api::{self, PredictRequest};
use ceer::serve::evented::{EventedConfig, EventedCore};
use ceer::serve::{
    App, Client, ClientConn, EventedServer, ModelRegistry, RetryPolicy, ServerConfig,
};
use ceer::sim::{ClientId, SimSource};
use ceer_graph::models::CnnId;

/// One tiny fitted model shared by every test in this file.
fn model() -> &'static CeerModel {
    static MODEL: OnceLock<CeerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11],
            iterations: 2,
            parallel_degrees: vec![1, 2],
            seed: 77,
            ..FitConfig::default()
        })
    })
}

/// The seed behind every plan in this suite. CI sweeps it (7, 1234, plus
/// one randomized seed for the `sim_` scenarios); each value must
/// produce a passing run with its own reproducible schedule.
fn chaos_seed() -> u64 {
    std::env::var("CEER_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(7)
}

fn plan(spec: &str) -> FaultPlan {
    FaultPlan::parse(chaos_seed(), spec).expect("valid chaos plan spec")
}

fn start(faults: Option<FaultPlan>, tweak: impl FnOnce(&mut ServerConfig)) -> EventedServer {
    let mut config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity: 16,
        faults,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    EventedServer::start(&config, ModelRegistry::from_model(model().clone()))
        .expect("server starts")
}

/// Opens a raw socket to the server with a generous client-side read
/// timeout, so a server that wrongly hangs fails the test instead of
/// wedging it.
fn raw_socket(server: &EventedServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// Reads until EOF (or client-side timeout) and returns what arrived.
fn drain(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn slowloris_requests_time_out_and_are_counted() {
    let server = start(None, |c| {
        c.read_timeout_ms = 200;
        c.request_timeout_ms = 1_000;
    });

    // Half a request, then silence: headers promise a body that never comes.
    let mut stream = raw_socket(&server);
    stream.write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 64\r\n\r\n").unwrap();
    let started = Instant::now();
    let response = drain(&mut stream);
    let elapsed = started.elapsed();

    assert!(
        response.starts_with("HTTP/1.1 408"),
        "a stalled request must be answered with 408, got: {response:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "the 408 must arrive within the server deadlines, took {elapsed:?}"
    );

    // The server is still healthy and the timeout is accounted for.
    let client = Client::new(server.addr());
    client.health().expect("server healthy after slowloris");
    let snapshot = client.metrics().expect("metrics after slowloris");
    assert_eq!(snapshot.robustness.timeouts, 1, "exactly one timed-out request");
    server.shutdown();
}

#[test]
fn truncated_requests_close_cleanly_and_are_counted() {
    let server = start(None, |c| c.read_timeout_ms = 500);

    // A body cut off mid-stream: the peer half-closes after 4 of 64 bytes.
    let mut stream = raw_socket(&server);
    stream.write_all(b"POST /predict HTTP/1.1\r\ncontent-length: 64\r\n\r\nhalf").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let response = drain(&mut stream);
    assert!(
        response.is_empty(),
        "a truncated request has no valid reply; the connection just closes, got: {response:?}"
    );

    let client = Client::new(server.addr());
    client.health().expect("server healthy after truncated request");
    let snapshot = client.metrics().expect("metrics after truncated request");
    assert_eq!(snapshot.robustness.io_errors, 1, "the truncation is accounted as an I/O error");
    server.shutdown();
}

#[test]
fn mid_response_disconnects_leave_the_server_healthy() {
    let server = start(None, |_| {});

    // Eight clients that send a full request and vanish without reading
    // the answer; the write side may or may not error depending on how
    // much the kernel buffered, so only server health is asserted.
    for _ in 0..8 {
        let mut stream = raw_socket(&server);
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        drop(stream);
    }

    let client = Client::new(server.addr());
    client.health().expect("server healthy after disconnect storm");
    client.metrics().expect("metrics endpoint healthy after disconnect storm");
    server.shutdown();
}

#[test]
fn injected_write_faults_error_deterministically_and_are_counted() {
    // The evented loop writes each response in one nonblocking pass, so a
    // single injected failure at write call 1 loses exactly response 1;
    // later responses write cleanly.
    let server = start(Some(plan("serve.http.write=err@#1")), |_| {});
    let client = Client::new(server.addr());

    let first = client.health();
    assert!(first.is_err(), "response 1's write is injected to fail");
    client.health().expect("later responses write cleanly again");

    let snapshot = client.metrics().expect("metrics");
    assert_eq!(snapshot.robustness.io_errors, 1, "the injected write failure is accounted");
    assert_eq!(server.fault_digest(), "serve.http.write#1:err\n");
    server.shutdown();
}

#[test]
fn fault_schedules_replay_byte_identically() {
    // The full-stack flavour of determinism: run the same scenario twice
    // and require the same injected schedule, byte for byte. The sites are
    // connection-granular (accept, dispatch) so the call sequence is exactly
    // the request sequence, independent of scheduling or packetization.
    let spec = "serve.dispatch=err@0.4;serve.accept=delay:1@0.25";
    let run = || {
        let server = start(Some(plan(spec)), |_| {});
        let client = Client::new(server.addr());
        for _ in 0..12 {
            // Dropped connections surface as client errors; they are the
            // point, not a failure.
            let _ = client.health();
        }
        let digest = server.fault_digest();
        server.shutdown();
        digest
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed, same scenario, same schedule");
    assert!(!first.is_empty(), "p=0.4 over 12 calls injects at least once for any seed we sweep");

    // And the pure-function flavour: two injectors built from the same
    // plan agree on the whole schedule without any server at all.
    let a = injector(plan(spec)).expect("non-empty plan");
    let b = injector(plan(spec)).expect("non-empty plan");
    assert_eq!(a.schedule("serve.dispatch", 1_000), b.schedule("serve.dispatch", 1_000));
    assert_eq!(a.schedule("serve.accept", 1_000), b.schedule("serve.accept", 1_000));
}

#[test]
fn reload_races_with_a_failing_disk_never_corrupt_the_served_model() {
    // The model file is valid the whole time; the *reads* of it fail with
    // p=0.5. A failed reload must leave the old model serving, so every
    // prediction stays byte-identical throughout the race.
    let path = std::env::temp_dir().join(format!("ceer-chaos-reload-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_vec(model()).unwrap()).unwrap();
    let config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity: 16,
        faults: Some(plan("serve.reload.read=err@0.5")),
        ..ServerConfig::default()
    };
    let server = EventedServer::start(&config, ModelRegistry::load(&path).unwrap()).unwrap();

    let request = PredictRequest {
        cnn: "vgg-11".to_string(),
        gpu: None,
        gpus: 2,
        batch: 32,
        samples: 64_000,
        options: EstimateOptions::default(),
    };
    let expected =
        serde_json::to_string_pretty(&api::predict(model(), &request).unwrap()).unwrap() + "\n";

    let (reload_ok, reload_failed) = std::thread::scope(|scope| {
        let predictors: Vec<_> = (0..2)
            .map(|_| {
                let request = &request;
                let expected = &expected;
                let client = Client::new(server.addr());
                scope.spawn(move || {
                    for _ in 0..8 {
                        let body = serde_json::to_string(request).unwrap();
                        let raw = client.request("POST", "/predict", body.as_bytes()).unwrap();
                        assert_eq!(raw.status, 200, "predictions never degrade mid-reload");
                        assert_eq!(&raw.body, expected, "never a partially-loaded model");
                    }
                })
            })
            .collect();

        let reloader = {
            let client = Client::new(server.addr());
            scope.spawn(move || {
                let (mut ok, mut failed) = (0u64, 0u64);
                for _ in 0..8 {
                    let raw = client.request("POST", "/reload", b"").unwrap();
                    match raw.status {
                        200 => ok += 1,
                        500 => {
                            assert!(
                                raw.body.contains("error"),
                                "reload failures are structured, got: {}",
                                raw.body
                            );
                            failed += 1;
                        }
                        other => panic!("unexpected /reload status {other}: {}", raw.body),
                    }
                }
                (ok, failed)
            })
        };

        for p in predictors {
            p.join().unwrap();
        }
        reloader.join().unwrap()
    });

    assert_eq!(reload_ok + reload_failed, 8);
    assert!(reload_failed > 0, "p=0.5 over 8 reloads injects at least once for swept seeds");
    let client = Client::new(server.addr());
    let snapshot = client.metrics().unwrap();
    assert_eq!(snapshot.robustness.reload_failures, reload_failed);
    assert_eq!(snapshot.model_reloads, reload_ok);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn poisoned_metrics_lock_recovers_without_losing_the_server() {
    // The second metrics-record call panics while holding the endpoints
    // lock. The event loop's per-connection catch_unwind contains it;
    // every later lock access heals the poison, so the server keeps
    // answering and keeps counting.
    let server = start(Some(plan("serve.metrics.lock=poison@#2")), |_| {});
    let client = Client::new(server.addr());

    client.health().expect("call 1 records cleanly");
    // Call 2 panics after the handler ran but before the response write,
    // so the client sees a dropped connection.
    let poisoned = client.health();
    assert!(poisoned.is_err(), "the poisoned request dies before its response");

    client.health().expect("the server answers after the poison");
    let deadline = Instant::now() + Duration::from_secs(5);
    let recovered = loop {
        let snapshot = client.metrics().expect("the poisoned lock heals for readers");
        if snapshot.robustness.panics_recovered > 0 || Instant::now() > deadline {
            break snapshot.robustness.panics_recovered;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(recovered, 1, "the contained panic is accounted exactly once");
    server.shutdown();
}

#[test]
fn floods_past_the_connection_bound_shed_429_and_every_request_is_accounted() {
    // One connection slot and every dispatch delayed 50ms: a burst of 12
    // must split cleanly into served (200) and shed (429) with nothing
    // lost, and the shed counter must match the 429s observed.
    let server = start(Some(plan("serve.dispatch=delay:50@1")), |c| {
        c.max_pending = 1;
    });

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|_| {
                let client = Client::new(server.addr());
                scope.spawn(move || client.get("/healthz").expect("every request gets an answer"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap().status).collect()
    });

    let served = statuses.iter().filter(|s| **s == 200).count() as u64;
    let shed = statuses.iter().filter(|s| **s == 429).count() as u64;
    assert_eq!(served + shed, 12, "only 200 or 429, nothing dropped: {statuses:?}");
    assert!(served > 0, "the loop drains the backlog");

    let client = Client::new(server.addr());
    let snapshot = client.metrics().unwrap();
    assert_eq!(snapshot.robustness.shed, shed, "every 429 is accounted as shed");
    server.shutdown();
}

#[test]
fn retry_client_recovers_from_an_injected_drop_and_is_counted() {
    // The very first dispatched request is dropped; a GET through the
    // retrying client must transparently recover on attempt 2, and the
    // server must see (and count) the retry marker.
    let server = start(Some(plan("serve.dispatch=err@#1")), |_| {});
    let client = Client::new(server.addr()).with_retry(RetryPolicy::retries(3, chaos_seed()));

    let response = client.get("/healthz").expect("retry recovers the dropped connection");
    assert_eq!(response.status, 200);

    let snapshot = Client::new(server.addr()).metrics().unwrap();
    assert_eq!(snapshot.robustness.retried_requests, 1, "attempt 2 carried the retry marker");
    assert_eq!(snapshot.robustness.io_errors, 1, "the injected drop is accounted");
    assert_eq!(server.fault_digest(), "serve.dispatch#1:err\n");
    server.shutdown();
}

#[test]
fn keep_alive_client_reuses_one_connection_and_retries_with_one_marker() {
    // The evented transport keeps successful connections open. A
    // ClientConn must ride one TCP stream across requests, recover from
    // an injected mid-stream drop by retrying, and — the regression this
    // guards — carry exactly one X-Ceer-Attempt header on the reused
    // connection (the server counts one retried request, not a parade of
    // stacked markers).
    let server = start(Some(plan("serve.dispatch=err@#2")), |_| {});
    let mut conn = ClientConn::new(server.addr());

    let first = conn.request("GET", "/healthz", b"").expect("first request");
    assert_eq!(first.status, 200);
    assert!(conn.connected(), "a successful exchange keeps the connection");

    // Request #2 is dropped by the fault plan; the retry loop recovers.
    let retry = RetryPolicy::retries(3, chaos_seed());
    let second = conn.request_with_retry(&retry, "GET", "/zoo", b"").expect("retry recovers");
    assert_eq!(second.status, 200);

    let third = conn.request("GET", "/healthz", b"").expect("connection still serves");
    assert_eq!(third.status, 200);

    let snapshot = Client::new(server.addr()).metrics().unwrap();
    assert_eq!(
        snapshot.robustness.retried_requests, 1,
        "the recovered attempt carried exactly one retry marker"
    );
    assert_eq!(server.fault_digest(), "serve.dispatch#2:err\n");
    server.shutdown();
}

#[test]
fn keep_alive_socket_answers_pipelined_requests_in_order() {
    // Two requests written back-to-back on one raw socket: the evented
    // server must answer both, in order, on the same connection.
    let server = start(None, |_| {});
    let mut stream = raw_socket(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /zoo HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let all = drain(&mut stream);
    let responses: Vec<_> = all.match_indices("HTTP/1.1 200").collect();
    assert_eq!(responses.len(), 2, "both pipelined requests answered, got: {all:?}");
    assert!(
        all.contains("\"status\": \"ok\"") && all.contains("VGG-11"),
        "healthz then zoo bodies arrive in order: {all:?}"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_work() {
    let server = start(None, |_| {});
    let addr = server.addr();
    let client = Client::new(addr);
    client.health().expect("serving before shutdown");
    assert_eq!(client.get("/readyz").unwrap().status, 200);

    server.shutdown();

    // After the drain completes the listener is gone: either the connect
    // is refused or the socket closes without an answer.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            drain(&mut stream).is_empty()
        }
    };
    assert!(refused, "a shut-down server accepts no new work");
}

// ---------------------------------------------------------------------------
// Simulated scenarios: the same EventedCore state machines, driven by
// ceer-sim's deterministic readiness source over a virtual clock. No
// sockets, no threads, no wall time — a run is a pure function of
// (seed, scenario), and CI replays these under a randomized seed too.
// ---------------------------------------------------------------------------

fn sim_cfg() -> EventedConfig {
    EventedConfig {
        read_timeout_ms: 200,
        request_timeout_ms: 1_000,
        max_body_bytes: 64 * 1024,
        max_conns: 1024,
    }
}

/// An event loop over a scripted readiness source, serving the shared
/// test model.
fn sim_core(
    source: SimSource,
    faults: Option<FaultPlan>,
    cfg: EventedConfig,
) -> EventedCore<SimSource> {
    let clock = source.clock();
    let app = Arc::new(App::new(
        ModelRegistry::from_model(model().clone()),
        16,
        faults.map_or_else(none, injector),
    ));
    EventedCore::new(app, source, clock, cfg)
}

/// The body of an HTTP response captured by the sim driver.
fn body_of(received: &[u8]) -> &[u8] {
    let text = received;
    let mut i = 0;
    while i + 4 <= text.len() {
        if &text[i..i + 4] == b"\r\n\r\n" {
            return &text[i + 4..];
        }
        i += 1;
    }
    &[]
}

#[test]
fn sim_spurious_wakeups_change_nothing_and_replay_byte_identically() {
    // Three sequential clients; the faulty runs add seeded spurious
    // wakeups (readable reports with nothing to read) at 90% of waits.
    // A correct loop treats them as no-ops: every byte the clients see
    // must be identical with and without the noise.
    let run = |spurious: Option<&str>| {
        let mut source = match spurious {
            Some(spec) => SimSource::with(injector(plan(spec))),
            None => SimSource::new(),
        };
        let mut clients = Vec::new();
        for (i, at) in [(0u64, 1u64), (1, 50), (2, 100)] {
            let client = source.connect_at(at);
            let path = if i == 1 { "/zoo" } else { "/healthz" };
            let request = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
            source.send_at(client, at + 1, request.as_bytes());
            clients.push(client);
        }
        let mut core = sim_core(source, None, sim_cfg());
        core.run_until(2_000, 100_000).expect("sim run");
        let received: Vec<Vec<u8>> =
            clients.iter().map(|&c| core.source().received(c).to_vec()).collect();
        let all_closed = clients.iter().all(|&c| core.source().server_closed(c));
        (received, all_closed, core.source().digest())
    };

    let (clean, clean_closed, _) = run(None);
    assert!(clean_closed, "every Connection: close request ends in a server close");
    for received in &clean {
        assert!(received.starts_with(b"HTTP/1.1 200"), "expected 200s in the clean run");
    }

    let spec = "serve.loop.spurious=err@0.9";
    let (noisy, noisy_closed, digest_a) = run(Some(spec));
    let (_, _, digest_b) = run(Some(spec));
    assert_eq!(noisy, clean, "spurious wakeups must not change a single response byte");
    assert!(noisy_closed);
    assert_eq!(digest_a, digest_b, "same seed, same scenario, same readiness trace");
    assert!(
        digest_a.contains("spurious"),
        "p=0.9 over a multi-round run injects at least one spurious wake"
    );
}

#[test]
fn sim_partial_writes_mid_header_deliver_identical_bytes() {
    // A 7-byte write window chops the response inside "HTTP/1.1 200 OK"
    // itself: the loop must thread dozens of WouldBlock/writable-wake
    // rounds and still deliver exactly the unconstrained bytes.
    let run = |window: Option<usize>| {
        let mut source = SimSource::new();
        if let Some(bytes) = window {
            source = source.with_write_window(bytes);
        }
        let client = source.connect_at(1);
        source.send_at(client, 2, b"GET /zoo HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut core = sim_core(source, None, sim_cfg());
        core.run_until(2_000, 100_000).expect("sim run");
        (
            core.source().received(client).to_vec(),
            core.source().server_closed(client),
            core.source().digest(),
        )
    };

    let (full, full_closed, _) = run(None);
    assert!(full.starts_with(b"HTTP/1.1 200"), "the /zoo response is a 200");
    assert!(full_closed);
    assert!(full.len() > 100, "the zoo listing is long enough to need many windows");

    let (chopped, chopped_closed, digest_a) = run(Some(7));
    assert_eq!(chopped, full, "partial writes must reassemble to the exact same bytes");
    assert!(chopped_closed, "the connection still closes once the response drains");

    let (_, _, digest_b) = run(Some(7));
    assert_eq!(digest_a, digest_b, "same scenario, same write-chop trace");
    let writes = digest_a.matches("write t").count();
    assert!(writes > 10, "a 7-byte window forces many partial writes, saw {writes}");
}

#[test]
fn sim_accept_storm_10k_connections_on_one_core() {
    // 10,000 connections in a 200ms storm (50 per virtual millisecond),
    // each sending one request — all on the single simulated core. Every
    // client must get its 200 and a clean close, and the loop must end
    // with nothing leaked.
    let run = || {
        let mut source = SimSource::new();
        let request = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
        let clients: Vec<ClientId> = (0..10_000u64)
            .map(|i| {
                let at = i / 50;
                let client = source.connect_at(at);
                source.send_at(client, at, request);
                client
            })
            .collect();
        let mut cfg = sim_cfg();
        cfg.max_conns = 16_384;
        let mut core = sim_core(source, None, cfg);
        core.run_until(10_000, 5_000_000).expect("sim run");
        let all_ok = clients.iter().all(|&c| {
            core.source().received(c).starts_with(b"HTTP/1.1 200") && core.source().server_closed(c)
        });
        (all_ok, core.open_conns(), core.source().digest())
    };

    let (all_ok, open, digest_a) = run();
    assert!(all_ok, "all 10k clients get a 200 and a close");
    assert_eq!(open, 0, "no connection leaks after the storm");
    let (_, _, digest_b) = run();
    assert_eq!(digest_a, digest_b, "a 10k-connection storm still replays byte-identically");
}

#[test]
fn sim_timer_deadline_fires_during_batched_dispatch() {
    // Two /predict cache misses arrive 1ms apart while a third connection
    // stalls mid-request; the misses are answered inline as they arrive,
    // and the stalled one's 3ms read deadline pops from the timer wheel
    // right after. The stalled client must get its 408 on time, both
    // misses must answer byte-exactly, and the whole interleaving must
    // replay byte-identically.
    let predict = |batch: u64| {
        let request = PredictRequest {
            cnn: "vgg-11".to_string(),
            gpu: None,
            gpus: 2,
            batch,
            samples: 64_000,
            options: EstimateOptions::default(),
        };
        let body = serde_json::to_string(&request).unwrap();
        let wire = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let expected =
            serde_json::to_string_pretty(&api::predict(model(), &request).unwrap()).unwrap() + "\n";
        (wire, expected)
    };
    let (wire_a, expect_a) = predict(8);
    let (wire_b, expect_b) = predict(16);

    let run = || {
        let mut source = SimSource::new();
        let miss_a = source.connect_at(0);
        source.send_at(miss_a, 1, wire_a.as_bytes());
        let miss_b = source.connect_at(0);
        source.send_at(miss_b, 2, wire_b.as_bytes());
        let stalled = source.connect_at(0);
        source.send_at(stalled, 1, b"POST /predict HTTP/1.1\r\ncontent-length: 64\r\n\r\n");

        let mut cfg = sim_cfg();
        cfg.read_timeout_ms = 3;
        let mut core = sim_core(source, None, cfg);
        core.run_until(5_000, 100_000).expect("sim run");

        let timeouts = {
            let app = core.app();
            app.metrics
                .snapshot(app.cache.stats(), app.registry.reloads(), None)
                .robustness
                .timeouts
        };
        (
            core.source().received(miss_a).to_vec(),
            core.source().received(miss_b).to_vec(),
            core.source().received(stalled).to_vec(),
            timeouts,
            core.source().digest(),
        )
    };

    let (got_a, got_b, got_stalled, timeouts, digest_a) = run();
    assert!(got_a.starts_with(b"HTTP/1.1 200"), "batched miss A answers 200");
    assert!(got_b.starts_with(b"HTTP/1.1 200"), "batched miss B answers 200");
    assert_eq!(body_of(&got_a), expect_a.as_bytes(), "batched answer A is byte-exact");
    assert_eq!(body_of(&got_b), expect_b.as_bytes(), "batched answer B is byte-exact");
    assert!(
        got_stalled.starts_with(b"HTTP/1.1 408"),
        "the stalled request times out mid-window, got: {:?}",
        String::from_utf8_lossy(&got_stalled)
    );
    assert_eq!(timeouts, 1, "exactly one timed-out request");

    let (_, _, _, _, digest_b2) = run();
    assert_eq!(digest_a, digest_b2, "deadline-during-batch interleaving replays byte-identically");
}

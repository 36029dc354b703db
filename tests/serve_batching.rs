//! Concurrent `/predict` cache misses: N clients arriving together must
//! receive responses byte-identical to the same N requests served one at
//! a time on otherwise idle servers, and the loop must keep one deadline
//! timer per connection however many requests it answers.
//!
//! Runs entirely under the ceer-sim readiness driver and virtual clock,
//! so "concurrent" is exact (same virtual millisecond) and a run is a
//! pure function of the scenario.

use std::sync::{Arc, OnceLock};

use ceer::faults::none;
use ceer::model::{Ceer, CeerModel, EstimateOptions, FitConfig};
use ceer::serve::api::PredictRequest;
use ceer::serve::evented::{EventedConfig, EventedCore};
use ceer::serve::{App, ModelRegistry};
use ceer::sim::SimSource;
use ceer_graph::models::CnnId;

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

/// Distinct batch sizes: every request is a distinct cache key, so each
/// one is a miss that must be computed.
const BATCHES: [u64; 4] = [4, 8, 16, 32];

fn wire(batch: u64) -> String {
    let request = PredictRequest {
        cnn: "vgg-11".to_string(),
        gpu: None,
        gpus: 2,
        batch,
        samples: 64_000,
        options: EstimateOptions::default(),
    };
    let body = serde_json::to_string(&request).unwrap();
    format!(
        "POST /predict HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn cfg() -> EventedConfig {
    EventedConfig {
        read_timeout_ms: 200,
        request_timeout_ms: 1_000,
        max_body_bytes: 64 * 1024,
        max_conns: 1024,
    }
}

fn core(source: SimSource) -> EventedCore<SimSource> {
    let clock = source.clock();
    let app = Arc::new(App::new(ModelRegistry::from_model(model().clone()), 16, none()));
    EventedCore::new(app, source, clock, cfg())
}

/// One request on an otherwise idle server: the reference.
fn serve_single(batch: u64) -> Vec<u8> {
    let mut source = SimSource::new();
    let client = source.connect_at(0);
    source.send_at(client, 1, wire(batch).as_bytes());
    let mut core = core(source);
    core.run_until(5_000, 100_000).expect("sim run");
    assert!(core.source().server_closed(client), "single request conn closes");
    core.source().received(client).to_vec()
}

/// N concurrent requests (same virtual millisecond) through one server.
/// Returns each client's full response bytes plus the trace digest.
fn serve_concurrent() -> (Vec<Vec<u8>>, String) {
    let mut source = SimSource::new();
    let clients: Vec<_> = BATCHES
        .iter()
        .map(|&batch| {
            let client = source.connect_at(0);
            source.send_at(client, 1, wire(batch).as_bytes());
            client
        })
        .collect();
    let mut core = core(source);
    core.run_until(5_000, 100_000).expect("sim run");
    let received = clients
        .iter()
        .map(|&client| {
            assert!(core.source().server_closed(client), "conn closes after its response");
            core.source().received(client).to_vec()
        })
        .collect();
    (received, core.source().digest())
}

#[test]
fn batched_responses_are_byte_identical_to_sequential_singles() {
    let singles: Vec<Vec<u8>> = BATCHES.iter().map(|&batch| serve_single(batch)).collect();
    for single in &singles {
        assert!(single.starts_with(b"HTTP/1.1 200"), "reference responses are 200s");
    }

    let (concurrent, _) = serve_concurrent();
    for (i, (got, want)) in concurrent.iter().zip(&singles).enumerate() {
        assert_eq!(
            got, want,
            "request #{i} (batch={}) must be byte-identical to its sequential single",
            BATCHES[i]
        );
    }
}

#[test]
fn concurrent_misses_replay_byte_identically() {
    // The interleaving of concurrent misses is a pure function of the
    // scenario: a second run produces an identical trace.
    let (concurrent, digest_a) = serve_concurrent();
    assert_eq!(concurrent.len(), BATCHES.len());
    let (_, digest_b) = serve_concurrent();
    assert_eq!(digest_a, digest_b, "concurrent run replays byte-identically");
}

/// An answered `/predict` re-arms its connection's deadline timer, so a
/// keep-alive connection holds one live wheel entry however many requests
/// it serves — not one per request for a whole read timeout.
#[test]
fn keep_alive_predicts_keep_one_timer_per_connection() {
    const REQUESTS: u64 = 40;
    let mut source = SimSource::new();
    let client = source.connect_at(0);
    for i in 0..REQUESTS {
        let keep_alive = wire(1 + i).replace("Connection: close\r\n", "");
        source.send_at(client, 1 + 2 * i, keep_alive.as_bytes());
    }
    let mut core = core(source);
    // Stop before the first read deadline (200ms), while every timer
    // armed so far is still pending.
    core.run_until(150, 100_000).expect("sim run");
    let received = String::from_utf8_lossy(core.source().received(client)).into_owned();
    assert_eq!(received.matches("HTTP/1.1 200").count() as u64, REQUESTS);
    assert!(!core.source().server_closed(client), "the connection stays open");
    assert!(core.armed_timers() <= 1, "{} timers armed for one connection", core.armed_timers());
}

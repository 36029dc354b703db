//! Integration tests for the `ceer-serve` prediction service: a real server
//! on an OS-assigned port, exercised through the blocking clients.

use std::net::TcpStream;
use std::sync::OnceLock;

use ceer::model::{Ceer, CeerModel, FitConfig};
use ceer::serve::api::{self, PredictRequest, RecommendRequest};
use ceer::serve::{Client, ClientConn, EventedServer, ModelRegistry, ServerConfig};
use ceer_graph::models::CnnId;

use proptest::prelude::*;

/// One tiny fitted model shared by every test in this file.
fn model() -> &'static CeerModel {
    static MODEL: OnceLock<CeerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1],
            iterations: 3,
            parallel_degrees: vec![1, 2],
            seed: 77,
            ..FitConfig::default()
        })
    })
}

fn start(cache_capacity: usize) -> EventedServer {
    // Honour CEER_FAULT_PLAN/CEER_FAULT_SEED so the CI stress loop can run
    // this whole suite under a (delay-only) fault plan; a typo'd plan fails
    // loudly here instead of silently injecting nothing.
    let faults = ceer::faults::FaultPlan::from_env().expect("valid CEER_FAULT_PLAN");
    let config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity,
        faults,
        ..ServerConfig::default()
    };
    EventedServer::start(&config, ModelRegistry::from_model(model().clone()))
        .expect("server starts")
}

fn predict_request(cnn: &str) -> PredictRequest {
    PredictRequest {
        cnn: cnn.to_string(),
        gpu: None,
        gpus: 2,
        batch: 32,
        samples: 64_000,
        options: ceer::model::EstimateOptions::default(),
    }
}

#[test]
fn concurrent_predictions_are_byte_identical_and_hit_the_cache() {
    let server = start(256);
    let client = Client::new(server.addr());
    let request = predict_request("vgg-11");
    let expected_body =
        serde_json::to_string_pretty(&api::predict(model(), &request).unwrap()).unwrap() + "\n";

    // Warm the cache with one serial request: without it, concurrent cold
    // requests can all miss before the first insert lands, making the hit
    // count below timing-dependent.
    let warmup = client
        .request("POST", "/predict", serde_json::to_string(&request).unwrap().as_bytes())
        .unwrap();
    assert_eq!(warmup.status, 200);
    assert_eq!(warmup.body, expected_body);

    // Four client threads issuing the same request concurrently; every one
    // must come from cache — all byte-identical.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let request = &request;
                scope.spawn(move || {
                    let mut bodies = Vec::new();
                    for _ in 0..3 {
                        let body = serde_json::to_string(request).unwrap();
                        let raw = client.request("POST", "/predict", body.as_bytes()).unwrap();
                        assert_eq!(raw.status, 200);
                        bodies.push(raw.body);
                    }
                    bodies
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(bodies.len(), 12);
    for body in &bodies {
        assert_eq!(body, &expected_body, "every response must be byte-identical");
    }

    let metrics = client.metrics().unwrap();
    let predict = &metrics.endpoints["POST /predict"];
    assert_eq!(predict.requests, 13);
    assert_eq!(predict.errors, 0);
    assert!(predict.latency.unwrap().count > 0);
    assert_eq!(metrics.cache.misses, 1, "only the warm-up computes");
    assert_eq!(metrics.cache.hits, 12, "12 identical requests → 12 cache hits");
    assert!(metrics.cache.hit_rate > 0.0);
    server.shutdown();
}

#[test]
fn typed_client_round_trips_every_endpoint() {
    let server = start(64);
    let client = Client::new(server.addr());

    client.health().unwrap();

    let request = predict_request("inception-v1");
    assert_eq!(client.predict(&request).unwrap(), api::predict(model(), &request).unwrap());

    let recommend = RecommendRequest {
        cnn: "vgg-11".to_string(),
        objective: None,
        samples: 64_000,
        batch: 32,
        max_gpus: 2,
        epochs: 1,
        market: false,
        memory_fit: false,
    };
    assert_eq!(client.recommend(&recommend).unwrap(), api::recommend(model(), &recommend).unwrap());

    assert_eq!(client.zoo().unwrap(), api::zoo());
    assert_eq!(client.catalog().unwrap(), api::catalog());
    server.shutdown();
}

#[test]
fn malformed_and_unknown_requests_answer_http_errors() {
    let server = start(64);
    let client = Client::new(server.addr());

    // Not JSON at all.
    let raw = client.request("POST", "/predict", b"this is not json").unwrap();
    assert_eq!(raw.status, 400);
    assert!(raw.body.contains("error"));

    // Valid JSON, invalid request.
    let raw = client.request("POST", "/predict", br#"{"cnn": "mobilenet"}"#).unwrap();
    assert_eq!(raw.status, 400);
    assert!(raw.body.contains("mobilenet"));

    let raw = client.request("POST", "/predict", br#"{"cnn": "vgg-11", "gpus": 0}"#).unwrap();
    assert_eq!(raw.status, 400);

    // Unknown path and wrong method.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/predict").unwrap().status, 405);
    assert_eq!(client.request("DELETE", "/zoo", b"").unwrap().status, 405);

    // Reload without a backing file must fail without killing the model.
    assert!(client.reload().unwrap_err().contains("500"));
    client.health().unwrap();

    let metrics = client.metrics().unwrap();
    assert!(metrics.endpoints["POST /predict"].errors >= 3);
    assert_eq!(metrics.endpoints["GET (unknown)"].requests, 1);
    server.shutdown();
}

#[test]
fn reload_swaps_the_model_and_clears_the_cache() {
    let path = std::env::temp_dir().join(format!("ceer-serve-it-{}.json", std::process::id()));
    std::fs::write(&path, serde_json::to_vec(model()).unwrap()).unwrap();
    let config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    let server = EventedServer::start(&config, ModelRegistry::load(&path).unwrap()).unwrap();
    let client = Client::new(server.addr());

    let request = predict_request("vgg-11");
    let first = client.predict(&request).unwrap();
    client.predict(&request).unwrap(); // cache hit
    assert_eq!(client.metrics().unwrap().cache.entries, 1);

    assert_eq!(client.reload().unwrap(), 1);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.cache.entries, 0, "reload must clear the cache");
    assert_eq!(metrics.model_reloads, 1);

    // Same file on disk → the re-read model predicts identically.
    assert_eq!(client.predict(&request).unwrap(), first);
    std::fs::remove_file(&path).ok();
    server.shutdown();
}

#[test]
fn readyz_reports_ready_while_serving() {
    let server = start(16);
    let client = Client::new(server.addr());
    let raw = client.get("/readyz").unwrap();
    assert_eq!(raw.status, 200);
    assert!(raw.body.contains("ready"));
    // Wrong method is 405, not 404: the route exists.
    assert_eq!(client.request("POST", "/readyz", b"").unwrap().status, 405);
    server.shutdown();
}

#[test]
fn oversized_bodies_answer_413_and_are_counted() {
    let config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity: 16,
        max_body_bytes: 64,
        ..ServerConfig::default()
    };
    let server = EventedServer::start(&config, ModelRegistry::from_model(model().clone()))
        .expect("server starts");
    let client = Client::new(server.addr());

    let huge = vec![b'x'; 65];
    let raw = client.request("POST", "/predict", &huge).unwrap();
    assert_eq!(raw.status, 413);
    assert!(raw.body.contains("65"), "body names the declared size: {}", raw.body);
    assert!(raw.body.contains("64"), "body names the limit: {}", raw.body);

    // The server is fully alive afterwards, and the rejection is counted.
    client.health().unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.robustness.body_limit_rejections, 1);
    assert_eq!(metrics.endpoints["(body-too-large)"].errors, 1);
    server.shutdown();
}

#[test]
fn malformed_requests_are_counted() {
    let server = start(16);
    let client = Client::new(server.addr());
    // A raw, non-HTTP payload: the reader classifies it as malformed.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    use std::io::{Read, Write};
    stream.write_all(b"this is not http\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 400 "), "got {out:?}");

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.robustness.malformed, 1);
    server.shutdown();
}

/// Regression: the server closes the connection after every error
/// response and says so with `Connection: close`. A keep-alive client
/// that held on to the closed stream failed the next request with
/// `malformed status line ""`; it must reconnect instead.
#[test]
fn keep_alive_client_reconnects_after_an_error_closes_the_connection() {
    let server = start(16);
    let mut conn = ClientConn::new(server.addr());
    assert_eq!(conn.request("GET", "/healthz", b"").unwrap().status, 200);
    assert_eq!(conn.request("POST", "/predict", b"this is not json").unwrap().status, 400);
    let failed: Vec<String> = (0..20)
        .filter_map(|_| match conn.request("GET", "/healthz", b"") {
            Ok(response) if response.status == 200 => None,
            Ok(response) => Some(format!("status {}", response.status)),
            Err(error) => Some(error),
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} of 20 requests after the error failed: {failed:?}",
        failed.len()
    );
    assert!(conn.connected(), "successes keep the new connection open");
    server.shutdown();
}

/// Regression: more GPUs than an instance offers used to panic inside the
/// estimator, so the client read no response at all. Now it is a 400
/// naming the limit, the connection keeps working, and nothing panicked.
#[test]
fn too_many_gpus_answer_400_without_a_panic() {
    let server = start(16);
    let mut conn = ClientConn::new(server.addr());
    let too_many: &[&[u8]] = &[
        br#"{"cnn": "vgg16", "gpus": 8}"#,
        br#"{"cnn": "vgg16", "gpus": 5, "gpu": "t4"}"#,
        br#"{"cnn": "vgg16", "gpus": 9, "gpu": "p2"}"#,
    ];
    for body in too_many {
        let response = conn.request("POST", "/predict", body).unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("at most"), "{}", response.body);
        let next = conn.request("POST", "/predict", br#"{"cnn": "vgg16", "gpus": 2}"#).unwrap();
        assert_eq!(next.status, 200, "{}", next.body);
    }
    let recommend = conn.request("POST", "/recommend", br#"{"cnn": "vgg11", "max_gpus": 5}"#);
    assert_eq!(recommend.unwrap().status, 400);
    // P2 sells an 8-GPU instance.
    let p2 = conn.request("POST", "/predict", br#"{"cnn": "vgg16", "gpus": 8, "gpu": "p2"}"#);
    assert_eq!(p2.unwrap().status, 200);

    let metrics = Client::new(server.addr()).metrics().unwrap();
    assert_eq!(metrics.robustness.panics_recovered, 0);
    assert_eq!(metrics.endpoints["POST /predict"].errors, 3);
    server.shutdown();
}

/// Regression: a `batch` of 2^62 on 4 GPUs wrapped the epoch arithmetic
/// to a division by zero (and smaller huge batches answered wrong
/// numbers). Now every entry point answers 400 naming the limit, and the
/// same keep-alive client goes on being served.
#[test]
fn huge_batches_answer_400_naming_the_limit() {
    let server = start(16);
    let mut conn = ClientConn::new(server.addr());
    let huge: &[(&str, &[u8])] = &[
        ("/predict", br#"{"cnn": "vgg11", "batch": 4611686018427387904, "gpus": 4}"#),
        ("/predict", br#"{"cnn": "vgg16", "batch": 65537}"#),
        ("/recommend", br#"{"cnn": "vgg11", "batch": 4611686018427387904}"#),
    ];
    for &(path, body) in huge {
        let response = conn.request("POST", path, body).unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("at most 65536"), "{}", response.body);
        let next = conn.request("POST", "/predict", br#"{"cnn": "vgg16", "gpus": 2}"#).unwrap();
        assert_eq!(next.status, 200, "{}", next.body);
    }
    let batch =
        br#"{"requests": [{"cnn": "vgg11"}, {"cnn": "vgg11", "batch": 4611686018427387904}]}"#;
    let response = conn.request("POST", "/predict_batch", batch).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let response: ceer::serve::api::PredictBatchResponse =
        serde_json::from_str(&response.body).unwrap();
    assert!(response.responses[0].response.is_some());
    assert!(response.responses[1].error.as_ref().unwrap().contains("at most 65536"));

    let metrics = Client::new(server.addr()).metrics().unwrap();
    assert_eq!(metrics.robustness.panics_recovered, 0);
    server.shutdown();
}

#[test]
fn predict_batch_answers_too_many_gpus_per_item() {
    use ceer::serve::api::PredictBatchRequest;

    let server = start(16);
    let client = Client::new(server.addr());
    let good = predict_request("vgg-11");
    let bad = PredictRequest { gpus: 8, ..good.clone() };
    let batch = PredictBatchRequest { requests: vec![good.clone(), bad] };
    let response = client.predict_batch(&batch).unwrap();
    assert_eq!(response.responses.len(), 2);
    assert_eq!(response.responses[0].response, Some(api::predict(model(), &good).unwrap()));
    assert!(response.responses[1].response.is_none());
    assert!(response.responses[1].error.as_ref().unwrap().contains("at most 4"));
    assert_eq!(client.metrics().unwrap().robustness.panics_recovered, 0);
    server.shutdown();
}

/// `POST /reload` failure paths: a corrupt, truncated, or wrong-schema
/// model file must leave the previous model serving, answer a structured
/// error, and increment the reload-failure counter — for every flavor of
/// broken file.
#[test]
fn failed_reloads_keep_the_old_model_serving() {
    let path =
        std::env::temp_dir().join(format!("ceer-serve-badreload-{}.json", std::process::id()));
    let good = serde_json::to_vec(model()).unwrap();
    std::fs::write(&path, &good).unwrap();
    let config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        cache_capacity: 16,
        ..ServerConfig::default()
    };
    let server = EventedServer::start(&config, ModelRegistry::load(&path).unwrap()).unwrap();
    let client = Client::new(server.addr());

    let request = predict_request("vgg-11");
    let before = client.predict(&request).unwrap();

    let broken: Vec<(&str, Vec<u8>)> = vec![
        ("corrupt", b"{ this is not json".to_vec()),
        ("truncated", good[..good.len() / 2].to_vec()),
        ("wrong-schema", br#"{"valid": "json", "wrong": "shape"}"#.to_vec()),
    ];
    for (i, (label, bytes)) in broken.iter().enumerate() {
        std::fs::write(&path, bytes).unwrap();
        let raw = client.request("POST", "/reload", b"").unwrap();
        assert_eq!(raw.status, 500, "{label}: reload must fail");
        let parsed: serde_json::Value =
            serde_json::from_str(&raw.body).expect("structured JSON error body");
        assert!(
            parsed.get("error").and_then(serde_json::Value::as_str).is_some(),
            "{label}: error body must carry an \"error\" field: {}",
            raw.body
        );
        // The old model keeps serving, bit-identically.
        assert_eq!(client.predict(&request).unwrap(), before, "{label}");
        let metrics = client.metrics().unwrap();
        assert_eq!(metrics.robustness.reload_failures, (i + 1) as u64, "{label}");
        assert_eq!(metrics.model_reloads, 0, "{label}: no successful reload");
    }

    // Restoring a good file heals reload completely.
    std::fs::write(&path, &good).unwrap();
    assert_eq!(client.reload().unwrap(), 1);
    assert_eq!(client.predict(&request).unwrap(), before);
    std::fs::remove_file(&path).ok();
    server.shutdown();
}

#[test]
fn shutdown_joins_workers_and_stops_accepting() {
    let server = start(64);
    let addr = server.addr();
    let client = Client::new(addr);
    client.health().unwrap();

    // Joins the loop thread; hangs the test if it cannot.
    server.shutdown();

    // The listener is gone: either the connection is refused outright or
    // the accepted-then-dropped socket yields no response.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(_) => client.health().is_err(),
    };
    assert!(refused, "server must not answer after shutdown");
}

#[test]
fn predict_batch_matches_individual_predicts_and_shares_the_cache() {
    use ceer::serve::api::PredictBatchRequest;

    let server = start(256);
    let client = Client::new(server.addr());
    let a = predict_request("vgg-11");
    let b = predict_request("inception-v1");
    let invalid = predict_request("mobilenet");
    let batch = PredictBatchRequest { requests: vec![a.clone(), b.clone(), a.clone(), invalid] };

    // Every valid item answers exactly like a single /predict call; the
    // invalid one errors inside its slot without failing the batch.
    let response = client.predict_batch(&batch).unwrap();
    assert_eq!(response.responses.len(), 4);
    let expected_a = api::predict(model(), &a).unwrap();
    let expected_b = api::predict(model(), &b).unwrap();
    assert_eq!(response.responses[0].response.as_ref(), Some(&expected_a));
    assert_eq!(response.responses[1].response.as_ref(), Some(&expected_b));
    assert_eq!(response.responses[2].response.as_ref(), Some(&expected_a));
    assert!(response.responses[0].error.is_none());
    assert!(response.responses[3].response.is_none());
    assert!(response.responses[3].error.as_ref().unwrap().contains("mobilenet"));

    // The batch shares the single-predict cache: 4 lookups missed (errors
    // are never stored, and the duplicate is looked up before either copy
    // is computed), and only the two distinct valid items are resident.
    let metrics = client.metrics().unwrap();
    assert_eq!((metrics.cache.misses, metrics.cache.hits), (4, 0));
    assert_eq!(metrics.cache.entries, 2);
    assert_eq!(metrics.endpoints["POST /predict_batch"].requests, 1);
    assert_eq!(metrics.endpoints["POST /predict_batch"].errors, 0);

    // A later single /predict of a batched item is a byte-identical hit...
    let body = serde_json::to_string(&a).unwrap();
    let raw = client.request("POST", "/predict", body.as_bytes()).unwrap();
    assert_eq!(raw.body, serde_json::to_string_pretty(&expected_a).unwrap() + "\n");
    assert_eq!(client.metrics().unwrap().cache.hits, 1);

    // ...and rerunning the batch hits for every valid item.
    assert_eq!(client.predict_batch(&batch).unwrap(), response);
    let metrics = client.metrics().unwrap();
    assert_eq!((metrics.cache.misses, metrics.cache.hits), (5, 4));
    server.shutdown();
}

#[test]
fn concurrent_batches_are_identical_and_error_free() {
    use ceer::serve::api::PredictBatchRequest;

    let server = start(256);
    let client = Client::new(server.addr());
    let batch = PredictBatchRequest {
        requests: vec![
            predict_request("vgg-11"),
            predict_request("resnet-50"),
            predict_request("inception-v1"),
        ],
    };
    let expected = api::predict_batch(model(), &batch);

    // Warm the cache with one serial batch so the concurrent storm below
    // has a deterministic hit count (cold concurrent batches can all miss
    // the same keys before the first insert lands).
    assert_eq!(client.predict_batch(&batch).unwrap(), expected);

    // Overlapping batches from several client threads: the shared cache
    // must never change a byte of any response.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let batch = &batch;
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..3 {
                        assert_eq!(&client.predict_batch(batch).unwrap(), expected);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.endpoints["POST /predict_batch"].requests, 13);
    assert_eq!(metrics.endpoints["POST /predict_batch"].errors, 0);
    assert_eq!(metrics.cache.misses, 3, "only the warm-up batch computes");
    assert_eq!(metrics.cache.hits, 36, "12 batches x 3 items, all cached");
    server.shutdown();
}

#[test]
fn worker_pool_panics_propagate_instead_of_hanging() {
    // If an item's evaluation panicked inside the pool, the panic must
    // surface on the caller promptly (where the serve worker turns it into
    // a dropped connection) rather than deadlocking the batch. The payload
    // travels unchanged.
    let result = std::panic::catch_unwind(|| {
        ceer::par::par_map(&[1u32, 2, 3, 4], |&n| {
            if n == 3 {
                panic!("boom on {n}");
            }
            n * 2
        })
    });
    let payload = result.expect_err("panic must propagate");
    let message = payload.downcast_ref::<String>().expect("string payload");
    assert_eq!(message, "boom on 3");
}

fn cnn_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("vgg-11".to_string()),
        Just("VGG11".to_string()),
        Just("inception-v1".to_string()),
        Just("googlenet".to_string()),
        Just("resnet-50".to_string()),
    ]
}

fn gpu_filter() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("t4".to_string())),
        Just(Some("P3".to_string())),
        Just(Some("k80".to_string())),
    ]
}

/// Addresses of one cache-enabled and one cache-disabled server, started
/// once and left running for the whole property suite.
fn property_servers() -> (std::net::SocketAddr, std::net::SocketAddr) {
    static SERVERS: OnceLock<(std::net::SocketAddr, std::net::SocketAddr)> = OnceLock::new();
    *SERVERS.get_or_init(|| {
        let cached = start(256);
        let uncached = start(0);
        let addrs = (cached.addr(), uncached.addr());
        // Leak the handles: the servers serve until the test process exits.
        std::mem::forget(cached);
        std::mem::forget(uncached);
        addrs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary valid requests, the served prediction equals the
    /// library estimate exactly — with the cache on and off.
    #[test]
    fn served_predictions_equal_library_estimates(
        cnn in cnn_name(),
        gpu in gpu_filter(),
        gpus in 1u32..=4,
        batch in prop_oneof![Just(16u64), Just(32u64)],
        samples in 10_000u64..200_000,
        include_comm in any::<bool>(),
    ) {
        let request = PredictRequest {
            cnn,
            gpu,
            gpus,
            batch,
            samples,
            options: ceer::model::EstimateOptions {
                include_comm,
                ..Default::default()
            },
        };
        let expected = api::predict(model(), &request).unwrap();
        let expected_body = serde_json::to_string_pretty(&expected).unwrap() + "\n";
        let (cached, uncached) = property_servers();
        for addr in [cached, uncached] {
            let response = Client::new(addr).predict(&request).unwrap();
            prop_assert_eq!(&response, &expected);
            let body = serde_json::to_string(&request).unwrap();
            let raw = Client::new(addr).request("POST", "/predict", body.as_bytes()).unwrap();
            prop_assert_eq!(&raw.body, &expected_body);
        }
    }
}

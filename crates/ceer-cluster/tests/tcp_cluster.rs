//! Smoke test of the real transport: the same router/shard state
//! machines the chaos suite drives under simulation, now running on
//! threads and loopback TCP behind the HTTP gateway, spoken to with the
//! stock `ceer_serve::Client`.

use std::path::PathBuf;

use ceer_cluster::{Cluster, ClusterConfig, ClusterMetrics};
use ceer_core::{Ceer, CeerModel, FitConfig};
use ceer_graph::models::CnnId;
use ceer_serve::api::{self, PredictBatchRequest, PredictRequest};
use ceer_serve::Client;

fn tiny_model(seed: u64) -> CeerModel {
    Ceer::fit(&FitConfig {
        cnns: vec![CnnId::Vgg11],
        iterations: 2,
        parallel_degrees: vec![1],
        seed,
        ..FitConfig::default()
    })
}

fn temp_model_path() -> PathBuf {
    std::env::temp_dir().join(format!("ceer-cluster-tcp-{}.json", std::process::id()))
}

#[test]
fn tcp_cluster_serves_the_http_api_byte_identically() {
    let model_a = tiny_model(1);
    let model_b = tiny_model(2);
    let model_path = temp_model_path();
    std::fs::write(&model_path, serde_json::to_vec(&model_a).unwrap()).unwrap();

    let config = ClusterConfig {
        shards: 3,
        replicas: 2,
        model_path: model_path.clone(),
        heartbeat_ms: 50,
        ..ClusterConfig::default()
    };
    let cluster = Cluster::start(&config).expect("cluster boots");
    let client = Client::new(cluster.http_addr());

    client.health().expect("healthz");

    // A routed prediction answers the same bytes as direct evaluation —
    // the single-process server's contract, preserved across the wire.
    let request: PredictRequest =
        serde_json::from_str("{\"cnn\": \"vgg11\", \"batch\": 16}").unwrap();
    let raw = client
        .request("POST", "/predict", serde_json::to_string(&request).unwrap().as_bytes())
        .unwrap();
    assert_eq!(raw.status, 200, "{}", raw.body);
    let direct = serde_json::to_string_pretty(&api::predict(&model_a, &request).unwrap()).unwrap();
    assert_eq!(raw.body, format!("{direct}\n"), "cluster answers direct-evaluation bytes");
    assert_eq!(client.predict(&request).unwrap(), api::predict(&model_a, &request).unwrap());

    // Batch: good items evaluate, bad items error per-slot.
    let batch = PredictBatchRequest {
        requests: vec![request.clone(), serde_json::from_str("{\"cnn\": \"bogus\"}").unwrap()],
    };
    let answered = client.predict_batch(&batch).unwrap();
    assert_eq!(answered.responses.len(), 2);
    assert_eq!(
        answered.responses[0].response.as_ref(),
        Some(&api::predict(&model_a, &request).unwrap())
    );
    assert!(answered.responses[1].error.is_some());

    // Unknown paths 404 through the gateway.
    assert_eq!(client.get("/nope").unwrap().status, 404);

    // More GPUs than an instance offers is a 400 from whichever shard owns
    // the request; it used to panic the owner and, on failover, every
    // replica after it. The shards stay up and keep answering.
    let too_many = client.request("POST", "/predict", b"{\"cnn\": \"vgg16\", \"gpus\": 8}");
    let too_many = too_many.unwrap();
    assert_eq!(too_many.status, 400, "{}", too_many.body);
    assert!(too_many.body.contains("at most 4"), "{}", too_many.body);
    assert_eq!(client.predict(&request).unwrap(), api::predict(&model_a, &request).unwrap());
    // So is a batch of 2^62, which wrapped the epoch arithmetic to a
    // division by zero in the owner and then in every replica.
    let huge = b"{\"cnn\": \"vgg11\", \"batch\": 4611686018427387904, \"gpus\": 4}";
    let huge = client.request("POST", "/predict", huge).unwrap();
    assert_eq!(huge.status, 400, "{}", huge.body);
    assert!(huge.body.contains("at most 65536"), "{}", huge.body);
    assert_eq!(client.predict(&request).unwrap(), api::predict(&model_a, &request).unwrap());

    // Aggregated metrics: v1, all three shards known to the router.
    let metrics_raw = client.get("/metrics").unwrap();
    assert_eq!(metrics_raw.status, 200);
    let metrics: ClusterMetrics = serde_json::from_str(&metrics_raw.body).unwrap();
    assert_eq!(metrics.version.0, 1);
    assert_eq!(metrics.health.len(), 3);
    assert!(metrics.health.values().all(|&up| up), "{:?}", metrics.health);
    assert!(metrics.router.requests >= 3);

    // Reload from the swapped file: every shard acks, the version bumps,
    // and predictions switch to the new model's bytes.
    std::fs::write(&model_path, serde_json::to_vec(&model_b).unwrap()).unwrap();
    let reload = client.request("POST", "/reload", b"").unwrap();
    assert_eq!(reload.status, 200, "all shards alive, reload must be complete: {}", reload.body);
    assert!(reload.body.contains("\"version\": 2"), "{}", reload.body);
    assert_eq!(client.predict(&request).unwrap(), api::predict(&model_b, &request).unwrap());

    cluster.shutdown();
    std::fs::remove_file(&model_path).ok();
}

//! What sharded serving costs over direct evaluation: the same
//! `/predict` measured three ways — calling `api::predict` in-process,
//! routing it through the simulated cluster's event loop, and a full
//! HTTP round trip against the real-TCP cluster on loopback.
//!
//! This bench writes `BENCH_cluster.json` at the repository root. The
//! numbers are honest about the host: on a single core the TCP arm
//! measures connect-per-request plus thread-handoff overhead with every
//! node time-slicing one CPU, so read the sim arm (single-threaded by
//! construction) for the state-machine cost and the TCP arm as an upper
//! bound.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ceer_cluster::{
    Cluster, ClusterConfig, RouterConfig, RouterNode, ScriptEntry, ShardConfig, ShardNode,
    SimClient,
};
use ceer_core::{Ceer, CeerModel, FitConfig};
use ceer_graph::models::CnnId;
use ceer_serve::api::{self, PredictRequest};
use ceer_serve::Client;
use ceer_sim::{NetProfile, NodeId, Sim};

/// Repetitions behind each snapshot median.
const SNAPSHOT_REPS: usize = 5;
/// Requests per simulated batch run (per-request cost = total / this).
const SIM_REQUESTS: u64 = 100;
/// Shard fleet in both the sim and the TCP arms.
const SHARDS: u32 = 3;
const REPLICAS: usize = 2;

const BODY: &str = "{\"cnn\": \"vgg11\", \"batch\": 32}";

fn tiny_model() -> CeerModel {
    Ceer::fit(&FitConfig {
        cnns: vec![CnnId::Vgg11],
        iterations: 2,
        parallel_degrees: vec![1],
        seed: 11,
        ..FitConfig::default()
    })
}

/// Builds router + shards + a client scripted to fire `requests`
/// predicts 5 virtual ms apart, runs to completion, asserts every
/// request was answered 200.
fn run_sim_batch(model: &Arc<CeerModel>, requests: u64) {
    let mut sim = Sim::with(42, NetProfile::default(), None);
    let router_id = NodeId(1);
    let shard_ids: Vec<NodeId> = (0..SHARDS).map(|i| NodeId(2 + i)).collect();
    let shard_list: Vec<(NodeId, String)> =
        shard_ids.iter().enumerate().map(|(i, &id)| (id, format!("shard-{i}"))).collect();
    let router_config = RouterConfig::new(shard_list, REPLICAS);
    let reload_source = Box::new(move || Err("no reload in this bench".to_string()));
    sim.add_node("router", Box::new(RouterNode::new(router_config, reload_source)));
    for (i, &id) in shard_ids.iter().enumerate() {
        let mut config = ShardConfig::new(format!("shard-{i}"), router_id);
        config.peers = shard_ids.iter().copied().filter(|&p| p != id).collect();
        // Distinct cache keys per request would hide the routing cost
        // behind model evaluation; a tiny cache keeps it visible anyway.
        config.cache_capacity = 4;
        sim.add_node(
            &format!("shard-{i}"),
            Box::new(ShardNode::new(config, Arc::clone(model), None)),
        );
    }
    let script: Vec<ScriptEntry> = (0..requests)
        .map(|i| {
            let batch = 1 + (i % 64);
            ScriptEntry::post(
                10 + i * 5,
                "/predict",
                format!("{{\"cnn\": \"vgg11\", \"batch\": {batch}}}"),
            )
        })
        .collect();
    let client = sim.add_node("client", Box::new(SimClient::new(router_id, script)));
    sim.run_until(10 + requests * 5 + 2_000);
    let answered = sim.node::<SimClient>(client).expect("client node").answers.len() as u64;
    assert_eq!(answered, requests, "every simulated request must be answered");
}

/// Median wall-clock microseconds of `f` over `SNAPSHOT_REPS` runs.
fn median_us(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SNAPSHOT_REPS)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    median_us: f64,
    per_request_us: f64,
    requests: u64,
}

#[derive(serde::Serialize)]
struct Snapshot {
    host_threads: usize,
    shards: u32,
    replicas: usize,
    reps_per_median: usize,
    note: String,
    benches: Vec<BenchEntry>,
}

fn entry(name: &str, requests: u64, mut f: impl FnMut()) -> BenchEntry {
    let median = median_us(&mut f);
    let per_request = median / requests as f64;
    println!("{name:32} median {median:>12.0} us   per request {per_request:>9.1} us");
    BenchEntry { name: name.to_string(), median_us: median, per_request_us: per_request, requests }
}

fn write_snapshot(model: &Arc<CeerModel>) {
    let host_threads =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let request: PredictRequest = serde_json::from_str(BODY).expect("parses");

    let model_path =
        std::env::temp_dir().join(format!("ceer-bench-cluster-{}.json", std::process::id()));
    std::fs::write(&model_path, serde_json::to_vec(model.as_ref()).expect("serializes"))
        .expect("write model");
    let cluster = Cluster::start(&ClusterConfig {
        shards: SHARDS,
        replicas: REPLICAS,
        model_path: model_path.clone(),
        ..ClusterConfig::default()
    })
    .expect("cluster boots");
    let client = Client::new(cluster.http_addr());

    println!("\n== BENCH_cluster.json snapshot (host_threads = {host_threads}) ==");
    let benches = vec![
        entry("direct/api_predict", 1, || {
            black_box(api::predict(black_box(model), black_box(&request)).expect("predicts"));
        }),
        entry(&format!("sim/predict_x{SIM_REQUESTS}"), SIM_REQUESTS, || {
            run_sim_batch(model, SIM_REQUESTS);
        }),
        entry("tcp/predict_round_trip", 1, || {
            black_box(client.predict(black_box(&request)).expect("round trip"));
        }),
    ];
    let snapshot = Snapshot {
        host_threads,
        shards: SHARDS,
        replicas: REPLICAS,
        reps_per_median: SNAPSHOT_REPS,
        note: "per-request cost of the same /predict: direct evaluation, routed \
               through the single-threaded simulated cluster (includes virtual \
               network + replication bookkeeping), and a real HTTP round trip on \
               loopback TCP (connect per request; on a 1-core host all nodes \
               time-slice one CPU, so treat it as an upper bound)"
            .to_string(),
        benches,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    let body = serde_json::to_string_pretty(&snapshot).expect("serializes");
    std::fs::write(path, body + "\n").expect("write BENCH_cluster.json");
    println!("wrote {path}");

    cluster.shutdown();
    std::fs::remove_file(&model_path).ok();
}

fn main() {
    write_snapshot(&Arc::new(tiny_model()));
}

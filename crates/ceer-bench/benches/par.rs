//! Serial vs parallel wall clock for the `ceer-par`-backed hot paths:
//! fitting, cross-validation and the recommendation sweep.
//!
//! This bench writes `BENCH_par.json` at the repository root: a snapshot
//! of serial vs 4-thread medians with the host's core count, so the
//! committed numbers can be read in context.
//! On a single-core host the 4-thread run measures pure pool overhead
//! (threads time-slice one core); the speedup materializes with the cores.

use std::hint::black_box;
use std::time::Instant;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::crossval::leave_one_out;
use ceer_core::recommend::Workload;
use ceer_core::{Ceer, FitConfig};
use ceer_graph::models::{Cnn, CnnId};

/// Thread count of the parallel arm in the snapshot.
const PAR_THREADS: usize = 4;
/// Repetitions behind each snapshot median.
const SNAPSHOT_REPS: usize = 5;

fn small_config() -> FitConfig {
    FitConfig {
        cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
        iterations: 4,
        parallel_degrees: vec![1, 2],
        seed: 11,
        ..FitConfig::default()
    }
}

/// Median wall-clock microseconds of `f` over `SNAPSHOT_REPS` runs at the
/// given pool size.
fn median_us(threads: usize, mut f: impl FnMut()) -> f64 {
    let _guard = ceer_par::override_threads(threads);
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
    serial_us: f64,
    par_threads: usize,
    par_us: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct Snapshot {
    host_threads: usize,
    par_threads: usize,
    reps_per_median: usize,
    note: String,
    benches: Vec<BenchEntry>,
}

fn snapshot_entry(name: &str, mut f: impl FnMut()) -> BenchEntry {
    let serial = median_us(1, &mut f);
    let parallel = median_us(PAR_THREADS, &mut f);
    println!(
        "{name:32} serial {:>10.0} us   {PAR_THREADS} threads {:>10.0} us   speedup {:.2}x",
        serial,
        parallel,
        serial / parallel
    );
    BenchEntry {
        name: name.to_string(),
        serial_us: serial,
        par_threads: PAR_THREADS,
        par_us: parallel,
        speedup: serial / parallel,
    }
}

fn write_snapshot() {
    let host_threads =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let config = small_config();
    let model = {
        let _guard = ceer_par::override_threads(1);
        Ceer::fit(&config)
    };
    let cnn = Cnn::build(CnnId::ResNet101, 32);
    let catalog = Catalog::new(Pricing::OnDemand);
    let workload = Workload::new(1_200_000, 4);

    println!("\n== BENCH_par.json snapshot (host_threads = {host_threads}) ==");
    let benches = vec![
        snapshot_entry("fit/3_cnns_4_iters", || {
            black_box(Ceer::fit(black_box(&config)));
        }),
        snapshot_entry("crossval/3_folds", || {
            black_box(leave_one_out(black_box(&config), &[1]));
        }),
        snapshot_entry("recommend/16_candidates", || {
            black_box(model.evaluate_candidates(black_box(&cnn), &catalog, &workload));
        }),
    ];
    let snapshot = Snapshot {
        host_threads,
        par_threads: PAR_THREADS,
        reps_per_median: SNAPSHOT_REPS,
        note: "serial vs parallel medians; with host_threads == 1 the parallel \
               arm measures pool overhead only (no cores to spread over), while \
               results stay bit-identical at every thread count"
            .to_string(),
        benches,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par.json");
    let body = serde_json::to_string_pretty(&snapshot).expect("serializes");
    std::fs::write(path, body + "\n").expect("write BENCH_par.json");
    println!("wrote {path}");
}

fn main() {
    write_snapshot();
}

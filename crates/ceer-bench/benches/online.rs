//! What incremental refitting saves: folding a fresh batch of 100
//! observations into a long-lived sufficient-statistics accumulator and
//! solving, versus batch-refitting the entire history from scratch.
//!
//! The incremental path is O(batch) folds plus an O(p³) solve regardless
//! of how much history the accumulator carries; the from-scratch path
//! re-folds the whole history first, so its cost grows linearly with the
//! records seen. Both produce bit-identical models (pinned by
//! `tests/online_equivalence.rs`) — this bench quantifies why the online
//! loop keeps accumulators instead of sample logs.
//!
//! This bench writes `BENCH_online.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use ceer_core::features::Features;
use ceer_core::{OpModel, OpModelAccumulator};
use ceer_gpusim::GpuModel;
use ceer_graph::OpKind;

/// Repetitions behind each snapshot median.
const SNAPSHOT_REPS: usize = 5;
/// Records per arriving batch — the unit both arms are normalized to.
const BATCH: usize = 100;
/// Accumulated-history sizes the comparison sweeps.
const HISTORIES: [usize; 4] = [100, 400, 1600, 6400];

/// A deterministic synthetic observation stream (two linear regressors
/// plus the quadratic extra), mimicking per-op residual records.
fn sample(i: usize) -> (Features, f64) {
    let primary = 1.0 + (i % 97) as f64;
    let secondary = 1.0 + (i % 31) as f64 * 0.5;
    let noise = ((i % 13) as f64 - 6.0) * 0.3;
    let features =
        Features { linear: vec![primary, secondary], quadratic_extra: vec![primary * primary] };
    (features, 5.0 + 3.0 * primary + 0.7 * secondary + noise)
}

fn warm_accumulator(history: usize) -> OpModelAccumulator {
    let mut acc = OpModelAccumulator::new(OpKind::Conv2D, GpuModel::V100, true);
    for i in 0..history {
        let (f, y) = sample(i);
        acc.push(&f, y);
    }
    acc
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
    history: usize,
    batch: usize,
    median_us: f64,
    per_record_us: f64,
}

#[derive(serde::Serialize)]
struct Snapshot {
    host_threads: usize,
    reps_per_median: usize,
    note: String,
    benches: Vec<BenchEntry>,
}

fn entry(name: &str, history: usize, mut f: impl FnMut()) -> BenchEntry {
    let median = median_us(&mut f);
    let per_record = median / BATCH as f64;
    println!("{name:40} median {median:>10.1} us   per record {per_record:>8.2} us");
    BenchEntry {
        name: name.to_string(),
        history,
        batch: BATCH,
        median_us: median,
        per_record_us: per_record,
    }
}

fn write_snapshot() {
    let host_threads =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!("\n== BENCH_online.json snapshot (host_threads = {host_threads}) ==");
    let mut benches = Vec::new();
    for history in HISTORIES {
        // Incremental: the accumulator already carries `history` records;
        // each rep folds one fresh batch of 100 and solves. The
        // accumulator keeps growing across reps — exactly how the online
        // loop uses it — and the cost stays flat because the solve never
        // revisits old samples.
        let mut acc = warm_accumulator(history);
        let mut next = history;
        benches.push(entry(&format!("incremental/fold{BATCH}_after_{history}"), history, || {
            for i in next..next + BATCH {
                let (f, y) = sample(i);
                acc.push(&f, y);
            }
            next += BATCH;
            black_box(acc.fit().expect("non-empty accumulator fits"));
        }));
        // From scratch: refit the whole history plus the fresh batch as
        // one batch fit, the cost the online loop avoids.
        let all: Vec<(Features, f64)> = (0..history + BATCH).map(sample).collect();
        benches.push(entry(&format!("scratch/refit_{}", history + BATCH), history, || {
            black_box(OpModel::fit(OpKind::Conv2D, GpuModel::V100, black_box(&all)));
        }));
    }
    let snapshot = Snapshot {
        host_threads,
        reps_per_median: SNAPSHOT_REPS,
        note: format!(
            "cost of absorbing one batch of {BATCH} fresh observations into a \
             per-(op, GPU) model: incremental = fold the batch into a long-lived \
             sufficient-statistics accumulator and solve (flat in history); \
             scratch = batch-refit every record seen so far (linear in history). \
             The two paths are bit-identical in output."
        ),
        benches,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_online.json");
    let body = serde_json::to_string_pretty(&snapshot).expect("serializes");
    std::fs::write(path, body + "\n").expect("write BENCH_online.json");
    println!("wrote {path}");
}

fn main() {
    write_snapshot();
}

//! What durability costs: WAL commit latency on the real filesystem —
//! single-record commits versus group commits — plus snapshot rotation
//! and recovery replay time.
//!
//! The WAL's group commit exists because the dominant cost of a commit
//! is the fsync, not the bytes: batching 32 records behind one sync
//! should divide the per-record cost by roughly the batch size. Recovery
//! is measured as `DurableStore::open` over a directory holding one
//! snapshot and a populated WAL suffix — the cold-start price a serving
//! process pays after a crash.
//!
//! This bench writes `BENCH_durable.json` at the repository root.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ceer_durable::{write_atomic, DurableRecord, DurableStore, FsStorage, Storage};

/// Repetitions behind each snapshot median.
const SNAPSHOT_REPS: usize = 5;
/// Records per group commit in the batched arm.
const GROUP: usize = 32;
/// WAL records behind the recovery-replay measurement.
const REPLAY: usize = 256;

/// A fresh scratch directory under the system temp root. Each call gets
/// its own directory so reps never replay a previous rep's WAL.
fn scratch(tag: &str, rep: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ceer-bench-durable-{}-{tag}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &PathBuf) -> DurableStore {
    let storage: Arc<dyn Storage> =
        Arc::new(FsStorage::open(dir).expect("scratch directory opens"));
    let (store, _) = DurableStore::open(storage, ceer_faults::none(), "{}").expect("fresh boot");
    store
}

fn record(version: u64) -> DurableRecord {
    DurableRecord::Promoted { version }
}

/// Median wall-clock microseconds over `SNAPSHOT_REPS` runs, each given
/// its own pre-built context by `setup`.
fn median_us<T>(tag: &str, mut setup: impl FnMut(usize) -> T, mut f: impl FnMut(&mut T)) -> f64 {
    let mut samples: Vec<f64> = (0..SNAPSHOT_REPS)
        .map(|rep| {
            let mut ctx = setup(rep);
            let started = Instant::now();
            f(&mut ctx);
            let elapsed = started.elapsed().as_secs_f64() * 1e6;
            let _ = std::fs::remove_dir_all(scratch(tag, rep));
            elapsed
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    records: usize,
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

fn entry(name: &str, records: usize, median: f64) -> BenchEntry {
    let per_record = median / records as f64;
    println!("{name:40} median {median:>10.1} us   per record {per_record:>8.2} us");
    BenchEntry { name: name.to_string(), records, median_us: median, per_record_us: per_record }
}

fn write_snapshot() {
    let host_threads =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!("\n== BENCH_durable.json snapshot (host_threads = {host_threads}) ==");
    let mut benches = Vec::new();

    // Single-record commits: GROUP commits, one fsync each.
    let single = median_us(
        "single",
        |rep| open_store(&scratch("single", rep)),
        |store| {
            for version in 1..=GROUP as u64 {
                store.log(&record(version)).expect("log");
                black_box(store.commit().expect("commit"));
            }
        },
    );
    benches.push(entry(&format!("commit/single_x{GROUP}"), GROUP, single));

    // Group commit: the same GROUP records behind one fsync.
    let grouped = median_us(
        "group",
        |rep| open_store(&scratch("group", rep)),
        |store| {
            let records: Vec<DurableRecord> = (1..=GROUP as u64).map(record).collect();
            black_box(store.log_all(&records).expect("group commit"));
        },
    );
    benches.push(entry(&format!("commit/group_{GROUP}"), GROUP, grouped));

    // Snapshot rotation: write + sync + rename + prune, one call.
    let rotate = median_us(
        "rotate",
        |rep| {
            let store = open_store(&scratch("rotate", rep));
            store.log_all(&[record(1)]).expect("seed record");
            store
        },
        |store| {
            black_box(store.snapshot("{\"n\":1}").expect("snapshot"));
        },
    );
    benches.push(entry("snapshot/rotate", 1, rotate));

    // Recovery: open a directory with one snapshot and REPLAY WAL
    // records behind it — checksum scan plus replay decode.
    let recover = median_us(
        "recover",
        |rep| {
            let dir = scratch("recover", rep);
            let store = open_store(&dir);
            let records: Vec<DurableRecord> = (1..=REPLAY as u64).map(record).collect();
            store.log_all(&records).expect("populate WAL");
            dir
        },
        |dir| {
            let storage: Arc<dyn Storage> =
                Arc::new(FsStorage::open(&*dir).expect("scratch directory opens"));
            let (_, recovered) =
                DurableStore::open(storage, ceer_faults::none(), "{}").expect("recovery");
            assert_eq!(recovered.replayed.len(), REPLAY, "replay covered the WAL");
            black_box(recovered);
        },
    );
    benches.push(entry(&format!("recover/replay_{REPLAY}"), REPLAY, recover));

    let snapshot = Snapshot {
        host_threads,
        reps_per_median: SNAPSHOT_REPS,
        note: format!(
            "durability costs on the real filesystem: committing {GROUP} records \
             one fsync at a time vs one group commit (the WAL's batching \
             amortizes the sync), one snapshot rotation (temp + fsync + rename), \
             and recovery of a {REPLAY}-record WAL suffix (checksum scan + replay)."
        ),
        benches,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_durable.json");
    let body = serde_json::to_string_pretty(&snapshot).expect("serializes");
    write_atomic(path, (body + "\n").as_bytes()).expect("write BENCH_durable.json");
    println!("wrote {path}");
}

fn main() {
    write_snapshot();
}

//! The serving benchmark: seeded workloads against the real evented
//! server and TCP cluster, every answer checked against an in-process
//! oracle, end-to-end figures untraced and a per-layer split traced.
//!
//! ```text
//! perfbench --workload <predict_miss|predict_hit|recommend_mix|cluster_mix|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--inject-mismatch]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `perfbench/README.md`.

mod drive;
mod gen;
mod layers;
mod oracle;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use stats::{Host, Record};
use workloads::{Ctx, Phase};

const WORKLOADS: [&str; 4] = ["predict_miss", "predict_hit", "recommend_mix", "cluster_mix"];

/// Seed of the served model's fit (`FitConfig::default()` otherwise).
const FIT_SEED: u64 = 7;

/// Where models, records and spans of a run are written, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Untraced metrics, reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("predict_rps", "req/s"),
    ("predict_p50_us", "us"),
    ("predict_p99_us", "us"),
    ("rss_mib", "MiB"),
];

/// Traced metrics: `(name, unit, workload phase it comes from)`.
const PER_LAYER: [(&str, &str, &str); 50] = [
    ("evented.transport_us", "us", "predict_hit"),
    ("parser.parse_head_us", "us", "predict_hit"),
    ("app.parse_predict_us", "us", "predict_hit"),
    ("app.route_us", "us", "predict_hit"),
    ("cache.get_us", "us", "predict_hit"),
    ("cache.hit_ratio", "ratio", "predict_hit"),
    ("metrics.record_us", "us", "predict_hit"),
    ("http.to_bytes_us", "us", "predict_hit"),
    ("metrics.snapshot_us", "us", "predict_hit"),
    ("cache.insert_us", "us", "predict_miss"),
    ("cache.evictions", "count", "predict_miss"),
    ("graph.expand_us", "us", "predict_miss"),
    ("graph.ops", "count", "predict_miss"),
    ("graph.memory_estimate_us", "us", "recommend_mix"),
    ("graph.drop_us", "us", "predict_miss"),
    ("report.parameters_us", "us", "predict_miss"),
    ("features.extract_us", "us", "predict_miss"),
    ("features.extract_calls", "count", "predict_miss"),
    ("estimate.predict_iteration_us", "us", "predict_miss"),
    ("estimate.calls", "count", "predict_miss"),
    ("report.coverage_us", "us", "predict_miss"),
    ("recommend.sweep_us", "us", "recommend_mix"),
    ("recommend.candidates", "count", "recommend_mix"),
    ("par.sweep_serial_us", "us", "recommend_mix"),
    ("par.speedup", "ratio", "recommend_mix"),
    ("cloud.catalog_us", "us", "predict_miss"),
    ("serialize.predict_us", "us", "predict_miss"),
    ("serialize.predict_bytes", "bytes", "predict_miss"),
    ("serialize.recommend_us", "us", "recommend_mix"),
    ("serialize.recommend_bytes", "bytes", "recommend_mix"),
    ("evented.hol_wait_us", "us", "recommend_mix"),
    ("loadgen.lag_p99_us", "us", "recommend_mix"),
    ("recommend_rps", "req/s", "recommend_mix"),
    ("recommend_p50_us", "us", "recommend_mix"),
    ("recommend_p99_us", "us", "recommend_mix"),
    ("ring.owners_us", "us", "cluster_mix"),
    ("proto.encode_us", "us", "cluster_mix"),
    ("proto.decode_us", "us", "cluster_mix"),
    ("proto.frame_bytes", "bytes", "cluster_mix"),
    ("cluster.hop_us", "us", "cluster_mix"),
    ("cluster.state_machine_us", "us", "cluster_mix"),
    ("router.forwards_per_request", "ratio", "cluster_mix"),
    ("router.failovers", "count", "cluster_mix"),
    ("router.timeouts", "count", "cluster_mix"),
    ("shard.cache_hit_ratio", "ratio", "cluster_mix"),
    ("shard.shed", "count", "cluster_mix"),
    ("robustness.shed", "count", "all"),
    ("robustness.io_errors", "count", "all"),
    ("failed_ratio", "ratio", "all"),
    ("trace.overhead_us", "us", "predict_miss"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_mismatch: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_mismatch = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--inject-mismatch" => inject_mismatch = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?} or all"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        inject_mismatch,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("fit") => fit(argv.get(1).map(PathBuf::from)).map(|()| 0),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    }
}

/// `perfbench fit <path>`: the model `ceer fit` would produce at
/// `FIT_SEED`, written for the measuring process to load.
fn fit(out: Option<PathBuf>) -> Result<(), String> {
    let out = out.ok_or("fit needs an output path")?;
    let config = ceer_core::FitConfig { seed: FIT_SEED, ..ceer_core::FitConfig::default() };
    let model = ceer_core::Ceer::fit(&config);
    let json = serde_json::to_string_pretty(&model).map_err(|e| e.to_string())?;
    let tmp = out.with_extension("tmp");
    std::fs::write(&tmp, json).map_err(|e| format!("cannot write {tmp:?}: {e}"))?;
    std::fs::rename(&tmp, &out).map_err(|e| format!("cannot rename to {out:?}: {e}"))
}

/// Runs one workload per child process (so each reports its own memory).
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut worst = 0;
    for workload in WORKLOADS {
        let mut command = Command::new(&exe);
        command.args(["--workload", workload, "--seed", &args.seed.to_string()]);
        command.args(["--seconds", &args.seconds.to_string()]);
        command.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.inject_mismatch {
            command.arg("--inject-mismatch");
        }
        let status = command.status().map_err(|e| format!("cannot run {workload}: {e}"))?;
        worst = worst.max(status.code().unwrap_or(2));
    }
    Ok(worst)
}

fn run(args: &Args) -> Result<i32, String> {
    if args.workload == "all" {
        return run_all(args);
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let model_path = PathBuf::from(format!("{OUT_DIR}/model-{}.json", std::process::id()));
    // Fitting happens in a child process: this process only loads the
    // model file, as `ceer serve --model` does, so its memory is a
    // server's, not a fitter's.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("fit")
        .arg(&model_path)
        .status()
        .map_err(|e| format!("cannot start the fit: {e}"))?;
    if !status.success() {
        return Err(format!("fitting the model failed ({status})"));
    }
    let outcome = measure(args, &model_path);
    std::fs::remove_file(&model_path).ok();
    outcome
}

fn measure(args: &Args, model_path: &Path) -> Result<i32, String> {
    let host = Host::detect();
    let ctx = Ctx { model_path, seed: args.seed, seconds: args.seconds };
    let mut oracle = oracle::Oracle::new(args.seed);
    let mut replays = Vec::new();
    let mut phases: Vec<Phase> = Vec::new();
    if args.trace {
        // Every per-layer metric belongs to one workload's traffic, so the
        // traced run is one phase of each, a quarter of the time apiece.
        let quarter = Ctx { seconds: args.seconds / 4.0, ..ctx };
        for workload in WORKLOADS {
            oracle.begin(workload);
            phases.push(match workload {
                "predict_miss" => {
                    workloads::trace_predict_miss(&quarter, &mut oracle, &mut replays)?
                }
                "predict_hit" => workloads::trace_predict_hit(&quarter, &mut oracle, &mut replays)?,
                "recommend_mix" => {
                    workloads::trace_recommend_mix(&quarter, &mut oracle, &mut replays)?
                }
                _ => workloads::trace_cluster_mix(&quarter, &mut oracle)?,
            });
        }
    } else {
        let workload = WORKLOADS.into_iter().find(|w| *w == args.workload).unwrap_or_default();
        oracle.begin(workload);
        phases.push(match workload {
            "predict_miss" => workloads::predict_miss(&ctx, &mut oracle)?,
            "predict_hit" => workloads::predict_hit(&ctx, &mut oracle)?,
            "recommend_mix" => workloads::recommend_mix(&ctx, &mut oracle)?,
            _ => workloads::cluster_mix(&ctx, &mut oracle)?,
        });
    }

    // The oracle runs after every timed window has closed.
    let model = workloads::load_model(model_path)?;
    let verdicts = oracle.verdicts(&model, args.inject_mismatch);
    let checked: usize = verdicts.values().map(|v| v.checked).sum();
    let mismatches: usize = verdicts.values().map(|v| v.mismatches).sum();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum::<u64>() + checked as u64;
    let failed: u64 = phases.iter().map(|p| p.failed).sum::<u64>() + mismatches as u64;
    let correct = failed == 0;

    let mut records: Vec<Record> = phases.into_iter().flat_map(|p| p.records.list).collect();
    for (workload, verdict) in &verdicts {
        let mut r = stats::Records::new(workload, args.seed);
        let n = verdict.checked;
        r.scalar("oracle.checked", "oracle", "count", n as f64, n);
        r.scalar("oracle.mismatches", "oracle", "count", verdict.mismatches as f64, n);
        records.extend(r.list);
    }
    let mut totals =
        stats::Records::new(if args.trace { "all" } else { &args.workload }, args.seed);
    totals.scalar(
        "failed_ratio",
        "e2e",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    for name in ["robustness.shed", "robustness.io_errors"] {
        let sum = records.iter().filter(|r| r.name == name).fold(0.0, |sum, r| sum + r.p50);
        totals.scalar(name, "ceer-serve", "count", sum, 1);
    }
    records.retain(|r| !r.name.starts_with("robustness."));
    records.extend(totals.list);

    print_table(&records);
    write_outputs(args, &host, &records, &replays)?;

    let wanted: Vec<(&str, &str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(name, unit)| (name, unit, args.workload.as_str())).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit, phase) in wanted {
        let record = records
            .iter()
            .find(|r| r.name == name && r.workload == phase)
            .ok_or_else(|| format!("no measurement for metric {name}"))?;
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(record.p50)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// A JSON number with every digit the measurement has.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn print_table(records: &[Record]) {
    println!("{:<32} {:>14} {:>14} {:<6} {:>8}  workload", "metric", "p50", "p99", "unit", "n");
    for r in records {
        println!(
            "{:<32} {:>14.3} {:>14.3} {:<6} {:>8}  {}",
            r.name, r.p50, r.p99, r.unit, r.n, r.workload
        );
    }
}

#[derive(serde::Serialize)]
struct Report {
    host: Host,
    workload: String,
    seed: u64,
    trace: bool,
    records: Vec<Record>,
}

/// Writes the records (and, traced, every span) under `OUT_DIR`.
fn write_outputs(
    args: &Args,
    host: &Host,
    records: &[Record],
    replays: &[(String, layers::Replay)],
) -> Result<(), String> {
    let stem =
        format!("{OUT_DIR}/{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let report = Report {
        host: host.clone(),
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        records: records.to_vec(),
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(format!("{stem}.records.json"), json + "\n").map_err(|e| e.to_string())?;
    if args.trace {
        let path = format!("{stem}.spans.jsonl");
        let file =
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for (phase, replay) in replays {
            replay.tracer.write_jsonl(phase, &mut out).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

//! Regenerates the paper's evaluation into one directory:
//!
//! ```text
//! cargo run --release -p ceer-experiments -- [--out DIR]
//! ```
//!
//! Runs every regenerator in [`REGENERATORS`] in this one process, over
//! one in-memory fit, and writes `<name>.txt` (the report and its verdict
//! block) and `<name>.checks.json` for each, Figure 1's DAG, and the
//! `exp_summary.txt` scorecard, which it also prints. `DIR` defaults to the
//! repository's `results/`. Progress goes to stderr, never into the files.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ceer_experiments::checks::scorecard;
use ceer_experiments::{figures, CheckList, ExperimentContext, REGENERATORS};

fn write(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
    let path = dir.join(name);
    ceer_durable::write_atomic(&path, bytes)
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}

fn run(ctx: &ExperimentContext, out: &Path) -> Result<String, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("could not create {}: {e}", out.display()))?;
    let mut results: Vec<(&str, CheckList)> = Vec::with_capacity(REGENERATORS.len());
    for (name, regenerate) in REGENERATORS {
        let started = Instant::now();
        let (report, checks) = regenerate(ctx);
        write(out, &format!("{name}.txt"), (report + &checks.render()).as_bytes())?;
        let json = serde_json::to_vec_pretty(checks.checks()).map_err(|e| e.to_string())?;
        write(out, &format!("{name}.checks.json"), &json)?;
        eprintln!("[ceer] {name} done in {:.1?}", started.elapsed());
        results.push((name, checks));
    }
    write(out, figures::FIG1_DOT, figures::fig1_dot().as_bytes())?;
    let summary = scorecard(&results);
    write(out, "exp_summary.txt", summary.as_bytes())?;
    Ok(summary)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"),
        [flag, dir] if flag == "--out" => PathBuf::from(dir),
        _ => {
            eprintln!("usage: ceer-experiments [--out DIR]");
            return ExitCode::from(2);
        }
    };
    match run(&ExperimentContext::from_env(), &out) {
        Ok(summary) => {
            print!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

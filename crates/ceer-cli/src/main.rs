//! `ceer` — command-line interface for the Ceer reproduction.
//!
//! ```text
//! ceer fit        [--iterations N] [--seed S] [--out model.json]
//! ceer predict    --model model.json --cnn NAME [--gpu P3|P2|G4|G3] [--gpus K]
//!                 [--batch B] [--samples N]
//! ceer recommend  --model model.json --cnn NAME [--objective cost|time|hourly:X|budget:X]
//!                 [--samples N] [--max-gpus K] [--market] [--memory-fit]
//! ceer profile    --cnn NAME [--gpu P3] [--gpus K] [--iterations N] [--top N]
//!                 [--trace out.json]
//! ceer inspect    --model model.json [--cnn NAME]
//! ceer durable    inspect|verify --dir DIR [--json]
//! ceer zoo        [--cnn NAME]
//! ceer catalog    [--market]
//! ceer serve      --model model.json [--port P] [--cache-capacity N]
//! ceer cluster    --model model.json [--port P] [--shards N] [--replicas R]
//! ceer online     replay [--seed S] [--requests N] [--fault-spec SPEC] [--json]
//! ```
//!
//! `fit`, `collect`, `profile` and `online` also take `--threads N` to size
//! the `ceer-par` worker pool (results are bit-identical at every thread
//! count; the flag only changes wall-clock time).
//!
//! Run `ceer help` (or any subcommand with `--help`) for details.

mod args;
mod commands;
mod output;

use std::process::ExitCode;

const USAGE: &str = "\
ceer — CNN training time/cost prediction for cloud GPUs (Ceer, IISWC 2020)

USAGE:
    ceer <COMMAND> [OPTIONS]

COMMANDS:
    fit        profile the training CNNs and fit a Ceer model
    collect    run only the profiling phase and save a profile archive
    predict    predict training time/cost for a CNN on a GPU configuration
    recommend  pick the best instance for a CNN under an objective
    profile    run the training simulator and show where the time goes
    roofline   show which resource bounds each operation kind on a GPU
    inspect    print a fitted model's diagnostics and coverage
    durable    inspect or verify a serve/cluster durability directory
    lint       statically check the workspace's determinism/safety invariants
    online     replay the closed online-learning loop under a seed
    zoo        list the CNN model zoo (or details of one CNN)
    catalog    list the AWS GPU instance catalog
    serve      serve predictions from a fitted model over HTTP
    cluster    serve predictions from a sharded, replicated cluster
    help       show this message

Run `ceer <COMMAND> --help` for command options.";

fn main() -> ExitCode {
    // Piping into `head` closes stdout early; treat the resulting broken
    // pipe as a clean exit instead of a panic, like other Unix CLIs.
    std::panic::set_hook(Box::new(|info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if message.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
    }));

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = args::Args::new(rest.to_vec());
    let result = match command.as_str() {
        "fit" => commands::fit::run(&args),
        "collect" => commands::collect::run(&args),
        "predict" => commands::predict::run(&args),
        "recommend" => commands::recommend::run(&args),
        "profile" => commands::profile::run(&args),
        "roofline" => commands::roofline::run(&args),
        "inspect" => commands::inspect::run(&args),
        "durable" => commands::durable::run(&args),
        "lint" => commands::lint::run(&args),
        "online" => commands::online::run(&args),
        "zoo" => commands::zoo::run(&args),
        "catalog" => commands::catalog::run(&args),
        "serve" => commands::serve::run(&args),
        "cluster" => commands::cluster::run(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

//! `ceer recommend` — pick the best instance for a CNN under an objective.

use ceer_core::recommend::Objective;

use crate::args::Args;
use crate::commands::load_model;
use crate::output::parse_cnn;

const HELP: &str = "\
ceer recommend — recommend the GPU instance minimizing an objective

OPTIONS:
    --model FILE       fitted model from `ceer fit` (required)
    --cnn NAME         CNN to train (required)
    --objective OBJ    cost | time | hourly:<usd> | budget:<usd>  (default cost)
    --samples N        training-set size in samples (default 1200000)
    --batch B          per-GPU batch size (default 32)
    --max-gpus K       largest GPU count per model (default 4)
    --epochs E         passes over the data (default 1)
    --market           use §V commodity market prices instead of AWS prices
    --memory-fit       reject instances whose GPU memory cannot hold training
    --json             emit the recommendation as JSON — byte-identical to
                       the `POST /recommend` body of `ceer serve`";

fn parse_objective(raw: &str) -> Result<Objective, String> {
    if let Some(rest) = raw.strip_prefix("hourly:") {
        let usd_per_hour: f64 = rest.parse().map_err(|_| format!("bad hourly budget {rest:?}"))?;
        return Ok(Objective::MinTimeUnderHourlyBudget { usd_per_hour });
    }
    if let Some(rest) = raw.strip_prefix("budget:") {
        let usd: f64 = rest.parse().map_err(|_| format!("bad total budget {rest:?}"))?;
        return Ok(Objective::MinTimeUnderTotalBudget { usd });
    }
    match raw {
        "cost" => Ok(Objective::MinimizeCost),
        "time" => Ok(Objective::MinimizeTime),
        other => Err(format!("unknown objective {other:?} (cost|time|hourly:X|budget:X)")),
    }
}

pub(crate) fn run(args: &Args) -> Result<(), String> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    let model = load_model(&args.require("--model")?)?;
    let id = parse_cnn(&args.require("--cnn")?)?;
    let objective =
        parse_objective(&args.opt("--objective")?.unwrap_or_else(|| "cost".to_string()))?;
    let samples = args.opt_parse("--samples", 1_200_000u64)?;
    let batch = args.opt_parse("--batch", 32u64)?;
    let max_gpus = args.opt_parse("--max-gpus", 4u32)?;
    let epochs = args.opt_parse("--epochs", 1u64)?;
    let market = args.flag("--market");
    let memory_fit = args.flag("--memory-fit");
    let json = args.flag("--json");
    args.finish()?;
    if samples == 0 || batch == 0 || max_gpus == 0 || epochs == 0 {
        return Err("--samples, --batch, --max-gpus and --epochs must be positive".into());
    }

    // The same evaluation the HTTP service runs for `POST /recommend`.
    let request = ceer_serve::api::RecommendRequest {
        cnn: id.name().to_string(),
        objective: Some(objective),
        samples,
        batch,
        max_gpus,
        epochs,
        market,
        memory_fit,
    };
    let response = ceer_serve::api::recommend(&model, &request)?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&response)
                .map_err(|e| format!("serialization failed: {e}"))?
        );
        return Ok(());
    }

    match &response.best {
        None => {
            println!(
                "no instance satisfies the constraint (the paper hits this too: in \
                 Fig. 10, several configurations exceed the budget)"
            );
        }
        Some(best) => {
            println!("recommendation for {} under {objective:?}:", id.name());
            println!("  {}\n", best.instance());
            println!(
                "{:28} {:>10} {:>10} {:>9} {:>8}",
                "instance", "time (h)", "cost", "feasible", "memory"
            );
            for c in &response.ranking {
                println!(
                    "{:28} {:>10.2} {:>10} {:>9} {:>8}",
                    c.instance().name(),
                    c.predicted_time_hours(),
                    format!("${:.2}", c.predicted_cost_usd()),
                    if c.is_feasible(&objective) { "yes" } else { "no" },
                    if c.fits_memory() { "fits" } else { "OOM" },
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objectives_parse() {
        assert!(matches!(parse_objective("cost"), Ok(Objective::MinimizeCost)));
        assert!(matches!(parse_objective("time"), Ok(Objective::MinimizeTime)));
        match parse_objective("hourly:3.42") {
            Ok(Objective::MinTimeUnderHourlyBudget { usd_per_hour }) => {
                assert!((usd_per_hour - 3.42).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_objective("budget:10") {
            Ok(Objective::MinTimeUnderTotalBudget { usd }) => assert_eq!(usd, 10.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_objectives_are_rejected_with_context() {
        assert!(parse_objective("speed").unwrap_err().contains("speed"));
        assert!(parse_objective("hourly:abc").unwrap_err().contains("abc"));
        assert!(parse_objective("budget:").unwrap_err().contains("budget"));
    }
}

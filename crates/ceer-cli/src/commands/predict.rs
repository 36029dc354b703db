//! `ceer predict` — training time/cost prediction for one configuration.

use ceer_core::{plan, EstimateOptions};
use ceer_graph::{DeviceClass, Graph};
use ceer_serve::api::{self, PredictRequest};

use crate::args::Args;
use crate::commands::load_model;
use crate::output::{fmt_duration_us, parse_cnn, parse_gpu};

const HELP: &str = "\
ceer predict — predict training time and cost for a CNN on a configuration

OPTIONS:
    --model FILE     fitted model from `ceer fit` (required)
    --cnn NAME       CNN from the zoo, e.g. resnet-101 (this or --graph)
    --graph FILE     a training graph in JSON (see `ceer zoo --export`) —
                     predict for CNNs defined outside the zoo
    --gpu NAME       GPU model (P3/P2/G4/G3 or V100/K80/T4/M60; default: all)
    --gpus K         data-parallel GPU count (default 1)
    --batch B        per-GPU batch size (default 32; for --graph it is
                     inferred from the graph's input placeholder)
    --samples N      also report one epoch over N samples (default 1200000)
    --json           emit the prediction as JSON — byte-identical to the
                     `POST /predict` body of `ceer serve`";

pub(crate) fn run(args: &Args) -> Result<(), String> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    let model = load_model(&args.require("--model")?)?;
    let cnn_arg = args.opt("--cnn")?;
    let graph_arg = args.opt("--graph")?;
    let gpu = args.opt("--gpu")?;
    if let Some(name) = &gpu {
        parse_gpu(name)?; // reject bad names before the (costlier) graph build
    }
    let gpus = args.opt_parse("--gpus", 1u32)?;
    let mut batch = args.opt_parse("--batch", 32u64)?;
    let samples = args.opt_parse("--samples", 1_200_000u64)?;
    let json = args.flag("--json");
    args.finish()?;
    if gpus == 0 || batch == 0 || samples == 0 {
        return Err("--gpus, --batch and --samples must be positive".into());
    }

    // The same evaluation the HTTP service runs for `POST /predict`.
    let request = |cnn: &str, batch| PredictRequest {
        cnn: cnn.to_string(),
        gpu: gpu.clone(),
        gpus,
        batch,
        samples,
        options: EstimateOptions::default(),
    };
    let (name, response, coverage) = match (cnn_arg, graph_arg) {
        (Some(_), Some(_)) => {
            return Err("pass either --cnn or --graph, not both".into());
        }
        (Some(cnn_name), None) => {
            let id = parse_cnn(&cnn_name)?;
            let response = api::predict(&model, &request(id.name(), batch))?;
            (id.name().to_string(), response, model.plan_coverage(&plan::plan_for(id, batch)))
        }
        (None, Some(path)) => {
            let json =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            let graph = Graph::from_json(&json)?;
            batch = infer_batch(&graph)
                .ok_or("graph has no rank-4 input placeholder to infer the batch from")?;
            let name = graph.name().to_string();
            let response = api::predict_graph(&model, &name, &graph, &request(&name, batch))?;
            (name, response, model.coverage(&graph))
        }
        (None, None) => return Err("missing required option --cnn (or --graph)".into()),
    };
    if !coverage.is_fully_covered() {
        eprintln!(
            "warning: heavy operations without fitted models: {:?} — the paper \
             recommends retraining (§IV-D); predictions use the light-median fallback",
            coverage.uncovered_heavy
        );
    }

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&response)
                .map_err(|e| format!("serialization failed: {e}"))?
        );
        return Ok(());
    }

    println!(
        "{name} — {:.1}M parameters, {} ops, batch {batch}/GPU, {gpus} GPU(s)\n",
        response.parameters as f64 / 1e6,
        response.ops
    );
    println!(
        "{:24} {:>12} {:>10} {:>14} {:>12}",
        "GPU", "iteration", "+/-1sigma", "epoch", "epoch cost"
    );
    for p in &response.predictions {
        println!(
            "{:24} {:>12} {:>10} {:>14} {:>11}",
            p.gpu.to_string(),
            fmt_duration_us(p.iteration_us),
            fmt_duration_us(p.iteration_std_us),
            fmt_duration_us(p.epoch_us),
            format!("${:.2}", p.epoch_cost_usd),
        );
    }
    Ok(())
}

/// Infers the per-GPU batch size from the graph's input placeholder (the
/// first rank-4 GPU tensor produced with no inputs).
fn infer_batch(graph: &Graph) -> Option<u64> {
    graph
        .nodes()
        .iter()
        .find(|n| {
            n.inputs().is_empty()
                && n.output_shape().rank() == 4
                && n.kind().device_class() == DeviceClass::Gpu
        })
        .map(|n| n.output_shape().batch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceer_graph::models::{Cnn, CnnId};

    #[test]
    fn infer_batch_finds_the_placeholder() {
        let graph = Cnn::build(CnnId::AlexNet, 24).training_graph();
        assert_eq!(infer_batch(&graph), Some(24));
    }

    #[test]
    fn infer_batch_none_without_rank4_placeholder() {
        let g = Graph::new("empty");
        assert_eq!(infer_batch(&g), None);
    }

    #[test]
    fn requires_cnn_or_graph() {
        let args = Args::new(vec!["--model".into(), "/nonexistent.json".into()]);
        // Fails at model loading first; drop the model to reach the check.
        assert!(run(&args).is_err());
    }
}

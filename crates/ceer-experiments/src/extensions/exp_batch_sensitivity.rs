use std::fmt::Write;

use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::{Cnn, CnnId};
use ceer_trainer::Trainer;

use crate::{CheckList, ExperimentContext, Table};

/// Extension experiment: batch-size generalization.
///
/// Ceer is fitted from profiles taken at batch 32 (the paper's default).
/// Because its features are input *sizes* — which scale with the batch —
/// the fitted models should transfer to other batch sizes without
/// refitting. This experiment predicts test-CNN iteration times at batch
/// 8, 16, 48 and 64 and compares against fresh observations.
pub fn exp_batch_sensitivity(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model(); // fitted at batch 32
    let options = EstimateOptions::default();

    let _ = writeln!(
        report,
        "== Extension: batch-size generalization (fit at 32, predict elsewhere) ==\n"
    );

    let mut table = Table::new(vec!["CNN", "batch", "obs (ms)", "pred (ms)", "err"]);
    let mut errs_per_batch: Vec<(u64, Vec<f64>)> =
        [8u64, 16, 48, 64].iter().map(|&b| (b, Vec::new())).collect();
    for &id in CnnId::test_set() {
        for (batch, errs) in errs_per_batch.iter_mut() {
            let cnn = Cnn::build(id, *batch);
            let graph = cnn.training_graph();
            // Average over GPUs to keep the table compact; per-GPU errors go
            // into the aggregate.
            let mut obs_total = 0.0;
            let mut pred_total = 0.0;
            for &gpu in GpuModel::all() {
                let observed = Trainer::new(gpu, 1)
                    .with_seed(ctx.observation_seed())
                    .profile_graph(&cnn, &graph, ctx.observe_iterations().min(12))
                    .iteration_mean_us();
                let predicted = model.predict_iteration(&graph, gpu, 1, &options).total_us();
                errs.push((predicted - observed).abs() / observed);
                obs_total += observed;
                pred_total += predicted;
            }
            table.row(vec![
                id.to_string(),
                format!("{batch}"),
                format!("{:.1}", obs_total / 4.0 / 1e3),
                format!("{:.1}", pred_total / 4.0 / 1e3),
                format!("{:.1}%", (pred_total - obs_total).abs() / obs_total * 100.0),
            ]);
        }
    }
    report.push_str(&table.render());

    let mut checks = CheckList::new();
    for (batch, errs) in &errs_per_batch {
        let mape = errs.iter().sum::<f64>() / errs.len() as f64;
        // Interpolation (8..32) should transfer well; extrapolation beyond
        // the training batch (48, 64) gets a little more slack.
        let bound = if *batch <= 32 { 0.12 } else { 0.18 };
        checks.add(
            format!("prediction error at batch {batch}"),
            "input-size features transfer across batch sizes",
            format!("{:.1}%", mape * 100.0),
            mape < bound,
        );
    }
    (report, checks)
}

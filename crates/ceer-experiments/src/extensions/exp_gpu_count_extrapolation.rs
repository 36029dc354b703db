use std::fmt::Write;

use ceer_core::{Ceer, EstimateOptions, FitConfig};
use ceer_gpusim::GpuModel;
use ceer_graph::models::{Cnn, CnnId};
use ceer_trainer::Trainer;

use crate::{CheckList, ExperimentContext, Table};

/// Extension experiment: extrapolating the communication model beyond the
/// profiled GPU counts.
///
/// Ceer's communication fits cover k = 1..4 (the paper's instances). AWS
/// also sells the 8-GPU p2.8xlarge; this experiment asks how far the
/// linear-in-k extrapolation carries on P2 at k = 5..8, and checks the
/// interior-gap interpolation path (fit at {1,2,4}, predict k = 3).
pub fn exp_gpu_count_extrapolation(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model(); // comm fits at k = 1..4

    let _ = writeln!(
        report,
        "== Extension: GPU-count extrapolation of the comm model (P2, k=5..8) ==\n"
    );

    let options = EstimateOptions::default();
    let mut table = Table::new(vec!["CNN", "k", "obs (ms)", "pred (ms)", "err"]);
    let mut extrap_errs = Vec::new();
    for &id in &[CnnId::InceptionV3, CnnId::ResNet101] {
        let cnn = Cnn::build(id, 32);
        let graph = cnn.training_graph();
        for k in 5..=8u32 {
            let observed = Trainer::new(GpuModel::K80, k)
                .with_seed(ctx.observation_seed())
                .profile_graph(&cnn, &graph, ctx.observe_iterations().min(10))
                .iteration_mean_us();
            let predicted = model.predict_iteration(&graph, GpuModel::K80, k, &options).total_us();
            let err = (predicted - observed).abs() / observed;
            extrap_errs.push(err);
            table.row(vec![
                id.to_string(),
                format!("{k}"),
                format!("{:.1}", observed / 1e3),
                format!("{:.1}", predicted / 1e3),
                format!("{:.1}%", err * 100.0),
            ]);
        }
    }
    report.push_str(&table.render());

    // Interior interpolation: fit with k = {1, 2, 4} only, predict k = 3.
    let _ = writeln!(report, "\ninterior gap: fit at k = {{1,2,4}}, predict k = 3 (G4):");
    let gap_config = FitConfig {
        parallel_degrees: vec![1, 2, 4],
        iterations: ctx.fit_config().iterations.min(60),
        ..ctx.fit_config().clone()
    };
    let gap_model = Ceer::fit(&gap_config);
    let mut gap_errs = Vec::new();
    for &id in CnnId::test_set() {
        let cnn = Cnn::build(id, 32);
        let graph = cnn.training_graph();
        let observed = Trainer::new(GpuModel::T4, 3)
            .with_seed(ctx.observation_seed())
            .profile_graph(&cnn, &graph, ctx.observe_iterations().min(10))
            .iteration_mean_us();
        let predicted = gap_model.predict_iteration(&graph, GpuModel::T4, 3, &options).total_us();
        let err = (predicted - observed).abs() / observed;
        gap_errs.push(err);
        let _ = writeln!(
            report,
            "  {:22} obs {:>8.1} ms  pred {:>8.1} ms  err {:.1}%",
            id.to_string(),
            observed / 1e3,
            predicted / 1e3,
            err * 100.0
        );
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut checks = CheckList::new();
    checks.add(
        "extrapolation to k=5..8 on P2",
        "linear-in-k comm growth carries beyond the fits",
        format!("MAPE {:.1}%", mean(&extrap_errs) * 100.0),
        mean(&extrap_errs) < 0.15,
    );
    checks.add(
        "interior interpolation (k=3 from {1,2,4})",
        "no profiled k=3 needed",
        format!("MAPE {:.1}%", mean(&gap_errs) * 100.0),
        mean(&gap_errs) < 0.12,
    );
    (report, checks)
}

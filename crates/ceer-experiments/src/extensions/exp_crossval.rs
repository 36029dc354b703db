use std::fmt::Write;

use ceer_core::classify::OpClass;
use ceer_core::crossval::leave_one_out;
use ceer_core::{Ceer, FitConfig};
use ceer_gpusim::GpuModel;
use ceer_stats::bootstrap::median_ci;
use ceer_stats::correlation;

use crate::{CheckList, ExperimentContext, Table};

/// Extension experiment: leave-one-out cross-validation over the 8 training
/// CNNs.
///
/// The paper validates on a fixed 4-CNN test set; this probes the same
/// generalization claim eight more times, holding each training CNN out in
/// turn. It also reports the compute-vs-params correlation across the zoo
/// (the hidden reason the CNN-oblivious communication model works) and a
/// bootstrap confidence interval on the light-op median estimator.
pub fn exp_crossval(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    // LOO fits 8 models; cap the profiling work.
    let config =
        FitConfig { iterations: ctx.fit_config().iterations.min(60), ..ctx.fit_config().clone() };

    let _ = writeln!(report, "== Extension: leave-one-out cross-validation ==\n");
    let cv = leave_one_out(&config, &[1, 4]);

    let mut table = Table::new(vec!["held-out CNN", "MAPE", "worst config"]);
    for fold in &cv.folds {
        let worst = fold.errors.iter().max_by(|a, b| a.2.total_cmp(&b.2)).expect("non-empty");
        table.row(vec![
            fold.held_out.to_string(),
            format!("{:.1}%", fold.mape() * 100.0),
            format!("{} k={} ({:.1}%)", worst.0.aws_family(), worst.1, worst.2 * 100.0),
        ]);
    }
    report.push_str(&table.render());
    let _ = writeln!(report, "\ngrand LOO MAPE: {:.1}%", cv.mape() * 100.0);

    // Compute-vs-params correlation across the zoo (on P3), and the
    // light-op samples below: short single-GPU profiles.
    let runs = Ceer::collect_profiles(&FitConfig {
        parallel_degrees: vec![1],
        iterations: 6,
        ..config.clone()
    });
    let params: Vec<f64> = runs.iter().map(|(_, g, _)| g.parameter_count() as f64).collect();
    let compute: Vec<f64> = runs
        .iter()
        .map(|(_, _, ps)| {
            ps.iter().find(|p| p.gpu() == GpuModel::V100).expect("profiled").compute_mean_us()
        })
        .collect();
    let pearson = correlation::pearson(&params, &compute).expect("8 CNNs");
    let spearman = correlation::spearman(&params, &compute).expect("8 CNNs");
    let _ = writeln!(
        report,
        "compute-vs-params correlation across the zoo: Pearson {pearson:.2}, Spearman {spearman:.2}"
    );

    // Bootstrap CI on the light-op median estimator.
    let model = Ceer::fit_from_profiles(&config, &Ceer::collect_profiles(&config));
    let light_samples: Vec<f64> = runs
        .iter()
        .flat_map(|(_, _, ps)| ps.iter())
        .flat_map(|p| {
            p.op_stats()
                .iter()
                .filter(|s| model.classification().class_of(s.kind) == OpClass::Light)
                .map(|s| s.median_us)
                .collect::<Vec<_>>()
        })
        .collect();
    let ci = median_ci(&light_samples, 400, 0.95, 7).expect("light ops exist");
    let _ = writeln!(
        report,
        "light-op median t̃_l = {:.1} us, 95% bootstrap CI [{:.1}, {:.1}]",
        ci.estimate, ci.low, ci.high
    );

    let mut checks = CheckList::new();
    checks.add(
        "LOO generalization error",
        "comparable to the test-set error (~4-6%)",
        format!("{:.1}%", cv.mape() * 100.0),
        cv.mape() < 0.12,
    );
    checks.add(
        "every fold stays usable",
        "no CNN is pathological to hold out",
        format!(
            "worst fold {:.1}% ({})",
            cv.worst_fold().expect("folds").mape() * 100.0,
            cv.worst_fold().expect("folds").held_out
        ),
        cv.worst_fold().expect("folds").mape() < 0.30,
    );
    checks.add(
        "compute correlates with params across the zoo",
        "positive (underpins the CNN-oblivious comm model)",
        format!("Pearson {pearson:.2}"),
        pearson > 0.3,
    );
    checks.add(
        "light-median estimator is stable",
        "tight CI around t̃_l",
        format!("CI width {:.1} us", ci.width()),
        ci.width() < ci.estimate,
    );
    (report, checks)
}

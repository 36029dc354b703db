use std::fmt::Write;

use ceer_core::{Ceer, EstimateOptions, FitConfig};
use ceer_gpusim::GpuModel;
use ceer_graph::models::{Cnn, CnnId};
use ceer_stats::summary;
use ceer_trainer::Trainer;

use crate::{CheckList, ExperimentContext, Table};

const SEEDS: [u64; 5] = [0, 1, 2, 31337, 0xDEAD_BEEF];

fn validation_mape(fit_iterations: usize, obs_iterations: usize, seed: u64) -> f64 {
    let model = Ceer::fit(&FitConfig { iterations: fit_iterations, seed, ..FitConfig::default() });
    let options = EstimateOptions::default();
    let mut errs = Vec::new();
    for &id in CnnId::test_set() {
        let cnn = Cnn::build(id, 32);
        let graph = cnn.training_graph();
        for &gpu in GpuModel::all() {
            for k in [1u32, 4] {
                let observed = Trainer::new(gpu, k)
                    .with_seed(seed ^ 0xABCD_EF01)
                    .profile_graph(&cnn, &graph, obs_iterations)
                    .iteration_mean_us();
                let predicted = model.predict_iteration(&graph, gpu, k, &options).total_us();
                errs.push((predicted - observed).abs() / observed);
            }
        }
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Extension experiment: seed stability of the reproduction.
///
/// Every number in this repository comes from a seeded simulation. This
/// experiment refits Ceer and re-measures the Figure-8-style validation
/// error under several unrelated seeds, showing that the headline accuracy
/// is a property of the method, not of a lucky random stream.
pub fn exp_seed_stability(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let fit_iterations = ctx.fit_config().iterations.min(80);
    let obs_iterations = ctx.observe_iterations().min(12);

    let _ = writeln!(report, "== Extension: seed stability of the validation error ==\n");

    let mut table = Table::new(vec!["seed", "test-set MAPE"]);
    let mut mapes = Vec::new();
    for &seed in &SEEDS {
        let mape = validation_mape(fit_iterations, obs_iterations, seed);
        table.row(vec![format!("{seed:#x}"), format!("{:.2}%", mape * 100.0)]);
        mapes.push(mape);
    }
    report.push_str(&table.render());

    let mean = summary::mean(&mapes).expect("non-empty");
    let sd = summary::std_dev(&mapes).expect("non-empty");
    let max = mapes.iter().cloned().fold(0.0, f64::max);
    let _ = writeln!(
        report,
        "\nMAPE over {} seeds: {:.2}% ± {:.2}%",
        SEEDS.len(),
        mean * 100.0,
        sd * 100.0
    );

    let mut checks = CheckList::new();
    checks.add(
        "accuracy holds across seeds",
        "~4-6% regardless of the random stream",
        format!("{:.2}% ± {:.2}% (max {:.2}%)", mean * 100.0, sd * 100.0, max * 100.0),
        max < 0.10,
    );
    checks.add(
        "variation across seeds is small",
        "the headline number is not cherry-picked",
        format!("std {:.2}pp", sd * 100.0),
        sd < 0.02,
    );
    (report, checks)
}

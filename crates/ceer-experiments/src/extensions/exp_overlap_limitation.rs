use std::fmt::Write;

use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::{Cnn, CnnId};
use ceer_trainer::Trainer;

use crate::{CheckList, ExperimentContext, Table};

/// Extension experiment: probing the §VI limitation — Ceer's additive model
/// "may not be accurate for model-parallel training because of the overlap
/// of compute and communication operations".
///
/// The simulator exposes a communication-overlap knob (0 = the paper's
/// data-parallel TensorFlow, 1 = fully overlapped all-reduce, as modern
/// frameworks do). This experiment sweeps it and measures how Ceer's
/// prediction error grows: a quantitative version of the paper's warning,
/// and a guide to when Ceer would need the overlap-aware extension the
/// authors leave to future work.
pub fn exp_overlap_limitation(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model(); // fitted on non-overlapped profiles
    let options = EstimateOptions::default();

    let _ =
        writeln!(report, "== Extension: the additive model under compute/comm overlap (§VI) ==\n");

    let overlaps = [0.0f64, 0.25, 0.5, 0.75, 1.0];
    let mut table = Table::new(vec!["overlap", "MAPE (k=4)", "worst CNN"]);
    let mut mapes = Vec::new();
    for &overlap in &overlaps {
        let mut errs: Vec<(CnnId, f64)> = Vec::new();
        for &id in CnnId::test_set() {
            let cnn = Cnn::build(id, 32);
            let graph = cnn.training_graph();
            let mut cnn_errs = Vec::new();
            for &gpu in GpuModel::all() {
                let observed = Trainer::new(gpu, 4)
                    .with_seed(ctx.observation_seed())
                    .with_comm_overlap(overlap)
                    .profile_graph(&cnn, &graph, ctx.observe_iterations().min(10))
                    .iteration_mean_us();
                let predicted = model.predict_iteration(&graph, gpu, 4, &options).total_us();
                cnn_errs.push((predicted - observed).abs() / observed);
            }
            errs.push((id, cnn_errs.iter().sum::<f64>() / cnn_errs.len() as f64));
        }
        let mape = errs.iter().map(|(_, e)| e).sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty");
        mapes.push(mape);
        table.row(vec![
            format!("{overlap:.2}"),
            format!("{:.1}%", mape * 100.0),
            format!("{} ({:.1}%)", worst.0, worst.1 * 100.0),
        ]);
    }
    report.push_str(&table.render());

    let mut checks = CheckList::new();
    checks.add(
        "no overlap: the additive model holds",
        "Ceer's operating regime (data-parallel TF)",
        format!("{:.1}%", mapes[0] * 100.0),
        mapes[0] < 0.08,
    );
    checks.add(
        "error grows monotonically with overlap",
        "additive model 'may not be accurate' under overlap (§VI)",
        mapes.iter().map(|m| format!("{:.1}%", m * 100.0)).collect::<Vec<_>>().join(" -> "),
        mapes.windows(2).all(|w| w[1] >= w[0] - 0.005),
    );
    checks.add(
        "full overlap breaks the model",
        "a systematic overprediction appears",
        format!("{:.1}% at overlap 1.0", mapes[4] * 100.0),
        mapes[4] > 2.0 * mapes[0],
    );
    checks.note(
        "\nInterpretation: Ceer sums op times and the comm overhead (Eq. 2). When\n\
         a framework overlaps the all-reduce with the backward pass, the sum\n\
         overpredicts — by up to the whole comm term. Extending S_GPU with an\n\
         overlap discount is the paper's suggested future work.\n",
    );
    (report, checks)
}

use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::recommend::{Objective, Workload};
use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;

use crate::{CheckList, ExperimentContext, Observatory, Table};

/// Samples per ImageNet epoch in the Figure 11 experiment.
const SAMPLES: u64 = 1_200_000;
/// The CNN Figure 11 trains.
const CNN: CnnId = CnnId::InceptionV3;

/// Figure 11: minimum-cost training of Inception-v3 over one ImageNet epoch
/// under AWS On-Demand prices (§V).
///
/// The paper: the 1-GPU G4 instance has the lowest training cost and Ceer
/// predicts it (2.1% average cost prediction error); picking the cheapest
/// hourly instance (1-GPU G3) or the most powerful one (4-GPU P3) costs
/// 1.6× and 1.8× more respectively.
pub fn fig11_cost_min(ctx: &ExperimentContext) -> (String, CheckList) {
    let model = ctx.fitted_model();
    let mut obs = Observatory::new(ctx);
    let catalog = Catalog::new(Pricing::OnDemand);
    let options = EstimateOptions::default();
    let mut report = String::new();

    let _ = writeln!(report, "== Figure 11: Inception-v3 training cost, AWS On-Demand prices ==\n");

    let mut table = Table::new(vec!["GPU", "k", "obs cost", "pred cost", "err"]);
    let mut rows = Vec::new();
    let mut errs = Vec::new();
    for &gpu in GpuModel::all() {
        for k in 1..=4u32 {
            let instance = catalog.instance(gpu, k);
            let obs_cost = obs.epoch_us(CNN, gpu, k, SAMPLES) * instance.usd_per_microsecond();
            let (cnn, _) = obs.cnn_and_graph(CNN);
            let pred_cost = model.predict_cost_usd(cnn, &instance, SAMPLES, &options);
            errs.push((pred_cost - obs_cost).abs() / obs_cost);
            table.row(vec![
                gpu.aws_family().to_string(),
                format!("{k}"),
                format!("${obs_cost:.2}"),
                format!("${pred_cost:.2}"),
                format!("{:.1}%", (pred_cost - obs_cost).abs() / obs_cost * 100.0),
            ]);
            rows.push((gpu, k, obs_cost));
        }
    }
    report.push_str(&table.render());

    let obs_best = rows.iter().min_by(|a, b| a.2.total_cmp(&b.2)).expect("non-empty");
    let cost_of = |g: GpuModel, k: u32| {
        rows.iter().find(|(gg, kk, _)| *gg == g && *kk == k).expect("present").2
    };
    let rec = {
        let (cnn, _) = obs.cnn_and_graph(CNN);
        model
            .recommend(cnn, &catalog, &Workload::new(SAMPLES, 4), &Objective::MinimizeCost)
            .expect("cost minimization always feasible")
    };
    let mape = errs.iter().sum::<f64>() / errs.len() as f64;

    let _ = writeln!(
        report,
        "\nobserved cheapest: {}x {} (${:.2}); Ceer recommends {}",
        obs_best.1,
        obs_best.0.aws_family(),
        obs_best.2,
        rec.instance()
    );

    let mut checks = CheckList::new();
    checks.add(
        "cost prediction error",
        "2.1% average",
        format!("{:.1}%", mape * 100.0),
        mape < 0.06,
    );
    checks.add(
        "lowest-cost instance",
        "1-GPU G4",
        format!("{}x {}", obs_best.1, obs_best.0.aws_family()),
        obs_best.0 == GpuModel::T4 && obs_best.1 == 1,
    );
    checks.add(
        "Ceer recommends the observed optimum",
        "1-GPU G4",
        rec.instance().name().to_string(),
        rec.instance().gpu() == obs_best.0 && rec.instance().gpu_count() == obs_best.1,
    );
    checks.add(
        "cheapest-hourly strategy penalty (1-GPU G3)",
        "1.6x higher cost",
        format!("{:.1}x", cost_of(GpuModel::M60, 1) / obs_best.2),
        cost_of(GpuModel::M60, 1) / obs_best.2 > 1.2,
    );
    checks.add(
        "most-powerful strategy penalty (4-GPU P3)",
        "1.8x higher cost",
        format!("{:.1}x", cost_of(GpuModel::V100, 4) / obs_best.2),
        cost_of(GpuModel::V100, 4) / obs_best.2 > 1.2,
    );
    (report, checks)
}

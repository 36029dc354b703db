use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::recommend::{Objective, Workload};
use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;

use crate::{CheckList, ExperimentContext, Observatory, Table};

const SAMPLES: u64 = 1_200_000;
const CNN: CnnId = CnnId::InceptionV3;

/// Figure 12: minimum-cost training of Inception-v3 when instance prices
/// follow *commodity GPU market prices* instead of AWS list prices (§V).
///
/// Per-GPU hourly prices become P3 $3.06 : G4 $0.95 : G3 $0.55 : P2 $0.15
/// (multi-GPU scales linearly). The paper: the 1-GPU P2 becomes the cost
/// winner, Ceer predicts it (2.1% average error), and the Figure-11 winner
/// (1-GPU G4) would cost 2.4× more.
pub fn fig12_market_prices(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model();
    let mut obs = Observatory::new(ctx);
    let catalog = Catalog::new(Pricing::MarketRatio);
    let options = EstimateOptions::default();

    let _ =
        writeln!(report, "== Figure 12: Inception-v3 training cost, commodity market prices ==\n");

    let mut table = Table::new(vec!["GPU", "k", "$/hr", "obs cost", "pred cost", "err"]);
    let mut rows = Vec::new();
    let mut errs = Vec::new();
    for &gpu in GpuModel::all() {
        for k in 1..=4u32 {
            let instance = catalog.instance(gpu, k);
            let obs_cost = obs.epoch_us(CNN, gpu, k, SAMPLES) * instance.usd_per_microsecond();
            let pred_cost = {
                let (cnn, _) = obs.cnn_and_graph(CNN);
                model.predict_cost_usd(cnn, &instance, SAMPLES, &options)
            };
            errs.push((pred_cost - obs_cost).abs() / obs_cost);
            table.row(vec![
                gpu.aws_family().to_string(),
                format!("{k}"),
                format!("{:.2}", instance.hourly_usd()),
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
        "lowest-cost instance under market prices",
        "1-GPU P2",
        format!("{}x {}", obs_best.1, obs_best.0.aws_family()),
        obs_best.0 == GpuModel::K80 && obs_best.1 == 1,
    );
    checks.add(
        "Ceer recommends the observed optimum",
        "1-GPU P2",
        rec.instance().name().to_string(),
        rec.instance().gpu() == obs_best.0 && rec.instance().gpu_count() == obs_best.1,
    );
    checks.add(
        "Figure-11 winner (1-GPU G4) penalty",
        "2.4x higher cost",
        format!("{:.1}x", cost_of(GpuModel::T4, 1) / obs_best.2),
        cost_of(GpuModel::T4, 1) / obs_best.2 > 1.5,
    );
    (report, checks)
}

use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;

use crate::{CheckList, ExperimentContext, Observatory, Table};

const SAMPLES: u64 = 1_200_000;
const GPUS: u32 = 4;

/// Figure 8: validation — observed vs Ceer-predicted training time and cost
/// for the four *test-set* CNNs on 4-GPU instances of every GPU model,
/// training one epoch of ImageNet (1.2M samples, batch 32 per GPU).
///
/// §V's claims: the predicted ranking matches the observed ranking for every
/// CNN, average prediction error ≈ 5.4%, P3 is fastest (time reductions of
/// 72.4% / 62.9% / 48.0% vs P2 / G3 / G4 on average), and G4 has the lowest
/// cost at the expense of ≈ 128% higher training time than P3.
pub fn fig8_validation(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model();
    let mut obs = Observatory::new(ctx);
    let catalog = Catalog::new(Pricing::OnDemand);
    let options = EstimateOptions::default();

    let _ = writeln!(
        report,
        "== Figure 8: observed vs predicted training time/cost (4-GPU instances) ==\n"
    );

    let mut table =
        Table::new(vec!["CNN", "GPU", "obs (h)", "pred (h)", "err", "obs cost", "pred cost"]);
    let mut errs = Vec::new();
    let mut ranking_matches = 0;
    let mut p3_reductions: Vec<(GpuModel, f64)> = Vec::new();
    let mut g4_time_penalties = Vec::new();
    let mut g4_cost_wins = 0;

    for &id in CnnId::test_set() {
        let mut observed = Vec::new();
        let mut predicted = Vec::new();
        for &gpu in GpuModel::all() {
            let obs_us = obs.epoch_us(id, gpu, GPUS, SAMPLES);
            let pred_us = {
                let (cnn, _) = obs.cnn_and_graph(id);
                model.predict_epoch_us(cnn, gpu, GPUS, SAMPLES, &options)
            };
            let instance = catalog.instance(gpu, GPUS);
            let err = (pred_us - obs_us).abs() / obs_us;
            errs.push(err);
            table.row(vec![
                id.to_string(),
                gpu.aws_family().to_string(),
                format!("{:.2}", obs_us / 3.6e9),
                format!("{:.2}", pred_us / 3.6e9),
                format!("{:.1}%", err * 100.0),
                format!("${:.2}", obs_us * instance.usd_per_microsecond()),
                format!("${:.2}", pred_us * instance.usd_per_microsecond()),
            ]);
            observed.push((gpu, obs_us));
            predicted.push((gpu, pred_us));
        }
        // Ranking agreement per CNN.
        let rank = |mut v: Vec<(GpuModel, f64)>| -> Vec<GpuModel> {
            v.sort_by(|a, b| a.1.total_cmp(&b.1));
            v.into_iter().map(|(g, _)| g).collect()
        };
        if rank(observed.clone()) == rank(predicted.clone()) {
            ranking_matches += 1;
        }
        // P3 reductions (observed).
        let t = |g: GpuModel| observed.iter().find(|(m, _)| *m == g).expect("present").1;
        for other in [GpuModel::K80, GpuModel::M60, GpuModel::T4] {
            p3_reductions.push((other, 1.0 - t(GpuModel::V100) / t(other)));
        }
        g4_time_penalties.push(t(GpuModel::T4) / t(GpuModel::V100) - 1.0);
        // Cost winner (observed).
        let cost = |g: GpuModel| t(g) * catalog.instance(g, GPUS).usd_per_microsecond();
        let cheapest = GpuModel::all()
            .iter()
            .min_by(|a, b| cost(**a).total_cmp(&cost(**b)))
            .expect("non-empty");
        if *cheapest == GpuModel::T4 {
            g4_cost_wins += 1;
        }
    }
    report.push_str(&table.render());

    let mape = errs.iter().sum::<f64>() / errs.len() as f64;
    let avg_reduction = |g: GpuModel| {
        let v: Vec<f64> = p3_reductions.iter().filter(|(m, _)| *m == g).map(|(_, r)| *r).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let g4_penalty = g4_time_penalties.iter().sum::<f64>() / g4_time_penalties.len() as f64;

    report.push('\n');
    let mut checks = CheckList::new();
    checks.add("average prediction error", "5.4%", format!("{:.1}%", mape * 100.0), mape < 0.10);
    checks.add(
        "predicted ranking matches observed (per CNN)",
        "4 of 4 in perfect agreement",
        format!("{ranking_matches} of 4"),
        ranking_matches == 4,
    );
    checks.add(
        "P3 training-time reduction vs P2",
        "72.4%",
        format!("{:.1}%", avg_reduction(GpuModel::K80) * 100.0),
        (0.55..0.85).contains(&avg_reduction(GpuModel::K80)),
    );
    checks.add(
        "P3 training-time reduction vs G3",
        "62.9%",
        format!("{:.1}%", avg_reduction(GpuModel::M60) * 100.0),
        (0.45..0.75).contains(&avg_reduction(GpuModel::M60)),
    );
    checks.add(
        "P3 training-time reduction vs G4",
        "48.0%",
        format!("{:.1}%", avg_reduction(GpuModel::T4) * 100.0),
        (0.30..0.60).contains(&avg_reduction(GpuModel::T4)),
    );
    checks.add(
        "G4 lowest cost, at higher training time",
        "G4 cheapest for the typical CNN; +128% time vs P3",
        format!("G4 cheapest for {g4_cost_wins}/4 CNNs; +{:.0}% time", g4_penalty * 100.0),
        g4_cost_wins >= 3 && (0.5..2.0).contains(&g4_penalty),
    );
    (report, checks)
}

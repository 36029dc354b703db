use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::recommend::{Objective, Workload};
use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;

use crate::{CheckList, ExperimentContext, Observatory, Table};

const SAMPLES: u64 = 1_200_000;
const CNN: CnnId = CnnId::ResNet101;

/// The binding total budget in this world (the paper's is $10; see the
/// module docs).
const BUDGET_USD: f64 = 8.0;

/// Figure 10: minimum training time under a $10 *total* budget for
/// ResNet-101 over one ImageNet epoch (§V).
///
/// The paper: the 4-GPU P3 instance and every P2 size blow the budget (and
/// Ceer predicts those violations); among the feasible configurations the
/// 3-GPU P3 instance is fastest, and training on the cheapest feasible
/// instance instead (1-GPU G3) would take 9.1× longer.
///
/// Scale note: absolute epoch times in the simulator are ~20% below the
/// paper's testbed, so the binding budget is $8 here rather than $10; the
/// scenario's *structure* (which sizes violate, who wins, by what factor)
/// is what is reproduced.
pub fn fig10_total_budget(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model();
    let mut obs = Observatory::new(ctx);
    let catalog = Catalog::new(Pricing::OnDemand);
    let options = EstimateOptions::default();

    let _ = writeln!(
        report,
        "== Figure 10: ResNet-101 training time under a ${BUDGET_USD} total budget \
         (paper: $10) ==\n"
    );

    let mut table =
        Table::new(vec!["GPU", "k", "obs (h)", "pred (h)", "obs cost", "pred cost", "feasible?"]);
    let mut rows = Vec::new();
    for &gpu in GpuModel::all() {
        for k in 1..=4u32 {
            let instance = catalog.instance(gpu, k);
            let obs_us = obs.epoch_us(CNN, gpu, k, SAMPLES);
            let pred_us = {
                let (cnn, _) = obs.cnn_and_graph(CNN);
                model.predict_epoch_us(cnn, gpu, k, SAMPLES, &options)
            };
            let obs_cost = obs_us * instance.usd_per_microsecond();
            let pred_cost = pred_us * instance.usd_per_microsecond();
            table.row(vec![
                gpu.aws_family().to_string(),
                format!("{k}"),
                format!("{:.2}", obs_us / 3.6e9),
                format!("{:.2}", pred_us / 3.6e9),
                format!("${:.2}", obs_cost),
                format!("${:.2}", pred_cost),
                if pred_cost <= BUDGET_USD { "yes".into() } else { "over budget".to_string() },
            ]);
            rows.push((gpu, k, obs_us, obs_cost, pred_cost));
        }
    }
    report.push_str(&table.render());

    // Observed feasibility and optimum.
    let feasible: Vec<_> = rows.iter().filter(|r| r.3 <= BUDGET_USD).collect();
    let obs_best =
        feasible.iter().min_by(|a, b| a.2.total_cmp(&b.2)).expect("something is feasible");
    // "Cheapest" as the paper means it: lowest hourly price among feasible.
    let cheapest_feasible = feasible
        .iter()
        .min_by(|a, b| {
            let pa = catalog.instance(a.0, a.1).hourly_usd();
            let pb = catalog.instance(b.0, b.1).hourly_usd();
            pa.total_cmp(&pb)
        })
        .expect("something is feasible");
    let slowdown = cheapest_feasible.2 / obs_best.2;

    // Ceer's recommendation.
    let rec = {
        let (cnn, _) = obs.cnn_and_graph(CNN);
        model.recommend(
            cnn,
            &catalog,
            &Workload::new(SAMPLES, 4),
            &Objective::MinTimeUnderTotalBudget { usd: BUDGET_USD },
        )
    };
    let rec = rec.expect("feasible configurations exist");

    // Feasibility agreement: does Ceer flag the same configs as infeasible?
    let feasibility_agrees = rows.iter().all(|(_, _, _, obs_cost, pred_cost)| {
        // Agree when both sides are on the same side of the budget or
        // within 10% of it (boundary cases).
        (obs_cost <= &BUDGET_USD) == (pred_cost <= &BUDGET_USD)
            || (obs_cost / BUDGET_USD - 1.0).abs() < 0.10
    });

    let _ = writeln!(
        report,
        "\nobserved optimum: {}x {} ({:.2} h); Ceer recommends: {} ({:.2} h predicted)",
        obs_best.1,
        obs_best.0.aws_family(),
        obs_best.2 / 3.6e9,
        rec.instance(),
        rec.best().predicted_time_hours(),
    );

    let p3_4_pred_cost =
        rows.iter().find(|(g, k, ..)| *g == GpuModel::V100 && *k == 4).expect("present").4;
    let p2_all_over = rows
        .iter()
        .filter(|(g, ..)| *g == GpuModel::K80)
        .all(|(_, _, _, _, pred_cost)| *pred_cost > BUDGET_USD);

    let mut checks = CheckList::new();
    checks.add(
        "4-GPU P3 predicted over budget",
        "violates the budget",
        format!("${p3_4_pred_cost:.2}"),
        p3_4_pred_cost > BUDGET_USD,
    );
    checks.add(
        "all P2 sizes predicted over budget",
        "every P2 size violates",
        if p2_all_over { "all over".into() } else { "some fit".to_string() },
        p2_all_over,
    );
    checks.add(
        "predicted feasibility matches observed",
        "budget violations correctly predicted",
        if feasibility_agrees { "agrees".into() } else { "disagrees".to_string() },
        feasibility_agrees,
    );
    checks.add(
        "optimal feasible instance",
        "3-GPU P3",
        format!("{}x {} (Ceer: {})", obs_best.1, obs_best.0.aws_family(), rec.instance().name()),
        rec.instance().gpu() == obs_best.0 && rec.instance().gpu_count() == obs_best.1,
    );
    checks.add(
        "cheapest feasible instance is much slower",
        "9.1x longer on the 1-GPU G3",
        format!(
            "{:.1}x longer on the {}-GPU {}",
            slowdown,
            cheapest_feasible.1,
            cheapest_feasible.0.aws_family()
        ),
        slowdown > 1.5,
    );
    (report, checks)
}

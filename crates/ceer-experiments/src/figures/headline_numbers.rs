use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::opmodel::ModelForm;
use ceer_core::recommend::{Objective, Workload};
use ceer_core::EstimateOptions;
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_graph::OpKind;

use crate::{CheckList, ExperimentContext, Observatory};

const SAMPLES: u64 = 1_200_000;

/// The paper's headline numbers (abstract + §IV/§V text), reproduced:
///
/// - test-set prediction error across CNNs and instance types (~4.2%);
/// - the cost of ignoring light + CPU operations (15–25% error) and of
///   ignoring the communication overhead (5–20%, ~30% for AlexNet);
/// - R² ranges of the heavy-op regressions (0.84–0.98) and the linear vs
///   quadratic split (quadratic only for a few ops like
///   Conv2DBackpropFilter);
/// - cost savings vs the cheapest-GPU and latest-GPU strategies (up to 36%
///   and 44%).
pub fn headline_numbers(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let model = ctx.fitted_model();
    let mut obs = Observatory::new(ctx);
    let catalog = Catalog::new(Pricing::OnDemand);
    let mut checks = CheckList::new();

    let _ = writeln!(report, "== Headline numbers ==\n");

    // --- 1. Test-set prediction error across CNNs, GPUs and 1/4 GPUs.
    let mut errs = Vec::new();
    let mut alexnet_nocomm_errs = Vec::new();
    let mut heavy_only_errs = Vec::new();
    let mut no_light_cpu_errs = Vec::new();
    for &id in CnnId::test_set() {
        for &gpu in GpuModel::all() {
            for k in [1u32, 4] {
                let observed = obs.iteration_us(id, gpu, k);
                let (_, graph) = obs.cnn_and_graph(id);
                let full =
                    model.predict_iteration(graph, gpu, k, &EstimateOptions::default()).total_us();
                errs.push((full - observed).abs() / observed);
                // Ablations on the same prediction.
                let no_comm = model
                    .predict_iteration(
                        graph,
                        gpu,
                        k,
                        &EstimateOptions { include_comm: false, ..Default::default() },
                    )
                    .total_us();
                if id == CnnId::AlexNet && k == 1 {
                    alexnet_nocomm_errs.push((no_comm - observed).abs() / observed);
                }
                if k == 1 {
                    let heavy_only = model
                        .predict_iteration(graph, gpu, k, &EstimateOptions::heavy_only())
                        .total_us();
                    heavy_only_errs.push((heavy_only - observed).abs() / observed);
                    let no_light_cpu = model
                        .predict_iteration(
                            graph,
                            gpu,
                            k,
                            &EstimateOptions {
                                include_light: false,
                                include_cpu: false,
                                include_comm: true,
                            },
                        )
                        .total_us();
                    no_light_cpu_errs.push((no_light_cpu - observed).abs() / observed);
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mape = mean(&errs);
    let _ = writeln!(
        report,
        "test-set prediction error: {:.1}% over {} predictions",
        mape * 100.0,
        errs.len()
    );
    checks.add("average prediction error", "~4.2%", format!("{:.1}%", mape * 100.0), mape < 0.08);

    // --- 2. Ablation errors.
    let heavy_only = mean(&heavy_only_errs);
    let no_light_cpu = mean(&no_light_cpu_errs);
    let alexnet_nocomm = mean(&alexnet_nocomm_errs);
    let _ = writeln!(
        report,
        "heavy-ops-only error {:.1}%; dropping light+CPU {:.1}%; AlexNet w/o comm {:.1}%",
        heavy_only * 100.0,
        no_light_cpu * 100.0,
        alexnet_nocomm * 100.0
    );
    checks.add(
        "heavy-ops-only model error",
        "15-25%",
        format!("{:.1}%", heavy_only * 100.0),
        heavy_only > 2.0 * mape,
    );
    checks.add(
        "AlexNet error when ignoring communication",
        "almost 30%",
        format!("{:.1}%", alexnet_nocomm * 100.0),
        (0.15..0.45).contains(&alexnet_nocomm),
    );

    // --- 3. Regression quality.
    let mut r2_lo = f64::INFINITY;
    let mut r2_hi: f64 = 0.0;
    let mut quad_kinds = Vec::new();
    for m in model.op_models() {
        if m.samples() >= 8 {
            if m.form() != ModelForm::MeanFallback {
                r2_lo = r2_lo.min(m.r_squared());
                r2_hi = r2_hi.max(m.r_squared());
            }
            if m.form() == ModelForm::Quadratic && !quad_kinds.contains(&m.kind()) {
                quad_kinds.push(m.kind());
            }
        }
    }
    let _ = writeln!(
        report,
        "heavy-op regression R^2 range: {r2_lo:.2}-{r2_hi:.2}; quadratic kinds: {quad_kinds:?}"
    );
    checks.add(
        "heavy-op regression R^2",
        "0.84-0.98",
        format!("{r2_lo:.2}-{r2_hi:.2}"),
        r2_lo > 0.7,
    );
    checks.add(
        "quadratic only for a few ops (e.g. Conv2DBackpropFilter)",
        "linear for most, quadratic for a few",
        format!("{} kinds quadratic", quad_kinds.len()),
        quad_kinds.contains(&OpKind::Conv2DBackpropFilter) && quad_kinds.len() <= 6,
    );

    // --- 4. Savings vs naive strategies (cost-minimization objective).
    let mut vs_cheapest: f64 = 0.0;
    let mut vs_latest: f64 = 0.0;
    for &id in CnnId::test_set() {
        let cnn = obs.cnn_and_graph(id).0.clone();
        let rec = model
            .recommend(&cnn, &catalog, &Workload::new(SAMPLES, 4), &Objective::MinimizeCost)
            .expect("always feasible");
        let ceer_cost = {
            let inst = rec.instance();
            obs.epoch_us(id, inst.gpu(), inst.gpu_count(), SAMPLES) * inst.usd_per_microsecond()
        };
        // Cheapest-hourly strategy: 1-GPU G3. Latest-GPU strategy: P3 (the
        // 4-GPU instance AWS showcases).
        let cheapest_inst = catalog.instance(GpuModel::M60, 1);
        let cheapest_cost =
            obs.epoch_us(id, GpuModel::M60, 1, SAMPLES) * cheapest_inst.usd_per_microsecond();
        let latest_inst = catalog.instance(GpuModel::V100, 4);
        let latest_cost =
            obs.epoch_us(id, GpuModel::V100, 4, SAMPLES) * latest_inst.usd_per_microsecond();
        vs_cheapest = vs_cheapest.max(1.0 - ceer_cost / cheapest_cost);
        vs_latest = vs_latest.max(1.0 - ceer_cost / latest_cost);
    }
    let _ = writeln!(
        report,
        "max cost savings: {:.0}% vs cheapest-GPU strategy, {:.0}% vs latest-GPU strategy",
        vs_cheapest * 100.0,
        vs_latest * 100.0
    );
    checks.add(
        "cost savings vs cheapest-GPU strategy",
        "up to 36%",
        format!("up to {:.0}%", vs_cheapest * 100.0),
        vs_cheapest > 0.2,
    );
    checks.add(
        "cost savings vs latest-GPU strategy",
        "up to 44%",
        format!("up to {:.0}%", vs_latest * 100.0),
        vs_latest > 0.2,
    );

    (report, checks)
}

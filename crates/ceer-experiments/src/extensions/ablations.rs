use std::fmt::Write;

use ceer_core::classify::OpClass;
use ceer_core::{Ceer, CeerModel, EstimateOptions, FitConfig};
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;

use crate::{CheckList, ExperimentContext, Observatory, Table};

fn test_error(model: &CeerModel, obs: &mut Observatory, options: &EstimateOptions) -> f64 {
    let mut errs = Vec::new();
    for &id in CnnId::test_set() {
        for &gpu in GpuModel::all() {
            for k in [1u32, 4] {
                let observed = obs.iteration_us(id, gpu, k);
                let (_, graph) = obs.cnn_and_graph(id);
                let predicted = model.predict_iteration(graph, gpu, k, options).total_us();
                errs.push((predicted - observed).abs() / observed);
            }
        }
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Ablation study for Ceer's design choices (DESIGN.md §7):
///
/// 1. median vs mean estimator for light/CPU ops (§IV-B prefers the median
///    "to avoid the unfair impact of possible outliers");
/// 2. linear-only vs selected linear/quadratic heavy-op models (§IV-B);
/// 3. dropping each term of Eq. (2): light ops, CPU ops, the communication
///    overhead, or everything but the heavy ops (§IV-A/B quantify each).
///
/// Every variant is scored by its test-set prediction error, so the table
/// shows exactly what each modeling decision buys.
pub fn ablations(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let mut obs = Observatory::new(ctx);

    let _ = writeln!(report, "== Ablations: what each Ceer design choice buys ==\n");

    // The run's fit is the baseline; the variants refit its profiles.
    let runs = ctx.fit_profiles();
    let baseline = ctx.fitted_model();

    // Mean estimator variant: replace the medians with means computed from
    // the same profiles.
    let (mut light_sum, mut light_n, mut cpu_sum, mut cpu_n) = (0.0, 0usize, 0.0, 0usize);
    for (_, _, profiles) in runs {
        for p in profiles.iter().filter(|p| p.gpus() == 1) {
            for stat in p.op_stats() {
                match baseline.classification().class_of(stat.kind) {
                    OpClass::Light => {
                        light_sum += stat.mean_us;
                        light_n += 1;
                    }
                    OpClass::Cpu => {
                        cpu_sum += stat.mean_us;
                        cpu_n += 1;
                    }
                    OpClass::Heavy => {}
                }
            }
        }
    }
    let mean_model = baseline.with_estimators(light_sum / light_n as f64, cpu_sum / cpu_n as f64);

    // Linear-only variant.
    let linear_only = Ceer::fit_from_profiles(
        &FitConfig { allow_quadratic: false, ..ctx.fit_config().clone() },
        runs,
    );

    let full = EstimateOptions::default();
    let rows: Vec<(&str, f64)> = vec![
        ("full Ceer (Eq. 2)", test_error(baseline, &mut obs, &full)),
        ("mean instead of median for light/CPU", test_error(&mean_model, &mut obs, &full)),
        ("linear-only heavy-op models", test_error(&linear_only, &mut obs, &full)),
        (
            "no light ops",
            test_error(
                baseline,
                &mut obs,
                &EstimateOptions { include_light: false, ..Default::default() },
            ),
        ),
        (
            "no CPU ops",
            test_error(
                baseline,
                &mut obs,
                &EstimateOptions { include_cpu: false, ..Default::default() },
            ),
        ),
        (
            "no communication overhead",
            test_error(
                baseline,
                &mut obs,
                &EstimateOptions { include_comm: false, ..Default::default() },
            ),
        ),
        ("heavy ops only", test_error(baseline, &mut obs, &EstimateOptions::heavy_only())),
    ];

    let mut table = Table::new(vec!["variant", "test-set error"]);
    for (name, err) in &rows {
        table.row(vec![name.to_string(), format!("{:.1}%", err * 100.0)]);
    }
    report.push_str(&table.render());

    let err_of = |name: &str| rows.iter().find(|(n, _)| *n == name).expect("present").1;
    let baseline_err = err_of("full Ceer (Eq. 2)");

    let mut checks = CheckList::new();
    let best = rows.iter().map(|(_, e)| *e).fold(f64::INFINITY, f64::min);
    checks.add(
        "full model is (within noise) the most accurate variant",
        "each term contributes (§IV)",
        format!(
            "{:.1}% vs best {:.1}% / worst {:.1}%",
            baseline_err * 100.0,
            best * 100.0,
            rows.iter().map(|(_, e)| *e).fold(0.0, f64::max) * 100.0
        ),
        baseline_err <= best + 0.005,
    );
    checks.add(
        "dropping the comm overhead hurts",
        "5-20% error (30% for AlexNet)",
        format!("{:.1}%", err_of("no communication overhead") * 100.0),
        err_of("no communication overhead") > 1.8 * baseline_err,
    );
    checks.add(
        "heavy-only model is far worse",
        "15-25% error",
        format!("{:.1}%", err_of("heavy ops only") * 100.0),
        err_of("heavy ops only") > 2.0 * baseline_err,
    );
    checks.add(
        "median no worse than mean for light/CPU ops",
        "median preferred (outlier-robust)",
        format!(
            "median {:.2}% vs mean {:.2}%",
            baseline_err * 100.0,
            err_of("mean instead of median for light/CPU") * 100.0
        ),
        err_of("mean instead of median for light/CPU") >= baseline_err - 0.002,
    );
    (report, checks)
}

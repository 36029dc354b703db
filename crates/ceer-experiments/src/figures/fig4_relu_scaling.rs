use std::collections::BTreeMap;
use std::fmt::Write;

use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_graph::OpKind;
use ceer_stats::regression::SimpleOls;

use crate::{CheckList, ExperimentContext, Observatory, Table};

/// Figure 4: ReLU compute time vs input size on each GPU model, with the
/// linear regression fits Ceer uses (§III-C / §IV-B).
///
/// The paper's point: compute time depends strongly — and for most ops
/// linearly — on input size, and the fit is tight.
pub fn fig4_relu_scaling(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let mut obs = Observatory::new(ctx);

    let _ = writeln!(report, "== Figure 4: ReLU compute time vs input size, per GPU model ==\n");

    let mut checks = CheckList::new();
    let mut table = Table::new(vec!["GPU", "slope (us/MB)", "intercept (us)", "R^2", "points"]);
    let mut slopes = BTreeMap::new();
    for &gpu in GpuModel::all() {
        // Scatter: every ReLU instance in every training CNN.
        let mut xs = Vec::new(); // input size, MB
        let mut ys = Vec::new(); // mean compute time, us
        for &id in CnnId::training_set() {
            let profile = obs.profile(id, gpu, 1);
            for stat in profile.op_stats() {
                if stat.kind == OpKind::Relu {
                    xs.push(stat.input_bytes as f64 / 1e6);
                    ys.push(stat.mean_us);
                }
            }
        }
        let fit = SimpleOls::fit(&xs, &ys).expect("ReLU instances exist");
        slopes.insert(gpu, fit.slope());
        table.row(vec![
            gpu.to_string(),
            format!("{:.2}", fit.slope()),
            format!("{:.1}", fit.intercept()),
            format!("{:.3}", fit.r_squared()),
            format!("{}", xs.len()),
        ]);
        checks.add(
            format!("ReLU linear fit on {gpu}"),
            "tight linear relationship",
            format!("R^2 = {:.3}", fit.r_squared()),
            fit.r_squared() > 0.9,
        );
    }
    report.push_str(&table.render());

    // A small sample of the scatter on the slowest GPU, for eyeballing.
    let _ = writeln!(report, "\nsample points on P2 (input MB -> us):");
    let profile = obs.profile(CnnId::Vgg11, GpuModel::K80, 1);
    let mut pts: Vec<(f64, f64)> = profile
        .op_stats()
        .iter()
        .filter(|s| s.kind == OpKind::Relu)
        .map(|s| (s.input_bytes as f64 / 1e6, s.mean_us))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (mb, us) in pts {
        let _ = writeln!(report, "  {mb:>8.1} MB -> {us:>10.0} us");
    }

    // Slopes should decrease with GPU speed (V100 fastest).
    let ordered = [GpuModel::V100, GpuModel::T4, GpuModel::M60, GpuModel::K80];
    let slopes: Vec<f64> = ordered.iter().map(|gpu| slopes[gpu]).collect();
    checks.add(
        "slope ordering across GPUs",
        "P3 < G4 < G3 < P2",
        format!("{:.2} < {:.2} < {:.2} < {:.2}", slopes[0], slopes[1], slopes[2], slopes[3]),
        slopes.windows(2).all(|w| w[0] < w[1]),
    );
    (report, checks)
}

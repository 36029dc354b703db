use std::fmt::Write;

use ceer_core::classify::{Classification, OpClass};
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_stats::cdf::EmpiricalCdf;
use ceer_stats::summary;

use crate::{CheckList, ExperimentContext, Observatory, Table};

/// Figure 5: CDF of the normalized standard deviation (std/mean) of heavy
/// GPU operations' compute times, per GPU model.
///
/// §III-C: for a fixed {heavy op, input size}, compute times barely move —
/// 95% of normalized deviations are below 0.1 — while light GPU and CPU
/// operations are far noisier (which is why Ceer refuses to regress them
/// and uses medians instead).
pub fn fig5_variability_cdf(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let mut obs = Observatory::new(ctx);

    let _ =
        writeln!(report, "== Figure 5: CDF of normalized std dev of heavy-op compute times ==\n");

    let reference_profiles: Vec<_> =
        CnnId::training_set().iter().map(|&id| obs.profile(id, GpuModel::K80, 1).clone()).collect();
    let classification = Classification::from_profiles(&reference_profiles, GpuModel::K80);

    let mut checks = CheckList::new();
    let mut table =
        Table::new(vec!["GPU", "p50", "p90", "p95", "p99", "max", "n (heavy op instances)"]);
    for &gpu in GpuModel::all() {
        let mut cvs = Vec::new();
        for &id in CnnId::training_set() {
            let profile = obs.profile(id, gpu, 1);
            cvs.extend(
                profile.normalized_std_devs(|s| classification.class_of(s.kind) == OpClass::Heavy),
            );
        }
        let cdf = EmpiricalCdf::from_sample(&cvs).expect("heavy ops exist");
        let q = |p: f64| cdf.value_at_fraction(p).expect("valid level");
        table.row(vec![
            gpu.to_string(),
            format!("{:.3}", q(0.50)),
            format!("{:.3}", q(0.90)),
            format!("{:.3}", q(0.95)),
            format!("{:.3}", q(0.99)),
            format!("{:.3}", q(1.0)),
            format!("{}", cdf.len()),
        ]);
        checks.add(
            format!("heavy-op CV p95 on {gpu}"),
            "< 0.1 (95% of values below 0.1)",
            format!("{:.3}", q(0.95)),
            q(0.95) < 0.1,
        );
    }
    report.push_str(&table.render());

    // Light and CPU ops for contrast (pooled over GPUs).
    let mut light_cvs = Vec::new();
    let mut cpu_cvs = Vec::new();
    for &gpu in GpuModel::all() {
        for &id in CnnId::training_set() {
            let profile = obs.profile(id, gpu, 1);
            light_cvs.extend(
                profile.normalized_std_devs(|s| classification.class_of(s.kind) == OpClass::Light),
            );
            cpu_cvs.extend(
                profile.normalized_std_devs(|s| classification.class_of(s.kind) == OpClass::Cpu),
            );
        }
    }
    let light_median = summary::median(&light_cvs).expect("light ops exist");
    let cpu_median = summary::median(&cpu_cvs).expect("cpu ops exist");
    let _ =
        writeln!(report, "\nmedian CV: light GPU ops {light_median:.2}, CPU ops {cpu_median:.2}");
    checks.add(
        "light/CPU ops exhibit higher variability",
        "higher normalized deviation than heavy GPU ops",
        format!("light {light_median:.2}, cpu {cpu_median:.2} (vs heavy < 0.1)"),
        light_median > 0.1 && cpu_median > 0.1,
    );
    (report, checks)
}

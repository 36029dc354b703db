use std::collections::BTreeMap;
use std::fmt::Write;

use ceer_core::classify::{Classification, OpClass};
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_graph::OpKind;

use super::kind_means;
use crate::{CheckList, ExperimentContext, Observatory, Table};

/// Figure 2: mean compute time of the heavy GPU operations on all four AWS
/// GPU models, averaged over the 8 training-set CNNs.
///
/// Reproduces §III-A's headline ratios — P3 ≈ 10× lower compute time than
/// P2 and ≈ 4× lower than G4 on average, P2 ≈ 1.5× higher than G3 — plus
/// the coverage claims: the heavy ops contribute 47–94% of training time,
/// the light ops less than ~7%.
pub fn fig2_op_times(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut obs = Observatory::new(ctx);
    let mut report = String::new();

    let _ =
        writeln!(report, "== Figure 2: operation-level compute times (us) across GPU models ==\n");

    let means: BTreeMap<GpuModel, BTreeMap<OpKind, f64>> =
        GpuModel::all().iter().map(|&g| (g, kind_means(&mut obs, g))).collect();

    // The empirical heavy set, learned exactly as Ceer learns it.
    let reference_profiles: Vec<_> =
        CnnId::training_set().iter().map(|&id| obs.profile(id, GpuModel::K80, 1).clone()).collect();
    let classification = Classification::from_profiles(&reference_profiles, GpuModel::K80);
    let mut heavy = classification.heavy_kinds();
    heavy.sort_by(|a, b| means[&GpuModel::K80][b].total_cmp(&means[&GpuModel::K80][a]));

    let mut table = Table::new(vec!["operation", "P3/V100", "P2/K80", "G4/T4", "G3/M60"]);
    for &kind in &heavy {
        table.row(vec![
            kind.to_string(),
            format!("{:.0}", means[&GpuModel::V100][&kind]),
            format!("{:.0}", means[&GpuModel::K80][&kind]),
            format!("{:.0}", means[&GpuModel::T4][&kind]),
            format!("{:.0}", means[&GpuModel::M60][&kind]),
        ]);
    }
    report.push_str(&table.render());

    // Average ratios across heavy ops.
    let avg_ratio = |num: GpuModel, den: GpuModel| -> f64 {
        let r: f64 = heavy.iter().map(|k| means[&num][k] / means[&den][k]).sum();
        r / heavy.len() as f64
    };
    let p2_p3 = avg_ratio(GpuModel::K80, GpuModel::V100);
    let g4_p3 = avg_ratio(GpuModel::T4, GpuModel::V100);
    let p2_g3 = avg_ratio(GpuModel::K80, GpuModel::M60);

    // Coverage: heavy / light share of per-iteration op time per CNN.
    let mut heavy_shares = Vec::new();
    let mut light_shares = Vec::new();
    for &id in CnnId::training_set() {
        let profile = obs.profile(id, GpuModel::K80, 1);
        let total = profile.total_op_time_us(|_| true);
        let heavy_time =
            profile.total_op_time_us(|s| classification.class_of(s.kind) == OpClass::Heavy);
        let light_time =
            profile.total_op_time_us(|s| classification.class_of(s.kind) == OpClass::Light);
        heavy_shares.push(heavy_time / total);
        light_shares.push(light_time / total);
    }
    let heavy_min = heavy_shares.iter().cloned().fold(f64::INFINITY, f64::min);
    let heavy_max = heavy_shares.iter().cloned().fold(0.0, f64::max);
    let light_max = light_shares.iter().cloned().fold(0.0, f64::max);

    report.push('\n');
    let mut checks = CheckList::new();
    checks.add(
        "heavy op kinds (Fig. 2 shows 20)",
        "20",
        format!("{}", heavy.len()),
        (15..=22).contains(&heavy.len()),
    );
    checks.add(
        "P3 vs P2 mean speedup",
        "~10x",
        format!("{p2_p3:.1}x"),
        (7.0..13.0).contains(&p2_p3),
    );
    checks.add("P3 vs G4 mean speedup", "~4x", format!("{g4_p3:.1}x"), (3.0..5.0).contains(&g4_p3));
    checks.add("P2 vs G3 mean ratio", "~1.5x", format!("{p2_g3:.2}x"), (1.2..1.8).contains(&p2_g3));
    checks.add(
        "heavy ops' share of training time",
        "47%-94%",
        format!("{:.0}%-{:.0}%", heavy_min * 100.0, heavy_max * 100.0),
        heavy_min > 0.45 && heavy_max < 0.99,
    );
    checks.add(
        "light ops' share of training time",
        "< 7%",
        format!("max {:.1}%", light_max * 100.0),
        light_max < 0.10,
    );
    (report, checks)
}

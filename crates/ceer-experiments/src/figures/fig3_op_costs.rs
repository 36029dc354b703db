use std::collections::BTreeMap;
use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing};
use ceer_core::classify::Classification;
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_graph::OpKind;

use super::kind_means;
use crate::{CheckList, ExperimentContext, Observatory, Table};

/// Figure 3: per-operation compute *cost* across GPU models — the compute
/// time multiplied by the (basic single-GPU) instance's price per
/// microsecond.
///
/// Reproduces §III-B: G4 is the cheapest GPU for most heavy operations
/// (16 of 20 in the paper) while P3 wins the pooling operations (~20%
/// average reduction over G4); the 10× time advantage of P3 over P2 shrinks
/// to ~3× in cost.
pub fn fig3_op_costs(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut obs = Observatory::new(ctx);
    let catalog = Catalog::new(Pricing::OnDemand);
    let mut report = String::new();

    let _ = writeln!(
        report,
        "== Figure 3: operation-level compute costs (nano-USD) across GPU models ==\n"
    );

    // Cost per op = mean time x usd/us of the basic 1-GPU instance.
    let cost_rate: BTreeMap<GpuModel, f64> = GpuModel::all()
        .iter()
        .map(|&g| (g, catalog.instance(g, 1).usd_per_microsecond()))
        .collect();
    let means: BTreeMap<GpuModel, BTreeMap<OpKind, f64>> =
        GpuModel::all().iter().map(|&g| (g, kind_means(&mut obs, g))).collect();

    let reference_profiles: Vec<_> =
        CnnId::training_set().iter().map(|&id| obs.profile(id, GpuModel::K80, 1).clone()).collect();
    let classification = Classification::from_profiles(&reference_profiles, GpuModel::K80);
    let mut heavy = classification.heavy_kinds();
    heavy.sort_by(|a, b| means[&GpuModel::K80][b].total_cmp(&means[&GpuModel::K80][a]));

    let cost = |gpu: GpuModel, kind: OpKind| means[&gpu][&kind] * cost_rate[&gpu] * 1e9;

    let mut table =
        Table::new(vec!["operation", "P3/V100", "P2/K80", "G4/T4", "G3/M60", "cheapest"]);
    let mut g4_wins = 0usize;
    let mut p3_wins = 0usize;
    let mut pooling_p3_reductions = Vec::new();
    let mut nonpooling_g4_reductions = Vec::new();
    for &kind in &heavy {
        let costs: Vec<(GpuModel, f64)> =
            GpuModel::all().iter().map(|&g| (g, cost(g, kind))).collect();
        let cheapest = costs.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("non-empty").0;
        match cheapest {
            GpuModel::T4 => g4_wins += 1,
            GpuModel::V100 => p3_wins += 1,
            _ => {}
        }
        if kind.is_pooling() {
            pooling_p3_reductions.push(1.0 - cost(GpuModel::V100, kind) / cost(GpuModel::T4, kind));
        } else if cheapest == GpuModel::T4 {
            nonpooling_g4_reductions
                .push(1.0 - cost(GpuModel::T4, kind) / cost(GpuModel::V100, kind));
        }
        table.row(vec![
            kind.to_string(),
            format!("{:.1}", cost(GpuModel::V100, kind)),
            format!("{:.1}", cost(GpuModel::K80, kind)),
            format!("{:.1}", cost(GpuModel::T4, kind)),
            format!("{:.1}", cost(GpuModel::M60, kind)),
            cheapest.aws_family().to_string(),
        ]);
    }
    report.push_str(&table.render());

    let avg_cost_ratio = |num: GpuModel, den: GpuModel| -> f64 {
        heavy.iter().map(|&k| cost(num, k) / cost(den, k)).sum::<f64>() / heavy.len() as f64
    };
    let p2_p3_cost = avg_cost_ratio(GpuModel::K80, GpuModel::V100);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let pooling_reduction = mean(&pooling_p3_reductions);
    let g4_reduction = mean(&nonpooling_g4_reductions);

    report.push('\n');
    let mut checks = CheckList::new();
    checks.add(
        "G4 cheapest for most ops",
        "16 of 20",
        format!("{g4_wins} of {}", heavy.len()),
        g4_wins * 10 >= heavy.len() * 6,
    );
    checks.add(
        "P3 cheapest for the pooling ops",
        "4 of 20",
        format!("{p3_wins} of {}", heavy.len()),
        (3..=6).contains(&p3_wins),
    );
    checks.add(
        "P3 cost reduction on pooling vs G4",
        "~20% (peak 31%)",
        format!("avg {:.0}%", pooling_reduction * 100.0),
        (0.05..0.50).contains(&pooling_reduction),
    );
    checks.add(
        "G4 cost reduction vs P3 elsewhere",
        "~16% (peak 29%)",
        format!("avg {:.0}%", g4_reduction * 100.0),
        (0.05..0.55).contains(&g4_reduction),
    );
    checks.add(
        "P2-vs-P3 cost ratio (was 10x in time)",
        "~3x",
        format!("{p2_p3_cost:.1}x"),
        (2.0..4.5).contains(&p2_p3_cost),
    );
    (report, checks)
}

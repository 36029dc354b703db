use std::fmt::Write;

use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;

use crate::{CheckList, ExperimentContext, Observatory, Table};

const SAMPLES: u64 = 6_400;

/// Figure 6: training time vs number of GPUs under data parallelism, for
/// Inception-v1 over 6,400 ImageNet samples (§III-D).
///
/// Reproduces the diminishing-returns shape: average reductions of ~35.8%
/// (2 GPUs), ~46.6% (3) and ~53.6% (4) relative to one GPU, consistent
/// across GPU models.
pub fn fig6_data_parallel_scaling(ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::new();
    let mut obs = Observatory::new(ctx);

    let _ =
        writeln!(report, "== Figure 6: Inception-v1 training time vs #GPUs (6,400 samples) ==\n");

    let mut table = Table::new(vec!["GPU", "1 GPU (s)", "2 GPUs (s)", "3 GPUs (s)", "4 GPUs (s)"]);
    // reductions[k-2][gpu index]
    let mut reductions = [[0.0f64; 4]; 3];
    for (gi, &gpu) in GpuModel::all().iter().enumerate() {
        let base = obs.epoch_us(CnnId::InceptionV1, gpu, 1, SAMPLES);
        let mut cells = vec![gpu.to_string(), format!("{:.1}", base / 1e6)];
        for k in 2..=4u32 {
            let t = obs.epoch_us(CnnId::InceptionV1, gpu, k, SAMPLES);
            reductions[(k - 2) as usize][gi] = 1.0 - t / base;
            cells.push(format!("{:.1}", t / 1e6));
        }
        table.row(cells);
    }
    report.push_str(&table.render());

    let avg = |k: usize| reductions[k].iter().sum::<f64>() / 4.0;
    let (r2, r3, r4) = (avg(0), avg(1), avg(2));
    let _ = writeln!(
        report,
        "\naverage reduction vs 1 GPU: 2 GPUs {:.1}%, 3 GPUs {:.1}%, 4 GPUs {:.1}%",
        r2 * 100.0,
        r3 * 100.0,
        r4 * 100.0
    );

    let mut checks = CheckList::new();
    checks.add(
        "reduction at 2 GPUs",
        "35.8%",
        format!("{:.1}%", r2 * 100.0),
        (r2 - 0.358).abs() < 0.04,
    );
    checks.add(
        "reduction at 3 GPUs",
        "46.6%",
        format!("{:.1}%", r3 * 100.0),
        (r3 - 0.466).abs() < 0.04,
    );
    checks.add(
        "reduction at 4 GPUs",
        "53.6%",
        format!("{:.1}%", r4 * 100.0),
        (r4 - 0.536).abs() < 0.04,
    );
    checks.add(
        "diminishing returns",
        "2->3 gain (16.9%) exceeds 3->4 gain (13.1%)",
        format!("{:.1}% vs {:.1}%", (r3 - r2) * 100.0, (r4 - r3) * 100.0),
        r3 - r2 > r4 - r3 && r4 > r3 && r3 > r2,
    );
    (report, checks)
}

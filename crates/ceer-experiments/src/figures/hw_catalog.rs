use std::fmt::Write;

use ceer_cloud::{Catalog, Pricing, OFFERINGS};
use ceer_gpusim::GpuModel;

use crate::{CheckList, ExperimentContext, Table};

/// §II's hardware table: the AWS GPU instances the paper evaluates, their
/// GPU models, and both price books (AWS On-Demand and the §V market-ratio
/// variant).
pub fn hw_catalog(_ctx: &ExperimentContext) -> (String, CheckList) {
    let mut report = String::from("== AWS GPU instance catalog (paper §II / §V) ==\n\n");

    let mut table =
        Table::new(vec!["instance", "GPU", "GPUs", "$/hr (AWS)", "CUDA cores", "mem (GiB)"]);
    for o in &OFFERINGS {
        let spec = o.gpu.spec();
        table.row(vec![
            o.name.to_string(),
            o.gpu.name().to_string(),
            format!("{}", o.gpu_count),
            format!("{:.3}", o.hourly_usd),
            format!("{}", spec.cuda_cores),
            format!("{}", spec.memory_gib),
        ]);
    }
    report.push_str(&table.render());

    report.push_str("\nmarket-ratio per-GPU prices (§V):\n");
    let market = Catalog::new(Pricing::MarketRatio);
    for &gpu in GpuModel::all() {
        let _ =
            writeln!(report, "  {}: ${:.2}/hr per GPU", gpu, market.instance(gpu, 1).hourly_usd());
    }

    let aws = Catalog::new(Pricing::OnDemand);
    let mut checks = CheckList::new();
    checks.add(
        "single-GPU price range",
        "$0.75 to $3.06 per hour",
        format!(
            "${:.2} to ${:.2}",
            aws.instance(GpuModel::M60, 1).hourly_usd(),
            aws.instance(GpuModel::V100, 1).hourly_usd()
        ),
        true,
    );
    checks.add(
        "market price ratio P3:G4:G3:P2",
        "1 : 0.31 : 0.18 : 0.05",
        format!("1 : {:.2} : {:.2} : {:.2}", 0.95 / 3.06, 0.55 / 3.06, 0.15 / 3.06),
        true,
    );
    (report, checks)
}

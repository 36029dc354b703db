//! The paper's evaluation: its hardware table, Figures 1–12 and the
//! headline numbers of the abstract and §IV/§V.
//!
//! Each function returns the regenerator's report text (everything before
//! the verdict block) together with its [`CheckList`]. The output is a pure
//! function of the [`ExperimentContext`] — independent of thread count,
//! environment and host — which is what the committed `results/` and the
//! golden-file tests assert.
//!
//! [`CheckList`]: crate::CheckList
//! [`ExperimentContext`]: crate::ExperimentContext

use std::collections::BTreeMap;

use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_graph::OpKind;

use crate::Observatory;

mod fig10_total_budget;
mod fig11_cost_min;
mod fig12_market_prices;
mod fig1_dag;
mod fig2_op_times;
mod fig3_op_costs;
mod fig4_relu_scaling;
mod fig5_variability_cdf;
mod fig6_data_parallel_scaling;
mod fig7_comm_overhead;
mod fig8_validation;
mod fig9_hourly_budget;
mod headline_numbers;
mod hw_catalog;

pub use fig10_total_budget::fig10_total_budget;
pub use fig11_cost_min::fig11_cost_min;
pub use fig12_market_prices::fig12_market_prices;
pub use fig1_dag::{fig1_dag, fig1_dot, FIG1_DOT};
pub use fig2_op_times::fig2_op_times;
pub use fig3_op_costs::fig3_op_costs;
pub use fig4_relu_scaling::fig4_relu_scaling;
pub use fig5_variability_cdf::fig5_variability_cdf;
pub use fig6_data_parallel_scaling::fig6_data_parallel_scaling;
pub use fig7_comm_overhead::fig7_comm_overhead;
pub use fig8_validation::fig8_validation;
pub use fig9_hourly_budget::fig9_hourly_budget;
pub use headline_numbers::headline_numbers;
pub use hw_catalog::hw_catalog;

/// Two-level mean per kind (within CNN, then across CNNs), as in §III-A.
fn kind_means(obs: &mut Observatory, gpu: GpuModel) -> BTreeMap<OpKind, f64> {
    let mut per_cnn: BTreeMap<OpKind, Vec<f64>> = BTreeMap::new();
    for &id in CnnId::training_set() {
        let profile = obs.profile(id, gpu, 1);
        let mut sums: BTreeMap<OpKind, (f64, usize)> = BTreeMap::new();
        for stat in profile.op_stats() {
            let e = sums.entry(stat.kind).or_insert((0.0, 0));
            e.0 += stat.mean_us;
            e.1 += 1;
        }
        for (kind, (total, count)) in sums {
            per_cnn.entry(kind).or_default().push(total / count as f64);
        }
    }
    per_cnn.into_iter().map(|(k, v)| (k, v.iter().sum::<f64>() / v.len() as f64)).collect()
}

//! AWS GPU instance catalog and pricing for the Ceer reproduction.
//!
//! Encodes the eight EC2 instances the paper evaluates on (§II and §V), with
//! their On-Demand prices, the paper's *proxy pricing* rule for GPU counts
//! AWS does not sell (e.g. a 3-GPU P2 instance is priced at 3/8 of
//! `p2.8xlarge`), and the §V "market price ratio" variant in which
//! per-GPU prices follow commodity hardware prices (P3 $3.06 : G4 $0.95 :
//! G3 $0.55 : P2 $0.15).
//!
//! # Example
//!
//! ```
//! use ceer_cloud::{Catalog, Pricing};
//! use ceer_gpusim::GpuModel;
//!
//! let catalog = Catalog::new(Pricing::OnDemand);
//! let p3 = catalog.instance(GpuModel::V100, 1);
//! assert_eq!(p3.name(), "p3.2xlarge");
//! assert_eq!(p3.hourly_usd(), 3.06);
//! // 3-GPU P2 is a proxy: 3/8 of p2.8xlarge ($7.20).
//! let p2x3 = catalog.instance(GpuModel::K80, 3);
//! assert!(p2x3.is_proxy());
//! assert!((p2x3.hourly_usd() - 2.70).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use ceer_gpusim::GpuModel;
use serde::{Deserialize, Serialize};

/// Microseconds in an hour — the normalization the paper's Figure 3 uses to
/// express per-operation cost (§III-B quotes 3.6 × 10⁹).
pub const MICROS_PER_HOUR: f64 = 3.6e9;

/// Which price book applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pricing {
    /// AWS On-Demand prices as quoted in the paper.
    OnDemand,
    /// §V "market price ratio" variant: per-GPU hourly prices proportional
    /// to the GPUs' commodity market prices (P3 kept at its AWS price).
    MarketRatio,
}

/// A concrete (or proxy) rentable instance configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    name: String,
    gpu: GpuModel,
    gpu_count: u32,
    hourly_usd: f64,
    is_proxy: bool,
}

impl Instance {
    /// Instance type name (`p3.2xlarge`, or `p2.8xlarge[3/8]` for proxies).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GPU model on this instance.
    pub fn gpu(&self) -> GpuModel {
        self.gpu
    }

    /// Number of GPUs used.
    pub fn gpu_count(&self) -> u32 {
        self.gpu_count
    }

    /// Hourly rental price in USD.
    pub fn hourly_usd(&self) -> f64 {
        self.hourly_usd
    }

    /// Whether this configuration is priced by the paper's proxy rule
    /// rather than sold directly by AWS.
    pub fn is_proxy(&self) -> bool {
        self.is_proxy
    }

    /// Price per microsecond, the Figure 3 normalization.
    pub fn usd_per_microsecond(&self) -> f64 {
        self.hourly_usd / MICROS_PER_HOUR
    }

    /// Cost of running this instance for `hours`.
    pub fn cost_for_hours(&self, hours: f64) -> f64 {
        self.hourly_usd * hours
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x {}, ${:.3}/hr)",
            self.name,
            self.gpu_count,
            self.gpu.name(),
            self.hourly_usd
        )
    }
}

/// One of the eight real AWS offerings from §V of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Offering {
    /// EC2 instance type name.
    pub name: &'static str,
    /// GPU model.
    pub gpu: GpuModel,
    /// GPUs on the instance.
    pub gpu_count: u32,
    /// On-Demand hourly price (USD) as quoted in the paper.
    pub hourly_usd: f64,
}

/// The paper's eight instances: four single-GPU, four multi-GPU.
pub static OFFERINGS: [Offering; 8] = [
    Offering { name: "p3.2xlarge", gpu: GpuModel::V100, gpu_count: 1, hourly_usd: 3.06 },
    Offering { name: "p2.xlarge", gpu: GpuModel::K80, gpu_count: 1, hourly_usd: 0.90 },
    Offering { name: "g4dn.2xlarge", gpu: GpuModel::T4, gpu_count: 1, hourly_usd: 0.752 },
    Offering { name: "g3s.xlarge", gpu: GpuModel::M60, gpu_count: 1, hourly_usd: 0.75 },
    Offering { name: "p3.8xlarge", gpu: GpuModel::V100, gpu_count: 4, hourly_usd: 12.24 },
    Offering { name: "p2.8xlarge", gpu: GpuModel::K80, gpu_count: 8, hourly_usd: 7.20 },
    Offering { name: "g4dn.12xlarge", gpu: GpuModel::T4, gpu_count: 4, hourly_usd: 3.912 },
    Offering { name: "g3.16xlarge", gpu: GpuModel::M60, gpu_count: 4, hourly_usd: 4.56 },
];

/// §V market-ratio per-GPU hourly prices: P3 $3.06 (unchanged), G4 $0.95,
/// G3 $0.55, P2 $0.15.
fn market_per_gpu_usd(gpu: GpuModel) -> f64 {
    match gpu {
        GpuModel::V100 => 3.06,
        GpuModel::T4 => 0.95,
        GpuModel::M60 => 0.55,
        GpuModel::K80 => 0.15,
    }
}

/// The instance catalog under a chosen price book.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Catalog {
    pricing: Pricing,
}

impl Catalog {
    /// Creates a catalog with the given pricing.
    pub fn new(pricing: Pricing) -> Self {
        Catalog { pricing }
    }

    /// The active price book.
    pub fn pricing(&self) -> Pricing {
        self.pricing
    }

    /// The single-GPU offering for a GPU model.
    pub fn base_offering(gpu: GpuModel) -> &'static Offering {
        OFFERINGS
            .iter()
            .find(|o| o.gpu == gpu && o.gpu_count == 1)
            .expect("every GPU model has a 1-GPU offering")
    }

    /// The multi-GPU offering for a GPU model (4 GPUs, or 8 for P2).
    pub fn multi_offering(gpu: GpuModel) -> &'static Offering {
        OFFERINGS
            .iter()
            .find(|o| o.gpu == gpu && o.gpu_count > 1)
            // ceer-lint: allow(panic-reachability) -- compiled-in catalog invariant: every paper GPU ships a multi-GPU offering (asserted in tests)
            .expect("every GPU model has a multi-GPU offering")
    }

    /// The most GPUs of `gpu` one instance offers (4, or 8 for P2): the
    /// largest `gpu_count` [`instance`](Self::instance) accepts.
    pub fn max_gpus(gpu: GpuModel) -> u32 {
        Self::multi_offering(gpu).gpu_count
    }

    /// Builds the instance configuration for `gpu_count` GPUs of `gpu`.
    ///
    /// Under [`Pricing::OnDemand`], exact AWS offerings use their listed
    /// price; other counts use the paper's proxy rule — `k/N` of the
    /// `N`-GPU offering's price (§V: "for cost, we use 3/8th of the rental
    /// cost of the 8-GPU instance, as a proxy"). Under
    /// [`Pricing::MarketRatio`], multi-GPU prices scale linearly in the
    /// per-GPU market price (§V).
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero or exceeds the largest offering.
    pub fn instance(&self, gpu: GpuModel, gpu_count: u32) -> Instance {
        assert!(gpu_count > 0, "instance needs at least one GPU");
        let multi = Self::multi_offering(gpu);
        assert!(
            gpu_count <= multi.gpu_count,
            "{} supports at most {} GPUs",
            gpu.aws_family(),
            multi.gpu_count
        );
        match self.pricing {
            Pricing::MarketRatio => Instance {
                name: format!("{}-market-{}gpu", gpu.aws_family().to_lowercase(), gpu_count),
                gpu,
                gpu_count,
                hourly_usd: market_per_gpu_usd(gpu) * gpu_count as f64,
                is_proxy: false,
            },
            Pricing::OnDemand => {
                if let Some(exact) =
                    OFFERINGS.iter().find(|o| o.gpu == gpu && o.gpu_count == gpu_count)
                {
                    Instance {
                        name: exact.name.to_string(),
                        gpu,
                        gpu_count,
                        hourly_usd: exact.hourly_usd,
                        is_proxy: false,
                    }
                } else {
                    let fraction = gpu_count as f64 / multi.gpu_count as f64;
                    Instance {
                        name: format!("{}[{}/{}]", multi.name, gpu_count, multi.gpu_count),
                        gpu,
                        gpu_count,
                        hourly_usd: multi.hourly_usd * fraction,
                        is_proxy: true,
                    }
                }
            }
        }
    }

    /// Enumerates every configuration with 1..=`max_gpus` GPUs across all
    /// four GPU models — the search space of the paper's scenarios.
    pub fn enumerate(&self, max_gpus: u32) -> Vec<Instance> {
        let mut out = Vec::new();
        for &gpu in GpuModel::all() {
            for k in 1..=max_gpus {
                out.push(self.instance(gpu, k));
            }
        }
        out
    }

    /// All configurations (1..=`max_gpus` per model) whose hourly price fits
    /// `usd_per_hour`, cheapest first.
    pub fn within_hourly_budget(&self, max_gpus: u32, usd_per_hour: f64) -> Vec<Instance> {
        let mut out: Vec<Instance> = self
            .enumerate(max_gpus)
            .into_iter()
            .filter(|i| i.hourly_usd() <= usd_per_hour + 1e-9)
            .collect();
        out.sort_by(|a, b| a.hourly_usd().total_cmp(&b.hourly_usd()));
        out
    }

    /// For each GPU model, the largest configuration within the hourly
    /// budget (the paper's Figure 9 selection rule), if any fits.
    pub fn largest_within_budget_per_gpu(&self, max_gpus: u32, usd_per_hour: f64) -> Vec<Instance> {
        GpuModel::all()
            .iter()
            .filter_map(|&gpu| {
                (1..=max_gpus)
                    .filter(|&k| self.instance(gpu, k).hourly_usd() <= usd_per_hour + 1e-9)
                    .max()
                    .map(|k| self.instance(gpu, k))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_offerings_match_paper_prices() {
        assert_eq!(OFFERINGS.len(), 8);
        let find = |name: &str| OFFERINGS.iter().find(|o| o.name == name).unwrap();
        assert_eq!(find("p3.2xlarge").hourly_usd, 3.06);
        assert_eq!(find("p2.xlarge").hourly_usd, 0.90);
        assert_eq!(find("g4dn.2xlarge").hourly_usd, 0.752);
        assert_eq!(find("g3s.xlarge").hourly_usd, 0.75);
        assert_eq!(find("p3.8xlarge").hourly_usd, 12.24);
        assert_eq!(find("p2.8xlarge").hourly_usd, 7.20);
        assert_eq!(find("g4dn.12xlarge").hourly_usd, 3.912);
        assert_eq!(find("g3.16xlarge").hourly_usd, 4.56);
    }

    #[test]
    fn exact_offerings_are_not_proxies() {
        let c = Catalog::new(Pricing::OnDemand);
        assert!(!c.instance(GpuModel::V100, 1).is_proxy());
        assert!(!c.instance(GpuModel::V100, 4).is_proxy());
        assert!(!c.instance(GpuModel::K80, 8).is_proxy());
    }

    #[test]
    fn three_gpu_p2_uses_paper_proxy_price() {
        // §V: 3-GPU P2 priced at 3/8 of p2.8xlarge.
        let c = Catalog::new(Pricing::OnDemand);
        let i = c.instance(GpuModel::K80, 3);
        assert!(i.is_proxy());
        assert!((i.hourly_usd() - 2.70).abs() < 1e-9);
    }

    #[test]
    fn three_gpu_prices_match_fig9_constraints() {
        // Fig. 9 ($3/hr budget): 3-GPU G4 fits ($2.934), 3-GPU G3 exceeds
        // by 42 cents ($3.42), 1-GPU P3 exceeds by 6 cents ($3.06).
        let c = Catalog::new(Pricing::OnDemand);
        let g4 = c.instance(GpuModel::T4, 3).hourly_usd();
        let g3 = c.instance(GpuModel::M60, 3).hourly_usd();
        assert!((g4 - 2.934).abs() < 1e-9);
        assert!((g3 - 3.42).abs() < 1e-9);
    }

    #[test]
    fn market_prices_follow_ratio() {
        let c = Catalog::new(Pricing::MarketRatio);
        assert_eq!(c.instance(GpuModel::V100, 1).hourly_usd(), 3.06);
        assert_eq!(c.instance(GpuModel::T4, 1).hourly_usd(), 0.95);
        assert_eq!(c.instance(GpuModel::M60, 1).hourly_usd(), 0.55);
        assert_eq!(c.instance(GpuModel::K80, 1).hourly_usd(), 0.15);
        // Linear scale-up for multi-GPU.
        assert_eq!(c.instance(GpuModel::K80, 4).hourly_usd(), 0.60);
    }

    #[test]
    fn enumerate_covers_models_and_counts() {
        let c = Catalog::new(Pricing::OnDemand);
        let all = c.enumerate(4);
        assert_eq!(all.len(), 16);
        assert!(all.iter().any(|i| i.gpu() == GpuModel::M60 && i.gpu_count() == 2));
    }

    #[test]
    fn usd_per_microsecond_normalization() {
        let c = Catalog::new(Pricing::OnDemand);
        let i = c.instance(GpuModel::V100, 1);
        assert!((i.usd_per_microsecond() - 3.06 / 3.6e9).abs() < 1e-20);
    }

    #[test]
    fn cost_for_hours_is_linear() {
        let c = Catalog::new(Pricing::OnDemand);
        let i = c.instance(GpuModel::T4, 1);
        assert!((i.cost_for_hours(10.0) - 7.52).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rejects_oversized_instance() {
        Catalog::new(Pricing::OnDemand).instance(GpuModel::V100, 5);
    }

    #[test]
    fn hourly_budget_queries() {
        let c = Catalog::new(Pricing::OnDemand);
        let affordable = c.within_hourly_budget(4, 1.0);
        // Only the three sub-$1 single-GPU instances fit $1/hr.
        assert_eq!(affordable.len(), 3);
        assert!(affordable.windows(2).all(|w| w[0].hourly_usd() <= w[1].hourly_usd()));
        assert!(affordable.iter().all(|i| i.gpu_count() == 1));

        // Figure 9's selection at $3.42/hr: 3-GPU P2/G3/G4, 1-GPU P3.
        let picks = c.largest_within_budget_per_gpu(4, 3.42);
        assert_eq!(picks.len(), 4);
        let count_of =
            |g: GpuModel| picks.iter().find(|i| i.gpu() == g).expect("present").gpu_count();
        assert_eq!(count_of(GpuModel::V100), 1);
        assert_eq!(count_of(GpuModel::K80), 3);
        assert_eq!(count_of(GpuModel::T4), 3);
        assert_eq!(count_of(GpuModel::M60), 3);
    }

    #[test]
    fn impossible_budget_yields_empty_selection() {
        let c = Catalog::new(Pricing::OnDemand);
        assert!(c.within_hourly_budget(4, 0.10).is_empty());
        assert!(c.largest_within_budget_per_gpu(4, 0.10).is_empty());
    }

    #[test]
    fn p2_supports_up_to_eight() {
        let c = Catalog::new(Pricing::OnDemand);
        assert_eq!(c.instance(GpuModel::K80, 8).name(), "p2.8xlarge");
        assert_eq!(Catalog::max_gpus(GpuModel::K80), 8);
        for gpu in [GpuModel::V100, GpuModel::T4, GpuModel::M60] {
            assert_eq!(Catalog::max_gpus(gpu), 4, "{gpu}");
        }
    }

    #[test]
    fn display_is_informative() {
        let c = Catalog::new(Pricing::OnDemand);
        let s = c.instance(GpuModel::V100, 4).to_string();
        assert!(s.contains("p3.8xlarge"));
        assert!(s.contains("4x"));
    }
}

//! Optimal cloud-instance recommendation (§IV-D and the §V scenarios).
//!
//! Given a fitted [`CeerModel`], a CNN, and a catalog of candidate
//! instances, Ceer predicts training time `T` and cost `C` for every
//! candidate and recommends the one minimizing the user's objective
//! `Obj(T, C)`. The paper's four evaluation scenarios map directly onto
//! [`Objective`]: validation (time ranking), hourly-budget-constrained
//! throughput (Fig. 9), total-budget-constrained time (Fig. 10), and cost
//! minimization (Figs. 11–12).

use ceer_cloud::{Catalog, Instance};
use ceer_graph::models::Cnn;
use serde::{Deserialize, Serialize};

use crate::estimate::{epoch_us, CeerModel, EstimateOptions};
use crate::plan::{self, PredictPlan};

/// What is being trained and how wide the search may go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Training-set size in samples (the paper uses ImageNet: 1.2M).
    pub total_samples: u64,
    /// Largest GPU count to consider per GPU model (the paper sweeps 1–4).
    pub max_gpus: u32,
    /// Reject instances whose GPU memory cannot hold the CNN's training
    /// state at its batch size (an extension beyond the paper, which sizes
    /// GPUs by memory informally in §II). Estimated via
    /// [`ceer_graph::analysis::estimate_memory`].
    pub enforce_memory_fit: bool,
    /// Number of passes over the training data (§II: "the entire training
    /// may be repeated multiple times in epochs"). Time and cost scale
    /// linearly with it.
    pub epochs: u64,
}

impl Workload {
    /// A workload over `total_samples` samples searching 1..=`max_gpus`
    /// GPUs per model, without the memory-fit filter.
    pub fn new(total_samples: u64, max_gpus: u32) -> Self {
        Workload { total_samples, max_gpus, enforce_memory_fit: false, epochs: 1 }
    }

    /// Enables the GPU-memory feasibility filter.
    pub fn with_memory_fit(mut self) -> Self {
        self.enforce_memory_fit = true;
        self
    }

    /// Trains for `epochs` passes over the data.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn with_epochs(mut self, epochs: u64) -> Self {
        assert!(epochs > 0, "at least one epoch required");
        self.epochs = epochs;
        self
    }
}

impl Default for Workload {
    /// The paper's evaluation workload: one ImageNet epoch, up to 4 GPUs.
    fn default() -> Self {
        Workload::new(1_200_000, 4)
    }
}

/// The user objective `Obj(T, C)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize training time, no budget.
    MinimizeTime,
    /// Minimize training cost, no performance target (Figs. 11–12).
    MinimizeCost,
    /// Minimize training time among instances whose hourly price fits the
    /// budget (Fig. 9).
    MinTimeUnderHourlyBudget {
        /// Hourly budget in USD.
        usd_per_hour: f64,
    },
    /// Minimize training time among instances whose *total* training cost
    /// fits the budget (Fig. 10).
    MinTimeUnderTotalBudget {
        /// Total budget in USD.
        usd: f64,
    },
    /// Minimize `time_weight·T(hours) + cost_weight·C(USD)`.
    Weighted {
        /// Weight on training time (per hour).
        time_weight: f64,
        /// Weight on cost (per USD).
        cost_weight: f64,
    },
}

/// One evaluated candidate instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    instance: Instance,
    predicted_time_us: f64,
    predicted_cost_usd: f64,
    #[serde(default = "default_true")]
    fits_memory: bool,
}

fn default_true() -> bool {
    true
}

impl Candidate {
    /// The candidate instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Whether the CNN's training state fits this instance's GPU memory
    /// (only enforced when the workload asks for it).
    pub fn fits_memory(&self) -> bool {
        self.fits_memory
    }

    /// Predicted training time, µs.
    pub fn predicted_time_us(&self) -> f64 {
        self.predicted_time_us
    }

    /// Predicted training time, hours.
    pub fn predicted_time_hours(&self) -> f64 {
        self.predicted_time_us / 3.6e9
    }

    /// Predicted training cost, USD.
    pub fn predicted_cost_usd(&self) -> f64 {
        self.predicted_cost_usd
    }

    /// Whether this candidate satisfies the objective's budget constraint
    /// (and, when the workload enforced it, the GPU-memory fit).
    pub fn is_feasible(&self, objective: &Objective) -> bool {
        if !self.fits_memory {
            return false;
        }
        match *objective {
            Objective::MinimizeTime | Objective::MinimizeCost | Objective::Weighted { .. } => true,
            Objective::MinTimeUnderHourlyBudget { usd_per_hour } => {
                self.instance.hourly_usd() <= usd_per_hour + 1e-9
            }
            Objective::MinTimeUnderTotalBudget { usd } => self.predicted_cost_usd <= usd + 1e-9,
        }
    }

    /// The objective value (lower is better) — infeasible candidates score
    /// infinity.
    pub fn score(&self, objective: &Objective) -> f64 {
        if !self.is_feasible(objective) {
            return f64::INFINITY;
        }
        match *objective {
            Objective::MinimizeTime
            | Objective::MinTimeUnderHourlyBudget { .. }
            | Objective::MinTimeUnderTotalBudget { .. } => self.predicted_time_us,
            Objective::MinimizeCost => self.predicted_cost_usd,
            Objective::Weighted { time_weight, cost_weight } => {
                time_weight * self.predicted_time_hours() + cost_weight * self.predicted_cost_usd
            }
        }
    }
}

/// A full recommendation: the winner plus the evaluated field.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    best: Candidate,
    ranking: Vec<Candidate>,
}

impl Recommendation {
    /// The recommended instance.
    pub fn instance(&self) -> &Instance {
        self.best.instance()
    }

    /// The winning candidate with its predictions.
    pub fn best(&self) -> &Candidate {
        &self.best
    }

    /// All evaluated candidates, best first (infeasible ones last).
    pub fn ranking(&self) -> &[Candidate] {
        &self.ranking
    }
}

impl CeerModel {
    /// Evaluates every candidate instance (all four GPU models ×
    /// 1..=`max_gpus` GPUs) for training `cnn` over the workload, in the
    /// catalog's enumeration order. The CNN's compiled plan comes from the
    /// process-wide memo ([`plan::plan_for`]).
    pub fn evaluate_candidates(
        &self,
        cnn: &Cnn,
        catalog: &Catalog,
        workload: &Workload,
    ) -> Vec<Candidate> {
        let plan = plan::plan_for(cnn.id(), cnn.batch());
        self.evaluate_plan_candidates(&plan, cnn.batch(), catalog, workload)
    }

    /// [`evaluate_candidates`](Self::evaluate_candidates) for a compiled
    /// training graph built at per-GPU batch `batch`: one plan and one
    /// memory estimate serve every candidate. Each candidate is a single
    /// plan evaluation, so the sweep is a plain loop.
    pub fn evaluate_plan_candidates(
        &self,
        plan: &PredictPlan,
        batch: u64,
        catalog: &Catalog,
        workload: &Workload,
    ) -> Vec<Candidate> {
        let options = EstimateOptions::default();
        catalog
            .enumerate(workload.max_gpus)
            .into_iter()
            .map(|instance| {
                let iteration =
                    self.predict_plan(plan, instance.gpu(), instance.gpu_count(), &options);
                let time_us = workload.epochs as f64
                    * epoch_us(&iteration, batch, instance.gpu_count(), workload.total_samples);
                let cost = time_us * instance.usd_per_microsecond();
                // Data parallelism replicates the full model on every GPU,
                // so the per-GPU requirement does not shrink with the count.
                let fits_memory = !workload.enforce_memory_fit
                    || plan.memory().fits_gib(instance.gpu().spec().memory_gib);
                Candidate {
                    instance,
                    predicted_time_us: time_us,
                    predicted_cost_usd: cost,
                    fits_memory,
                }
            })
            .collect()
    }

    /// Recommends the instance minimizing `objective` for training `cnn`.
    ///
    /// Returns `None` when no candidate satisfies the budget constraint —
    /// which the paper treats as a real outcome (in Fig. 10, all P2 sizes
    /// and the 4-GPU P3 cannot finish within the $10 budget).
    pub fn recommend(
        &self,
        cnn: &Cnn,
        catalog: &Catalog,
        workload: &Workload,
        objective: &Objective,
    ) -> Option<Recommendation> {
        let (best, ranking) = rank(self.evaluate_candidates(cnn, catalog, workload), objective);
        Some(Recommendation { best: best?, ranking })
    }
}

/// Sorts evaluated candidates best first under `objective` (infeasible
/// ones last) and picks the winner, `None` when even the best is
/// infeasible.
pub fn rank(
    mut candidates: Vec<Candidate>,
    objective: &Objective,
) -> (Option<Candidate>, Vec<Candidate>) {
    ceer_stats::total::sort_by_f64_key(&mut candidates, |c| c.score(objective));
    let best = candidates.first().filter(|c| c.is_feasible(objective)).cloned();
    (best, candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{Ceer, FitConfig};
    use ceer_cloud::Pricing;
    use ceer_gpusim::GpuModel;
    use ceer_graph::models::CnnId;

    fn small_model() -> CeerModel {
        let config = FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 4,
            parallel_degrees: vec![1, 2],
            seed: 77,
            ..FitConfig::default()
        };
        Ceer::fit(&config)
    }

    fn workload() -> Workload {
        Workload::new(64_000, 4)
    }

    #[test]
    fn evaluates_sixteen_candidates() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::ResNet101, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let candidates = model.evaluate_candidates(&cnn, &catalog, &workload());
        assert_eq!(candidates.len(), 16);
        assert!(candidates.iter().all(|c| c.predicted_time_us() > 0.0));
        assert!(candidates.iter().all(|c| c.predicted_cost_usd() > 0.0));
    }

    #[test]
    fn minimize_time_prefers_v100() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::InceptionV3, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let rec = model.recommend(&cnn, &catalog, &workload(), &Objective::MinimizeTime).unwrap();
        assert_eq!(rec.instance().gpu(), GpuModel::V100);
        assert!(rec.instance().gpu_count() >= 2, "more GPUs should be faster");
    }

    #[test]
    fn hourly_budget_excludes_expensive_instances() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::AlexNet, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let rec = model
            .recommend(
                &cnn,
                &catalog,
                &workload(),
                &Objective::MinTimeUnderHourlyBudget { usd_per_hour: 3.0 },
            )
            .unwrap();
        assert!(rec.instance().hourly_usd() <= 3.0);
    }

    #[test]
    fn impossible_total_budget_returns_none() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::Vgg19, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let rec = model.recommend(
            &cnn,
            &catalog,
            &Workload::new(1_200_000, 4),
            &Objective::MinTimeUnderTotalBudget { usd: 0.001 },
        );
        assert!(rec.is_none());
    }

    #[test]
    fn ranking_is_sorted_by_score() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::ResNet101, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let obj = Objective::MinimizeCost;
        let rec = model.recommend(&cnn, &catalog, &workload(), &obj).unwrap();
        let scores: Vec<f64> = rec.ranking().iter().map(|c| c.score(&obj)).collect();
        for pair in scores.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert_eq!(rec.best(), &rec.ranking()[0]);
    }

    #[test]
    fn weighted_objective_interpolates() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::ResNet101, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let time_best =
            model.recommend(&cnn, &catalog, &workload(), &Objective::MinimizeTime).unwrap();
        let weighted = model
            .recommend(
                &cnn,
                &catalog,
                &workload(),
                &Objective::Weighted { time_weight: 1.0, cost_weight: 0.0 },
            )
            .unwrap();
        assert_eq!(time_best.instance(), weighted.instance());
    }

    #[test]
    fn memory_filter_rejects_small_gpus_for_huge_cnns() {
        // VGG-19 training state at batch 32 does not fit the 8 GiB M60.
        let model = small_model();
        let cnn = Cnn::build(CnnId::Vgg19, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let strict = Workload::new(64_000, 4).with_memory_fit();
        let candidates = model.evaluate_candidates(&cnn, &catalog, &strict);
        let m60 = candidates
            .iter()
            .find(|c| c.instance().gpu() == GpuModel::M60 && c.instance().gpu_count() == 1)
            .expect("present");
        assert!(!m60.fits_memory(), "8 GiB M60 should reject VGG-19 at batch 32");
        assert!(!m60.is_feasible(&Objective::MinimizeCost));
        // The 16 GiB V100/T4 survive the filter.
        let v100 = candidates
            .iter()
            .find(|c| c.instance().gpu() == GpuModel::V100 && c.instance().gpu_count() == 1)
            .expect("present");
        assert!(v100.fits_memory());
        // Without the filter everything is considered.
        let lax = Workload::new(64_000, 4);
        let all = model.evaluate_candidates(&cnn, &catalog, &lax);
        assert!(all.iter().all(|c| c.fits_memory()));
    }

    #[test]
    fn workload_default_matches_paper_setup() {
        let w = Workload::default();
        assert_eq!(w.total_samples, 1_200_000);
        assert_eq!(w.max_gpus, 4);
        assert!(!w.enforce_memory_fit);
        assert_eq!(w.epochs, 1);
    }

    #[test]
    fn epochs_scale_time_and_cost_linearly() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::AlexNet, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let one = model.evaluate_candidates(&cnn, &catalog, &Workload::new(64_000, 2));
        let five =
            model.evaluate_candidates(&cnn, &catalog, &Workload::new(64_000, 2).with_epochs(5));
        for (a, b) in one.iter().zip(&five) {
            assert!((b.predicted_time_us() / a.predicted_time_us() - 5.0).abs() < 1e-9);
            assert!((b.predicted_cost_usd() / a.predicted_cost_usd() - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_rejected() {
        Workload::new(1, 1).with_epochs(0);
    }

    #[test]
    fn market_pricing_changes_cost_winner() {
        // §V: with market-ratio prices, the dirt-cheap P2 becomes the cost
        // winner.
        let model = small_model();
        let cnn = Cnn::build(CnnId::InceptionV3, 32);
        let market = Catalog::new(Pricing::MarketRatio);
        let rec = model.recommend(&cnn, &market, &workload(), &Objective::MinimizeCost).unwrap();
        assert_eq!(rec.instance().gpu(), GpuModel::K80, "market prices favour P2");
        assert_eq!(rec.instance().gpu_count(), 1);
    }
}

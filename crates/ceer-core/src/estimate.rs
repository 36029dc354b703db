//! The fitted Ceer model and its training time/cost estimators.

use std::collections::BTreeMap;

use ceer_cloud::Instance;
use ceer_gpusim::GpuModel;
use ceer_graph::models::Cnn;
use ceer_graph::{Graph, OpKind};
use serde::{Deserialize, Serialize};

use crate::classify::Classification;
use crate::comm::CommModel;
use crate::opmodel::OpModel;
use crate::plan::{self, PredictPlan};

/// Term-inclusion switches for the estimator — the paper quantifies the
/// error of dropping each term (§IV-A/B: ignoring light + CPU ops costs
/// 15–25%, ignoring communication 5–30%), and the ablation benches flip
/// these to reproduce those numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EstimateOptions {
    /// Include light GPU operations via the sample-median estimator.
    #[serde(default = "default_include")]
    pub include_light: bool,
    /// Include CPU operations via the sample-median estimator.
    #[serde(default = "default_include")]
    pub include_cpu: bool,
    /// Include the communication overhead `S_GPU(CNN)`.
    #[serde(default = "default_include")]
    pub include_comm: bool,
}

/// Estimator terms default to included, matching [`EstimateOptions::default`].
fn default_include() -> bool {
    true
}

impl Default for EstimateOptions {
    /// Everything on — Eq. (2) of the paper.
    fn default() -> Self {
        EstimateOptions { include_light: true, include_cpu: true, include_comm: true }
    }
}

impl EstimateOptions {
    /// Heavy-ops-only variant (the strawman the paper improves on).
    pub fn heavy_only() -> Self {
        EstimateOptions { include_light: false, include_cpu: false, include_comm: false }
    }
}

/// A breakdown of one iteration-time prediction, µs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationEstimate {
    /// Σ regression predictions over heavy operations.
    pub heavy_us: f64,
    /// `n_light × t̃_l`.
    pub light_us: f64,
    /// `n_cpu × t̃_c`.
    pub cpu_us: f64,
    /// `S_GPU(CNN)` for the requested GPU count.
    pub comm_us: f64,
    /// Accumulated prediction variance (µs²) from the heavy-op regressions
    /// and the communication fit, assuming independent residuals.
    pub variance_us2: f64,
}

impl IterationEstimate {
    /// Total predicted per-iteration time, µs.
    pub fn total_us(&self) -> f64 {
        self.heavy_us + self.light_us + self.cpu_us + self.comm_us
    }

    /// One-sigma uncertainty on the total, µs.
    pub fn std_us(&self) -> f64 {
        self.variance_us2.sqrt()
    }

    /// A `(low, high)` interval at ±`z` sigma (z = 1.96 for ~95%), with the
    /// low end clamped at zero.
    pub fn interval_us(&self, z: f64) -> (f64, f64) {
        let total = self.total_us();
        let width = z * self.std_us();
        ((total - width).max(0.0), total + width)
    }
}

/// The trained Ceer model (the output of [`Ceer::fit`](crate::Ceer::fit)).
///
/// Serializable (e.g. with `serde_json`), so a fitted model can be stored
/// and reloaded without re-profiling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CeerModel {
    pub(crate) classification: Classification,
    #[serde(with = "op_models_serde")]
    pub(crate) op_models: BTreeMap<(OpKind, GpuModel), OpModel>,
    pub(crate) light_median_us: f64,
    pub(crate) cpu_median_us: f64,
    pub(crate) comm: CommModel,
}

/// Serializes the tuple-keyed op-model map as a plain sequence (JSON maps
/// require string keys); the keys are recovered from each model's own
/// `(kind, gpu)` metadata.
mod op_models_serde {
    use super::*;
    use serde::{Deserialize, Error, Serialize, Value};

    pub(super) fn to_value(map: &BTreeMap<(OpKind, GpuModel), OpModel>) -> Value {
        Value::Array(map.values().map(Serialize::to_value).collect())
    }

    pub(super) fn from_value(
        value: &Value,
    ) -> Result<BTreeMap<(OpKind, GpuModel), OpModel>, Error> {
        let models = Vec::<OpModel>::from_value(value)?;
        Ok(models.into_iter().map(|m| ((m.kind(), m.gpu()), m)).collect())
    }
}

impl CeerModel {
    /// Returns a copy of this model with the light/CPU estimators replaced —
    /// the hook behind the paper's median-vs-mean ablation (§IV-B argues for
    /// the median "to avoid the unfair impact of possible outliers").
    pub fn with_estimators(&self, light_us: f64, cpu_us: f64) -> CeerModel {
        CeerModel { light_median_us: light_us, cpu_median_us: cpu_us, ..self.clone() }
    }

    /// Returns a copy of this model with the regression for one
    /// (kind, GPU) pair replaced — the hook the online-learning loop uses to
    /// build a candidate model from an incrementally refitted [`OpModel`]
    /// without disturbing the incumbent.
    pub fn with_op_model(&self, refitted: OpModel) -> CeerModel {
        let mut next = self.clone();
        next.op_models.insert((refitted.kind(), refitted.gpu()), refitted);
        next
    }

    /// The learned operation classification.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// The fitted per-(kind, GPU) regression models.
    pub fn op_models(&self) -> impl Iterator<Item = &OpModel> {
        self.op_models.values()
    }

    /// The regression model for a specific (kind, GPU), if fitted.
    pub fn op_model(&self, kind: OpKind, gpu: GpuModel) -> Option<&OpModel> {
        self.op_models.get(&(kind, gpu))
    }

    /// The GPU-, CNN- and op-oblivious light-operation median `t̃_l`, µs.
    pub fn light_median_us(&self) -> f64 {
        self.light_median_us
    }

    /// The CPU-operation median `t̃_c`, µs.
    pub fn cpu_median_us(&self) -> f64 {
        self.cpu_median_us
    }

    /// The communication model.
    pub fn comm_model(&self) -> &CommModel {
        &self.comm
    }

    /// Predicts the per-iteration training time of a training graph on
    /// `gpus` GPUs of `gpu`, broken down by term.
    ///
    /// `graph` must be a *training* graph (forward + backward), as produced
    /// by [`Cnn::training_graph`]. Compiles the graph on every call; to
    /// predict one graph repeatedly, compile it once into a [`PredictPlan`]
    /// and call [`predict_plan`](Self::predict_plan).
    pub fn predict_iteration(
        &self,
        graph: &Graph,
        gpu: GpuModel,
        gpus: u32,
        options: &EstimateOptions,
    ) -> IterationEstimate {
        self.predict_plan(&PredictPlan::new(graph), gpu, gpus, options)
    }

    /// Predicts the time (µs) to train one epoch of `total_samples` samples
    /// of `cnn`: Eq. (2), `T = (S + Σ t) · D/(k·B)` with `B` the per-GPU
    /// batch `cnn` was built with. Evaluates the memoized plan of `cnn`'s
    /// training graph ([`plan::plan_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `total_samples` is zero.
    pub fn predict_epoch_us(
        &self,
        cnn: &Cnn,
        gpu: GpuModel,
        gpus: u32,
        total_samples: u64,
        options: &EstimateOptions,
    ) -> f64 {
        assert!(total_samples > 0, "epoch needs samples");
        let plan = plan::plan_for(cnn.id(), cnn.batch());
        let iteration = self.predict_plan(&plan, gpu, gpus, options);
        epoch_us(&iteration, cnn.batch(), gpus, total_samples)
    }

    /// Predicts the rental cost (USD) of training `total_samples` samples of
    /// `cnn` on `instance`: `C = T × c_GPU,k` (§IV-A).
    pub fn predict_cost_usd(
        &self,
        cnn: &Cnn,
        instance: &Instance,
        total_samples: u64,
        options: &EstimateOptions,
    ) -> f64 {
        let us = self.predict_epoch_us(
            cnn,
            instance.gpu(),
            instance.gpu_count(),
            total_samples,
            options,
        );
        us * instance.usd_per_microsecond()
    }
}

/// One epoch of `total_samples` samples at `iteration`'s per-iteration time
/// (µs): `D/(k·B)` iterations of Eq. (2), `B` being the per-GPU batch.
pub(crate) fn epoch_us(
    iteration: &IterationEstimate,
    batch: u64,
    gpus: u32,
    total_samples: u64,
) -> f64 {
    let iterations = total_samples.div_ceil(batch * gpus as u64);
    iteration.total_us() * iterations as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{Ceer, FitConfig};
    use ceer_cloud::{Catalog, Pricing};
    use ceer_graph::models::CnnId;

    /// A small but real fitted model shared by the tests in this module.
    fn small_model() -> CeerModel {
        let config = FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 4,
            parallel_degrees: vec![1, 2],
            seed: 9,
            ..FitConfig::default()
        };
        Ceer::fit(&config)
    }

    #[test]
    fn estimate_terms_are_positive_and_ordered() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::ResNet101, 32);
        let graph = cnn.training_graph();
        let est = model.predict_iteration(&graph, GpuModel::V100, 1, &EstimateOptions::default());
        assert!(est.heavy_us > 0.0);
        assert!(est.light_us > 0.0);
        assert!(est.cpu_us > 0.0);
        assert!(est.comm_us > 0.0);
        // Heavy ops dominate (§III-A).
        assert!(est.heavy_us > est.light_us + est.cpu_us);
    }

    #[test]
    fn options_drop_terms() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::AlexNet, 32);
        let graph = cnn.training_graph();
        let full = model.predict_iteration(&graph, GpuModel::T4, 1, &EstimateOptions::default());
        let bare = model.predict_iteration(&graph, GpuModel::T4, 1, &EstimateOptions::heavy_only());
        assert_eq!(bare.light_us, 0.0);
        assert_eq!(bare.cpu_us, 0.0);
        assert_eq!(bare.comm_us, 0.0);
        assert!(bare.total_us() < full.total_us());
        assert_eq!(bare.heavy_us, full.heavy_us);
    }

    #[test]
    fn epoch_prediction_scales_with_samples_and_gpus() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::Vgg19, 32);
        let opts = EstimateOptions::default();
        let small = model.predict_epoch_us(&cnn, GpuModel::V100, 1, 3200, &opts);
        let large = model.predict_epoch_us(&cnn, GpuModel::V100, 1, 6400, &opts);
        assert!((large / small - 2.0).abs() < 1e-9);
        let two = model.predict_epoch_us(&cnn, GpuModel::V100, 2, 6400, &opts);
        assert!(two < large, "2 GPUs should beat 1 on epoch time");
    }

    #[test]
    fn cost_prediction_uses_instance_price() {
        let model = small_model();
        let cnn = Cnn::build(CnnId::InceptionV3, 32);
        let catalog = Catalog::new(Pricing::OnDemand);
        let opts = EstimateOptions::default();
        let p3 = catalog.instance(GpuModel::V100, 1);
        let time_us = model.predict_epoch_us(&cnn, GpuModel::V100, 1, 64_000, &opts);
        let cost = model.predict_cost_usd(&cnn, &p3, 64_000, &opts);
        assert!((cost - time_us * 3.06 / 3.6e9).abs() < 1e-9);
    }

    #[test]
    fn prediction_tracks_observed_within_reason() {
        // End-to-end sanity: prediction vs a fresh simulated "observation"
        // for a CNN not in the training set.
        use ceer_trainer::Trainer;
        let model = small_model();
        let cnn = Cnn::build(CnnId::Vgg19, 32);
        let graph = cnn.training_graph();
        let predicted = model
            .predict_iteration(&graph, GpuModel::T4, 1, &EstimateOptions::default())
            .total_us();
        let observed = Trainer::new(GpuModel::T4, 1)
            .with_seed(1234)
            .profile_graph(&cnn, &graph, 6)
            .iteration_mean_us();
        let err = (predicted - observed).abs() / observed;
        assert!(
            err < 0.20,
            "test-set prediction error {err:.3} too high (pred {predicted}, obs {observed})"
        );
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::fit::{Ceer, FitConfig};
    use ceer_graph::models::CnnId;

    #[test]
    fn model_round_trips_through_json() {
        let config = FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 3,
            parallel_degrees: vec![1, 2],
            seed: 21,
            ..FitConfig::default()
        };
        let model = Ceer::fit(&config);
        let json = serde_json::to_string(&model).expect("serializes");
        let restored: CeerModel = serde_json::from_str(&json).expect("deserializes");
        // Structure survives exactly; floats may lose the last ulp in JSON,
        // so compare semantics (re-serialization and predictions).
        assert_eq!(model.op_models.len(), restored.op_models.len());
        assert_eq!(model.classification.heavy_kinds(), restored.classification.heavy_kinds());
        let json2 = serde_json::to_string(&restored).expect("re-serializes");
        assert_eq!(json, json2, "serialization must be stable");
        let cnn = Cnn::build(CnnId::AlexNet, 32);
        let graph = cnn.training_graph();
        let a = model.predict_iteration(&graph, GpuModel::T4, 2, &EstimateOptions::default());
        let b = restored.predict_iteration(&graph, GpuModel::T4, 2, &EstimateOptions::default());
        assert!((a.total_us() - b.total_us()).abs() < 1e-6 * a.total_us());
    }
}

#[cfg(test)]
mod uncertainty_tests {
    use super::*;
    use crate::fit::{Ceer, FitConfig};
    use ceer_graph::models::CnnId;
    use ceer_trainer::Trainer;

    #[test]
    fn uncertainty_is_positive_and_calibrated_in_magnitude() {
        let model = Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 4,
            parallel_degrees: vec![1, 2],
            seed: 5,
            ..FitConfig::default()
        });
        let cnn = Cnn::build(CnnId::ResNet101, 32);
        let graph = cnn.training_graph();
        let est = model.predict_iteration(&graph, GpuModel::T4, 1, &EstimateOptions::default());
        assert!(est.std_us() > 0.0);
        // The 95% interval should usually contain a fresh observation.
        let observed = Trainer::new(GpuModel::T4, 1)
            .with_seed(2024)
            .profile_graph(&cnn, &graph, 6)
            .iteration_mean_us();
        let (lo, hi) = est.interval_us(3.0);
        assert!(lo < observed && observed < hi, "{lo} < {observed} < {hi} violated");
        // And the interval is not vacuously wide (< 30% of the estimate).
        assert!(est.std_us() < 0.3 * est.total_us());
    }

    #[test]
    fn interval_is_clamped_at_zero() {
        let est = IterationEstimate {
            heavy_us: 10.0,
            light_us: 0.0,
            cpu_us: 0.0,
            comm_us: 0.0,
            variance_us2: 1e6,
        };
        let (lo, hi) = est.interval_us(2.0);
        assert_eq!(lo, 0.0);
        assert!(hi > 2000.0);
    }
}

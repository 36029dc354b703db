//! Wire types and request evaluation shared by the HTTP service and the
//! CLI's `--json` output modes.
//!
//! Both front ends call [`predict`] / [`recommend`] and serialize the
//! returned response with `serde_json::to_string_pretty`, so a `POST
//! /predict` body and `ceer predict --json` stdout are byte-identical for
//! the same request.

use ceer_cloud::{Catalog, Pricing};
use ceer_core::estimate::IterationEstimate;
use ceer_core::plan::{self, PredictPlan};
use ceer_core::recommend::{rank, Candidate, Objective, Workload};
use ceer_core::{CeerModel, EstimateOptions};
use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_graph::Graph;
use serde::{Deserialize, Serialize};

/// Resolves a user-supplied CNN name (`vgg16`, `VGG-16`, `resnet101`, …).
///
/// # Errors
///
/// Errors with the list of valid names on failure.
pub fn parse_cnn(name: &str) -> Result<CnnId, String> {
    let normalized: String =
        name.to_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
    for &id in CnnId::all() {
        let canonical: String =
            id.name().to_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        if canonical == normalized {
            return Ok(id);
        }
    }
    // Aliases the canonical filter misses.
    match normalized.as_str() {
        "googlenet" => Ok(CnnId::InceptionV1),
        "irv2" | "inceptionresnet" => Ok(CnnId::InceptionResNetV2),
        _ => Err(format!(
            "unknown CNN {name:?}; valid names: {}",
            CnnId::all().iter().map(|m| m.name()).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// Resolves a GPU family/marketing name (`P3`, `v100`, `t4`, …).
///
/// # Errors
///
/// Errors with the list of valid names on failure.
pub fn parse_gpu(name: &str) -> Result<GpuModel, String> {
    let lower = name.to_lowercase();
    for &gpu in GpuModel::all() {
        if gpu.aws_family().to_lowercase() == lower
            || gpu.name().to_lowercase().replace(' ', "") == lower.replace(' ', "")
        {
            return Ok(gpu);
        }
    }
    match lower.as_str() {
        "v100" => Ok(GpuModel::V100),
        "k80" => Ok(GpuModel::K80),
        "t4" => Ok(GpuModel::T4),
        "m60" => Ok(GpuModel::M60),
        _ => Err(format!("unknown GPU {name:?}; valid: P3/V100, P2/K80, G4/T4, G3/M60")),
    }
}

/// The largest per-GPU `batch` a request may ask for. Every zoo plan
/// compiles at this batch, under overflow checks, with its parameter
/// count unchanged; far larger batches wrap the shape, byte and sample
/// arithmetic (2^62 on 4 GPUs divides by zero).
pub const MAX_BATCH: u64 = 65_536;

fn default_gpus() -> u32 {
    1
}

fn default_batch() -> u64 {
    32
}

fn default_samples() -> u64 {
    1_200_000
}

fn default_max_gpus() -> u32 {
    4
}

fn default_epochs() -> u64 {
    1
}

/// A `POST /predict` request (also what `ceer predict --json` evaluates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// CNN name from the zoo (flexible spelling, see [`parse_cnn`]).
    pub cnn: String,
    /// GPU model filter (see [`parse_gpu`]); `None` predicts for all four.
    #[serde(default)]
    pub gpu: Option<String>,
    /// Data-parallel GPU count.
    #[serde(default = "default_gpus")]
    pub gpus: u32,
    /// Per-GPU batch size.
    #[serde(default = "default_batch")]
    pub batch: u64,
    /// Epoch size in samples (for the per-epoch figures).
    #[serde(default = "default_samples")]
    pub samples: u64,
    /// Term-inclusion switches for the estimator (all on by default).
    #[serde(default)]
    pub options: EstimateOptions,
}

/// One GPU model's prediction inside a [`PredictResponse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuPrediction {
    /// The GPU model predicted for.
    pub gpu: GpuModel,
    /// The AWS instance backing this (GPU, count) configuration.
    pub instance: String,
    /// The instance's hourly price, USD.
    pub hourly_usd: f64,
    /// The per-iteration estimate with its term breakdown.
    pub estimate: IterationEstimate,
    /// Total predicted iteration time, µs (`estimate` totalled).
    pub iteration_us: f64,
    /// One-sigma uncertainty on the iteration time, µs.
    pub iteration_std_us: f64,
    /// Iterations per epoch at the requested batch/GPU count.
    pub iterations_per_epoch: u64,
    /// Predicted epoch time, µs.
    pub epoch_us: f64,
    /// Predicted epoch cost, USD.
    pub epoch_cost_usd: f64,
}

/// A `POST /predict` response (also `ceer predict --json` stdout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Canonical CNN name.
    pub cnn: String,
    /// Trainable parameter count of the training graph.
    pub parameters: u64,
    /// Operation count of the training graph.
    pub ops: u64,
    /// Per-GPU batch size used.
    pub batch: u64,
    /// Data-parallel GPU count used.
    pub gpus: u32,
    /// Epoch size in samples used.
    pub samples: u64,
    /// Whether every heavy operation kind has a fitted regression; when
    /// `false`, predictions fall back to the light-op median (§IV-D).
    pub fully_covered: bool,
    /// Per-GPU-model predictions, newest GPU first.
    pub predictions: Vec<GpuPrediction>,
}

/// A `POST /reload` body. An empty request body (the original form)
/// re-reads the model file; `{"version": N}` pins the incumbent to a
/// retained registry version instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadRequest {
    /// The retained version to pin to; `None` re-reads the backing file.
    #[serde(default)]
    pub version: Option<u64>,
}

/// A `POST /predict_batch` request: many predict requests answered in one
/// round trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictBatchRequest {
    /// The individual predictions to evaluate, answered in order.
    pub requests: Vec<PredictRequest>,
}

/// One item of a [`PredictBatchResponse`]: exactly one of `response` /
/// `error` is set, mirroring the 200/400 split of single `/predict` calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictBatchItem {
    /// The prediction, when the item's request was valid.
    #[serde(default)]
    pub response: Option<PredictResponse>,
    /// The rejection reason, when it was not.
    #[serde(default)]
    pub error: Option<String>,
}

/// A `POST /predict_batch` response; `responses[i]` answers `requests[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictBatchResponse {
    /// Per-item outcomes, in request order.
    pub responses: Vec<PredictBatchItem>,
}

/// Evaluates a batch of predict requests on the [`ceer_par`] worker pool.
///
/// Items are independent, so they fan out across the pool; the response
/// keeps request order and each item is byte-identical to what a single
/// [`predict`] call for that request would return. Invalid items become
/// per-item errors instead of failing the whole batch.
pub fn predict_batch(model: &CeerModel, request: &PredictBatchRequest) -> PredictBatchResponse {
    let responses = ceer_par::par_map(&request.requests, |item| match predict(model, item) {
        Ok(response) => PredictBatchItem { response: Some(response), error: None },
        Err(error) => PredictBatchItem { response: None, error: Some(error) },
    });
    PredictBatchResponse { responses }
}

/// A `POST /recommend` request (also what `ceer recommend --json`
/// evaluates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendRequest {
    /// CNN name from the zoo.
    pub cnn: String,
    /// The objective to minimize; defaults to cost (`"MinimizeCost"`).
    #[serde(default)]
    pub objective: Option<Objective>,
    /// Training-set size in samples.
    #[serde(default = "default_samples")]
    pub samples: u64,
    /// Per-GPU batch size.
    #[serde(default = "default_batch")]
    pub batch: u64,
    /// Largest GPU count considered per GPU model.
    #[serde(default = "default_max_gpus")]
    pub max_gpus: u32,
    /// Passes over the training data.
    #[serde(default = "default_epochs")]
    pub epochs: u64,
    /// Use §V commodity market prices instead of AWS list prices.
    #[serde(default)]
    pub market: bool,
    /// Reject instances whose GPU memory cannot hold training.
    #[serde(default)]
    pub memory_fit: bool,
}

/// A `POST /recommend` response (also `ceer recommend --json` stdout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendResponse {
    /// Canonical CNN name.
    pub cnn: String,
    /// The objective that was minimized.
    pub objective: Objective,
    /// The winning candidate, or `None` when no candidate satisfies the
    /// budget constraint (a real outcome — see the paper's Fig. 10).
    pub best: Option<Candidate>,
    /// Every evaluated candidate, best first (infeasible ones last).
    pub ranking: Vec<Candidate>,
}

/// An error payload (non-2xx responses).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable description of what was wrong with the request.
    pub error: String,
}

/// One zoo CNN in the `GET /zoo` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZooEntry {
    /// Canonical CNN name.
    pub name: String,
    /// Trainable parameter count of the training graph.
    pub parameters: u64,
    /// Operation count of the training graph.
    pub ops: u64,
    /// Input image resolution (square), pixels.
    pub input_resolution: u64,
    /// `"train"` for the paper's 8 fitting CNNs, `"test"` for the 4 held out.
    pub split: String,
    /// Estimated training memory at the listing batch size, bytes.
    pub training_memory_bytes: u64,
}

/// The `GET /zoo` listing at batch 32, matching `ceer zoo`'s default. The
/// figures come from the memoized plans ([`plan::plan_for`]), which hold
/// the training graph's parameter count, op count and memory estimate,
/// so a listing expands only the graphs whose plans are not memoized.
pub fn zoo() -> Vec<ZooEntry> {
    CnnId::all()
        .iter()
        .map(|&id| {
            let plan = plan::plan_for(id, 32);
            ZooEntry {
                name: id.name().to_string(),
                parameters: plan.parameter_count(),
                ops: plan.ops() as u64,
                input_resolution: id.input_resolution(),
                split: if CnnId::training_set().contains(&id) { "train" } else { "test" }
                    .to_string(),
                training_memory_bytes: plan.memory().total_bytes(),
            }
        })
        .collect()
}

/// One AWS offering in the `GET /catalog` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogEntry {
    /// EC2 instance type name.
    pub instance: String,
    /// GPU model on the instance.
    pub gpu: GpuModel,
    /// GPUs on the instance.
    pub gpus: u32,
    /// On-Demand hourly price, USD.
    pub hourly_usd: f64,
    /// CUDA cores per GPU.
    pub cuda_cores: u32,
    /// GPU memory per GPU, GiB.
    pub memory_gib: u32,
}

/// The `GET /catalog` listing: the paper's eight real AWS offerings.
pub fn catalog() -> Vec<CatalogEntry> {
    ceer_cloud::OFFERINGS
        .iter()
        .map(|o| {
            let spec = o.gpu.spec();
            CatalogEntry {
                instance: o.name.to_string(),
                gpu: o.gpu,
                gpus: o.gpu_count,
                hourly_usd: o.hourly_usd,
                cuda_cores: spec.cuda_cores,
                memory_gib: spec.memory_gib,
            }
        })
        .collect()
}

/// Evaluates a predict request for a zoo CNN. The CNN's compiled plan
/// comes from the process-wide memo ([`plan::plan_for`]), so only the
/// first request for a (CNN, batch) pair expands its training graph.
///
/// # Errors
///
/// Errors on unknown CNN/GPU names, non-positive counts, a batch above
/// [`MAX_BATCH`], or more GPUs than an instance of a requested GPU model
/// offers.
pub fn predict(model: &CeerModel, request: &PredictRequest) -> Result<PredictResponse, String> {
    let id = parse_cnn(&request.cnn)?;
    if request.batch == 0 {
        return Err("batch must be positive".into());
    }
    let targets = predict_targets(request)?;
    Ok(respond(model, id.name(), &plan::plan_for(id, request.batch), request, targets))
}

/// Evaluates a predict request against an explicit training graph (the
/// `--graph` escape hatch for CNNs defined outside the zoo); `name` labels
/// the response. The graph is compiled once, unmemoized, and the plan
/// evaluated for every requested GPU model.
///
/// # Errors
///
/// Errors on unknown GPU names, non-positive counts, a batch above
/// [`MAX_BATCH`], or more GPUs than an instance of a requested GPU model
/// offers.
pub fn predict_graph(
    model: &CeerModel,
    name: &str,
    graph: &Graph,
    request: &PredictRequest,
) -> Result<PredictResponse, String> {
    let targets = predict_targets(request)?;
    Ok(respond(model, name, &PredictPlan::new(graph), request, targets))
}

/// Validates a predict request's counts and GPU filter, before any
/// evaluation, and returns the GPU models it asks for.
fn predict_targets(request: &PredictRequest) -> Result<Vec<GpuModel>, String> {
    if request.gpus == 0 || request.batch == 0 || request.samples == 0 {
        return Err("gpus, batch and samples must be positive".into());
    }
    check_batch(request.batch)?;
    let targets: Vec<GpuModel> = match &request.gpu {
        Some(gpu) => vec![parse_gpu(gpu)?],
        None => GpuModel::all().to_vec(),
    };
    for &gpu in &targets {
        let limit = Catalog::max_gpus(gpu);
        if request.gpus > limit {
            return Err(format!(
                "gpus must be at most {limit} on {} (its largest instance), got {}",
                gpu.aws_family(),
                request.gpus
            ));
        }
    }
    Ok(targets)
}

/// Rejects a batch above [`MAX_BATCH`], naming the limit.
fn check_batch(batch: u64) -> Result<(), String> {
    if batch > MAX_BATCH {
        return Err(format!("batch must be at most {MAX_BATCH}, got {batch}"));
    }
    Ok(())
}

/// The response for one compiled training graph, predicted on `targets`.
fn respond(
    model: &CeerModel,
    name: &str,
    plan: &PredictPlan,
    request: &PredictRequest,
    targets: Vec<GpuModel>,
) -> PredictResponse {
    let catalog = Catalog::new(Pricing::OnDemand);
    let iterations = request.samples.div_ceil(request.batch * request.gpus as u64);
    let predictions = targets
        .into_iter()
        .map(|gpu| {
            let estimate = model.predict_plan(plan, gpu, request.gpus, &request.options);
            let instance = catalog.instance(gpu, request.gpus);
            let epoch_us = estimate.total_us() * iterations as f64;
            GpuPrediction {
                gpu,
                instance: instance.name().to_string(),
                hourly_usd: instance.hourly_usd(),
                iteration_us: estimate.total_us(),
                iteration_std_us: estimate.std_us(),
                iterations_per_epoch: iterations,
                epoch_us,
                epoch_cost_usd: epoch_us * instance.usd_per_microsecond(),
                estimate,
            }
        })
        .collect();
    PredictResponse {
        cnn: name.to_string(),
        parameters: plan.parameter_count(),
        ops: plan.ops() as u64,
        batch: request.batch,
        gpus: request.gpus,
        samples: request.samples,
        fully_covered: model.plan_coverage(plan).is_fully_covered(),
        predictions,
    }
}

/// Evaluates a recommend request: one memoized plan serves all 16
/// candidates.
///
/// # Errors
///
/// Errors on unknown CNN names, non-positive counts, a batch above
/// [`MAX_BATCH`], or a `max_gpus` beyond what every GPU model's largest
/// instance offers.
pub fn recommend(
    model: &CeerModel,
    request: &RecommendRequest,
) -> Result<RecommendResponse, String> {
    let id = parse_cnn(&request.cnn)?;
    if request.samples == 0 || request.batch == 0 || request.max_gpus == 0 || request.epochs == 0 {
        return Err("samples, batch, max_gpus and epochs must be positive".into());
    }
    check_batch(request.batch)?;
    // The sweep takes every GPU model up to `max_gpus`.
    let limit = GpuModel::all().iter().map(|&gpu| Catalog::max_gpus(gpu)).min().unwrap_or(0);
    if request.max_gpus > limit {
        return Err(format!(
            "max_gpus must be at most {limit} (the largest instance every GPU model offers), got {}",
            request.max_gpus
        ));
    }
    let objective = request.objective.unwrap_or(Objective::MinimizeCost);
    let catalog =
        Catalog::new(if request.market { Pricing::MarketRatio } else { Pricing::OnDemand });
    let mut workload = Workload::new(request.samples, request.max_gpus).with_epochs(request.epochs);
    if request.memory_fit {
        workload = workload.with_memory_fit();
    }
    let plan = plan::plan_for(id, request.batch);
    // With no feasible candidate `best` is `None`, and the ranking still
    // shows how far over budget everything is.
    let (best, ranking) =
        rank(model.evaluate_plan_candidates(&plan, request.batch, &catalog, &workload), &objective);
    Ok(RecommendResponse { cnn: id.name().to_string(), objective, best, ranking })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceer_core::{Ceer, FitConfig};
    use ceer_graph::models::Cnn;
    use std::sync::OnceLock;

    fn model() -> &'static CeerModel {
        static MODEL: OnceLock<CeerModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            Ceer::fit(&FitConfig {
                cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
                iterations: 4,
                parallel_degrees: vec![1, 2],
                seed: 31,
                ..FitConfig::default()
            })
        })
    }

    fn predict_request() -> PredictRequest {
        PredictRequest {
            cnn: "resnet-50".into(),
            gpu: None,
            gpus: 2,
            batch: 32,
            samples: 64_000,
            options: EstimateOptions::default(),
        }
    }

    #[test]
    fn requests_deserialize_with_defaults() {
        let req: PredictRequest = serde_json::from_str(r#"{"cnn": "vgg-16"}"#).unwrap();
        assert_eq!(req.cnn, "vgg-16");
        assert_eq!(req.gpu, None);
        assert_eq!(req.gpus, 1);
        assert_eq!(req.batch, 32);
        assert_eq!(req.samples, 1_200_000);
        assert_eq!(req.options, EstimateOptions::default());

        let req: RecommendRequest = serde_json::from_str(r#"{"cnn": "vgg-16"}"#).unwrap();
        assert_eq!(req.objective, None);
        assert_eq!(req.max_gpus, 4);
        assert!(!req.market && !req.memory_fit);
    }

    #[test]
    fn estimate_options_accept_partial_json() {
        let req: PredictRequest =
            serde_json::from_str(r#"{"cnn": "vgg-16", "options": {"include_comm": false}}"#)
                .unwrap();
        assert!(req.options.include_light && req.options.include_cpu);
        assert!(!req.options.include_comm);
    }

    #[test]
    fn objectives_round_trip_through_requests() {
        let req: RecommendRequest = serde_json::from_str(
            r#"{"cnn": "alexnet", "objective": {"MinTimeUnderHourlyBudget": {"usd_per_hour": 3.0}}}"#,
        )
        .unwrap();
        assert_eq!(req.objective, Some(Objective::MinTimeUnderHourlyBudget { usd_per_hour: 3.0 }));
        let req: RecommendRequest =
            serde_json::from_str(r#"{"cnn": "alexnet", "objective": "MinimizeTime"}"#).unwrap();
        assert_eq!(req.objective, Some(Objective::MinimizeTime));
    }

    #[test]
    fn predict_matches_direct_model_call() {
        let response = predict(model(), &predict_request()).unwrap();
        assert_eq!(response.cnn, "ResNet-50");
        assert_eq!(response.predictions.len(), GpuModel::all().len());
        let graph = Cnn::build(CnnId::ResNet50, 32).training_graph();
        for p in &response.predictions {
            let direct = model().predict_iteration(&graph, p.gpu, 2, &EstimateOptions::default());
            assert_eq!(p.iteration_us, direct.total_us());
            assert_eq!(p.estimate, direct);
        }
    }

    #[test]
    fn predict_honours_gpu_filter_and_rejects_unknowns() {
        let mut req = predict_request();
        req.gpu = Some("t4".into());
        let response = predict(model(), &req).unwrap();
        assert_eq!(response.predictions.len(), 1);
        assert_eq!(response.predictions[0].gpu, GpuModel::T4);

        req.gpu = Some("a100".into());
        assert!(predict(model(), &req).unwrap_err().contains("a100"));
        req.gpu = None;
        req.cnn = "mobilenet".into();
        assert!(predict(model(), &req).unwrap_err().contains("mobilenet"));
        req.cnn = "resnet-50".into();
        req.gpus = 0;
        assert!(predict(model(), &req).is_err());
    }

    #[test]
    fn gpu_counts_beyond_the_largest_instance_are_rejected() {
        let mut req = predict_request();
        for gpus in [5, 8] {
            req.gpus = gpus;
            let error = predict(model(), &req).unwrap_err();
            assert!(error.contains("at most 4"), "{error}");
        }
        req.gpu = Some("p3".into());
        assert!(predict(model(), &req).unwrap_err().contains("P3"));
        // P2 sells an 8-GPU instance.
        req.gpu = Some("p2".into());
        let response = predict(model(), &req).unwrap();
        assert_eq!(response.predictions[0].instance, "p2.8xlarge");
        req.gpus = 9;
        assert!(predict(model(), &req).unwrap_err().contains("at most 8"));

        let mut request = RecommendRequest {
            cnn: "alexnet".into(),
            objective: None,
            samples: 64_000,
            batch: 32,
            max_gpus: 5,
            epochs: 1,
            market: false,
            memory_fit: false,
        };
        assert!(recommend(model(), &request).unwrap_err().contains("at most 4"));
        request.max_gpus = 4;
        assert_eq!(recommend(model(), &request).unwrap().ranking.len(), 16);
    }

    #[test]
    fn batches_beyond_the_limit_are_rejected() {
        let mut req = predict_request();
        let graph = Cnn::build(CnnId::AlexNet, 8).training_graph();
        for batch in [MAX_BATCH + 1, 1 << 40, 1 << 62, u64::MAX] {
            req.batch = batch;
            let error = predict(model(), &req).unwrap_err();
            assert!(error.contains("at most 65536"), "{error}");
            let error = predict_graph(model(), "alexnet", &graph, &req).unwrap_err();
            assert!(error.contains("at most 65536"), "{error}");
        }
        req.batch = MAX_BATCH;
        req.gpus = 4;
        let response = predict(model(), &req).unwrap();
        assert!(response.predictions.iter().all(|p| p.epoch_cost_usd.is_finite()));

        let mut request = RecommendRequest {
            cnn: "vgg-16".into(),
            objective: None,
            samples: 1_200_000,
            batch: 1 << 62,
            max_gpus: 4,
            epochs: 1,
            market: false,
            memory_fit: false,
        };
        assert!(recommend(model(), &request).unwrap_err().contains("at most 65536"));
        request.batch = MAX_BATCH;
        assert_eq!(recommend(model(), &request).unwrap().ranking.len(), 16);
    }

    #[test]
    fn every_zoo_plan_compiles_at_the_batch_limit() {
        // Tests build with overflow checks, so a wrap anywhere in shape,
        // byte or parameter arithmetic panics here.
        for &id in CnnId::all() {
            let at_limit = plan::plan_for(id, MAX_BATCH);
            let at_32 = plan::plan_for(id, 32);
            assert_eq!(at_limit.parameter_count(), at_32.parameter_count(), "{id:?}");
            assert_eq!(at_limit.ops(), at_32.ops(), "{id:?}");
        }
    }

    #[test]
    fn recommend_agrees_with_library_recommendation() {
        let request = RecommendRequest {
            cnn: "inception-v3".into(),
            objective: Some(Objective::MinimizeTime),
            samples: 64_000,
            batch: 32,
            max_gpus: 4,
            epochs: 1,
            market: false,
            memory_fit: false,
        };
        let response = recommend(model(), &request).unwrap();
        let cnn = Cnn::build(CnnId::InceptionV3, 32);
        let direct = model()
            .recommend(
                &cnn,
                &Catalog::new(Pricing::OnDemand),
                &Workload::new(64_000, 4),
                &Objective::MinimizeTime,
            )
            .unwrap();
        assert_eq!(response.best.as_ref(), Some(direct.best()));
        assert_eq!(response.ranking, direct.ranking());
    }

    #[test]
    fn infeasible_budget_reports_ranking_without_best() {
        let request = RecommendRequest {
            cnn: "vgg-19".into(),
            objective: Some(Objective::MinTimeUnderTotalBudget { usd: 0.0001 }),
            samples: 1_200_000,
            batch: 32,
            max_gpus: 4,
            epochs: 1,
            market: false,
            memory_fit: false,
        };
        let response = recommend(model(), &request).unwrap();
        assert!(response.best.is_none());
        assert_eq!(response.ranking.len(), 16);
    }

    #[test]
    fn zoo_and_catalog_listings_are_complete() {
        let zoo = zoo();
        assert_eq!(zoo.len(), CnnId::all().len());
        assert_eq!(zoo.iter().filter(|e| e.split == "train").count(), 8);
        assert!(zoo.iter().all(|e| e.parameters > 0 && e.training_memory_bytes > 0));
        // The plan-backed figures equal those of the training graph itself.
        for (entry, &id) in zoo.iter().zip(CnnId::all()) {
            let graph = Cnn::build(id, 32).training_graph();
            assert_eq!(entry.name, id.name());
            assert_eq!(entry.parameters, graph.parameter_count(), "{id:?}");
            assert_eq!(entry.ops, graph.len() as u64, "{id:?}");
            assert_eq!(
                entry.training_memory_bytes,
                ceer_graph::analysis::estimate_memory(&graph).total_bytes(),
                "{id:?}"
            );
        }

        let catalog = catalog();
        assert_eq!(catalog.len(), 8);
        assert!(catalog.iter().any(|e| e.instance == "p3.2xlarge" && e.gpus == 1));
        assert!(catalog.iter().all(|e| e.hourly_usd > 0.0 && e.cuda_cores > 0));
    }

    #[test]
    fn responses_round_trip_through_json() {
        let response = predict(model(), &predict_request()).unwrap();
        let json = serde_json::to_string_pretty(&response).unwrap();
        let back: PredictResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(response, back);
    }
}

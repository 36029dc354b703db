//! Equivalence of the compiled predict path: evaluating a [`PredictPlan`]
//! is **bit-identical** to the per-node walk of the training graph that it
//! replaced, kept here verbatim as the reference.
//!
//! The plan interns rows, resolves each kind once and evaluates each unique
//! row once, but it adds every op's term in the graph's topological order,
//! so every `f64` of every [`IterationEstimate`] must come out exactly
//! equal — compared by `to_bits`, no tolerance.

use std::sync::OnceLock;

use ceer::gpusim::GpuModel;
use ceer::graph::models::{Cnn, CnnId};
use ceer::graph::{Graph, GraphBuilder, OpKind, Padding};
use ceer::model::estimate::IterationEstimate;
use ceer::model::plan::{plan_for, PredictPlan};
use ceer::model::{
    features, Ceer, CeerModel, EstimateOptions, FitConfig, ModelForm, OpClass, OpModel,
};

/// The estimator as it was before plans: one walk over the graph per
/// (model, GPU), extracting each heavy op's features on the way.
fn reference_predict_iteration(
    model: &CeerModel,
    graph: &Graph,
    gpu: GpuModel,
    gpus: u32,
    options: &EstimateOptions,
) -> IterationEstimate {
    let mut estimate = IterationEstimate::default();
    for node in graph.topological() {
        match model.classification().class_of(node.kind()) {
            OpClass::Heavy => {
                let f = features::extract(node, graph);
                match model.op_model(node.kind(), gpu) {
                    Some(model) => {
                        estimate.heavy_us += model.predict_us(&f);
                        let s = model.residual_std_us();
                        estimate.variance_us2 += s * s;
                    }
                    // Heavy kind never seen on this GPU during training:
                    // the paper says Ceer must be retrained for truly new
                    // ops (§IV-D); the graceful fallback is the light
                    // median, which at least keeps the op counted.
                    None => estimate.heavy_us += model.light_median_us(),
                }
            }
            OpClass::Light => {
                if options.include_light {
                    estimate.light_us += model.light_median_us();
                }
            }
            OpClass::Cpu => {
                if options.include_cpu {
                    estimate.cpu_us += model.cpu_median_us();
                }
            }
        }
    }
    if options.include_comm {
        estimate.comm_us =
            model.comm_model().predict_us(gpu, gpus, graph.parameter_count()).unwrap_or(0.0);
        let s = model.comm_model().residual_std_us(gpu, gpus);
        estimate.variance_us2 += s * s;
    }
    estimate
}

fn bits(e: &IterationEstimate) -> [u64; 5] {
    [e.heavy_us, e.light_us, e.cpu_us, e.comm_us, e.variance_us2].map(f64::to_bits)
}

/// All eight term-inclusion combinations.
fn all_options() -> Vec<EstimateOptions> {
    (0..8)
        .map(|m| EstimateOptions {
            include_light: m & 1 != 0,
            include_cpu: m & 2 != 0,
            include_comm: m & 4 != 0,
        })
        .collect()
}

fn model() -> &'static CeerModel {
    static MODEL: OnceLock<CeerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 3,
            parallel_degrees: vec![1, 2],
            seed: 13,
            ..FitConfig::default()
        })
    })
}

/// Asserts plan == reference for every GPU model, GPU count and option set.
fn assert_equivalent(model: &CeerModel, graph: &Graph, plan: &PredictPlan, label: &str) {
    for &gpu in GpuModel::all() {
        for gpus in 1..=4 {
            for options in all_options() {
                let reference = reference_predict_iteration(model, graph, gpu, gpus, &options);
                let planned = model.predict_plan(plan, gpu, gpus, &options);
                assert_eq!(
                    bits(&planned),
                    bits(&reference),
                    "{label} {gpu} x{gpus} {options:?}: {planned:?} != {reference:?}"
                );
            }
        }
    }
}

#[test]
fn plans_match_the_per_node_walk_across_the_zoo() {
    let model = model();
    // Both regression forms take part, so both feature slices are checked.
    let forms: Vec<ModelForm> = model.op_models().map(OpModel::form).collect();
    assert!(forms.contains(&ModelForm::Linear) && forms.contains(&ModelForm::Quadratic));
    for &id in CnnId::all() {
        for batch in [1, 7, 16, 32, 64] {
            let graph = Cnn::build(id, batch).training_graph();
            let plan = plan_for(id, batch);
            assert_eq!(*plan, PredictPlan::new(&graph), "{id} batch {batch}");
            assert_equivalent(model, &graph, &plan, &format!("{id} batch {batch}"));
        }
    }
    // `predict_iteration` keeps its graph signature and compiles per call.
    let graph = Cnn::build(CnnId::InceptionV3, 16).training_graph();
    let options = EstimateOptions::default();
    assert_eq!(
        bits(&model.predict_iteration(&graph, GpuModel::T4, 3, &options)),
        bits(&reference_predict_iteration(model, &graph, GpuModel::T4, 3, &options)),
    );
}

/// A copy of `model` without the `(kind, gpu)` regression, removed from its
/// serialized form the way a model file can lack it.
fn without_regression(model: &CeerModel, kind: OpKind, gpu: GpuModel) -> CeerModel {
    let mut value = serde_json::to_value(model);
    let serde_json::Value::Object(fields) = &mut value else {
        panic!("a model serializes as an object")
    };
    let Some((_, serde_json::Value::Array(models))) =
        fields.iter_mut().find(|(name, _)| name == "op_models")
    else {
        panic!("a model serializes its regressions as an op_models array")
    };
    let before = models.len();
    models.retain(|m| {
        let m: OpModel = serde_json::from_value(m).expect("an op model");
        (m.kind(), m.gpu()) != (kind, gpu)
    });
    assert_eq!(models.len(), before - 1, "{kind} on {gpu} was fitted");
    serde_json::from_value(&value).expect("the edited model deserializes")
}

#[test]
fn uncovered_heavy_kinds_fall_back_identically() {
    let model = without_regression(model(), OpKind::Conv2D, GpuModel::K80);
    assert!(model.op_model(OpKind::Conv2D, GpuModel::K80).is_none());
    for id in [CnnId::AlexNet, CnnId::ResNet101] {
        let graph = Cnn::build(id, 16).training_graph();
        let plan = PredictPlan::new(&graph);
        assert!(!model.plan_coverage(&plan).is_fully_covered());
        assert_eq!(model.plan_coverage(&plan), model.coverage(&graph));
        assert_equivalent(&model, &graph, &plan, &format!("{id} without Conv2D on K80"));
    }
}

#[test]
fn builder_graphs_match_the_per_node_walk() {
    let mut b = GraphBuilder::new("custom");
    let (x, labels) = b.input(6, 48, 48, 3);
    let c = b.conv2d(&x, 24, (5, 5), (2, 2), Padding::Same, true);
    let r = b.relu(&c);
    let p = b.max_pool(&r, (3, 3), (2, 2), Padding::Valid);
    let c2 = b.conv2d(&p, 24, (3, 3), (1, 1), Padding::Same, false);
    let r2 = b.relu(&c2);
    let g = b.global_avg_pool(&r2);
    let logits = b.dense(&g, 10, false);
    let loss = b.softmax_loss(&logits, &labels);
    let loss_id = loss.id();
    let graph = ceer::graph::backward::training_graph(b.finish(), loss_id);
    let plan = PredictPlan::new(&graph);
    assert_eq!(plan.ops(), graph.len());
    assert_eq!(plan.parameter_count(), graph.parameter_count());
    assert_equivalent(model(), &graph, &plan, "builder graph");
}

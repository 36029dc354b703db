//! Model diagnostics: a human-readable report of everything a fitted
//! [`CeerModel`] learned, and a *coverage* check telling a user whether a
//! new CNN contains operations Ceer has never seen — the retraining
//! trigger the paper describes in §IV-D ("it is of course possible that we
//! encounter a heavy operation that has not been seen in training; … Ceer
//! will have to be updated with new training data").

use std::collections::BTreeSet;
use std::fmt::Write as _;

use ceer_gpusim::GpuModel;
use ceer_graph::{Graph, OpKind};

use crate::classify::OpClass;
use crate::estimate::CeerModel;
use crate::opmodel::ModelForm;
use crate::plan::PredictPlan;

/// How well a fitted model covers a target graph's operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Heavy operation kinds in the graph with a fitted regression for
    /// every GPU model.
    pub covered_heavy: Vec<OpKind>,
    /// Heavy operation kinds lacking a regression on at least one GPU —
    /// predictions for these fall back to the light median and the paper
    /// recommends retraining.
    pub uncovered_heavy: Vec<OpKind>,
    /// Light/CPU kinds never seen in training (harmless: the sample-median
    /// estimators are op-oblivious, §IV-D).
    pub unseen_light_or_cpu: Vec<OpKind>,
}

impl CoverageReport {
    /// Whether every heavy operation is covered (no retraining needed).
    pub fn is_fully_covered(&self) -> bool {
        self.uncovered_heavy.is_empty()
    }
}

impl CeerModel {
    /// Checks how well this model covers `graph`'s operations.
    pub fn coverage(&self, graph: &Graph) -> CoverageReport {
        let kinds: BTreeSet<OpKind> = graph.nodes().iter().map(|n| n.kind()).collect();
        self.coverage_of(kinds)
    }

    /// [`coverage`](Self::coverage) of a compiled training graph.
    pub fn plan_coverage(&self, plan: &PredictPlan) -> CoverageReport {
        self.coverage_of(plan.kinds().iter().copied())
    }

    /// The per-kind check behind both coverage reports; `kinds` are
    /// distinct and sorted.
    fn coverage_of(&self, kinds: impl IntoIterator<Item = OpKind>) -> CoverageReport {
        let mut covered_heavy = Vec::new();
        let mut uncovered_heavy = Vec::new();
        let mut unseen_light_or_cpu = Vec::new();
        for kind in kinds {
            match self.classification().class_of(kind) {
                OpClass::Heavy => {
                    let everywhere =
                        GpuModel::all().iter().all(|&gpu| self.op_model(kind, gpu).is_some());
                    if everywhere {
                        covered_heavy.push(kind);
                    } else {
                        uncovered_heavy.push(kind);
                    }
                }
                OpClass::Light | OpClass::Cpu => {
                    if self.classification().reference_mean_us(kind).is_none() {
                        unseen_light_or_cpu.push(kind);
                    }
                }
            }
        }
        CoverageReport { covered_heavy, uncovered_heavy, unseen_light_or_cpu }
    }

    /// Renders a diagnostics report of the fitted model: classification,
    /// per-op regressions (form, R², sample count) and communication fits.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Ceer model report");
        let _ = writeln!(out, "=================");

        let heavy = self.classification().heavy_kinds();
        let _ = writeln!(out, "\noperation classification ({} heavy kinds):", heavy.len());
        for kind in &heavy {
            let mean = self.classification().reference_mean_us(*kind).unwrap_or(0.0);
            let _ = writeln!(out, "  HEAVY {:28} mean {:>10.1} us on P2", kind.name(), mean);
        }
        let _ = writeln!(
            out,
            "  light median {:.1} us, CPU median {:.1} us (GPU/CNN/op-oblivious)",
            self.light_median_us(),
            self.cpu_median_us()
        );

        let _ = writeln!(out, "\nper-(operation, GPU) compute-time regressions:");
        for model in self.op_models() {
            let form = match model.form() {
                ModelForm::Linear => "linear",
                ModelForm::Quadratic => "quadratic",
                ModelForm::MeanFallback => "mean-fallback",
            };
            let _ = writeln!(
                out,
                "  {:28} {:4} {:13} R^2 {:>6.3}  n={}",
                model.kind().name(),
                model.gpu().aws_family(),
                form,
                model.r_squared(),
                model.samples()
            );
        }

        let _ = writeln!(out, "\ncommunication-overhead fits (overhead vs #params):");
        for (gpu, gpus, r2) in self.comm_model().r_squared_by_group() {
            let _ = writeln!(out, "  {:4} k={gpus}  R^2 {r2:>6.3}", gpu.aws_family());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{Ceer, FitConfig};
    use ceer_graph::models::{Cnn, CnnId};
    use ceer_graph::{GraphBuilder, Padding};

    fn model() -> CeerModel {
        Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50],
            iterations: 3,
            parallel_degrees: vec![1, 2],
            seed: 77,
            ..FitConfig::default()
        })
    }

    #[test]
    fn test_set_cnns_are_fully_covered() {
        let model = model();
        for &id in CnnId::test_set() {
            let graph = Cnn::build(id, 32).training_graph();
            let cov = model.coverage(&graph);
            assert!(
                cov.is_fully_covered(),
                "{id}: uncovered heavy kinds {:?}",
                cov.uncovered_heavy
            );
        }
    }

    #[test]
    fn coverage_flags_nothing_odd_for_plain_convnets() {
        let model = model();
        let mut b = GraphBuilder::new("plain");
        let (x, labels) = b.input(8, 32, 32, 3);
        let c = b.conv2d(&x, 16, (3, 3), (1, 1), Padding::Same, true);
        let r = b.relu(&c);
        let g = b.global_avg_pool(&r);
        let logits = b.dense(&g, 10, false);
        let loss = b.softmax_loss(&logits, &labels);
        let loss_id = loss.id();
        let graph = ceer_graph::backward::training_graph(b.finish(), loss_id);
        let cov = model.coverage(&graph);
        assert!(cov.is_fully_covered());
        assert!(cov.covered_heavy.contains(&ceer_graph::OpKind::Conv2D));
    }

    #[test]
    fn report_mentions_key_sections() {
        let model = model();
        let report = model.report();
        assert!(report.contains("operation classification"));
        assert!(report.contains("Conv2D"));
        assert!(report.contains("communication-overhead fits"));
        assert!(report.contains("light median"));
        // One regression row per (heavy kind, GPU).
        assert!(report.matches("R^2").count() > 20);
    }
}

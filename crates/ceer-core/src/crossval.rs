//! Leave-one-out cross-validation over the training CNNs.
//!
//! The paper validates on a fixed 4-CNN test set. Cross-validation is the
//! natural robustness extension: hold out each training CNN in turn, fit
//! Ceer on the remaining ones, and measure the prediction error on the
//! held-out CNN. Because each fold's CNN is architecturally absent from its
//! fit, this probes the same generalization claim with eight more data
//! points.

use ceer_gpusim::GpuModel;
use ceer_graph::models::CnnId;
use ceer_trainer::Trainer;

use crate::estimate::EstimateOptions;
use crate::fit::{Ceer, FitConfig};
use crate::plan::PredictPlan;

/// Seed offset separating fold-evaluation noise from fitting noise.
const EVAL_SEED_OFFSET: u64 = 0xC0DE_F01D;

/// One held-out fold's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldResult {
    /// The CNN held out of this fold's fit.
    pub held_out: CnnId,
    /// Per-(GPU model, GPU count) relative errors.
    pub errors: Vec<(GpuModel, u32, f64)>,
}

impl FoldResult {
    /// Mean absolute relative error over this fold's configurations.
    pub fn mape(&self) -> f64 {
        let total: f64 = self.errors.iter().map(|(_, _, e)| e).sum();
        total / self.errors.len().max(1) as f64
    }
}

/// The full cross-validation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// One result per held-out CNN, in the configuration's CNN order.
    pub folds: Vec<FoldResult>,
}

impl CrossValidation {
    /// Grand mean error over all folds and configurations.
    pub fn mape(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for fold in &self.folds {
            for (_, _, e) in &fold.errors {
                total += e;
                n += 1;
            }
        }
        total / n.max(1) as f64
    }

    /// The fold with the worst mean error.
    pub fn worst_fold(&self) -> Option<&FoldResult> {
        self.folds.iter().max_by(|a, b| a.mape().total_cmp(&b.mape()))
    }
}

/// Runs leave-one-out cross-validation under `config`.
///
/// Profiles every CNN once (shared across folds), then for each CNN fits a
/// model on the others and scores it on fresh observations of the held-out
/// CNN at every GPU model and each degree in `eval_degrees`.
///
/// Folds are independent of each other, so they run on the [`ceer_par`]
/// worker pool; each fold is a pure function of `(config, runs, held_out)`
/// and the result vector keeps the configuration's CNN order, making the
/// outcome bit-identical at every thread count.
///
/// # Panics
///
/// Panics if `config` has fewer than three CNNs (a fold's fit needs at
/// least two) or if `eval_degrees` is empty.
pub fn leave_one_out(config: &FitConfig, eval_degrees: &[u32]) -> CrossValidation {
    assert!(config.cnns.len() >= 3, "cross-validation needs at least 3 CNNs");
    assert!(!eval_degrees.is_empty(), "need at least one evaluation degree");
    let runs = Ceer::collect_profiles(config);
    let options = EstimateOptions::default();

    let folds = ceer_par::par_map(&config.cnns, |&held_out| {
        let fold_runs: Vec<_> =
            runs.iter().filter(|(cnn, _, _)| cnn.id() != held_out).cloned().collect();
        let fold_config = FitConfig {
            cnns: config.cnns.iter().copied().filter(|&c| c != held_out).collect(),
            ..config.clone()
        };
        let model = Ceer::fit_from_profiles(&fold_config, &fold_runs);

        let (cnn, graph, _) = runs
            .iter()
            .find(|(cnn, _, _)| cnn.id() == held_out)
            .expect("held-out CNN was profiled");
        let plan = PredictPlan::new(graph);
        let mut errors = Vec::new();
        for &gpu in &config.gpus {
            for &k in eval_degrees {
                let observed = Trainer::new(gpu, k)
                    .with_seed(config.seed ^ EVAL_SEED_OFFSET)
                    .profile_graph(cnn, graph, config.iterations.min(12))
                    .iteration_mean_us();
                let predicted = model.predict_plan(&plan, gpu, k, &options).total_us();
                errors.push((gpu, k, (predicted - observed).abs() / observed));
            }
        }
        FoldResult { held_out, errors }
    });
    CrossValidation { folds }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> FitConfig {
        FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1, CnnId::ResNet50, CnnId::ResNet152],
            iterations: 4,
            parallel_degrees: vec![1, 2],
            seed: 88,
            ..FitConfig::default()
        }
    }

    #[test]
    fn folds_cover_every_cnn_once() {
        let cv = leave_one_out(&quick_config(), &[1]);
        let held: Vec<CnnId> = cv.folds.iter().map(|f| f.held_out).collect();
        assert_eq!(held, quick_config().cnns);
    }

    #[test]
    fn errors_are_reasonable_for_unseen_cnns() {
        let cv = leave_one_out(&quick_config(), &[1]);
        // Each fold predicts a CNN absent from its fit; errors stay modest.
        assert!(cv.mape() < 0.15, "LOO MAPE {:.3} too high", cv.mape());
        for fold in &cv.folds {
            assert_eq!(fold.errors.len(), 4); // 4 GPUs x 1 degree
            assert!(fold.mape() < 0.30, "{}: {:.3}", fold.held_out, fold.mape());
        }
    }

    #[test]
    fn worst_fold_is_the_max() {
        let cv = leave_one_out(&quick_config(), &[1]);
        let worst = cv.worst_fold().expect("non-empty").mape();
        for fold in &cv.folds {
            assert!(fold.mape() <= worst + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 CNNs")]
    fn rejects_tiny_configs() {
        let config = FitConfig { cnns: vec![CnnId::Vgg11, CnnId::InceptionV1], ..quick_config() };
        leave_one_out(&config, &[1]);
    }
}

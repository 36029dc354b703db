//! Experiment configuration and the in-memory fitting step.

use std::sync::OnceLock;
use std::time::Instant;

use ceer_core::{Ceer, CeerModel, FitConfig};
use ceer_graph::models::Cnn;
use ceer_graph::Graph;
use ceer_trainer::TrainingProfile;

/// Seed offset for observation runs, so observed noise is independent of the
/// noise Ceer was fitted on.
pub const OBSERVATION_SEED_OFFSET: u64 = 0x5EED_0B5E;

/// One fitting run's raw output: each training CNN, its training graph and
/// its profiles on every (GPU model, parallel degree).
pub type FitProfiles = Vec<(Cnn, Graph, Vec<TrainingProfile>)>;

/// Shared configuration for an experiment run, plus the profiles and the
/// model fitted from it (each computed once, on first use).
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    fit_config: FitConfig,
    observe_iterations: usize,
    profiles: OnceLock<FitProfiles>,
    model: OnceLock<CeerModel>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl ExperimentContext {
    /// Builds the context from the environment (see crate docs for knobs).
    pub fn from_env() -> Self {
        let fit_config = FitConfig {
            iterations: env_usize("CEER_FIT_ITERS", 200),
            seed: env_u64("CEER_SEED", 0),
            ..FitConfig::default()
        };
        Self::with_config(fit_config, env_usize("CEER_OBS_ITERS", 40))
    }

    /// Builds a context with an explicit configuration, ignoring the
    /// environment. Used by the golden-file regression tests, which need a
    /// fixed (and small) configuration regardless of the caller's knobs.
    pub fn with_config(fit_config: FitConfig, observe_iterations: usize) -> Self {
        ExperimentContext {
            fit_config,
            observe_iterations,
            profiles: OnceLock::new(),
            model: OnceLock::new(),
        }
    }

    /// The fitting configuration (the paper's full methodology: 8 training
    /// CNNs × 4 GPU models × 1–4 GPUs).
    pub fn fit_config(&self) -> &FitConfig {
        &self.fit_config
    }

    /// Iterations behind each observed measurement.
    pub fn observe_iterations(&self) -> usize {
        self.observe_iterations
    }

    /// Seed for observation runs (independent of the fitting seed).
    pub fn observation_seed(&self) -> u64 {
        self.fit_config.seed ^ OBSERVATION_SEED_OFFSET
    }

    /// The profiles [`fitted_model`](Self::fitted_model) is fitted from
    /// ([`Ceer::collect_profiles`] of this context's [`FitConfig`]),
    /// collected on first use and kept in memory.
    pub fn fit_profiles(&self) -> &FitProfiles {
        self.profiles.get_or_init(|| Ceer::collect_profiles(&self.fit_config))
    }

    /// Ceer fitted on the paper's training set with this context's
    /// [`FitConfig`], equal to [`Ceer::fit`] of it. The first call fits
    /// (progress goes to stderr); every later call on this context returns
    /// the same in-memory model.
    pub fn fitted_model(&self) -> &CeerModel {
        self.model.get_or_init(|| {
            eprintln!(
                "[ceer] fitting on {} CNNs x {} GPUs ({} iterations)...",
                self.fit_config.cnns.len(),
                self.fit_config.gpus.len(),
                self.fit_config.iterations
            );
            let started = Instant::now();
            let model = Ceer::fit_from_profiles(&self.fit_config, self.fit_profiles());
            eprintln!("[ceer] fit done in {:.1?}", started.elapsed());
            model
        })
    }
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("CEER_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("CEER_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn observation_seed_differs_from_fit_seed() {
        let ctx = ExperimentContext::from_env();
        assert_ne!(ctx.observation_seed(), ctx.fit_config().seed);
    }

    #[test]
    fn fitted_model_follows_the_whole_config_and_fits_once() {
        use ceer_graph::models::CnnId;

        let config = FitConfig {
            cnns: vec![CnnId::Vgg11, CnnId::InceptionV1],
            iterations: 2,
            parallel_degrees: vec![1],
            seed: 91,
            ..FitConfig::default()
        };
        // Same iterations, seed and batch: only a field outside those
        // differs, and each context must still fit its own config.
        let linear = FitConfig { allow_quadratic: false, ..config.clone() };
        for config in [config, linear] {
            let ctx = ExperimentContext::with_config(config.clone(), 4);
            let model = ctx.fitted_model();
            assert_eq!(model, &Ceer::fit(&config));
            assert!(std::ptr::eq(model, ctx.fitted_model()), "the second call must not refit");
        }
    }
}

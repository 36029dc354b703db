//! Ceer — the paper's contribution: a model-driven predictor of CNN training
//! time and cost across cloud GPU instances.
//!
//! Given operation-level profiles of a *training set* of CNNs (here produced
//! by [`ceer_trainer`] on the simulated GPUs of [`ceer_gpusim`]), Ceer fits:
//!
//! 1. an empirical **operation classification** — an operation kind is
//!    *heavy* when its mean compute time on the P2 (K80) reference GPU is at
//!    least 0.5 ms (§III-A);
//! 2. per (heavy operation kind, GPU model) **regression models** of compute
//!    time against input-size features, choosing between a linear fit and a
//!    quadratic one per the data (§IV-B);
//! 3. GPU-, CNN- and operation-**oblivious sample medians** for light GPU
//!    operations and CPU operations (§IV-B);
//! 4. a CNN-oblivious **communication-overhead model**: per (GPU model, GPU
//!    count), a linear regression of the per-iteration overhead on the
//!    number of model parameters (§IV-C).
//!
//! The fitted [`CeerModel`] predicts per-iteration and per-epoch training
//! time via Eq. (2) of the paper,
//!
//! ```text
//! T = (S_GPU(CNN) + Σ_i t_GPU,op(input_i)) · D / (k · B)
//! ```
//!
//! multiplies by the instance's hourly price for cost, and recommends the
//! instance minimizing a user objective, with the paper's budget scenarios
//! built in (§IV-D, §V).
//!
//! # Example
//!
//! ```no_run
//! use ceer_core::{FitConfig, Ceer};
//! use ceer_cloud::{Catalog, Pricing};
//! use ceer_graph::models::{Cnn, CnnId};
//! use ceer_core::recommend::{Objective, Workload};
//!
//! // Fit on the paper's 8 training CNNs (expensive: profiles 128 runs).
//! let model = Ceer::fit(&FitConfig::default());
//! // Recommend an instance for a test CNN the model never saw.
//! let cnn = Cnn::build(CnnId::ResNet101, 32);
//! let catalog = Catalog::new(Pricing::OnDemand);
//! let workload = Workload::new(1_200_000, 4);
//! let best = model.recommend(&cnn, &catalog, &workload, &Objective::MinimizeCost).unwrap();
//! println!("train on {}", best.instance());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod classify;
pub mod comm;
pub mod crossval;
pub mod estimate;
pub mod features;
pub mod fit;
pub mod opmodel;
pub mod plan;
pub mod recommend;
pub mod report;

pub use archive::ProfileArchive;
pub use classify::{Classification, OpClass};
pub use estimate::{CeerModel, EstimateOptions};
pub use fit::{Ceer, FitConfig};
pub use opmodel::{ModelForm, OpModel, OpModelAccumulator};
pub use plan::PredictPlan;
pub use report::CoverageReport;

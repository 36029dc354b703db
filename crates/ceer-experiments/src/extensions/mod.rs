//! Experiments beyond the paper's evaluation: ablations of Ceer's design
//! choices, cross-validation, batch-size and GPU-count generalization, the
//! §VI overlap limitation, and seed stability.
//!
//! Like [`figures`](crate::figures), each function returns its report text
//! and [`CheckList`](crate::CheckList) as a pure function of the
//! [`ExperimentContext`](crate::ExperimentContext).

mod ablations;
mod exp_batch_sensitivity;
mod exp_crossval;
mod exp_gpu_count_extrapolation;
mod exp_overlap_limitation;
mod exp_seed_stability;

pub use ablations::ablations;
pub use exp_batch_sensitivity::exp_batch_sensitivity;
pub use exp_crossval::exp_crossval;
pub use exp_gpu_count_extrapolation::exp_gpu_count_extrapolation;
pub use exp_overlap_limitation::exp_overlap_limitation;
pub use exp_seed_stability::exp_seed_stability;

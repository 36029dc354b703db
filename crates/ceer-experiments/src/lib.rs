//! The regenerators behind every table and figure in the Ceer paper's
//! evaluation, and the harness they share.
//!
//! Each regenerator is a function from an [`ExperimentContext`] to its
//! report text and [`CheckList`] (see DESIGN.md §5 for the index);
//! [`REGENERATORS`] lists all of them in run order. The crate's binary runs
//! them in one process over one in-memory fit and writes `results/`:
//!
//! ```text
//! cargo run --release -p ceer-experiments -- [--out DIR]
//! ```
//!
//! Besides the regenerators this library holds the experiment
//! configuration (environment-overridable) with its fitting step,
//! observation helpers that run the training simulator, plain-text table
//! rendering, and the paper-vs-measured check list each regenerator ends
//! with.
//!
//! Environment knobs:
//!
//! - `CEER_FIT_ITERS`: profiling iterations per training run during fitting
//!   (default 200; the paper uses 1,000 — set it for maximum fidelity).
//! - `CEER_OBS_ITERS`: iterations behind each "observed" measurement
//!   (default 40).
//! - `CEER_SEED`: base seed for the fitting profiles (default 0). Observed
//!   runs always use an independent seed so Ceer is never graded against
//!   noise it has seen.
//!
//! The committed `results/` hold the output at the defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod context;
pub mod extensions;
pub mod figures;
pub mod observe;
pub mod table;

pub use checks::CheckList;
pub use context::ExperimentContext;
pub use observe::Observatory;
pub use table::Table;

/// A regenerator: its report text (everything before the verdict block)
/// and its paper-vs-measured checks, as a pure function of the context.
pub type Regenerator = fn(&ExperimentContext) -> (String, CheckList);

/// Every regenerator with the name of its output files, in run order.
pub const REGENERATORS: [(&str, Regenerator); 20] = [
    ("hw_catalog", figures::hw_catalog),
    ("fig1_dag", figures::fig1_dag),
    ("fig2_op_times", figures::fig2_op_times),
    ("fig3_op_costs", figures::fig3_op_costs),
    ("fig4_relu_scaling", figures::fig4_relu_scaling),
    ("fig5_variability_cdf", figures::fig5_variability_cdf),
    ("fig6_data_parallel_scaling", figures::fig6_data_parallel_scaling),
    ("fig7_comm_overhead", figures::fig7_comm_overhead),
    ("fig8_validation", figures::fig8_validation),
    ("fig9_hourly_budget", figures::fig9_hourly_budget),
    ("fig10_total_budget", figures::fig10_total_budget),
    ("fig11_cost_min", figures::fig11_cost_min),
    ("fig12_market_prices", figures::fig12_market_prices),
    ("headline_numbers", figures::headline_numbers),
    ("ablations", extensions::ablations),
    ("exp_crossval", extensions::exp_crossval),
    ("exp_batch_sensitivity", extensions::exp_batch_sensitivity),
    ("exp_gpu_count_extrapolation", extensions::exp_gpu_count_extrapolation),
    ("exp_overlap_limitation", extensions::exp_overlap_limitation),
    ("exp_seed_stability", extensions::exp_seed_stability),
];

//! Statistics substrate for the Ceer reproduction.
//!
//! The Ceer paper (Hafeez & Gandhi, IISWC 2020) builds its predictor out of a
//! small set of statistical tools: ordinary least squares regression (simple,
//! multiple, and polynomial), coefficient-of-determination diagnostics,
//! sample medians and quantiles, and empirical CDFs. This crate implements
//! all of them from scratch, plus the deterministic random-number
//! utilities that the GPU simulator uses to generate reproducible
//! compute-time noise.
//!
//! # Example
//!
//! ```
//! use ceer_stats::regression::SimpleOls;
//!
//! # fn main() -> Result<(), ceer_stats::StatsError> {
//! // Fit y = 2x + 1 from noise-free samples.
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [3.0, 5.0, 7.0, 9.0];
//! let fit = SimpleOls::fit(&xs, &ys)?;
//! assert!((fit.slope() - 2.0).abs() < 1e-12);
//! assert!((fit.intercept() - 1.0).abs() < 1e-12);
//! assert!((fit.r_squared() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod bootstrap;
pub mod cdf;
pub mod correlation;
pub mod regression;
pub mod rng;
pub mod summary;
pub mod total;

pub use error::StatsError;
pub use summary::Summary;

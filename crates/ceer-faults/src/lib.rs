//! ceer-faults — deterministic, seeded fault injection.
//!
//! A production predictor sitting in a provisioning loop must degrade
//! gracefully, and the only trustworthy proof is killing it on purpose —
//! reproducibly. This crate is the substrate: a [`FaultPlan`] names
//! injection *sites* (stable strings like `serve.http.read`) and assigns
//! each a fault kind (I/O error, delay, short read/write, poison/panic)
//! plus a trigger (probability or explicit call numbers). Probabilistic
//! triggers are driven by the same seeded ChaCha stream as every other
//! random draw in this workspace ([`ceer_stats::rng`]), so **every chaos
//! run replays byte-identically from its seed**: the decision for call
//! `n` at a site is a pure function of `(seed, site, n)`.
//!
//! The moving parts:
//!
//! * [`FaultPlan`] — parsed from the compact `CEER_FAULT_PLAN` spec
//!   (see [`plan`] for the grammar), seeded by `CEER_FAULT_SEED`;
//! * [`FaultInjector`] — evaluates the plan at runtime; counter mode for
//!   arrival-ordered sites (servers), keyed mode for deterministic
//!   pipelines (the trainer); logs every injected fault;
//! * [`Faults`] — the `Option<Arc<FaultInjector>>` handle the hot paths
//!   carry; `None` (the production default) costs one branch.
//!
//! ```
//! use ceer_faults::{injector, FaultPlan};
//!
//! let faults = injector(FaultPlan::parse(7, "db.read=err@#2").unwrap()).unwrap();
//! assert!(faults.fail_io("db.read").is_ok());  // call 1: clean
//! assert!(faults.fail_io("db.read").is_err()); // call 2: injected error
//! assert_eq!(faults.digest(), "db.read#2:err\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inject;
pub mod plan;

pub use inject::{injector, none, FaultEvent, FaultInjector, Faults};
pub use plan::{FaultKind, FaultPlan, SiteRule, Trigger};

//! Golden-file regression tests for the figure regenerators.
//!
//! `fig2_op_times` and `fig11_cost_min` run through the same
//! [`ceer_experiments::figures`] functions the experiments binary calls, at a small
//! fixed configuration, and the full report (tables, prose and the
//! paper-vs-measured verdict block) is compared **byte-for-byte** against
//! a checked-in snapshot under `tests/golden/`.
//!
//! Any drift in simulated physics, fitting, formatting, or parallel
//! restructuring shows up here as a diff. To bless intentional changes:
//!
//! ```text
//! CEER_UPDATE_GOLDEN=1 cargo test --test golden_figures
//! ```

use std::fs;
use std::path::PathBuf;

use ceer::model::FitConfig;
use ceer_experiments::{figures, CheckList, ExperimentContext};

/// Fixed small configuration for the snapshots. Each test fits its own
/// model in memory from exactly this configuration, so what `target/`
/// holds cannot change the result.
fn golden_context() -> ExperimentContext {
    ExperimentContext::with_config(
        FitConfig { iterations: 12, seed: 0x601d, ..FitConfig::default() },
        8,
    )
}

fn assert_matches_golden(name: &str, report: &str, checks: &CheckList) {
    let actual = format!("{report}{}", checks.render());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("CEER_UPDATE_GOLDEN").is_ok() {
        fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is intended, \
         rerun with CEER_UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn fig2_op_times_matches_golden() {
    let (report, checks) = figures::fig2_op_times(&golden_context());
    assert_matches_golden("fig2_op_times.txt", &report, &checks);
}

#[test]
fn fig11_cost_min_matches_golden() {
    let (report, checks) = figures::fig11_cost_min(&golden_context());
    assert_matches_golden("fig11_cost_min.txt", &report, &checks);
}

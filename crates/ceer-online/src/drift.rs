//! Drift detection over prediction residuals.
//!
//! Each (op kind, GPU) pair gets its own detector fed with the *relative*
//! residual `(true − predicted) / max(predicted, 1 µs)` of every observed
//! instance. The one policy is a **windowed error ratio**: it fires when
//! the mean absolute residual over a sliding window exceeds a multiple of
//! the detector's own calm baseline — the mean absolute residual of its
//! first `baseline` observations. Self-normalizing: a model with a
//! systematic 20% bias is as monitorable as a perfectly calibrated one,
//! because only the *change* relative to its own calm level fires. (An
//! absolute-threshold test such as Page–Hinkley would read that bias as
//! permanent drift.)
//!
//! Both types are enums so a policy can be added as a variant without
//! changing the serialized form of the existing one, which engine
//! snapshots persist (see `CONTRIBUTING.md`).

use serde::{Deserialize, Serialize};

/// Floor on the baseline mean absolute residual used by the window-ratio
/// policy: a near-perfectly calibrated baseline would otherwise make the
/// ratio explode on harmless noise.
const BASELINE_FLOOR: f64 = 0.05;

/// Detector selection plus tuning, shared by every (op kind, GPU) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DriftPolicy {
    /// Windowed mean absolute residual compared against the detector's own
    /// calm baseline.
    WindowRatio {
        /// Window length in observations; the detector is silent until the
        /// window fills.
        window: usize,
        /// Firing threshold on `window mean / baseline mean`.
        threshold: f64,
        /// Observations used to establish the calm baseline before the
        /// window starts filling.
        baseline: usize,
    },
}

impl Default for DriftPolicy {
    /// Window ratio tuned for the simulated fleet: baseline on the first
    /// 24 observations, fire when a 12-observation window runs 1.6× the
    /// calm error level. Scale-free, so it tolerates the systematic
    /// residual bias a real serving model carries (extrapolation to
    /// batch sizes outside the fit design) while a 1.5×+ fleet slowdown
    /// still fires within one window.
    fn default() -> Self {
        DriftPolicy::WindowRatio { window: 12, threshold: 1.6, baseline: 24 }
    }
}

/// Sequential drift detector state for one (op kind, GPU) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriftDetector {
    /// See [`DriftPolicy::WindowRatio`].
    WindowRatio {
        /// Configured window length.
        window: usize,
        /// Configured threshold on `window mean / baseline mean`.
        threshold: f64,
        /// Configured baseline length.
        baseline: usize,
        /// Baseline observations absorbed so far.
        baseline_n: u64,
        /// Sum of absolute residuals over the baseline.
        baseline_sum: f64,
        /// The sliding window of absolute residuals (newest last; windows
        /// are small, so the front-shift on overflow is cheap).
        recent: Vec<f64>,
    },
}

impl DriftDetector {
    /// A fresh detector for `policy`.
    pub fn new(policy: DriftPolicy) -> Self {
        let DriftPolicy::WindowRatio { window, threshold, baseline } = policy;
        DriftDetector::WindowRatio {
            window,
            threshold,
            baseline,
            baseline_n: 0,
            baseline_sum: 0.0,
            recent: Vec::new(),
        }
    }

    /// Feeds one relative residual; returns `true` when drift is declared.
    /// The caller decides what to do on firing (typically: refit, then
    /// [`reset`](Self::reset) once the refreshed model is promoted).
    pub fn observe(&mut self, residual: f64) -> bool {
        let DriftDetector::WindowRatio {
            window,
            threshold,
            baseline,
            baseline_n,
            baseline_sum,
            recent,
        } = self;
        if (*baseline_n as usize) < *baseline {
            *baseline_n += 1;
            *baseline_sum += residual.abs();
            return false;
        }
        recent.push(residual.abs());
        while recent.len() > *window {
            recent.remove(0);
        }
        if recent.len() < *window {
            return false;
        }
        let window_mean = recent.iter().sum::<f64>() / recent.len() as f64;
        let baseline_mean = (*baseline_sum / *baseline_n as f64).max(BASELINE_FLOOR);
        window_mean > *threshold * baseline_mean
    }

    /// Clears accumulated state — baseline included — so the detector
    /// re-calibrates against whatever model now serves (called after a
    /// promotion establishes a new baseline).
    pub fn reset(&mut self) {
        let DriftDetector::WindowRatio { baseline_n, baseline_sum, recent, .. } = self;
        *baseline_n = 0;
        *baseline_sum = 0.0;
        recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-calibrated stream: small zero-mean residuals.
    fn calm(i: u64) -> f64 {
        ((i % 7) as f64 - 3.0) * 0.01
    }

    /// A biased-but-stable stream: the model is systematically ~30% off
    /// and oscillates with the traffic mix — healthy serving reality.
    fn biased(i: u64) -> f64 {
        0.2 + ((i % 12) as f64 - 5.5) * 0.04
    }

    #[test]
    fn window_ratio_tolerates_systematic_bias() {
        let mut d = DriftDetector::new(DriftPolicy::default());
        for i in 0..1000 {
            assert!(!d.observe(biased(i)), "false positive on stable bias at {i}");
        }
    }

    #[test]
    fn window_ratio_fires_on_error_level_shift() {
        let mut d = DriftDetector::new(DriftPolicy::default());
        for i in 0..200 {
            assert!(!d.observe(biased(i)));
        }
        // The fleet slows 1.6×: the residual level roughly doubles.
        let fired_at = (0..40).find(|_| d.observe(0.6));
        assert!(fired_at.is_some(), "doubled error level must fire");
        assert!(
            fired_at.unwrap() < 15,
            "must fire within roughly one window, fired at {fired_at:?}"
        );
    }

    #[test]
    fn window_ratio_is_silent_while_arming() {
        let DriftPolicy::WindowRatio { window, baseline, .. } = DriftPolicy::default();
        let mut d = DriftDetector::new(DriftPolicy::default());
        // Huge residuals from the start: nothing may fire until both the
        // baseline and the window have filled (the baseline *is* the huge
        // level, so afterwards the ratio is 1 and it stays quiet).
        for i in 0..(baseline + window + 100) {
            assert!(!d.observe(5.0), "fired during/after arming at {i}");
        }
    }

    #[test]
    fn window_ratio_reset_rebaselines() {
        let mut d = DriftDetector::new(DriftPolicy::default());
        for i in 0..200 {
            d.observe(biased(i));
        }
        assert!((0..40).any(|_| d.observe(0.6)), "shift must fire before the reset");
        d.reset();
        // After the reset the *new* calm level (0.6) becomes the baseline.
        for i in 0..500 {
            assert!(!d.observe(0.6 + calm(i)), "false positive after re-baselining at {i}");
        }
    }

    #[test]
    fn detectors_are_deterministic_and_serializable() {
        let mut a = DriftDetector::new(DriftPolicy::default());
        let mut b = DriftDetector::new(DriftPolicy::default());
        for i in 0..100 {
            assert_eq!(a.observe(biased(i)), b.observe(biased(i)));
        }
        assert_eq!(a, b);
        let back: DriftDetector =
            serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn serialized_form_is_stable() {
        // Engine snapshots persist detectors and policies: existing data
        // directories must keep recovering, so these bytes may not change.
        let mut d = DriftDetector::new(DriftPolicy::default());
        for _ in 0..25 {
            d.observe(0.5);
        }
        assert_eq!(
            serde_json::to_string(&d).unwrap(),
            r#"{"WindowRatio":{"window":12,"threshold":1.6,"baseline":24,"baseline_n":24,"baseline_sum":12.0,"recent":[0.5]}}"#
        );
        assert_eq!(
            serde_json::to_string(&DriftPolicy::default()).unwrap(),
            r#"{"WindowRatio":{"window":12,"threshold":1.6,"baseline":24}}"#
        );
    }
}

//! Per-(operation kind, GPU model) compute-time regression.
//!
//! §IV-B of the paper: heavy operations get a regression of compute time on
//! their input-size features, one model per operation kind per GPU model.
//! "Linear regression works well for most heavy operations … for a few
//! operations, e.g. Conv2DBackpropFilter, a quadratic fit is much better
//! suited." [`OpModel::fit`] reproduces that choice: it fits both forms and
//! keeps the quadratic one only when it clearly wins on adjusted R².

use ceer_gpusim::GpuModel;
use ceer_graph::OpKind;
use ceer_stats::regression::{adjusted_r_squared, MultipleOls, NormalAccumulator};
use serde::{Deserialize, Serialize};

use crate::features::{FeatureRow, Features};

/// Which functional form the selection kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelForm {
    /// Multiple linear regression on the linear features.
    Linear,
    /// Linear regression augmented with product/squared features.
    Quadratic,
    /// Too little data or a singular design: predict the sample mean.
    MeanFallback,
}

/// Minimum adjusted-R² gain for the quadratic form to displace the linear
/// one (guards against the quadratic's mechanical in-sample advantage).
const QUADRATIC_GAIN: f64 = 0.01;

/// A fitted compute-time model for one (operation kind, GPU model) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpModel {
    kind: OpKind,
    gpu: GpuModel,
    form: ModelForm,
    ols: Option<MultipleOls>,
    mean_us: f64,
    r_squared: f64,
    samples: usize,
    #[serde(default)]
    sample_std_us: f64,
}

impl OpModel {
    /// Fits the model from `(features, mean compute time µs)` samples of all
    /// instances of `kind` observed on `gpu` across the training CNNs.
    ///
    /// Falls back to the sample mean when there are too few samples or the
    /// design is singular (e.g. every instance has identical input sizes).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(kind: OpKind, gpu: GpuModel, samples: &[(Features, f64)]) -> Self {
        Self::fit_with_forms(kind, gpu, samples, true)
    }

    /// Like [`fit`](Self::fit), but with the quadratic form disabled when
    /// `allow_quadratic` is false — the paper's linear-only ablation.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit_with_forms(
        kind: OpKind,
        gpu: GpuModel,
        samples: &[(Features, f64)],
        allow_quadratic: bool,
    ) -> Self {
        assert!(!samples.is_empty(), "cannot fit an op model without samples");
        let mut acc = OpModelAccumulator::new(kind, gpu, allow_quadratic);
        for (features, y) in samples {
            acc.push(features, *y);
        }
        // ceer-lint: allow(panic-reachability) -- guarded by the non-empty assert above
        acc.fit().expect("accumulator fed at least one sample")
    }

    /// Predicted compute time (µs) for an instance with `features`. Never
    /// negative: regression extrapolation is clamped at zero.
    pub fn predict_us(&self, features: &Features) -> f64 {
        self.predict_form(&features.linear, || features.quadratic())
    }

    /// [`predict_us`](Self::predict_us) for a packed row, without
    /// allocating.
    pub(crate) fn predict_row(&self, row: &FeatureRow) -> f64 {
        self.predict_form(row.linear(), || row.quadratic())
    }

    /// The one dispatch over the fitted form. `quadratic` yields the linear
    /// ++ extra features and is only called for the quadratic form.
    fn predict_form<Q: AsRef<[f64]>>(&self, linear: &[f64], quadratic: impl FnOnce() -> Q) -> f64 {
        let raw = match (&self.form, &self.ols) {
            (ModelForm::Linear, Some(ols)) => ols.predict(linear),
            (ModelForm::Quadratic, Some(ols)) => ols.predict(quadratic().as_ref()),
            _ => self.mean_us,
        };
        raw.max(0.0)
    }

    /// Operation kind this model covers.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// GPU model this model covers.
    pub fn gpu(&self) -> GpuModel {
        self.gpu
    }

    /// The selected functional form.
    pub fn form(&self) -> ModelForm {
        self.form
    }

    /// Adjusted R² of the selected fit (0 for the mean fallback).
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Number of training samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Mean training compute time (the fallback prediction), µs.
    pub fn mean_us(&self) -> f64 {
        self.mean_us
    }

    /// One-sigma prediction uncertainty for a single instance, µs: the
    /// regression's residual standard error, or the sample standard
    /// deviation for the mean fallback.
    pub fn residual_std_us(&self) -> f64 {
        match (&self.form, &self.ols) {
            (ModelForm::MeanFallback, _) | (_, None) => self.sample_std_us,
            (_, Some(ols)) => ols.residual_std(),
        }
    }
}

/// One functional form's sufficient statistics. A push that the batch fit
/// would have rejected (ragged arity, non-finite value) poisons the form —
/// [`MultipleOls::fit`] on the full batch would have errored out for the
/// whole design, so the incremental path must discard the form too, not just
/// the offending row, to stay bit-identical to the batch result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct FormAccumulator {
    acc: Option<NormalAccumulator>,
    poisoned: bool,
}

impl FormAccumulator {
    fn push(&mut self, row: &[f64], y: f64) {
        if self.poisoned {
            return;
        }
        if self.acc.is_none() {
            match NormalAccumulator::new(row.len()) {
                Ok(acc) => self.acc = Some(acc),
                Err(_) => {
                    self.poisoned = true;
                    return;
                }
            }
        }
        // ceer-lint: allow(panic-reachability) -- the accumulator is installed by the branch directly above
        let acc = self.acc.as_mut().expect("accumulator installed above");
        if acc.push(row, y).is_err() {
            self.poisoned = true;
        }
    }

    fn solve(&self) -> Option<MultipleOls> {
        if self.poisoned {
            return None;
        }
        self.acc.as_ref()?.solve().ok()
    }

    fn rows(&self) -> &[Vec<f64>] {
        self.acc.as_ref().map_or(&[], NormalAccumulator::rows)
    }
}

/// Streaming fit state for one (operation kind, GPU model) pair.
///
/// [`OpModel::fit_with_forms`] is implemented as "push every sample, then
/// [`fit`](Self::fit)", so folding a sample stream incrementally — the
/// online-learning loop's refit path — produces an [`OpModel`] that is
/// **bit-identical** to batch-refitting the same stream from scratch, at
/// every prefix. New observations extend the `XᵀX`/`Xᵀy` sufficient
/// statistics (see [`NormalAccumulator`]) instead of rebuilding them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpModelAccumulator {
    kind: OpKind,
    gpu: GpuModel,
    allow_quadratic: bool,
    ys: Vec<f64>,
    linear: FormAccumulator,
    quad: FormAccumulator,
}

impl OpModelAccumulator {
    /// Creates an empty accumulator for `(kind, gpu)` samples.
    pub fn new(kind: OpKind, gpu: GpuModel, allow_quadratic: bool) -> Self {
        OpModelAccumulator {
            kind,
            gpu,
            allow_quadratic,
            ys: Vec::new(),
            linear: FormAccumulator::default(),
            quad: FormAccumulator::default(),
        }
    }

    /// Folds one `(features, mean compute time µs)` sample into the
    /// sufficient statistics. Every sample counts toward the mean/std
    /// fallback; a sample the regression cannot accept additionally poisons
    /// the affected functional form, exactly as it would have failed the
    /// batch fit.
    pub fn push(&mut self, features: &Features, y: f64) {
        self.linear.push(&features.linear, y);
        if self.allow_quadratic {
            self.quad.push(&features.quadratic(), y);
        }
        self.ys.push(y);
    }

    /// Number of samples folded so far.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether no samples have been folded yet.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Operation kind this accumulator covers.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// GPU model this accumulator covers.
    pub fn gpu(&self) -> GpuModel {
        self.gpu
    }

    /// Fits an [`OpModel`] from the samples folded so far, or `None` when
    /// the accumulator is still empty. The accumulator is untouched and can
    /// keep folding samples for the next refit.
    pub fn fit(&self) -> Option<OpModel> {
        if self.ys.is_empty() {
            return None;
        }
        let ys = &self.ys;
        let mean_us = ys.iter().sum::<f64>() / ys.len() as f64;
        let sample_std_us = if ys.len() > 1 {
            let ss: f64 = ys.iter().map(|y| (y - mean_us) * (y - mean_us)).sum();
            (ss / (ys.len() - 1) as f64).sqrt()
        } else {
            0.0
        };

        let evaluate = |ols: &MultipleOls, rows: &[Vec<f64>]| -> Option<f64> {
            let predicted: Vec<f64> = rows.iter().map(|r| ols.predict(r)).collect();
            adjusted_r_squared(ys, &predicted, ols.feature_count()).ok()
        };

        let linear_fit = self.linear.solve();
        let quad_fit = if self.allow_quadratic { self.quad.solve() } else { None };
        let linear =
            linear_fit.clone().and_then(|m| evaluate(&m, self.linear.rows()).map(|adj| (m, adj)));
        let quadratic = quad_fit.and_then(|m| evaluate(&m, self.quad.rows()).map(|adj| (m, adj)));

        let (form, ols, r_squared) = match (linear, quadratic) {
            (Some((lm, ladj)), Some((qm, qadj))) => {
                if qadj > ladj + QUADRATIC_GAIN {
                    (ModelForm::Quadratic, Some(qm), qadj)
                } else {
                    (ModelForm::Linear, Some(lm), ladj)
                }
            }
            (Some((lm, ladj)), None) => (ModelForm::Linear, Some(lm), ladj),
            (None, Some((qm, qadj))) => (ModelForm::Quadratic, Some(qm), qadj),
            // Too few samples for adjusted R² (e.g. an op kind with only a
            // couple of instances in the training CNNs): still prefer an
            // exact/interpolating linear fit over the mean — extrapolating
            // along input size beats ignoring input size entirely.
            (None, None) => match linear_fit {
                Some(lm) => {
                    let r2 = lm.r_squared();
                    (ModelForm::Linear, Some(lm), r2)
                }
                None => (ModelForm::MeanFallback, None, 0.0),
            },
        };
        Some(OpModel {
            kind: self.kind,
            gpu: self.gpu,
            form,
            ols,
            mean_us,
            r_squared,
            samples: self.ys.len(),
            sample_std_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(primary: f64) -> Features {
        Features { linear: vec![primary], quadratic_extra: vec![primary * primary] }
    }

    #[test]
    fn linear_data_selects_linear_form() {
        let samples: Vec<(Features, f64)> =
            (1..40).map(|i| (feat(i as f64), 3.0 * i as f64 + 10.0)).collect();
        let m = OpModel::fit(OpKind::Relu, GpuModel::V100, &samples);
        assert_eq!(m.form(), ModelForm::Linear);
        assert!(m.r_squared() > 0.999);
        assert!((m.predict_us(&feat(50.0)) - 160.0).abs() < 1e-6);
    }

    #[test]
    fn quadratic_data_selects_quadratic_form() {
        let samples: Vec<(Features, f64)> = (1..40)
            .map(|i| {
                let x = i as f64;
                (feat(x), 0.5 * x * x + 3.0 * x + 10.0)
            })
            .collect();
        let m = OpModel::fit(OpKind::Conv2DBackpropFilter, GpuModel::K80, &samples);
        assert_eq!(m.form(), ModelForm::Quadratic);
        let expected = 0.5 * 2500.0 + 150.0 + 10.0;
        assert!((m.predict_us(&feat(50.0)) - expected).abs() < 1e-3);
    }

    #[test]
    fn degenerate_design_falls_back_to_mean() {
        // All instances identical -> singular design.
        let samples: Vec<(Features, f64)> = (0..10).map(|_| (feat(5.0), 100.0)).collect();
        let m = OpModel::fit(OpKind::Mean, GpuModel::T4, &samples);
        assert_eq!(m.form(), ModelForm::MeanFallback);
        assert_eq!(m.predict_us(&feat(123.0)), 100.0);
    }

    #[test]
    fn two_samples_fit_an_exact_line() {
        let samples = vec![(feat(1.0), 10.0), (feat(2.0), 20.0)];
        let m = OpModel::fit(OpKind::Mul, GpuModel::M60, &samples);
        // Two samples cannot support adjusted R², but an interpolating line
        // still extrapolates along input size.
        assert_eq!(m.form(), ModelForm::Linear);
        assert!((m.predict_us(&feat(9.0)) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_falls_back_to_mean() {
        let samples = vec![(feat(3.0), 30.0)];
        let m = OpModel::fit(OpKind::Mul, GpuModel::M60, &samples);
        assert_eq!(m.form(), ModelForm::MeanFallback);
        assert_eq!(m.predict_us(&feat(100.0)), 30.0);
    }

    #[test]
    fn predictions_are_clamped_non_negative() {
        // Steep negative intercept -> small inputs would predict < 0.
        let samples: Vec<(Features, f64)> =
            (10..50).map(|i| (feat(i as f64), 5.0 * i as f64 - 40.0)).collect();
        let m = OpModel::fit(OpKind::AddV2, GpuModel::V100, &samples);
        assert!(m.predict_us(&feat(0.0)) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "without samples")]
    fn rejects_empty_samples() {
        OpModel::fit(OpKind::Relu, GpuModel::V100, &[]);
    }

    #[test]
    fn accumulator_matches_batch_fit_at_every_prefix() {
        // Mildly noisy near-linear data: exercises linear-vs-quadratic
        // selection and the small-prefix fallbacks alike.
        let samples: Vec<(Features, f64)> = (1..30)
            .map(|i| {
                let x = i as f64;
                (feat(x), 4.0 * x + 25.0 + (x * 1.3).sin() * 2.0)
            })
            .collect();
        let mut acc = OpModelAccumulator::new(OpKind::Conv2D, GpuModel::V100, true);
        assert!(acc.is_empty());
        for n in 0..samples.len() {
            let (f, y) = &samples[n];
            acc.push(f, *y);
            let incremental = acc.fit().expect("non-empty accumulator");
            let batch = OpModel::fit(OpKind::Conv2D, GpuModel::V100, &samples[..=n]);
            // PartialEq on every f64 field: bit-for-bit, no tolerance.
            assert_eq!(incremental, batch, "prefix {} diverged", n + 1);
        }
        assert_eq!(acc.len(), samples.len());
        assert_eq!(acc.kind(), OpKind::Conv2D);
        assert_eq!(acc.gpu(), GpuModel::V100);
    }

    #[test]
    fn accumulator_matches_linear_only_ablation() {
        let samples: Vec<(Features, f64)> = (1..25)
            .map(|i| {
                let x = i as f64;
                (feat(x), 0.3 * x * x + x)
            })
            .collect();
        let mut acc = OpModelAccumulator::new(OpKind::Conv2DBackpropFilter, GpuModel::K80, false);
        for (f, y) in &samples {
            acc.push(f, *y);
        }
        let batch =
            OpModel::fit_with_forms(OpKind::Conv2DBackpropFilter, GpuModel::K80, &samples, false);
        assert_eq!(acc.fit().unwrap(), batch);
        assert_eq!(batch.form(), ModelForm::Linear);
    }

    #[test]
    fn accumulator_poisons_on_non_finite_like_batch() {
        // A NaN target fails the whole batch regression (the design is
        // validated as a unit), leaving the mean fallback — whose mean is
        // itself NaN-free only if the samples are. The incremental path must
        // agree: poisoned regression, same fallback arithmetic.
        let mut samples: Vec<(Features, f64)> =
            (1..10).map(|i| (feat(i as f64), 2.0 * i as f64)).collect();
        samples.push((feat(f64::NAN), 3.0));
        let mut acc = OpModelAccumulator::new(OpKind::Relu, GpuModel::T4, true);
        for (f, y) in &samples {
            acc.push(f, *y);
        }
        let batch = OpModel::fit(OpKind::Relu, GpuModel::T4, &samples);
        assert_eq!(acc.fit().unwrap(), batch);
        assert_eq!(batch.form(), ModelForm::MeanFallback);
    }

    #[test]
    fn empty_accumulator_fits_none() {
        let acc = OpModelAccumulator::new(OpKind::Relu, GpuModel::V100, true);
        assert!(acc.fit().is_none());
    }

    #[test]
    fn metadata_accessors() {
        let samples: Vec<(Features, f64)> = (1..20).map(|i| (feat(i as f64), i as f64)).collect();
        let m = OpModel::fit(OpKind::BiasAdd, GpuModel::T4, &samples);
        assert_eq!(m.kind(), OpKind::BiasAdd);
        assert_eq!(m.gpu(), GpuModel::T4);
        assert_eq!(m.samples(), 19);
        assert!(m.mean_us() > 0.0);
    }
}

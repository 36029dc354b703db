//! Property-based tests for the statistics substrate.

use ceer_stats::cdf::EmpiricalCdf;
use ceer_stats::regression::{r_squared, MultipleOls, PolynomialOls, SimpleOls};
use ceer_stats::{correlation, summary};
use proptest::prelude::*;

fn finite_sample(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- summary statistics ---

    #[test]
    fn median_lies_between_min_and_max(sample in finite_sample(1)) {
        let m = summary::median(&sample).unwrap();
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lo <= m && m <= hi);
    }

    #[test]
    fn mean_is_translation_equivariant(sample in finite_sample(1), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = sample.iter().map(|v| v + shift).collect();
        let a = summary::mean(&sample).unwrap() + shift;
        let b = summary::mean(&shifted).unwrap();
        prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn std_dev_is_translation_invariant(sample in finite_sample(2), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = sample.iter().map(|v| v + shift).collect();
        let a = summary::std_dev(&sample).unwrap();
        let b = summary::std_dev(&shifted).unwrap();
        prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
    }

    #[test]
    fn quantiles_are_monotone(sample in finite_sample(1), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = summary::quantile(&sample, lo).unwrap();
        let b = summary::quantile(&sample, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    // --- CDF ---

    #[test]
    fn cdf_is_monotone_and_bounded(sample in finite_sample(1), probe in -1e6f64..1e6) {
        let cdf = EmpiricalCdf::from_sample(&sample).unwrap();
        let f = cdf.fraction_at_or_below(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        let g = cdf.fraction_at_or_below(probe + 1.0);
        prop_assert!(g >= f);
    }

    // --- regression ---

    #[test]
    fn simple_ols_recovers_noiseless_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 3usize..40
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = SimpleOls::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope() - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept() - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }

    #[test]
    fn ols_residuals_sum_to_zero(xs in finite_sample(3)) {
        // Requires non-constant xs; skip degenerate draws.
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x * 0.5 + (i as f64)).collect();
        if let Ok(fit) = SimpleOls::fit(&xs, &ys) {
            let residual_sum: f64 =
                xs.iter().zip(&ys).map(|(&x, &y)| y - fit.predict(x)).sum();
            prop_assert!(residual_sum.abs() < 1e-4 * (1.0 + ys.iter().map(|v| v.abs()).sum::<f64>()));
        }
    }

    #[test]
    fn r_squared_never_exceeds_one(obs in finite_sample(2), noise in -10.0f64..10.0) {
        let pred: Vec<f64> = obs.iter().map(|v| v + noise).collect();
        let r2 = r_squared(&obs, &pred).unwrap();
        prop_assert!(r2 <= 1.0 + 1e-12);
    }

    #[test]
    fn polynomial_degree_one_equals_simple(
        n in 4usize..30,
        a in -10.0f64..10.0,
        b in -10.0f64..10.0
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 2.0 + 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b + (x * 0.37).sin()).collect();
        let p = PolynomialOls::fit(&xs, &ys, 1).unwrap();
        let s = SimpleOls::fit(&xs, &ys).unwrap();
        for &x in &xs {
            prop_assert!((p.predict(x) - s.predict(x)).abs() < 1e-5 * (1.0 + s.predict(x).abs()));
        }
    }

    #[test]
    fn multiple_ols_prediction_is_linear_in_features(
        rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), 8..30)
    ) {
        let ys: Vec<f64> = rows.iter().map(|r| 1.0 + r[0] - 2.0 * r[1] + 0.5 * r[2]).collect();
        if let Ok(fit) = MultipleOls::fit(&rows, &ys) {
            // Linearity: f(a) + f(b) - f(0) == f(a + b).
            let a = [1.0, 2.0, 3.0];
            let b = [4.0, -1.0, 0.5];
            let sum = [5.0, 1.0, 3.5];
            let lhs = fit.predict(&a) + fit.predict(&b) - fit.predict(&[0.0, 0.0, 0.0]);
            prop_assert!((lhs - fit.predict(&sum)).abs() < 1e-6 * (1.0 + lhs.abs()));
        }
    }

    // --- correlation ---

    #[test]
    fn pearson_is_within_unit_interval(xs in finite_sample(3)) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x + (i % 3) as f64).collect();
        if let Ok(r) = correlation::pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(xs in prop::collection::vec(0.1f64..1e3, 4..40)) {
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| x * 2.0 + i as f64).collect();
        if let (Ok(r1), Ok(r2)) = (
            correlation::spearman(&xs, &ys),
            correlation::spearman(
                &xs.iter().map(|x| x.ln()).collect::<Vec<_>>(),
                &ys,
            ),
        ) {
            prop_assert!((r1 - r2).abs() < 1e-9);
        }
    }
}

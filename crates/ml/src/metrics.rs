//! Regression evaluation metrics.
//!
//! The paper compares its four models on MSE, RMSE, MAE, R², adjusted R²
//! (§III-C) and reports predictor/response correlations as Pearson
//! coefficients (Fig. 5); all of those live here.

use crate::convert::count_f64;
use crate::MlError;

fn check_pair(y_true: &[f64], y_pred: &[f64]) -> Result<usize, MlError> {
    if y_true.len() != y_pred.len() {
        return Err(MlError::ShapeMismatch {
            expected: y_true.len(),
            actual: y_pred.len(),
            what: "predictions",
        });
    }
    if y_true.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    Ok(y_true.len())
}

/// Mean squared error `Σ(yᵢ − ŷᵢ)² / n`.
///
/// # Errors
///
/// [`MlError::ShapeMismatch`] on length mismatch,
/// [`MlError::EmptyTrainingSet`] on empty input.
///
/// ```
/// assert_eq!(ml::metrics::mse(&[1.0, 2.0], &[1.0, 4.0]).unwrap(), 2.0);
/// ```
pub fn mse(y_true: &[f64], y_pred: &[f64]) -> Result<f64, MlError> {
    let n = check_pair(y_true, y_pred)?;
    Ok(y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / count_f64(n))
}

/// Root mean squared error.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn rmse(y_true: &[f64], y_pred: &[f64]) -> Result<f64, MlError> {
    Ok(mse(y_true, y_pred)?.sqrt())
}

/// Mean absolute error `Σ|yᵢ − ŷᵢ| / n`.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> Result<f64, MlError> {
    let n = check_pair(y_true, y_pred)?;
    Ok(y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p).abs())
        .sum::<f64>()
        / count_f64(n))
}

/// Coefficient of determination `R² = 1 − SS_res / SS_tot`.
///
/// Returns `0.0` when the targets are constant and predictions imperfect
/// (scikit-learn convention), `1.0` when both are constant and equal.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> Result<f64, MlError> {
    let n = check_pair(y_true, y_pred)?;
    let mean = y_true.iter().sum::<f64>() / count_f64(n);
    let ss_tot: f64 = y_true.iter().map(|t| (t - mean) * (t - mean)).sum();
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    if ss_tot == 0.0 {
        return Ok(if ss_res == 0.0 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Adjusted R² for a model with `n_features` predictors:
/// `1 − (1 − R²)(n − 1)/(n − k − 1)`.
///
/// Falls back to plain R² when `n ≤ k + 1` (the correction is undefined).
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn adjusted_r2(y_true: &[f64], y_pred: &[f64], n_features: usize) -> Result<f64, MlError> {
    let n = check_pair(y_true, y_pred)?;
    let r = r2(y_true, y_pred)?;
    if n <= n_features + 1 {
        return Ok(r);
    }
    let n = count_f64(n);
    let k = count_f64(n_features);
    Ok(1.0 - (1.0 - r) * (n - 1.0) / (n - k - 1.0))
}

/// Pearson correlation coefficient in `[-1, 1]`.
///
/// Returns `0.0` when either series is constant (no linear relationship is
/// observable), matching common statistical-package behaviour for the
/// degenerate case.
///
/// # Errors
///
/// Same conditions as [`mse`].
///
/// ```
/// let r = ml::metrics::pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, MlError> {
    let n = check_pair(a, b)?;
    let n_f = count_f64(n);
    let mean_a = a.iter().sum::<f64>() / n_f;
    let mean_b = b.iter().sum::<f64>() / n_f;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - mean_a) * (y - mean_b);
        var_a += (x - mean_a) * (x - mean_a);
        var_b += (y - mean_b) * (y - mean_b);
    }
    if var_a == 0.0 || var_b == 0.0 {
        return Ok(0.0);
    }
    Ok((cov / (var_a.sqrt() * var_b.sqrt())).clamp(-1.0, 1.0))
}

/// Sample mean of a slice (`0.0` for empty input).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / count_f64(values.len())
    }
}

/// Sample standard deviation (with the `n − 1` correction; `0.0` for fewer
/// than two values).
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / count_f64(values.len() - 1)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn error_metrics_on_perfect_fit() {
        let y = [1.0, -2.0, 3.5];
        assert_eq!(mse(&y, &y).unwrap(), 0.0);
        assert_eq!(rmse(&y, &y).unwrap(), 0.0);
        assert_eq!(mae(&y, &y).unwrap(), 0.0);
        assert_eq!(r2(&y, &y).unwrap(), 1.0);
    }

    #[test]
    fn known_values() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!((mse(&t, &p).unwrap() - 2.0 / 3.0).abs() < EPS);
        assert!((mae(&t, &p).unwrap() - 2.0 / 3.0).abs() < EPS);
        // SS_res = 2, SS_tot = 2 -> R² = 0 (predicting the mean).
        assert!(r2(&t, &p).unwrap().abs() < EPS);
    }

    #[test]
    fn r2_degenerate_targets() {
        assert_eq!(r2(&[2.0, 2.0], &[2.0, 2.0]).unwrap(), 1.0);
        assert_eq!(r2(&[2.0, 2.0], &[1.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn adjusted_r2_penalizes_features() {
        let t = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let p = [1.1, 1.9, 3.2, 3.8, 5.1, 5.9];
        let plain = r2(&t, &p).unwrap();
        let adj1 = adjusted_r2(&t, &p, 1).unwrap();
        let adj3 = adjusted_r2(&t, &p, 3).unwrap();
        assert!(adj1 < plain);
        assert!(adj3 < adj1);
        // Degenerate sample size falls back to plain R².
        assert_eq!(
            adjusted_r2(&t[..2], &p[..2], 5).unwrap(),
            r2(&t[..2], &p[..2]).unwrap()
        );
    }

    #[test]
    fn pearson_signs() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let down: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &up).unwrap() - 1.0).abs() < EPS);
        assert!((pearson(&x, &down).unwrap() + 1.0).abs() < EPS);
        assert_eq!(pearson(&x, &[5.0; 4]).unwrap(), 0.0);
    }

    #[test]
    fn shape_errors() {
        assert!(mse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mse(&[], &[]).is_err());
        assert!(pearson(&[1.0], &[]).is_err());
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < EPS);
    }
}

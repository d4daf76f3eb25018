//! Descriptive statistics and simple linear regression.
//!
//! Used by the machine-parameter calibration step of the scalability
//! predictor: point-to-point message times are regressed against message
//! size (`T = a + b·N`), and collective times against `log₂ p`, exactly
//! as the paper calibrates `T_send`, `T_bcast` and `T_barrier` on the
//! Sunwulf cluster (§4.5).

use crate::error::FitError;
use crate::Result;

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Minimum of a slice, ignoring nothing. `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum of a slice. `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Linear interpolated percentile in `[0, 100]`. `None` when empty or the
/// percentile is out of range.
pub fn percentile(xs: &[f64], pct: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&pct) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Result of a simple linear regression `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept `a` in `y = a + b·x`.
    pub intercept: f64,
    /// Slope `b` in `y = a + b·x`.
    pub slope: f64,
    /// Pearson correlation coefficient of the samples.
    pub r: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Ordinary least-squares regression of `y` on `x`.
///
/// Errors on length mismatch, fewer than two points, non-finite input, or
/// zero variance in `x`.
pub fn linear_regression(x: &[f64], y: &[f64]) -> Result<LinearFit> {
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch { x_len: x.len(), y_len: y.len() });
    }
    if x.len() < 2 {
        return Err(FitError::InsufficientData { got: x.len(), need: 2 });
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        sxx += (xi - mx) * (xi - mx);
        syy += (yi - my) * (yi - my);
        sxy += (xi - mx) * (yi - my);
    }
    if sxx == 0.0 {
        return Err(FitError::SingularSystem);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r = if syy == 0.0 { 1.0 } else { sxy / (sxx.sqrt() * syy.sqrt()) };
    Ok(LinearFit { intercept, slope, r })
}

/// Relative error `|measured − reference| / |reference|`; `measured`
/// absolute error if the reference is zero. Used throughout the
/// experiment harness to compare predicted against measured scalability.
pub fn relative_error(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        measured.abs()
    } else {
        (measured - reference).abs() / reference.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_samples() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
    }

    #[test]
    fn empty_slices_yield_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 200.0), None);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(median(&xs), Some(5.0));
    }

    #[test]
    fn regression_recovers_exact_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let fit = linear_regression(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r - 1.0).abs() < 1e-12);
        assert!((fit.predict(10.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn regression_message_time_model() {
        // Shape of the paper's T_send = a + b·N calibration.
        let sizes = [100.0, 200.0, 400.0, 800.0, 1600.0];
        let times: Vec<f64> = sizes.iter().map(|&n| 0.043 + 9e-5 * n).collect();
        let fit = linear_regression(&sizes, &times).unwrap();
        assert!((fit.intercept - 0.043).abs() < 1e-9);
        assert!((fit.slope - 9e-5).abs() < 1e-12);
    }

    #[test]
    fn regression_rejects_degenerate_x() {
        let err = linear_regression(&[1.0, 1.0], &[2.0, 3.0]).unwrap_err();
        assert_eq!(err, FitError::SingularSystem);
    }

    #[test]
    fn regression_rejects_single_point() {
        assert!(matches!(
            linear_regression(&[1.0], &[2.0]).unwrap_err(),
            FitError::InsufficientData { .. }
        ));
    }

    #[test]
    fn relative_error_handles_zero_reference() {
        assert_eq!(relative_error(0.5, 0.0), 0.5);
        assert!((relative_error(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-12);
    }
}

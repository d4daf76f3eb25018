//! Least-squares polynomial fitting.
//!
//! Fits `y ≈ p(x)` for a polynomial `p` of a requested degree by solving
//! the normal equations `VᵀV c = Vᵀy` (Vandermonde `V`). Variable
//! standardization keeps the tiny solver numerically healthy on the
//! problem sizes that appear in scalability experiments (`x` up to a few
//! thousand, degree ≤ 5): fitting is performed in the scaled coordinate
//! `u = (x − mean) / spread` and the resulting polynomial is composed
//! back to raw `x`, which keeps the normal matrix conditioned.

use crate::error::FitError;
use crate::poly::Polynomial;
use crate::solve::{solve_dense, DenseSystem};
use crate::Result;

/// Result of a polynomial fit: the polynomial plus goodness-of-fit data.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Fitted polynomial in *raw* (unscaled) coordinates.
    pub poly: Polynomial,
    /// Coefficient of determination R² (1 = perfect fit). For a constant
    /// response the convention here is R² = 1 when residuals vanish.
    pub r_squared: f64,
    /// Root-mean-square residual in the units of `y`.
    pub rmse: f64,
    /// Largest absolute residual.
    pub max_abs_residual: f64,
    /// Number of samples fitted.
    pub n_samples: usize,
    /// Degree that was requested (the returned polynomial may have lower
    /// effective degree if high-order coefficients vanish).
    pub requested_degree: usize,
}

/// Least-squares polynomial fit of `degree` through `(x, y)` samples.
///
/// Requires at least `degree + 1` samples with distinct abscissae.
/// Errors on NaN input, length mismatches, too few points, or singular
/// (collinear) data.
pub fn polyfit(x: &[f64], y: &[f64], degree: usize) -> Result<FitReport> {
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch { x_len: x.len(), y_len: y.len() });
    }
    let need = degree + 1;
    if x.len() < need {
        return Err(FitError::InsufficientData { got: x.len(), need });
    }
    if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
        return Err(FitError::NonFinite);
    }

    // Standardize x for conditioning: u = (x - mu) / s.
    let n = x.len() as f64;
    let mu = x.iter().sum::<f64>() / n;
    let spread = {
        let var = x.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n;
        let s = var.sqrt();
        if s > 0.0 {
            s
        } else {
            1.0 // all x equal; the normal matrix will be singular unless degree = 0
        }
    };
    let u: Vec<f64> = x.iter().map(|&v| (v - mu) / spread).collect();

    // Normal equations in scaled coordinates: M c = r with
    // M[j][k] = Σ u_i^(j+k), r[j] = Σ y_i u_i^j.
    let m = degree + 1;
    // Precompute power sums Σ u^k for k = 0..=2·degree.
    let mut power_sums = vec![0.0f64; 2 * degree + 1];
    let mut rhs = vec![0.0f64; m];
    for (&ui, &yi) in u.iter().zip(y.iter()) {
        let mut upow = 1.0;
        for (k, slot) in power_sums.iter_mut().enumerate() {
            *slot += upow;
            if k < 2 * degree {
                upow *= ui;
            }
        }
        let mut upow = 1.0;
        for slot in rhs.iter_mut() {
            *slot += yi * upow;
            upow *= ui;
        }
    }
    let mut a = vec![0.0f64; m * m];
    for j in 0..m {
        for k in 0..m {
            a[j * m + k] = power_sums[j + k];
        }
    }
    let system = DenseSystem::new(a, rhs)?;
    let coeffs_scaled = solve_dense(&system)?;

    // Map back to raw x: p(x) = q((x - mu)/s) = q( (1/s)·x + (-mu/s) ).
    let poly = Polynomial::new(coeffs_scaled).compose_affine(1.0 / spread, -mu / spread);
    if !poly.is_finite() {
        return Err(FitError::SingularSystem);
    }

    // Residual statistics over all samples.
    let mean_y = y.iter().sum::<f64>() / n;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    let mut max_abs = 0.0f64;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        let e = yi - poly.eval(xi);
        ss_res += e * e;
        ss_tot += (yi - mean_y) * (yi - mean_y);
        max_abs = max_abs.max(e.abs());
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res <= 1e-24 {
        1.0
    } else {
        0.0
    };

    Ok(FitReport {
        poly,
        r_squared,
        rmse: (ss_res / n).sqrt(),
        max_abs_residual: max_abs,
        n_samples: x.len(),
        requested_degree: degree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v - 2.0).collect();
        let fit = polyfit(&x, &y, 1).unwrap();
        assert!((fit.poly.eval(100.0) - 298.0).abs() < 1e-8);
        assert!(fit.r_squared > 1.0 - 1e-12);
        assert!(fit.rmse < 1e-9);
    }

    #[test]
    fn recovers_exact_cubic_with_large_abscissae() {
        // Problem sizes like the paper's N ∈ [100, 600]: conditioning test.
        let x: Vec<f64> = (1..=20).map(|i| 100.0 + 25.0 * i as f64).collect();
        let y: Vec<f64> =
            x.iter().map(|&v| 1e-6 * v * v * v - 0.004 * v * v + 2.0 * v + 17.0).collect();
        let fit = polyfit(&x, &y, 3).unwrap();
        for (&xi, &yi) in x.iter().zip(y.iter()) {
            let rel = (fit.poly.eval(xi) - yi).abs() / yi.abs().max(1.0);
            assert!(rel < 1e-8, "x={xi}: rel err {rel}");
        }
    }

    #[test]
    fn overdetermined_noise_fit_has_reasonable_r2() {
        // y = x² plus a small deterministic perturbation.
        let x: Vec<f64> = (0..50).map(|i| i as f64 / 5.0).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| v * v + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let fit = polyfit(&x, &y, 2).unwrap();
        assert!(fit.r_squared > 0.999, "r² = {}", fit.r_squared);
        assert!(fit.max_abs_residual < 0.1);
    }

    #[test]
    fn too_few_points_is_an_error() {
        let err = polyfit(&[1.0, 2.0], &[1.0, 2.0], 2).unwrap_err();
        assert_eq!(err, FitError::InsufficientData { got: 2, need: 3 });
    }

    #[test]
    fn mismatched_lengths_is_an_error() {
        let err = polyfit(&[1.0, 2.0, 3.0], &[1.0], 1).unwrap_err();
        assert!(matches!(err, FitError::LengthMismatch { .. }));
    }

    #[test]
    fn nan_input_is_an_error() {
        let err = polyfit(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, 3.0], 1).unwrap_err();
        assert_eq!(err, FitError::NonFinite);
    }

    #[test]
    fn duplicate_abscissae_singular_for_degree_one() {
        let err = polyfit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0], 1).unwrap_err();
        assert_eq!(err, FitError::SingularSystem);
    }

    #[test]
    fn degree_zero_fits_mean() {
        let fit = polyfit(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0], 0).unwrap();
        assert!((fit.poly.eval(0.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn constant_response_r2_is_one() {
        let fit = polyfit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0], 1).unwrap();
        assert_eq!(fit.r_squared, 1.0);
    }
}

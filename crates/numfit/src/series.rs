//! Sampled `(x, y)` series with piecewise-linear inversion and fitting
//! helpers.
//!
//! A [`Series`] is the in-memory form of one trend-line dataset from the
//! paper's figures: one speed-efficiency curve per system configuration.
//! The experiment harness accumulates samples, then either inverts the
//! piecewise-linear curve directly or fits a polynomial through the
//! series.

use crate::error::FitError;
use crate::lsq::{polyfit, FitReport};
use crate::Result;

/// An ordered series of `(x, y)` samples with strictly increasing `x`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Builds a series from parallel slices, sorting by `x` and collapsing
    /// duplicate abscissae by averaging their `y` values.
    pub fn from_samples(x: &[f64], y: &[f64]) -> Result<Self> {
        if x.len() != y.len() {
            return Err(FitError::LengthMismatch { x_len: x.len(), y_len: y.len() });
        }
        if x.iter().chain(y.iter()).any(|v| !v.is_finite()) {
            return Err(FitError::NonFinite);
        }
        let mut pairs: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut s = Series::new();
        let mut i = 0;
        while i < pairs.len() {
            let x0 = pairs[i].0;
            let mut sum = 0.0;
            let mut count = 0usize;
            while i < pairs.len() && pairs[i].0 == x0 {
                sum += pairs[i].1;
                count += 1;
                i += 1;
            }
            s.xs.push(x0);
            s.ys.push(sum / count as f64);
        }
        Ok(s)
    }

    /// Appends a sample; `x` must be strictly greater than the current
    /// maximum abscissa.
    pub fn push(&mut self, x: f64, y: f64) -> Result<()> {
        if !(x.is_finite() && y.is_finite()) {
            return Err(FitError::NonFinite);
        }
        if let Some(&last) = self.xs.last() {
            if x <= last {
                return Err(FitError::InvalidParameter("push requires strictly increasing x"));
            }
        }
        self.xs.push(x);
        self.ys.push(y);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Abscissae (strictly increasing).
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Ordinates, parallel to [`Series::xs`].
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Iterates over `(x, y)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ys.iter().copied())
    }

    /// Inverts the piecewise-linear interpolant: the smallest `x` in the
    /// sampled range with interpolated value `target`. Errors if the
    /// target is never crossed.
    pub fn invert_linear(&self, target: f64) -> Result<f64> {
        if self.xs.len() < 2 {
            return Err(FitError::InsufficientData { got: self.xs.len(), need: 2 });
        }
        for w in 0..self.xs.len() - 1 {
            let (y0, y1) = (self.ys[w], self.ys[w + 1]);
            let (lo, hi) = (y0.min(y1), y0.max(y1));
            if (lo..=hi).contains(&target) {
                if y0 == y1 {
                    return Ok(self.xs[w]);
                }
                let t = (target - y0) / (y1 - y0);
                return Ok(self.xs[w] + t * (self.xs[w + 1] - self.xs[w]));
            }
        }
        Err(FitError::NoBracket { lo: self.xs[0], hi: *self.xs.last().unwrap(), target })
    }

    /// Fits a polynomial trend line through the series — the "Poly." trend
    /// lines of the paper's Fig. 1 and Fig. 2.
    pub fn fit_poly(&self, degree: usize) -> Result<FitReport> {
        polyfit(&self.xs, &self.ys, degree)
    }

    /// Range of abscissae as `(min, max)`; `None` when empty.
    pub fn x_range(&self) -> Option<(f64, f64)> {
        if self.xs.is_empty() {
            None
        } else {
            Some((self.xs[0], *self.xs.last().unwrap()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(f64, f64)]) -> Series {
        let (xs, ys): (Vec<f64>, Vec<f64>) = pts.iter().copied().unzip();
        Series::from_samples(&xs, &ys).unwrap()
    }

    #[test]
    fn from_samples_sorts_by_x() {
        let s = series(&[(3.0, 30.0), (1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(s.xs(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.ys(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn duplicate_abscissae_are_averaged() {
        let s = series(&[(1.0, 10.0), (1.0, 20.0), (2.0, 5.0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.ys(), &[15.0, 5.0]);
    }

    #[test]
    fn push_requires_increasing_x() {
        let mut s = Series::new();
        s.push(1.0, 1.0).unwrap();
        s.push(2.0, 4.0).unwrap();
        assert!(s.push(2.0, 9.0).is_err());
        assert!(s.push(1.5, 9.0).is_err());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_series_has_no_range() {
        assert!(Series::new().is_empty());
        assert_eq!(Series::new().x_range(), None);
    }

    #[test]
    fn invert_linear_finds_crossing() {
        // Efficiency-like curve rising to saturation.
        let s = series(&[(100.0, 0.1), (200.0, 0.22), (400.0, 0.35), (800.0, 0.42)]);
        let n = s.invert_linear(0.3).unwrap();
        assert!((200.0..400.0).contains(&n), "n = {n}");
        // The line through the samples either side of the crossing,
        // (200, 0.22) and (400, 0.35), reads the target at the inverse.
        let y = 0.22 + (n - 200.0) / (400.0 - 200.0) * (0.35 - 0.22);
        assert!((y - 0.3).abs() < 1e-12, "y = {y}");
    }

    #[test]
    fn invert_linear_unreachable_target_errors() {
        let s = series(&[(1.0, 0.1), (2.0, 0.2)]);
        assert!(matches!(s.invert_linear(0.9).unwrap_err(), FitError::NoBracket { .. }));
    }

    #[test]
    fn invert_linear_flat_segment_returns_left_edge() {
        let s = series(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
        assert_eq!(s.invert_linear(0.5).unwrap(), 1.0);
    }

    #[test]
    fn fit_poly_through_series_matches_polyfit() {
        let s = series(&[(0.0, 1.0), (1.0, 2.0), (2.0, 5.0), (3.0, 10.0)]);
        let fit = s.fit_poly(2).unwrap();
        // y = x² + 1 exactly.
        assert!((fit.poly.eval(4.0) - 17.0).abs() < 1e-8);
        assert!(fit.r_squared > 1.0 - 1e-10);
    }

    #[test]
    fn rejects_nan_samples() {
        assert_eq!(
            Series::from_samples(&[1.0, f64::NAN], &[1.0, 2.0]).unwrap_err(),
            FitError::NonFinite
        );
        let mut s = Series::new();
        assert!(s.push(f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn x_range_reports_extremes() {
        let s = series(&[(5.0, 1.0), (1.0, 2.0), (9.0, 3.0)]);
        assert_eq!(s.x_range(), Some((1.0, 9.0)));
    }
}

//! # numfit — numerical fitting utilities for scalability experiments
//!
//! The isospeed-efficiency methodology of Sun, Chen and Wu (ICPP 2005)
//! repeatedly performs two numerical operations:
//!
//! 1. **Fit a polynomial trend line** through sampled
//!    (problem size, speed-efficiency) points — the paper's Fig. 1 and
//!    Fig. 2 use polynomial trend lines over the measured samples.
//! 2. **Invert the trend line**: read off the problem size `N` required to
//!    reach a given target speed-efficiency (e.g. `E_s = 0.3` needs
//!    `N ≈ 310` on two nodes).
//!
//! This crate provides exactly those primitives, built from scratch on
//! `f64` slices with no external numerics dependency:
//!
//! * [`poly::Polynomial`] — dense univariate polynomial with Horner
//!   evaluation, differentiation and arithmetic.
//! * [`lsq`] — least-squares polynomial fitting via normal equations with
//!   variable scaling for conditioning, plus goodness-of-fit statistics.
//! * [`solve`] — small dense linear solves (partial-pivot Gaussian
//!   elimination) used by the fitter and exposed for reuse.
//! * [`invert`] — bracketing + bisection root finding and monotone
//!   inversion of fitted curves.
//! * [`stats`] — simple linear regression used when calibrating machine
//!   parameters, and the relative error predictions are judged by.
//! * [`series`] — utilities over sampled `(x, y)` series: sorting,
//!   deduplication, and piecewise-linear inversion.
//!
//! The crate is deliberately small and fully deterministic; every routine
//! is pure and panics only on programmer error (documented per function).

//! ## Example
//!
//! ```
//! use numfit::{invert_monotone, polyfit};
//!
//! // Fit a trend line through efficiency-like samples and invert it.
//! let n: Vec<f64> = (1..=10).map(|i| 100.0 * i as f64).collect();
//! let e: Vec<f64> = n.iter().map(|&x| x / (x + 700.0)).collect();
//! let fit = polyfit(&n, &e, 3).unwrap();
//! let required = invert_monotone(|x| fit.poly.eval(x), 100.0, 1000.0, 0.3, 1e-6).unwrap();
//! assert!((required - 300.0).abs() < 15.0, "analytic answer is 300");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod error;
pub mod invert;
pub mod lsq;
pub mod poly;
pub mod series;
pub mod solve;
pub mod stats;

pub use error::FitError;
pub use invert::{bisect, invert_monotone, Bracket};
pub use lsq::{polyfit, polyfit_weighted, FitReport};
pub use poly::Polynomial;
pub use series::Series;

/// Convenience result alias for fallible numfit operations.
pub type Result<T> = std::result::Result<T, FitError>;

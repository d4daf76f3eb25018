//! Dense univariate polynomials with `f64` coefficients.
//!
//! Coefficients are stored in ascending order of degree:
//! `coeffs[k]` multiplies `x^k`. The representation is kept *normalized* —
//! trailing zero coefficients are trimmed — so equal polynomials compare
//! equal.

use std::fmt;

/// A dense univariate polynomial `c0 + c1·x + c2·x² + …`.
///
/// The zero polynomial is represented by an empty coefficient vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Builds a polynomial from ascending coefficients, trimming trailing
    /// zeros (exact `0.0` only; tiny values are preserved).
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        Polynomial { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Polynomial::new(vec![c])
    }

    /// True if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the polynomial at `x` using Horner's scheme.
    pub fn eval(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates the polynomial at every point of `xs`.
    pub fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Composes with an affine substitution, returning `p(a·x + b)`.
    ///
    /// Used to undo the variable scaling applied by the least-squares
    /// fitter: a fit performed in scaled coordinates `u = (x - mu) / s` is
    /// mapped back to raw `x` via `compose_affine(1/s, -mu/s)`.
    pub fn compose_affine(&self, a: f64, b: f64) -> Polynomial {
        // Horner in polynomial arithmetic: result = c_n, then repeatedly
        // result = result * (a·x + b) + c_k.
        let lin = Polynomial::new(vec![b, a]);
        let mut result = Polynomial::zero();
        for &c in self.coeffs.iter().rev() {
            result = &(&result * &lin) + &Polynomial::constant(c);
        }
        result
    }

    /// Returns `p` scaled by the scalar `s`.
    pub fn scale(&self, s: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// True if every coefficient is finite.
    pub fn is_finite(&self) -> bool {
        self.coeffs.iter().all(|c| c.is_finite())
    }
}

impl std::ops::Add for &Polynomial {
    type Output = Polynomial;
    fn add(self, rhs: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let mut coeffs = vec![0.0; n];
        for (k, &c) in self.coeffs.iter().enumerate() {
            coeffs[k] += c;
        }
        for (k, &c) in rhs.coeffs.iter().enumerate() {
            coeffs[k] += c;
        }
        Polynomial::new(coeffs)
    }
}

impl std::ops::Sub for &Polynomial {
    type Output = Polynomial;
    fn sub(self, rhs: &Polynomial) -> Polynomial {
        self + &rhs.scale(-1.0)
    }
}

impl std::ops::Mul for &Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: &Polynomial) -> Polynomial {
        if self.is_zero() || rhs.is_zero() {
            return Polynomial::zero();
        }
        let mut coeffs = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Polynomial::new(coeffs)
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.coeffs.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 && self.coeffs.len() > 1 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let mag = c.abs();
            match k {
                0 => write!(f, "{mag:.4}")?,
                1 => write!(f, "{mag:.4}·x")?,
                _ => write!(f, "{mag:.4}·x^{k}")?,
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[f64]) -> Polynomial {
        Polynomial::new(coeffs.to_vec())
    }

    #[test]
    fn eval_matches_direct_expansion() {
        // 1 + 2x + 3x²
        let poly = p(&[1.0, 2.0, 3.0]);
        assert_eq!(poly.eval(0.0), 1.0);
        assert_eq!(poly.eval(1.0), 6.0);
        assert_eq!(poly.eval(2.0), 1.0 + 4.0 + 12.0);
        assert_eq!(poly.eval(-1.0), 1.0 - 2.0 + 3.0);
    }

    #[test]
    fn zero_polynomial_behaviour() {
        let z = Polynomial::zero();
        assert!(z.is_zero());
        assert_eq!(z.eval(123.0), 0.0);
        assert_eq!(format!("{z}"), "0");
    }

    #[test]
    fn trailing_zeros_are_trimmed() {
        let poly = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(poly, Polynomial::new(vec![1.0, 2.0]));
    }

    #[test]
    fn addition_and_subtraction() {
        let a = p(&[1.0, 2.0]);
        let b = p(&[0.0, -2.0, 3.0]);
        assert_eq!(&a + &b, p(&[1.0, 0.0, 3.0]));
        assert_eq!(&a - &a, Polynomial::zero());
    }

    #[test]
    fn multiplication_matches_foil() {
        // (1 + x)(1 - x) = 1 - x²
        let a = p(&[1.0, 1.0]);
        let b = p(&[1.0, -1.0]);
        assert_eq!(&a * &b, p(&[1.0, 0.0, -1.0]));
    }

    #[test]
    fn constant_constructor() {
        assert_eq!(Polynomial::constant(7.5).eval(100.0), 7.5);
        assert_eq!(Polynomial::constant(0.0), Polynomial::zero());
    }

    #[test]
    fn compose_affine_identity() {
        let poly = p(&[1.0, 2.0, 3.0]);
        let composed = poly.compose_affine(1.0, 0.0);
        assert_eq!(composed, poly);
    }

    #[test]
    fn compose_affine_shifts_argument() {
        // p(x) = x², composed with (x + 1) → (x+1)² = 1 + 2x + x².
        let poly = p(&[0.0, 0.0, 1.0]);
        let composed = poly.compose_affine(1.0, 1.0);
        assert_eq!(composed, p(&[1.0, 2.0, 1.0]));
        // Spot check evaluation consistency at several points.
        for &x in &[-3.0, 0.0, 0.5, 2.0] {
            let direct = poly.eval(2.0 * x - 1.0);
            let comp = poly.compose_affine(2.0, -1.0).eval(x);
            assert!((direct - comp).abs() < 1e-12, "x={x}: {direct} vs {comp}");
        }
    }

    #[test]
    fn display_is_readable() {
        let poly = p(&[1.0, -2.0, 3.0]);
        let s = format!("{poly}");
        assert!(s.contains('x'), "display: {s}");
        assert!(s.contains("x^2"), "display: {s}");
    }

    #[test]
    fn eval_many_matches_eval() {
        let poly = p(&[0.5, 1.5, -0.25]);
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = poly.eval_many(&xs);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(poly.eval(*x), *y);
        }
    }

    #[test]
    fn is_finite_detects_nan() {
        assert!(p(&[1.0, 2.0]).is_finite());
        assert!(!Polynomial { coeffs: vec![1.0, f64::NAN] }.is_finite());
    }
}

//! Small dense linear solves.
//!
//! The normal-equation systems arising from polynomial fitting are tiny
//! (degree + 1 unknowns, typically ≤ 7), so a straightforward
//! partial-pivot Gaussian elimination is both adequate and easy to audit.
//! (The parallel Gaussian elimination kernel has its own sequential
//! reference, `kernels::ge::ge_sequential`.)

use crate::error::FitError;
use crate::Result;

/// Row-major dense square matrix view used by [`solve_dense`].
///
/// `a` must have `n * n` elements; row `i` occupies `a[i*n .. (i+1)*n]`.
#[derive(Debug, Clone)]
pub struct DenseSystem {
    /// Row-major coefficient matrix, length `n * n`.
    pub a: Vec<f64>,
    /// Right-hand side, length `n`.
    pub b: Vec<f64>,
    /// Dimension of the system.
    pub n: usize,
}

impl DenseSystem {
    /// Creates a system, validating dimensions.
    pub fn new(a: Vec<f64>, b: Vec<f64>) -> Result<Self> {
        let n = b.len();
        if a.len() != n * n {
            return Err(FitError::InvalidParameter("matrix is not n×n for rhs of length n"));
        }
        if a.iter().chain(b.iter()).any(|v| !v.is_finite()) {
            return Err(FitError::NonFinite);
        }
        Ok(DenseSystem { a, b, n })
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// Returns [`FitError::SingularSystem`] when the pivot magnitude falls
/// below a scale-aware threshold, which is how collinear fitting data
/// surfaces to callers.
pub fn solve_dense(system: &DenseSystem) -> Result<Vec<f64>> {
    let n = system.n;
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut a = system.a.clone();
    let mut b = system.b.clone();

    // Scale-aware singularity threshold: relative to the largest entry.
    let max_abs = a.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
    let tol = max_abs * 1e-13 * n as f64;

    for col in 0..n {
        // Partial pivot: find the row with the largest magnitude in `col`.
        let mut pivot_row = col;
        let mut pivot_mag = a[col * n + col].abs();
        for row in (col + 1)..n {
            let mag = a[row * n + col].abs();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = row;
            }
        }
        if pivot_mag <= tol {
            return Err(FitError::SingularSystem);
        }
        if pivot_row != col {
            for k in col..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }

        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            a[row * n + col] = 0.0;
            for k in (col + 1)..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for k in (row + 1)..n {
            sum -= a[row * n + k] * x[k];
        }
        x[row] = sum / a[row * n + row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The residual infinity norm `‖A x − b‖∞` of a candidate solution.
    fn residual_inf_norm(system: &DenseSystem, x: &[f64]) -> f64 {
        let n = system.n;
        assert_eq!(x.len(), n, "solution length must equal system dimension");
        let mut worst = 0.0f64;
        for i in 0..n {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += system.a[i * n + j] * xj;
            }
            worst = worst.max((acc - system.b[i]).abs());
        }
        worst
    }

    fn sys(a: &[f64], b: &[f64]) -> DenseSystem {
        DenseSystem::new(a.to_vec(), b.to_vec()).unwrap()
    }

    #[test]
    fn solves_identity() {
        let s = sys(&[1.0, 0.0, 0.0, 1.0], &[3.0, 4.0]);
        assert_eq!(solve_dense(&s).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn solves_2x2() {
        // 2x + y = 5 ; x - y = 1  → x = 2, y = 1
        let s = sys(&[2.0, 1.0, 1.0, -1.0], &[5.0, 1.0]);
        let x = solve_dense(&s).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solves_with_pivoting_required() {
        // Leading zero pivot forces a row swap.
        let s = sys(&[0.0, 1.0, 1.0, 0.0], &[2.0, 3.0]);
        let x = solve_dense(&s).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular_matrix() {
        let s = sys(&[1.0, 2.0, 2.0, 4.0], &[1.0, 2.0]);
        assert_eq!(solve_dense(&s), Err(FitError::SingularSystem));
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(DenseSystem::new(vec![1.0, 2.0, 3.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_nan_input() {
        assert_eq!(DenseSystem::new(vec![f64::NAN], vec![1.0]).unwrap_err(), FitError::NonFinite);
    }

    #[test]
    fn empty_system_solves_trivially() {
        let s = DenseSystem::new(Vec::new(), Vec::new()).unwrap();
        assert!(solve_dense(&s).unwrap().is_empty());
    }

    #[test]
    fn residual_small_for_random_systems() {
        // Deterministic pseudo-random matrices via a tiny LCG; checks the
        // solver against its own residual.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in 1..=8 {
            let a: Vec<f64> = (0..n * n).map(|_| next()).collect();
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let s = DenseSystem::new(a, b).unwrap();
            match solve_dense(&s) {
                Ok(x) => {
                    let r = residual_inf_norm(&s, &x);
                    assert!(r < 1e-9, "n={n}: residual {r}");
                }
                Err(FitError::SingularSystem) => {} // acceptable for random draws
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
}

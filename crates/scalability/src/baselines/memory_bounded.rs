//! Sun & Ni's memory-bounded speedup (JPDC 1993) — the paper's
//! reference \[9\].
//!
//! Three classical speedup models for scaled computing, unified by how
//! the workload is allowed to grow with the machine:
//!
//! * **Fixed-size** (Amdahl): the problem stays put; speedup saturates
//!   at `1/α`.
//! * **Fixed-time** (Gustafson): the parallel part grows to fill
//!   constant wall time; speedup is `α + (1−α)·p`.
//! * **Memory-bounded** (Sun–Ni): the problem grows to fill the scaled
//!   machine's *memory*; with `G(p)` the factor by which the parallel
//!   workload grows when memory grows `p`-fold,
//!
//!   ```text
//!   S*(p) = (α + (1−α)·G(p)) / (α + (1−α)·G(p)/p)
//!   ```
//!
//!   `G(p) = 1` recovers Amdahl, `G(p) = p` recovers Gustafson, and
//!   `G(p) > p` (e.g. dense matrix computations, `G(p) = p^{3/2}`)
//!   exceeds both.
//!
//! Like isospeed, these assume `p` equivalent processors — which is the
//! gap the isospeed-efficiency metric fills; they are here as the
//! workload-growth context the paper builds on.

/// Validates a sequential fraction.
fn check_alpha(alpha: f64) {
    assert!(
        (0.0..=1.0).contains(&alpha) && alpha.is_finite(),
        "sequential fraction must be in [0, 1], got {alpha}"
    );
}

/// Amdahl's fixed-size speedup `1 / (α + (1−α)/p)`.
///
/// # Panics
/// Panics on α outside `[0, 1]` or `p = 0`.
pub fn fixed_size_speedup(alpha: f64, p: usize) -> f64 {
    check_alpha(alpha);
    assert!(p > 0, "need at least one processor");
    1.0 / (alpha + (1.0 - alpha) / p as f64)
}

/// Gustafson's fixed-time speedup `α + (1−α)·p`.
///
/// # Panics
/// Panics on α outside `[0, 1]` or `p = 0`.
pub fn fixed_time_speedup(alpha: f64, p: usize) -> f64 {
    check_alpha(alpha);
    assert!(p > 0, "need at least one processor");
    alpha + (1.0 - alpha) * p as f64
}

/// Sun–Ni memory-bounded speedup with workload-growth factor `g_of_p =
/// G(p)`.
///
/// # Panics
/// Panics on α outside `[0, 1]`, `p = 0`, or non-positive `G(p)`.
pub fn memory_bounded_speedup(alpha: f64, p: usize, g_of_p: f64) -> f64 {
    check_alpha(alpha);
    assert!(p > 0, "need at least one processor");
    assert!(g_of_p.is_finite() && g_of_p > 0.0, "G(p) must be positive");
    (alpha + (1.0 - alpha) * g_of_p) / (alpha + (1.0 - alpha) * g_of_p / p as f64)
}

/// Common workload-growth profiles for [`memory_bounded_speedup`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrowthProfile {
    /// `G(p) = 1`: the problem cannot grow (Amdahl's regime).
    Fixed,
    /// `G(p) = p`: work grows linearly with memory (Gustafson's regime).
    Linear,
    /// `G(p) = p^{3/2}`: dense `O(N³)`-work / `O(N²)`-memory kernels
    /// like the paper's GE and MM.
    DenseMatrix,
    /// Custom exponent: `G(p) = p^e`.
    Power(f64),
}

impl GrowthProfile {
    /// Evaluates `G(p)`.
    pub fn g(self, p: usize) -> f64 {
        let pf = p as f64;
        match self {
            GrowthProfile::Fixed => 1.0,
            GrowthProfile::Linear => pf,
            GrowthProfile::DenseMatrix => pf.powf(1.5),
            GrowthProfile::Power(e) => pf.powf(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_saturates_at_inverse_alpha() {
        let alpha = 0.05;
        assert!(fixed_size_speedup(alpha, 1) == 1.0);
        let s = fixed_size_speedup(alpha, 1_000_000);
        assert!((s - 1.0 / alpha).abs() / (1.0 / alpha) < 1e-3);
    }

    #[test]
    fn gustafson_grows_linearly() {
        assert_eq!(fixed_time_speedup(0.1, 10), 0.1 + 0.9 * 10.0);
        assert_eq!(fixed_time_speedup(0.0, 64), 64.0);
        assert_eq!(fixed_time_speedup(1.0, 64), 1.0);
    }

    #[test]
    fn memory_bounded_recovers_both_limits() {
        let (alpha, p) = (0.08, 32usize);
        let amdahl = fixed_size_speedup(alpha, p);
        let gustafson = fixed_time_speedup(alpha, p);
        let mb_fixed = memory_bounded_speedup(alpha, p, GrowthProfile::Fixed.g(p));
        let mb_linear = memory_bounded_speedup(alpha, p, GrowthProfile::Linear.g(p));
        assert!((mb_fixed - amdahl).abs() < 1e-12);
        assert!((mb_linear - gustafson).abs() < 1e-12);
    }

    #[test]
    fn dense_matrix_growth_exceeds_gustafson() {
        let (alpha, p) = (0.05, 16usize);
        let g = GrowthProfile::DenseMatrix.g(p);
        assert!(g > p as f64);
        let s_mb = memory_bounded_speedup(alpha, p, g);
        let s_ft = fixed_time_speedup(alpha, p);
        assert!(s_mb > s_ft, "memory-bounded {s_mb} must beat fixed-time {s_ft}");
        // But never the p-fold ideal.
        assert!(s_mb < p as f64);
    }

    #[test]
    fn ordering_amdahl_gustafson_sunni() {
        // The textbook ordering for dense kernels with α > 0.
        let (alpha, p) = (0.1, 64usize);
        let a = fixed_size_speedup(alpha, p);
        let g = fixed_time_speedup(alpha, p);
        let m = memory_bounded_speedup(alpha, p, GrowthProfile::DenseMatrix.g(p));
        assert!(a < g && g < m, "{a} < {g} < {m} violated");
    }

    #[test]
    fn perfectly_parallel_work_gives_p_everywhere() {
        for p in [1usize, 4, 64] {
            assert!((fixed_size_speedup(0.0, p) - p as f64).abs() < 1e-12);
            assert!((memory_bounded_speedup(0.0, p, 7.0) - p as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn growth_profiles_evaluate() {
        assert_eq!(GrowthProfile::Fixed.g(9), 1.0);
        assert_eq!(GrowthProfile::Linear.g(9), 9.0);
        assert_eq!(GrowthProfile::DenseMatrix.g(4), 8.0);
        assert_eq!(GrowthProfile::Power(2.0).g(3), 9.0);
    }

    #[test]
    #[should_panic(expected = "sequential fraction")]
    fn invalid_alpha_rejected() {
        fixed_size_speedup(1.5, 4);
    }

    #[test]
    #[should_panic(expected = "G(p) must be positive")]
    fn invalid_growth_rejected() {
        memory_bounded_speedup(0.1, 4, 0.0);
    }
}

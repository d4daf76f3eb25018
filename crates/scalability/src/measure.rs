//! Achieved speed and speed-efficiency (Definitions 3 of the paper).
//!
//! Work `W` is in flops (a property of the algorithm at a problem size),
//! execution time `T` in seconds, marked speed `C` in flop/s. Then the
//! achieved speed is `S = W/T` and the speed-efficiency is
//! `E_s = S/C = W/(T·C)` — dimensionless, in `(0, 1]` for any system
//! that cannot beat its own benchmark rating.

/// Achieved speed `S = W / T` in flop/s.
///
/// # Panics
/// Panics when `work` is negative, `time` is non-positive, or either is
/// non-finite.
pub fn achieved_speed(work_flops: f64, time_secs: f64) -> f64 {
    assert!(work_flops.is_finite() && work_flops >= 0.0, "work must be ≥ 0");
    assert!(time_secs.is_finite() && time_secs > 0.0, "time must be > 0");
    work_flops / time_secs
}

/// Speed-efficiency `E_s = W / (T·C)` (Definition 3).
///
/// ```
/// use scalability::measure::speed_efficiency;
/// // 20 Mflop in 0.5 s on a 140 Mflop/s system.
/// let e = speed_efficiency(2e7, 0.5, 1.4e8);
/// assert!((e - 2.0 / 7.0).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics on invalid work/time (see [`achieved_speed`]) or non-positive
/// marked speed.
pub fn speed_efficiency(work_flops: f64, time_secs: f64, marked_speed_flops: f64) -> f64 {
    assert!(marked_speed_flops.is_finite() && marked_speed_flops > 0.0, "marked speed must be > 0");
    achieved_speed(work_flops, time_secs) / marked_speed_flops
}

/// One complete observation of an algorithm–system combination at a
/// problem size — a row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Problem size parameter (the matrix rank `N` for GE/MM).
    pub n: usize,
    /// Work `W(N)` in flops.
    pub work_flops: f64,
    /// Measured execution time `T` in seconds.
    pub time_secs: f64,
    /// System marked speed `C` in flop/s.
    pub marked_speed_flops: f64,
}

impl Measurement {
    /// Achieved speed `S = W/T` in flop/s.
    pub fn achieved_speed(&self) -> f64 {
        achieved_speed(self.work_flops, self.time_secs)
    }

    /// Achieved speed in Mflop/s (the unit of the paper's tables).
    pub fn achieved_speed_mflops(&self) -> f64 {
        self.achieved_speed() / 1e6
    }

    /// Speed-efficiency `E_s = W/(T·C)`.
    pub fn speed_efficiency(&self) -> f64 {
        speed_efficiency(self.work_flops, self.time_secs, self.marked_speed_flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_work_over_time() {
        assert_eq!(achieved_speed(2e8, 2.0), 1e8);
    }

    #[test]
    fn efficiency_is_speed_over_marked_speed() {
        // 100 Mflop in 2 s on a 100 Mflop/s system: E_s = 0.5.
        assert_eq!(speed_efficiency(1e8, 2.0, 1e8), 0.5);
    }

    #[test]
    fn perfect_system_has_efficiency_one() {
        assert_eq!(speed_efficiency(1e8, 1.0, 1e8), 1.0);
    }

    #[test]
    fn efficiency_falls_with_slower_runs() {
        let fast = speed_efficiency(1e8, 1.0, 1e8);
        let slow = speed_efficiency(1e8, 4.0, 1e8);
        assert!(slow < fast);
        assert_eq!(slow, 0.25);
    }

    #[test]
    fn measurement_struct_is_consistent() {
        let m = Measurement { n: 310, work_flops: 2e7, time_secs: 0.5, marked_speed_flops: 1.4e8 };
        assert_eq!(m.achieved_speed(), 4e7);
        assert_eq!(m.achieved_speed_mflops(), 40.0);
        assert!((m.speed_efficiency() - 4e7 / 1.4e8).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "time must be > 0")]
    fn zero_time_panics() {
        achieved_speed(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "work must be ≥ 0")]
    fn negative_work_panics() {
        achieved_speed(-1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "marked speed must be > 0")]
    fn zero_marked_speed_panics() {
        speed_efficiency(1.0, 1.0, 0.0);
    }

    #[test]
    fn zero_work_gives_zero_efficiency() {
        assert_eq!(speed_efficiency(0.0, 1.0, 1e8), 0.0);
    }
}

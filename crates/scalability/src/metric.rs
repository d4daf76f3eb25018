//! The measurement methodology (§3.5 method 1, §4.4 of the paper).
//!
//! To *compute* (as opposed to predict) the scalability of an
//! algorithm–system combination:
//!
//! 1. measure execution time at several problem sizes on each system
//!    configuration and form the speed-efficiency samples `(N, E_s)`;
//! 2. fit a polynomial trend line through each configuration's samples
//!    (the paper's Fig. 1 / Fig. 2);
//! 3. read the required `N` for the chosen target efficiency off the
//!    trend line;
//! 4. evaluate `ψ(C, C') = (C'·W)/(C·W')` between consecutive
//!    configurations (the paper's Tables 4 and 5).

use crate::function::isospeed_efficiency_scalability;
use crate::measure::Measurement;
use numfit::series::Series;
use numfit::{invert_monotone, polyfit, FitError, FitReport};

/// One algorithm–system combination that can be measured at any problem
/// size. Implementations run a real kernel on a real (simulated or
/// physical) system; tests use [`FnAlgorithm`] closures.
pub trait AlgorithmSystem {
    /// Human-readable label, e.g. `"GE on sunwulf-ge-4"`.
    fn label(&self) -> String;

    /// System marked speed `C` in flop/s (Definition 2).
    fn marked_speed_flops(&self) -> f64;

    /// Algorithm work `W(N)` in flops.
    fn work(&self, n: usize) -> f64;

    /// Executes the workload at problem size `n`, returning the measured
    /// execution time in seconds.
    fn execute(&self, n: usize) -> f64;

    /// Runs and packages a full [`Measurement`].
    fn measure(&self, n: usize) -> Measurement {
        Measurement {
            n,
            work_flops: self.work(n),
            time_secs: self.execute(n),
            marked_speed_flops: self.marked_speed_flops(),
        }
    }
}

/// Closure-backed [`AlgorithmSystem`], mostly for tests and analytic
/// studies: `work_fn(n)` in flops, `time_fn(n)` in seconds.
pub struct FnAlgorithm<W, T>
where
    W: Fn(usize) -> f64,
    T: Fn(usize) -> f64,
{
    /// Label reported by [`AlgorithmSystem::label`].
    pub label: String,
    /// Marked speed `C` in flop/s.
    pub marked_speed_flops: f64,
    /// Work model.
    pub work_fn: W,
    /// Time model / measurement procedure.
    pub time_fn: T,
}

impl<W, T> AlgorithmSystem for FnAlgorithm<W, T>
where
    W: Fn(usize) -> f64,
    T: Fn(usize) -> f64,
{
    fn label(&self) -> String {
        self.label.clone()
    }
    fn marked_speed_flops(&self) -> f64 {
        self.marked_speed_flops
    }
    fn work(&self, n: usize) -> f64 {
        (self.work_fn)(n)
    }
    fn execute(&self, n: usize) -> f64 {
        (self.time_fn)(n)
    }
}

/// A measured speed-efficiency curve for one configuration: the data
/// behind one trend line of Fig. 1 / Fig. 2.
#[derive(Debug, Clone)]
pub struct EfficiencyCurve {
    /// Configuration label.
    pub label: String,
    /// Raw measurements, in sampling order.
    pub measurements: Vec<Measurement>,
    /// `(N, E_s)` samples, sorted by `N`.
    pub series: Series,
}

impl EfficiencyCurve {
    /// Measures the curve at the given problem sizes.
    ///
    /// # Panics
    /// Panics when `ns` is empty.
    pub fn measure(alg: &dyn AlgorithmSystem, ns: &[usize]) -> EfficiencyCurve {
        assert!(!ns.is_empty(), "need at least one problem size");
        let measurements: Vec<Measurement> = ns.iter().map(|&n| alg.measure(n)).collect();
        EfficiencyCurve::from_measurements(alg.label(), measurements)
    }

    /// Packages already-taken measurements into a curve — the assembly
    /// half of [`EfficiencyCurve::measure`], split out so harnesses can
    /// take the measurements wherever they like (e.g. on a worker pool)
    /// and still build the identical curve.
    ///
    /// # Panics
    /// Panics when `measurements` is empty.
    pub fn from_measurements(label: String, measurements: Vec<Measurement>) -> EfficiencyCurve {
        assert!(!measurements.is_empty(), "need at least one problem size");
        let xs: Vec<f64> = measurements.iter().map(|m| m.n as f64).collect();
        let ys: Vec<f64> = measurements.iter().map(|m| m.speed_efficiency()).collect();
        let series = Series::from_samples(&xs, &ys).expect("finite measurements");
        EfficiencyCurve { label, measurements, series }
    }

    /// Fits the polynomial trend line (the paper uses a polynomial of
    /// modest degree; 3 is the default throughout the harness).
    pub fn fit(&self, degree: usize) -> Result<FitReport, FitError> {
        self.series.fit_poly(degree)
    }

    /// Reads the required problem size for `target` efficiency off the
    /// degree-`degree` trend line, searching within the sampled range.
    /// Falls back to piecewise-linear inversion of the raw samples when
    /// the polynomial cannot bracket the target (e.g. fit wiggle at the
    /// range edges).
    pub fn required_n(&self, target: f64, degree: usize) -> Result<f64, FitError> {
        let (lo, hi) =
            self.series.x_range().ok_or(FitError::InsufficientData { got: 0, need: 2 })?;
        if let Ok(fit) = self.fit(degree) {
            if let Ok(n) = invert_monotone(|x| fit.poly.eval(x), lo, hi, target, 1e-6) {
                return Ok(n);
            }
        }
        self.series.invert_linear(target)
    }

    /// Reads the required problem size for `target` efficiency off a
    /// trend fitted in *reciprocal* coordinates, so the crossing may
    /// lie beyond the sampled sizes.
    ///
    /// Communication-bound kernels (the paper's GE at mega scale)
    /// cross low targets only at sizes far past anything affordable to
    /// sample. [`EfficiencyCurve::required_n`] searches the sampled
    /// range and reports `NoBracket` there; this variant instead fits
    /// `1/E` against `x = n_min/n` — a degree-`degree` polynomial in a
    /// coordinate where `n → ∞` compactifies to `x → 0` — and inverts
    /// it for `1/target` over `x ∈ (0, 1]`, returning `n_min / x*`.
    /// Efficiency rising in `n` means `1/E` rising in `x`, so the
    /// bracket search sees a monotone trend; crossings *inside* the
    /// sampled range agree with the direct inversion to fit accuracy.
    /// A target below the trend's `x → 0` limit still reports
    /// [`FitError::NoBracket`] — the curve never gets there.
    pub fn required_n_extrapolated(&self, target: f64, degree: usize) -> Result<f64, FitError> {
        let (lo, _) =
            self.series.x_range().ok_or(FitError::InsufficientData { got: 0, need: 2 })?;
        let xs: Vec<f64> = self.series.xs().iter().map(|&n| lo / n).collect();
        let ys: Vec<f64> = self.series.ys().iter().map(|&e| 1.0 / e).collect();
        let fit = polyfit(&xs, &ys, degree)?;
        let x_star = invert_monotone(|x| fit.poly.eval(x), 0.0, 1.0, 1.0 / target, 1e-9)?;
        if x_star <= 0.0 {
            // The trend only *touches* the target in the n → ∞ limit.
            return Err(FitError::NoBracket { lo: 0.0, hi: 1.0, target: 1.0 / target });
        }
        Ok(lo / x_star)
    }
}

/// One rung-to-rung step of a scalability ladder — a cell of the paper's
/// Table 4 / Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Base configuration label.
    pub from: String,
    /// Scaled configuration label.
    pub to: String,
    /// Base marked speed `C` (flop/s).
    pub c: f64,
    /// Scaled marked speed `C'` (flop/s).
    pub c_prime: f64,
    /// Required problem size at the base system.
    pub n: usize,
    /// Required problem size at the scaled system.
    pub n_prime: usize,
    /// Base work `W` (flops).
    pub w: f64,
    /// Scaled work `W'` (flops).
    pub w_prime: f64,
    /// The scalability `ψ(C, C')`.
    pub psi: f64,
}

/// A full ladder of configurations measured at one target efficiency —
/// the paper's Tables 3+4 (GE) or Fig. 2+Table 5 (MM) in one object.
#[derive(Debug, Clone)]
pub struct ScalabilityLadder {
    /// The speed-efficiency everything is held to.
    pub target_efficiency: f64,
    /// Per-configuration required problem sizes `(label, C flop/s, N, W)`.
    pub required: Vec<(String, f64, usize, f64)>,
    /// Consecutive-rung scalability values.
    pub steps: Vec<LadderStep>,
}

impl ScalabilityLadder {
    /// Measures every configuration at the given problem sizes, finds the
    /// required `N` per rung, and evaluates ψ between consecutive rungs.
    ///
    /// # Errors
    /// Fails when a rung's samples never reach the target efficiency.
    ///
    /// # Panics
    /// Panics when fewer than two systems are supplied.
    pub fn measure(
        systems: &[&dyn AlgorithmSystem],
        target: f64,
        ns: &[usize],
        fit_degree: usize,
    ) -> Result<ScalabilityLadder, FitError> {
        assert!(systems.len() >= 2, "a ladder needs at least two configurations");
        let curves: Vec<EfficiencyCurve> =
            systems.iter().map(|alg| EfficiencyCurve::measure(*alg, ns)).collect();
        ScalabilityLadder::from_curves(systems, &curves, target, fit_degree)
    }

    /// Builds the ladder from curves that were already measured — the
    /// read-off half of [`ScalabilityLadder::measure`], split out so
    /// harnesses can measure the per-rung curves in parallel (or reuse
    /// curves built for a figure) and still assemble the identical
    /// ladder. `curves[i]` must belong to `systems[i]`.
    ///
    /// # Errors
    /// Fails when a rung's samples never reach the target efficiency.
    ///
    /// # Panics
    /// Panics when fewer than two systems are supplied or the curve
    /// count disagrees with the system count.
    pub fn from_curves(
        systems: &[&dyn AlgorithmSystem],
        curves: &[EfficiencyCurve],
        target: f64,
        fit_degree: usize,
    ) -> Result<ScalabilityLadder, FitError> {
        assert!(systems.len() >= 2, "a ladder needs at least two configurations");
        assert_eq!(systems.len(), curves.len(), "one curve per configuration");
        let mut required = Vec::with_capacity(systems.len());
        for (alg, curve) in systems.iter().zip(curves) {
            let n_real = curve.required_n(target, fit_degree)?;
            let n = n_real.round().max(1.0) as usize;
            required.push((alg.label(), alg.marked_speed_flops(), n, alg.work(n)));
        }
        let steps = required
            .windows(2)
            .map(|w| {
                let (ref from, c, n, work) = w[0];
                let (ref to, c_prime, n_prime, w_prime) = w[1];
                LadderStep {
                    from: from.clone(),
                    to: to.clone(),
                    c,
                    c_prime,
                    n,
                    n_prime,
                    w: work,
                    w_prime,
                    psi: isospeed_efficiency_scalability(c, work, c_prime, w_prime),
                }
            })
            .collect();
        Ok(ScalabilityLadder { target_efficiency: target, required, steps })
    }

    /// Geometric-mean ψ across the ladder — a single-number summary used
    /// when comparing combinations (§4.4.3).
    pub fn geometric_mean_psi(&self) -> f64 {
        if self.steps.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = self.steps.iter().map(|s| s.psi.ln()).sum();
        (log_sum / self.steps.len() as f64).exp()
    }
}

/// Convenience: the required problem size for `target` efficiency via a
/// fresh measurement sweep over `ns` (paper §4.4's per-configuration
/// step, without keeping the curve).
pub fn required_n_for_efficiency(
    alg: &dyn AlgorithmSystem,
    target: f64,
    ns: &[usize],
    fit_degree: usize,
) -> Result<f64, FitError> {
    EfficiencyCurve::measure(alg, ns).required_n(target, fit_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An analytic system with a saturating efficiency curve:
    /// `T = W/C + k·n` overhead ⇒ `E_s = W/(W + k·n·C)`.
    fn analytic_system(c: f64, k: f64, label: &str) -> impl AlgorithmSystem {
        FnAlgorithm {
            label: label.to_string(),
            marked_speed_flops: c,
            work_fn: |n: usize| {
                let nf = n as f64;
                (2.0 / 3.0) * nf * nf * nf
            },
            time_fn: move |n: usize| {
                let nf = n as f64;
                let w = (2.0 / 3.0) * nf * nf * nf;
                w / c + k * nf
            },
        }
    }

    fn sizes() -> Vec<usize> {
        vec![50, 100, 150, 200, 300, 400, 600, 800]
    }

    #[test]
    fn efficiency_curve_is_increasing_for_saturating_model() {
        let alg = analytic_system(1.4e8, 1e-3, "a");
        let curve = EfficiencyCurve::measure(&alg, &sizes());
        let ys = curve.series.ys();
        assert!(ys.windows(2).all(|w| w[0] < w[1]), "ys = {ys:?}");
        assert!(*ys.last().unwrap() < 1.0);
    }

    #[test]
    fn required_n_matches_analytic_inverse() {
        // E_s = W/(W + k n C) = target ⇒ (2/3)n³(1−target) = target·k·n·C
        // ⇒ n = sqrt(3·target·k·C / (2(1−target))).
        let (c, k, target): (f64, f64, f64) = (1.4e8, 1e-3, 0.3);
        let expected = (3.0 * target * k * c / (2.0 * (1.0 - target))).sqrt();
        let alg = analytic_system(c, k, "a");
        let n = required_n_for_efficiency(&alg, target, &sizes(), 3).unwrap();
        let rel = (n - expected).abs() / expected;
        assert!(rel < 0.05, "n = {n}, expected = {expected}");
    }

    #[test]
    fn required_n_falls_back_to_linear_inversion() {
        // Two samples only: the cubic fit fails, linear inversion works.
        let alg = analytic_system(1.4e8, 1e-3, "a");
        let curve = EfficiencyCurve::measure(&alg, &[100, 400]);
        let n = curve.required_n(0.3, 3).unwrap();
        assert!(n > 100.0 && n < 400.0);
    }

    #[test]
    fn extrapolated_inversion_reaches_past_the_sampled_range() {
        // Same analytic crossing as `required_n_matches_analytic_inverse`
        // (n* = 300 for these constants), but sampled entirely below it:
        // the in-range inversion cannot bracket, the reciprocal-trend
        // fit extrapolates to it. In reciprocal coordinates the model is
        // exactly quadratic (1/E = 1 + (3kC/2)/n²), so the fit is tight.
        let (c, k, target): (f64, f64, f64) = (1.4e8, 1e-3, 0.3);
        let expected = (3.0 * target * k * c / (2.0 * (1.0 - target))).sqrt();
        let alg = analytic_system(c, k, "a");
        let curve = EfficiencyCurve::measure(&alg, &[50, 75, 100, 125, 150]);
        assert!(curve.required_n(target, 3).is_err(), "crossing lies outside the samples");
        let n = curve.required_n_extrapolated(target, 3).unwrap();
        let rel = (n - expected).abs() / expected;
        assert!(rel < 0.05, "n = {n}, expected = {expected}");
    }

    #[test]
    fn extrapolated_inversion_agrees_with_direct_on_interior_crossings() {
        let alg = analytic_system(1.4e8, 1e-3, "a");
        let curve = EfficiencyCurve::measure(&alg, &sizes());
        let direct = curve.required_n(0.3, 3).unwrap();
        let extrapolated = curve.required_n_extrapolated(0.3, 3).unwrap();
        let rel = (direct - extrapolated).abs() / direct;
        assert!(rel < 0.05, "direct = {direct}, extrapolated = {extrapolated}");
    }

    #[test]
    fn extrapolated_inversion_rejects_targets_past_the_limit() {
        // E saturates at 1 from below; a target above the saturating
        // limit is never crossed, extrapolation or not.
        let alg = analytic_system(1.4e8, 1e-3, "a");
        let curve = EfficiencyCurve::measure(&alg, &sizes());
        assert!(matches!(curve.required_n_extrapolated(1.2, 3), Err(FitError::NoBracket { .. })));
    }

    #[test]
    fn unreachable_target_errors() {
        let alg = analytic_system(1.4e8, 1e-3, "a");
        let curve = EfficiencyCurve::measure(&alg, &sizes());
        assert!(curve.required_n(0.999, 3).is_err());
    }

    #[test]
    fn ladder_produces_psi_below_one_when_overhead_grows() {
        // Scaled system: bigger C and *disproportionately* bigger
        // overhead coefficient — the normal situation.
        let base = analytic_system(1.4e8, 1e-3, "2 nodes");
        let scaled = analytic_system(2.4e8, 3e-3, "4 nodes");
        let ladder = ScalabilityLadder::measure(&[&base, &scaled], 0.3, &sizes(), 3).unwrap();
        assert_eq!(ladder.steps.len(), 1);
        let step = &ladder.steps[0];
        assert!(step.psi > 0.0 && step.psi < 1.0, "psi = {}", step.psi);
        assert!(step.n_prime > step.n, "scaled system needs a larger problem");
    }

    #[test]
    fn ladder_psi_is_one_for_identical_overhead() {
        // Corollary-1 situation approximated: same overhead coefficient
        // relative to C ⇒ required n satisfies n ∝ sqrt(kC); psi → ...
        // With identical k AND identical C the ladder is flat: ψ = 1.
        let a = analytic_system(1.4e8, 1e-3, "a");
        let b = analytic_system(1.4e8, 1e-3, "b");
        let ladder = ScalabilityLadder::measure(&[&a, &b], 0.3, &sizes(), 3).unwrap();
        assert!((ladder.steps[0].psi - 1.0).abs() < 0.02);
    }

    #[test]
    fn from_measurements_rebuilds_the_measured_curve() {
        let alg = analytic_system(1.4e8, 1e-3, "a");
        let direct = EfficiencyCurve::measure(&alg, &sizes());
        let rebuilt = EfficiencyCurve::from_measurements(alg.label(), direct.measurements.clone());
        assert_eq!(rebuilt.label, direct.label);
        assert_eq!(rebuilt.series.xs(), direct.series.xs());
        assert_eq!(rebuilt.series.ys(), direct.series.ys());
    }

    #[test]
    fn from_curves_matches_measure_exactly() {
        let base = analytic_system(1.4e8, 1e-3, "2 nodes");
        let scaled = analytic_system(2.4e8, 3e-3, "4 nodes");
        let systems: [&dyn AlgorithmSystem; 2] = [&base, &scaled];
        let curves: Vec<EfficiencyCurve> =
            systems.iter().map(|s| EfficiencyCurve::measure(*s, &sizes())).collect();
        let via_curves = ScalabilityLadder::from_curves(&systems, &curves, 0.3, 3).unwrap();
        let direct = ScalabilityLadder::measure(&systems, 0.3, &sizes(), 3).unwrap();
        assert_eq!(via_curves.required, direct.required);
        assert_eq!(via_curves.steps, direct.steps);
    }

    #[test]
    #[should_panic(expected = "one curve per configuration")]
    fn from_curves_rejects_count_mismatch() {
        let a = analytic_system(1e8, 1e-3, "a");
        let b = analytic_system(1e8, 1e-3, "b");
        let systems: [&dyn AlgorithmSystem; 2] = [&a, &b];
        let curves = vec![EfficiencyCurve::measure(&a, &sizes())];
        let _ = ScalabilityLadder::from_curves(&systems, &curves, 0.3, 3);
    }

    #[test]
    fn geometric_mean_psi_summarizes_steps() {
        let mk_step = |psi: f64| LadderStep {
            from: String::new(),
            to: String::new(),
            c: 1.0,
            c_prime: 1.0,
            n: 1,
            n_prime: 1,
            w: 1.0,
            w_prime: 1.0,
            psi,
        };
        let ladder = ScalabilityLadder {
            target_efficiency: 0.3,
            required: Vec::new(),
            steps: vec![mk_step(0.25), mk_step(1.0)],
        };
        assert!((ladder.geometric_mean_psi() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measurement_is_well_formed() {
        let alg = analytic_system(1e8, 1e-3, "a");
        let m = alg.measure(100);
        assert_eq!(m.n, 100);
        assert!(m.speed_efficiency() > 0.0 && m.speed_efficiency() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two configurations")]
    fn ladder_needs_two_systems() {
        let a = analytic_system(1e8, 1e-3, "a");
        let _ = ScalabilityLadder::measure(&[&a], 0.3, &sizes(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one problem size")]
    fn curve_needs_samples() {
        let a = analytic_system(1e8, 1e-3, "a");
        EfficiencyCurve::measure(&a, &[]);
    }
}

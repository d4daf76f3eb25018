//! Mid-run failure recovery — the opt-in `recover` experiment (R2).
//!
//! The `--faults` sweep (R1) injects faults that are *declared before
//! launch*; this sweep asks what ψ survives when the scaled system
//! instead fails **mid-run** under a seeded MTBF death stream and has
//! to recover in virtual time. Two policies compete
//! ([`RecoveryPolicy`], DESIGN.md §12):
//!
//! - **checkpoint/restart** at the Young/Daly-optimal interval
//!   `sqrt(2 · δ · MTBF)` for that cell's per-checkpoint cost δ, and
//! - **shrink-and-rebalance** — drop the dead rank, repartition the
//!   survivors via `hetpart::rebalance`, replay the lost work.
//!
//! MTBF is *size-relative*: each swept cell `n` gets
//! `MTBF = factor × T(n)` where `T(n)` is the work-proportional run
//! estimate, so the sampled death lands at the same progress fraction
//! at every size and the efficiency curves stay smooth enough for the
//! fitted-trend inversion. Everything — death placement, checkpoint
//! cadence, repartition — is a pure function of (plan seed base,
//! cluster, n), so the sweep is byte-identical across runs, `--jobs`
//! worker counts, and `--no-analytic` (untraced recovery segments price
//! through the GE and MM closed forms, which read the same segment the
//! recorded body does; `--no-analytic` records and replays every one on
//! the event-driven engine).
//!
//! The second table is the Daly check: at a fixed representative size,
//! mean makespan over a deterministic seed campaign across interval
//! multipliers `[0.25, 0.5, 1, 2, 4] × daly`; the measured optimum must
//! agree with the prediction within one grid step (pinned by tests and
//! EXPERIMENTS.md "R2").

use super::Kernel;
use crate::params::ExperimentParams;
use crate::systems::{GeSystem, MmSystem};
use crate::table::{fnum, Table};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{
    checkpoint_cost_secs, daly_interval, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT_SECS,
};
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::sunwulf;
use kernels::recover::{estimated_run_secs, timed_recoverable};
use kernels::RecoveryOutcome;
use scalability::metric::{AlgorithmSystem, ScalabilityLadder};
use scalability::report::{analyze, RobustnessAnnex, ScalabilityReport};

/// MTBF severities, as multiples of the cell's estimated run time
/// `T(n)`: from "a failure is unlikely but possible" down to "the
/// machine almost always loses a node early".
pub const MTBF_FACTORS: [f64; 3] = [4.0, 1.0, 0.25];

/// Interval grid of the Daly check, as multiples of the predicted
/// optimum. One grid step is a factor of two: the agreement criterion.
pub const DALY_GRID: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Salt separating the recovery sweep's plan seeds from the `--faults`
/// severity plans (both derive from `crate::seed::plan_seed()`).
pub const RECOVER_SEED_SALT: u64 = 0x7ec0;

/// Salt separating the Daly seed campaign's streams from the ladder's.
pub const DALY_SEED_SALT: u64 = 0xda10;

impl Kernel {
    /// Representative size for the decomposition run and the Daly
    /// campaign: large enough that the estimated run dwarfs the
    /// fixed checkpoint latency (`T ≫ δ`), so interval choice matters.
    /// Checkpointing only pays when `T ≳ 20 δ` (below that, the ~0.26 T
    /// a single expected failure loses without checkpoints is cheaper
    /// than the `~1.15 √(δT)` the Daly strategy costs), so these sizes
    /// keep `T/δ ≳ 40`.
    fn repr_n(self, quick: bool) -> usize {
        match (self, quick) {
            (Kernel::Ge, true) => 1024,
            (Kernel::Ge, false) => 1536,
            (Kernel::Mm, true) => 640,
            (Kernel::Mm, false) => 1024,
        }
    }

    /// Problem sizes swept for the recovery efficiency curves. The
    /// standard sweeps stop where runs last milliseconds, but the
    /// recovery floors are *absolute* (0.05 s detector timeout, 0.02 s
    /// checkpoint latency), so the degraded target crossing only exists
    /// at sizes where a run lasts long enough to amortize one recovery;
    /// these grids extend the standard ones until it is interior.
    fn recover_sizes(self, quick: bool) -> Vec<usize> {
        match (self, quick) {
            (Kernel::Ge, true) => vec![260, 420, 700, 1100, 1700, 2600],
            (Kernel::Ge, false) => vec![700, 1100, 1700, 2600, 3800, 5200],
            (Kernel::Mm, true) => vec![24, 48, 96, 176, 330, 640, 900],
            (Kernel::Mm, false) => vec![48, 96, 176, 330, 640, 1200, 1800],
        }
    }

    /// Per-checkpoint makespan cost δ at size `n`: the slowest rank's
    /// coordinated checkpoint write, of the bytes the recoverable kernel
    /// charges.
    fn checkpoint_delta_secs(self, cluster: &ClusterSpec, n: usize) -> f64 {
        let bytes = self.recoverable().checkpoint_bytes(cluster, n);
        bytes.into_iter().map(checkpoint_cost_secs).fold(0.0, f64::max)
    }
}

/// Which recovery policy a sweep row exercises (the concrete
/// [`RecoveryPolicy`] is derived per cell: the checkpoint interval is
/// the Daly optimum for that cell's MTBF and δ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PolicyKind {
    CheckpointRestart,
    ShrinkRebalance,
}

impl PolicyKind {
    fn label(self) -> &'static str {
        match self {
            PolicyKind::CheckpointRestart => "checkpoint-restart",
            PolicyKind::ShrinkRebalance => "shrink-rebalance",
        }
    }
}

/// Plan seed of the recovery sweep for a `p`-rank scaled configuration.
fn recover_seed(p: usize) -> u64 {
    crate::seed::plan_seed_plus(RECOVER_SEED_SALT + p as u64)
}

/// A kernel bound to the scaled configuration under an MTBF death
/// stream and a recovery policy. `mtbf_factor == None` is the clean
/// baseline: an empty plan, which the recoverable drivers degenerate to
/// the bit-exact baseline op stream for.
struct RecoverableSystem<'a, N: NetworkModel> {
    kernel: Kernel,
    mtbf_factor: Option<f64>,
    policy: PolicyKind,
    cluster: ClusterSpec,
    network: &'a N,
}

impl<N: NetworkModel> RecoverableSystem<'_, N> {
    fn plan_for(&self, n: usize) -> FaultPlan {
        let seed = recover_seed(self.cluster.size());
        match self.mtbf_factor {
            None => FaultPlan::new(seed),
            Some(factor) => {
                let est = estimated_run_secs(&self.cluster, self.kernel.work(n));
                FaultPlan::new(seed).with_mtbf(factor * est)
            }
        }
    }

    fn policy_for(&self, n: usize) -> RecoveryPolicy {
        match self.policy {
            PolicyKind::ShrinkRebalance => RecoveryPolicy::ShrinkRebalance,
            PolicyKind::CheckpointRestart => {
                let est = estimated_run_secs(&self.cluster, self.kernel.work(n));
                let mtbf = self.mtbf_factor.unwrap_or(1.0) * est;
                let delta = self.kernel.checkpoint_delta_secs(&self.cluster, n);
                RecoveryPolicy::CheckpointRestart { interval_secs: daly_interval(mtbf, delta) }
            }
        }
    }
}

impl<N: NetworkModel> AlgorithmSystem for RecoverableSystem<'_, N> {
    fn label(&self) -> String {
        let mtbf = match self.mtbf_factor {
            None => "clean".to_string(),
            Some(f) => format!("mtbf {f}xT"),
        };
        format!("{}+{}+{} on {}", self.kernel.name(), mtbf, self.policy.label(), self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        // The machine was sold as the full cluster; a mid-run death does
        // not shrink `C` honestly the way a declared death does — the
        // loss shows up in ψ retention instead.
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        self.kernel.work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        let plan = self.plan_for(n);
        let policy = self.policy_for(n);
        let kernel = self.kernel.recoverable();
        timed_recoverable(kernel, &self.cluster, self.network, &plan, policy, n, false)
            .timing
            .makespan
            .as_secs()
    }
}

/// One measured row of the recovery sweep.
struct SweepRow {
    kernel: Kernel,
    mtbf_factor: Option<f64>,
    policy: PolicyKind,
    interval_secs: Option<f64>,
    psi: f64,
    outcome: RecoveryOutcome,
    annex: RobustnessAnnex,
    ladder: ScalabilityLadder,
}

/// The sweep's rows per kernel: the clean baseline first, then each
/// MTBF severity under both policies.
fn sweep_specs() -> Vec<(Option<f64>, PolicyKind)> {
    let mut specs = vec![(None, PolicyKind::ShrinkRebalance)];
    for factor in MTBF_FACTORS {
        specs.push((Some(factor), PolicyKind::CheckpointRestart));
        specs.push((Some(factor), PolicyKind::ShrinkRebalance));
    }
    specs
}

fn measure_kernel<N: NetworkModel>(
    kernel: Kernel,
    params: &ExperimentParams,
    net: &N,
    p_base: usize,
    p_scaled: usize,
    repr_n: usize,
    quick: bool,
) -> Vec<SweepRow> {
    let target = match kernel {
        Kernel::Ge => super::faults::GE_FAULTS_TARGET,
        Kernel::Mm => params.mm_target,
    };
    let sizes = kernel.recover_sizes(quick);
    let sizes: &[usize] = &sizes;
    let base_cluster = kernel.config(p_base);
    let base_ge = GeSystem { cluster: &base_cluster, network: net };
    let base_mm = MmSystem { cluster: &base_cluster, network: net };

    let mut rows = Vec::new();
    let mut psi_baseline = f64::NAN;
    for (mtbf_factor, policy) in sweep_specs() {
        let system = RecoverableSystem {
            kernel,
            mtbf_factor,
            policy,
            cluster: kernel.config(p_scaled),
            network: net,
        };
        let base: &dyn AlgorithmSystem = match kernel {
            Kernel::Ge => &base_ge,
            Kernel::Mm => &base_mm,
        };
        let ladder = ScalabilityLadder::measure(&[base, &system], target, sizes, params.fit_degree)
            .expect("recovery sweep rung reaches the target efficiency");
        let psi = ladder.steps[0].psi;
        if mtbf_factor.is_none() {
            psi_baseline = psi;
        }

        // Representative run: the typed decomposition comes from the
        // driver's own accounting. Untraced: only link drops record the
        // `Retry` spans the annex reads, and no sweep plan has any
        // (`drop_free_plans_trace_no_retry_span`).
        let plan = system.plan_for(repr_n);
        let cell_policy = system.policy_for(repr_n);
        let outcome = timed_recoverable(
            kernel.recoverable(),
            &system.cluster,
            net,
            &plan,
            cell_policy,
            repr_n,
            false,
        );
        let dead: Vec<usize> = outcome.death.map(|ev| ev.rank).into_iter().collect();
        let mut annex = RobustnessAnnex::from_comparison(
            psi_baseline,
            psi,
            &[],
            outcome.overhead.rebalance_secs,
            dead,
        );
        if mtbf_factor.is_some() {
            annex = annex.with_recovery(outcome.overhead);
        }
        let interval_secs = match cell_policy {
            RecoveryPolicy::CheckpointRestart { interval_secs } if mtbf_factor.is_some() => {
                Some(interval_secs)
            }
            _ => None,
        };
        rows.push(SweepRow {
            kernel,
            mtbf_factor,
            policy,
            interval_secs,
            psi,
            outcome,
            annex,
            ladder,
        });
    }
    rows
}

/// Result of one kernel's Daly check: mean makespans over the seed
/// campaign per interval multiplier, and where measurement and
/// prediction land.
pub struct DalyCheck {
    /// Kernel name ("GE" / "MM").
    pub kernel: &'static str,
    /// Representative size the campaign prices.
    pub n: usize,
    /// Seeds per interval multiplier in the campaign.
    pub seeds: u64,
    /// The predicted Young/Daly interval in virtual seconds.
    pub daly_secs: f64,
    /// Mean makespan per [`DALY_GRID`] multiplier (campaign order).
    pub mean_makespans: Vec<f64>,
    /// The multiplier with the smallest mean makespan.
    pub measured_multiplier: f64,
}

fn daly_check(kernel: Kernel, p: usize, quick: bool) -> DalyCheck {
    let net = sunwulf::sunwulf_network();
    let cluster = kernel.config(p);
    let n = kernel.repr_n(quick);
    let est = estimated_run_secs(&cluster, kernel.work(n));
    // Daly's formula takes the *system* MTBF. Death times are sampled
    // per rank, and the first failure is the minimum over `p` ranks, so
    // per-rank MTBF `p * T` makes the machine-level MTBF `T` — one
    // expected failure per run, landing anywhere in it. (Per-rank `T`
    // would put the first death at `~T/p`, so early that lost work is
    // negligible and "never checkpoint" always wins.)
    let mtbf = p as f64 * est;
    let delta = kernel.checkpoint_delta_secs(&cluster, n);
    let daly = daly_interval(est, delta);
    let seeds = if quick { 16 } else { 24 };

    // One campaign cell per (multiplier, seed); the pool assembles
    // results in cell order, so the means below are fixed-order sums
    // and the table is byte-identical for every `--jobs N`.
    let cells: Vec<(usize, u64)> =
        (0..DALY_GRID.len()).flat_map(|mi| (0..seeds).map(move |s| (mi, s))).collect();
    let makespans = crate::pool::run_indexed(&cells, |_, &(mi, s)| {
        let plan = FaultPlan::new(crate::seed::plan_seed_plus(DALY_SEED_SALT + s)).with_mtbf(mtbf);
        let policy = RecoveryPolicy::CheckpointRestart { interval_secs: DALY_GRID[mi] * daly };
        let outcome =
            timed_recoverable(kernel.recoverable(), &cluster, &net, &plan, policy, n, false);
        outcome.timing.makespan.as_secs()
    });

    let mean_makespans: Vec<f64> = (0..DALY_GRID.len())
        .map(|mi| {
            let sum: f64 = (0..seeds as usize).map(|s| makespans[mi * seeds as usize + s]).sum();
            sum / seeds as f64
        })
        .collect();
    let best = mean_makespans
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("makespans are finite"))
        .map(|(i, _)| i)
        .expect("non-empty grid");
    DalyCheck {
        kernel: kernel.name(),
        n,
        seeds,
        daly_secs: daly,
        mean_makespans,
        measured_multiplier: DALY_GRID[best],
    }
}

/// Runs both kernels' Daly campaigns (used directly by the shape tests).
pub fn daly_checks(quick: bool) -> Vec<DalyCheck> {
    let p = if quick { 8 } else { 16 };
    vec![daly_check(Kernel::Ge, p, quick), daly_check(Kernel::Mm, p, quick)]
}

/// Inputs of the traced GE checkpoint-restart run the observability
/// exports publish when `recover` is requested: the scaled cluster, the
/// 1×T MTBF plan, the Daly-interval policy, and the representative size.
pub fn ge_observed_inputs(quick: bool) -> (ClusterSpec, FaultPlan, RecoveryPolicy, usize) {
    observed_inputs(Kernel::Ge, PolicyKind::CheckpointRestart, quick)
}

/// Inputs of the traced MM shrink-rebalance run for the observability
/// exports (0.25×T MTBF: the death lands early, so the detect, lost-work
/// and rebalance spans all appear in the trace).
pub fn mm_observed_inputs(quick: bool) -> (ClusterSpec, FaultPlan, RecoveryPolicy, usize) {
    observed_inputs(Kernel::Mm, PolicyKind::ShrinkRebalance, quick)
}

fn observed_inputs(
    kernel: Kernel,
    policy: PolicyKind,
    quick: bool,
) -> (ClusterSpec, FaultPlan, RecoveryPolicy, usize) {
    let p = if quick { 8 } else { 16 };
    let factor = match policy {
        PolicyKind::CheckpointRestart => 1.0,
        PolicyKind::ShrinkRebalance => 0.25,
    };
    let system = RecoverableSystem {
        kernel,
        mtbf_factor: Some(factor),
        policy,
        cluster: kernel.config(p),
        network: &sunwulf::sunwulf_network(),
    };
    let n = kernel.repr_n(quick);
    let plan = system.plan_for(n);
    let cell_policy = system.policy_for(n);
    (system.cluster, plan, cell_policy, n)
}

/// Runs the recovery sweep: the ψ-retention table (MTBF × policy with
/// the overhead decomposition), the Daly-interval check table, and a
/// demo report (the GE 1×T checkpoint-restart step with its recovery
/// annex attached).
pub fn recovery_sweep(params: &ExperimentParams, quick: bool) -> (Vec<Table>, ScalabilityReport) {
    let net = sunwulf::sunwulf_network();
    let (p_base, p_scaled) = if quick { (4, 8) } else { (8, 16) };

    let ge_rows =
        measure_kernel(Kernel::Ge, params, &net, p_base, p_scaled, Kernel::Ge.repr_n(quick), quick);
    let mm_rows =
        measure_kernel(Kernel::Mm, params, &net, p_base, p_scaled, Kernel::Mm.repr_n(quick), quick);

    let mut sweep = Table::new(
        format!("Recover — psi retention under MTBF death streams ({p_base} -> {p_scaled} nodes)"),
        &[
            "Kernel",
            "MTBF",
            "Policy",
            "Interval (s)",
            "psi",
            "psi retention",
            "Ckpt (s)",
            "Lost (s)",
            "Rebal (s)",
            "Death",
        ],
    );
    let psi_base = |rows: &[SweepRow]| rows[0].psi;
    for (rows, base) in [(&ge_rows, psi_base(&ge_rows)), (&mm_rows, psi_base(&mm_rows))] {
        for row in rows.iter() {
            let oh = &row.outcome.overhead;
            sweep.push_row(vec![
                row.kernel.name().to_string(),
                row.mtbf_factor.map_or("-".to_string(), |f| format!("{f}xT")),
                if row.mtbf_factor.is_none() {
                    "none".to_string()
                } else {
                    row.policy.label().to_string()
                },
                row.interval_secs.map_or("-".to_string(), |i| format!("{i:.4}")),
                fnum(row.psi),
                fnum(row.psi / base),
                if row.mtbf_factor.is_none() {
                    "-".to_string()
                } else {
                    format!("{:.4}", oh.checkpoint_secs)
                },
                if row.mtbf_factor.is_none() {
                    "-".to_string()
                } else {
                    format!("{:.4}", oh.lost_work_secs)
                },
                if row.mtbf_factor.is_none() {
                    "-".to_string()
                } else {
                    format!("{:.4}", oh.rebalance_secs)
                },
                row.outcome
                    .death
                    .map_or("-".to_string(), |ev| format!("r{}@i{}", ev.rank, ev.iteration)),
            ]);
        }
    }
    sweep.push_note(format!(
        "MTBF is size-relative (factor x estimated run T(n)); checkpoint intervals are the \
         Young/Daly optimum sqrt(2*delta*MTBF) per cell; detector timeout {DETECT_TIMEOUT_SECS}s \
         per surviving rank when a death fires"
    ));
    sweep.push_note(
        "decomposition columns price the representative run; MTBF `-` is the clean \
         baseline: the recoverable path degenerates to the bit-exact baseline op stream",
    );

    let checks = daly_checks(quick);
    let mut daly = Table::new(
        "Recover — measured optimal checkpoint interval vs Young/Daly",
        &["Kernel", "Interval/Daly", "Interval (s)", "Mean makespan (s)", "Optimum"],
    );
    for check in &checks {
        for (mi, &mult) in DALY_GRID.iter().enumerate() {
            let marker = if mult == check.measured_multiplier && mult == 1.0 {
                "measured = Daly"
            } else if mult == check.measured_multiplier {
                "measured"
            } else if mult == 1.0 {
                "Daly"
            } else {
                ""
            };
            daly.push_row(vec![
                check.kernel.to_string(),
                format!("{mult}x"),
                format!("{:.4}", mult * check.daly_secs),
                format!("{:.6}", check.mean_makespans[mi]),
                marker.to_string(),
            ]);
        }
    }
    daly.push_note(format!(
        "mean over a {}-seed campaign at 1xT MTBF (GE n = {}, MM n = {}); the measured optimum \
         must sit within one grid step (2x) of the 1x Daly prediction",
        checks[0].seeds, checks[0].n, checks[1].n,
    ));

    // Demo report: the GE 1xT checkpoint-restart step, recovery annex
    // attached.
    let demo = &ge_rows[3];
    debug_assert_eq!(demo.mtbf_factor, Some(1.0));
    debug_assert_eq!(demo.policy, PolicyKind::CheckpointRestart);
    let report = analyze(&demo.ladder).with_robustness(demo.annex.clone());
    (vec![sweep, daly], report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::recover::RecoverableKernel;

    #[test]
    fn recovery_sweep_shape_and_retention() {
        let params = ExperimentParams::quick();
        let (tables, report) = recovery_sweep(&params, true);
        assert_eq!(tables.len(), 2);
        let sweep = &tables[0];
        // 2 kernels x (1 baseline + 3 MTBF factors x 2 policies).
        assert_eq!(sweep.rows.len(), 14);

        for row in &sweep.rows {
            let retention: f64 = row[5].parse().unwrap();
            assert!(retention > 0.0 && retention.is_finite(), "retention not positive: {row:?}");
            if row[1] == "-" {
                assert_eq!(retention, 1.0, "clean baseline must retain psi exactly: {row:?}");
                assert_eq!(row[2], "none");
            }
        }
        // Shrink rows must actually diverge from the baseline and fire a
        // death. Retention may exceed 1 — losing a rank pushes the
        // iso-efficiency crossing to a larger N where the achieved speed
        // is higher, exactly as the `--faults` death severity does.
        let shrink: Vec<_> = sweep.rows.iter().filter(|r| r[2] == "shrink-rebalance").collect();
        assert_eq!(shrink.len(), 6);
        for row in &shrink {
            let retention: f64 = row[5].parse().unwrap();
            assert_ne!(retention, 1.0, "shrink under deaths must move psi: {row:?}");
            assert_ne!(row[9], "-", "every MTBF severity must fire a death: {row:?}");
        }
        // Checkpoint-restart rows price a checkpoint tax at the
        // representative size (T >> delta there), and the tax must cost
        // scalability: retention strictly below the clean baseline.
        let cr: Vec<_> = sweep.rows.iter().filter(|r| r[2] == "checkpoint-restart").collect();
        assert_eq!(cr.len(), 6);
        for row in &cr {
            assert_ne!(row[3], "-", "checkpoint rows report their Daly interval: {row:?}");
            let tax: f64 = row[6].parse().unwrap();
            assert!(tax > 0.0, "checkpoint tax missing: {row:?}");
            let retention: f64 = row[5].parse().unwrap();
            assert!(retention < 1.0, "checkpoint tax must cost psi: {row:?}");
        }

        // The demo report carries the recovery decomposition.
        let annex = report.robustness.as_ref().expect("annex attached");
        let recovery = annex.recovery.as_ref().expect("recovery breakdown attached");
        assert!(recovery.checkpoint_secs > 0.0);
        let text = format!("{report}");
        assert!(text.contains("recovery overhead"), "report misses recovery line: {text}");
    }

    #[test]
    fn measured_optimum_agrees_with_daly_within_grid_resolution() {
        for check in daly_checks(true) {
            // The R2 acceptance criterion: the measured optimum is within
            // one grid step (a factor of two) of the Daly prediction.
            assert!(
                (0.5..=2.0).contains(&check.measured_multiplier),
                "{}: measured optimum {}x daly ({} s) is more than one grid step from 1x; means {:?}",
                check.kernel,
                check.measured_multiplier,
                check.daly_secs,
                check.mean_makespans,
            );
            // The grid must be non-degenerate: the extremes must both be
            // measurably worse than the optimum, or the campaign is not
            // actually resolving an interior minimum.
            let best = check.mean_makespans.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(check.mean_makespans[0] > best, "{}: left edge not worse", check.kernel);
            assert!(
                check.mean_makespans[DALY_GRID.len() - 1] > best,
                "{}: right edge not worse",
                check.kernel
            );
        }
    }

    #[test]
    fn drop_free_plans_trace_no_retry_span() {
        // The sweep's representative runs go untraced, and their annex
        // reads a retry share of 0 from no spans. That holds only while
        // the sweep's plans have no link drops and a traced run under the
        // same plan, or under one with runtime faults but no drops,
        // records no retry either.
        use hetsim_mpi::trace::OpKind;
        let net = sunwulf::sunwulf_network();
        for kernel in [Kernel::Ge, Kernel::Mm] {
            for (mtbf_factor, policy) in sweep_specs() {
                let system = RecoverableSystem {
                    kernel,
                    mtbf_factor,
                    policy,
                    cluster: kernel.config(8),
                    network: &net,
                };
                let n = kernel.repr_n(true);
                let sweep_plan = system.plan_for(n);
                assert_eq!(sweep_plan.drop_per_mille(), 0);
                for plan in [sweep_plan.clone(), sweep_plan.with_straggler(1, 0.5)] {
                    let traced = timed_recoverable(
                        kernel.recoverable(),
                        &system.cluster,
                        &net,
                        &plan,
                        system.policy_for(n),
                        n,
                        true,
                    );
                    let traces = &traced.timing.traces;
                    let mut spans = traces.iter().flat_map(|t| &t.records).peekable();
                    assert!(spans.peek().is_some(), "the run must trace");
                    assert!(spans.all(|r| r.kind != OpKind::Retry));
                    let annex = RobustnessAnnex::from_comparison(1.0, 1.0, traces, 0.0, vec![]);
                    assert_eq!(annex.retry_overhead_fraction, 0.0);
                }
            }
        }
    }

    #[test]
    fn observed_inputs_fire_recovery_spans() {
        use hetsim_mpi::trace::OpKind;
        let net = sunwulf::sunwulf_network();
        let (cluster, plan, policy, n) = ge_observed_inputs(true);
        let outcome =
            timed_recoverable(RecoverableKernel::Ge, &cluster, &net, &plan, policy, n, true);
        let kinds: Vec<OpKind> =
            outcome.timing.traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Checkpoint), "GE obs run must checkpoint");

        let (cluster, plan, policy, n) = mm_observed_inputs(true);
        let outcome =
            timed_recoverable(RecoverableKernel::Mm, &cluster, &net, &plan, policy, n, true);
        assert!(outcome.death.is_some(), "MM obs run must lose a rank");
        let kinds: Vec<OpKind> =
            outcome.timing.traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Detect));
        assert!(kinds.contains(&OpKind::Rebalance));
    }
}

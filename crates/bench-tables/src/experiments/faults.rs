//! Scalability under faults — the `--faults` experiment family.
//!
//! The paper's ψ assumes every node delivers its marked speed and every
//! message arrives. This sweep asks what remains of ψ when the *scaled*
//! system is faulty: the base configuration runs clean, the scaled
//! configuration runs under a deterministic [`FaultPlan`] of increasing
//! severity (stragglers, lossy links, a dead node). Retention is
//! `ψ_faulted / ψ_fault-free` for the same base→scaled step, so the
//! `none` row, the fault-free reference, retains 1 by construction and
//! checks nothing. The tests that pin a run under an empty plan to the
//! fault-free run bit for bit are the kernels'
//! `faulted_with_empty_plan_is_bit_equal_to_baseline` (GE and MM),
//! `tests/trace_consistency.rs::traced_and_untraced_runs_have_identical_timing`
//! and `tests/failure_injection.rs::fault_free_plan_is_bit_equal_to_baseline_for_any_seed`.
//!
//! Each cell is priced by what its plan changes
//! ([`timed_under_plans`]): the `none` plan, and the `death` plan once it
//! is resolved to the survivors, inject nothing at run time, so they
//! take the closed forms like any fault-free run; the straggler and drop
//! plans replay one recording per size on the fast engine.

use super::Kernel;
use crate::params::ExperimentParams;
use crate::systems::{GeSystem, MmSystem};
use crate::table::{fnum, Table};
use hetpart::repartition_after_deaths;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::sunwulf;
use kernels::recover::timed_under_plans;
use scalability::measure::Measurement;
use scalability::metric::{AlgorithmSystem, EfficiencyCurve, ScalabilityLadder};
use scalability::report::{analyze, RobustnessAnnex, ScalabilityReport};

/// Link-drop probability used by the lossy severities, in per-mille.
/// 2% per logical message: enough to surface retry overhead on every
/// run without pushing the target efficiency out of reach.
pub const DROP_PER_MILLE: u16 = 20;

/// Target speed-efficiency for the GE fault sweep. Lower than the
/// paper's 0.3 so the *degraded* efficiency curves still cross it
/// inside the standard size sweeps (straggler+drops tops out just
/// under 0.3 at the quick sweep's largest rank).
pub const GE_FAULTS_TARGET: f64 = 0.25;

/// Straggler speed multiplier: affected ranks run at half speed.
pub const STRAGGLER_MULTIPLIER: f64 = 0.5;

/// The fault severities swept, in escalating order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Empty plan: the fault-free reference, retaining ψ exactly by
    /// construction.
    None,
    /// Every rank `r ≡ 1 (mod 4)` runs at half speed from t = 0.
    Straggler,
    /// Every link drops 2% of logical messages (seeded schedule).
    Drops,
    /// Stragglers and drops combined.
    StragglerDrops,
    /// The last rank is dead at t = 0; survivors repartition and run
    /// with honestly reduced marked speed `C'`.
    Death,
}

impl Severity {
    /// All severities, in table order.
    pub const ALL: [Severity; 5] = [
        Severity::None,
        Severity::Straggler,
        Severity::Drops,
        Severity::StragglerDrops,
        Severity::Death,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Severity::None => "none",
            Severity::Straggler => "straggler",
            Severity::Drops => "drops",
            Severity::StragglerDrops => "straggler+drops",
            Severity::Death => "death",
        }
    }

    /// Builds the fault plan for a `p`-rank scaled configuration. The
    /// seed derives from the process-wide base (`--seed N`, default the
    /// historical `0x5eed_0000` — `crate::seed`).
    pub fn plan(self, p: usize) -> FaultPlan {
        let seed = crate::seed::plan_seed_plus(p as u64);
        let stragglers = |mut plan: FaultPlan| {
            for r in (0..p).filter(|r| r % 4 == 1) {
                plan = plan.with_straggler(r, STRAGGLER_MULTIPLIER);
            }
            plan
        };
        match self {
            Severity::None => FaultPlan::new(seed),
            Severity::Straggler => stragglers(FaultPlan::new(seed)),
            Severity::Drops => FaultPlan::new(seed).with_link_drops(DROP_PER_MILLE),
            Severity::StragglerDrops => {
                stragglers(FaultPlan::new(seed).with_link_drops(DROP_PER_MILLE))
            }
            Severity::Death => FaultPlan::new(seed).with_death(p - 1),
        }
    }
}

/// A kernel bound to a (possibly death-reduced) cluster under a fault
/// plan with deaths already resolved.
struct FaultedSystem<'a, N: NetworkModel> {
    kernel: Kernel,
    severity: Severity,
    cluster: ClusterSpec,
    network: &'a N,
    plan: FaultPlan,
}

impl<'a, N: NetworkModel> FaultedSystem<'a, N> {
    /// Binds `kernel` on the `p`-rank scaled configuration under
    /// `severity`, resolving declared deaths into the surviving cluster.
    fn new(kernel: Kernel, severity: Severity, p: usize, network: &'a N) -> Self {
        let cluster = kernel.config(p);
        let plan = severity.plan(p);
        let (cluster, plan) = if plan.deaths().is_empty() {
            (cluster, plan)
        } else {
            let survivors = plan.surviving_cluster(&cluster).expect("not all nodes die");
            (survivors, plan.for_survivors(p))
        };
        FaultedSystem { kernel, severity, cluster, network, plan }
    }
}

impl<N: NetworkModel> AlgorithmSystem for FaultedSystem<'_, N> {
    fn label(&self) -> String {
        format!("{}+{} on {}", self.kernel.name(), self.severity.label(), self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        self.kernel.work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        let kernel = self.kernel.recoverable();
        let plans = [&self.plan];
        timed_under_plans(kernel, &self.cluster, self.network, n, &plans, false)[0]
            .makespan
            .as_secs()
    }
}

/// One measured row of the fault sweep.
struct SweepRow {
    kernel: Kernel,
    severity: Severity,
    psi: f64,
    annex: RobustnessAnnex,
    ladder: ScalabilityLadder,
}

/// Measures every severity of `kernel` against one base curve. Sizes
/// run outer and plans inner: per size, one [`timed_under_plans`] call
/// prices the four severities on the scaled rung (the faulted ones share
/// one recording) and one prices `death` on its survivors, so at most
/// one recording is alive at a time. Only link drops record the `Retry`
/// spans the annex reads, so only the drop plans run traced, in one call
/// at `repr_n`; every other row reads a retry share of 0 from no spans
/// (`drop_free_plans_trace_no_retry_span`).
fn measure_kernel<N: NetworkModel>(
    kernel: Kernel,
    params: &ExperimentParams,
    net: &N,
    p_base: usize,
    p_scaled: usize,
    repr_n: usize,
) -> Vec<SweepRow> {
    let (target, sizes): (f64, &[usize]) = match kernel {
        Kernel::Ge => (GE_FAULTS_TARGET, &params.ge_sizes),
        Kernel::Mm => (params.mm_target, &params.mm_sizes),
    };
    let base_cluster = kernel.config(p_base);
    let base_ge = GeSystem { cluster: &base_cluster, network: net };
    let base_mm = MmSystem { cluster: &base_cluster, network: net };
    let base: &dyn AlgorithmSystem = match kernel {
        Kernel::Ge => &base_ge,
        Kernel::Mm => &base_mm,
    };
    let base_curve = EfficiencyCurve::measure(base, sizes);

    let systems: Vec<FaultedSystem<N>> =
        Severity::ALL.iter().map(|&s| FaultedSystem::new(kernel, s, p_scaled, net)).collect();
    let price = |group: &[&FaultedSystem<N>], n: usize, trace: bool| {
        let cluster = &group[0].cluster;
        debug_assert!(group.iter().all(|s| s.cluster == *cluster), "one call prices one cluster");
        let plans: Vec<&FaultPlan> = group.iter().map(|s| &s.plan).collect();
        timed_under_plans(kernel.recoverable(), cluster, net, n, &plans, trace)
    };
    let groups: Vec<Vec<&FaultedSystem<N>>> =
        systems.chunk_by(|a, b| a.cluster == b.cluster).map(|g| g.iter().collect()).collect();

    let mut measurements = vec![Vec::with_capacity(sizes.len()); systems.len()];
    for &n in sizes {
        let outcomes = groups.iter().flat_map(|group| price(group, n, false));
        for ((system, measured), outcome) in systems.iter().zip(&mut measurements).zip(outcomes) {
            measured.push(Measurement {
                n,
                work_flops: system.work(n),
                time_secs: outcome.makespan.as_secs(),
                marked_speed_flops: system.marked_speed_flops(),
            });
        }
    }

    let lossy: Vec<&FaultedSystem<N>> =
        systems.iter().filter(|s| s.plan.drop_per_mille() > 0).collect();
    let mut lossy_traces = price(&lossy, repr_n, true).into_iter().map(|outcome| outcome.traces);

    let mut rows = Vec::new();
    let mut psi_baseline = f64::NAN;
    for (system, measured) in systems.iter().zip(measurements) {
        let curve = EfficiencyCurve::from_measurements(system.label(), measured);
        let ladder = ScalabilityLadder::from_curves(
            &[base, system],
            &[base_curve.clone(), curve],
            target,
            params.fit_degree,
        )
        .expect("fault sweep rung reaches the target efficiency");
        let psi = ladder.steps[0].psi;
        let severity = system.severity;
        if severity == Severity::None {
            psi_baseline = psi;
        }
        let traces = if system.plan.drop_per_mille() > 0 {
            lossy_traces.next().expect("one traced run per lossy plan")
        } else {
            Vec::new()
        };
        let dead: Vec<usize> = severity.plan(p_scaled).deaths().iter().copied().collect();
        let repartition_cost_secs = if dead.is_empty() {
            0.0
        } else {
            let speeds = kernel.config(p_scaled).speeds_flops();
            let row_bytes = 8 * (repr_n + 1) as u64;
            let moved = repartition_after_deaths(repr_n, &speeds, &dead, row_bytes);
            // Priced as one bulk survivor-to-survivor transfer.
            net.p2p_time_between(0, 1, moved.moved_bytes)
        };
        let annex = RobustnessAnnex::from_comparison(
            psi_baseline,
            psi,
            &traces,
            repartition_cost_secs,
            dead,
        );
        rows.push(SweepRow { kernel, severity, psi, annex, ladder });
    }
    rows
}

/// Runs the fault sweep and returns the scalability-under-faults table
/// plus a demo report (the GE straggler+drops step with its
/// [`RobustnessAnnex`] attached).
pub fn scalability_under_faults(
    params: &ExperimentParams,
    quick: bool,
) -> (Table, ScalabilityReport) {
    let net = sunwulf::sunwulf_network();
    let (p_base, p_scaled) = if quick { (4, 8) } else { (8, 16) };
    let (ge_repr, mm_repr) = if quick { (192, 128) } else { (384, 256) };

    let ge_rows = measure_kernel(Kernel::Ge, params, &net, p_base, p_scaled, ge_repr);
    let mm_rows = measure_kernel(Kernel::Mm, params, &net, p_base, p_scaled, mm_repr);

    let mut table = Table::new(
        format!("Faults — scalability under injected faults ({p_base} -> {p_scaled} nodes)"),
        &["Kernel", "Severity", "psi", "psi retention", "Retry share", "Repartition (s)"],
    );
    for row in ge_rows.iter().chain(&mm_rows) {
        table.push_row(vec![
            row.kernel.name().to_string(),
            row.severity.label().to_string(),
            fnum(row.psi),
            fnum(row.annex.psi_retention),
            format!("{:.1}%", row.annex.retry_overhead_fraction * 100.0),
            if row.annex.dead_ranks.is_empty() {
                "-".to_string()
            } else {
                format!("{:.5}", row.annex.repartition_cost_secs)
            },
        ]);
    }
    table.push_note(format!(
        "stragglers: ranks r = 1 mod 4 at {STRAGGLER_MULTIPLIER}x speed; drops: \
         {DROP_PER_MILLE} per mille per logical message; death: last rank dead at t = 0 \
         (survivors repartitioned, C' honestly reduced)"
    ));
    table.push_note(
        "severity none is the fault-free reference, so its retention is 1 by construction; \
         none and death (on its survivors) inject no runtime fault and price as fault-free runs",
    );

    // Demo report: the straggler+drops GE step, annex attached.
    let demo_row = &ge_rows[3];
    debug_assert_eq!(demo_row.severity, Severity::StragglerDrops);
    let report = analyze(&demo_row.ladder).with_robustness(demo_row.annex.clone());
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_mpi::RunSpec;
    use kernels::ge::{ge_parallel_timed, TimingOutcome};
    use kernels::mm::mm_parallel_timed;

    #[test]
    fn fault_sweep_shape_and_retention() {
        let params = ExperimentParams::quick();
        let (table, report) = scalability_under_faults(&params, true);
        // 2 kernels x 5 severities.
        assert_eq!(table.rows.len(), 10);

        let retention = |row: &[String]| row[3].parse::<f64>().unwrap();
        for row in &table.rows {
            let r = retention(row);
            match row[1].as_str() {
                // The fault-free reference: retention is ψ_none / ψ_none,
                // 1 by construction. It checks the table's layout, not
                // the fault path; the empty-plan tests named in the
                // module docs check that.
                "none" => assert_eq!(r, 1.0, "{row:?}"),
                "straggler" | "drops" | "straggler+drops" => {
                    assert!(r < 1.0, "severity {} must lose scalability: {row:?}", row[1]);
                    assert!(r > 0.0, "{row:?}");
                }
                "death" => {
                    assert!(r.is_finite() && r > 0.0, "{row:?}");
                    // Dead node: repartition cost is reported.
                    assert_ne!(row[5], "-", "{row:?}");
                }
                other => panic!("unexpected severity {other}"),
            }
        }
        // Drops surface retry overhead in the annex column.
        let drops_rows: Vec<_> = table.rows.iter().filter(|r| r[1].contains("drops")).collect();
        assert!(drops_rows.iter().any(|r| r[4] != "0.0%"), "{drops_rows:?}");

        // The demo report carries the robustness annex.
        let annex = report.robustness.as_ref().expect("annex attached");
        assert!(annex.psi_retention < 1.0);
        let text = format!("{report}");
        assert!(text.contains("under faults"));
    }

    #[test]
    fn severity_plans_are_deterministic_and_distinct() {
        for severity in Severity::ALL {
            assert_eq!(severity.plan(8), severity.plan(8));
        }
        assert!(Severity::None.plan(8).is_empty());
        assert!(!Severity::Straggler.plan(8).is_empty());
        assert_eq!(Severity::Drops.plan(8).drop_per_mille(), DROP_PER_MILLE);
        assert_eq!(Severity::Death.plan(8).deaths().iter().copied().collect::<Vec<_>>(), vec![7]);
    }

    /// The kernel's plain timed run under `system`'s plan alone: the
    /// reference every shared-replay outcome must equal.
    fn alone(
        system: &FaultedSystem<'_, impl NetworkModel>,
        n: usize,
        trace: bool,
    ) -> TimingOutcome {
        let spec = RunSpec { trace, faults: Some(&system.plan) };
        match system.kernel {
            Kernel::Ge => ge_parallel_timed(&system.cluster, system.network, n, spec),
            Kernel::Mm => mm_parallel_timed(&system.cluster, system.network, n, spec),
        }
    }

    #[test]
    fn shared_replay_matches_each_plan_alone() {
        // Every resolved severity plan at every quick size, traced and
        // untraced: pricing the plans of one cluster in one call (the
        // faulted ones replaying one recording, the rest on the closed
        // forms when untraced) gives each plan's own timed run, bit for
        // bit, traces included.
        let params = ExperimentParams::quick();
        let net = sunwulf::sunwulf_network();
        for (kernel, sizes) in [(Kernel::Ge, &params.ge_sizes), (Kernel::Mm, &params.mm_sizes)] {
            let systems: Vec<FaultedSystem<_>> =
                Severity::ALL.iter().map(|&s| FaultedSystem::new(kernel, s, 8, &net)).collect();
            for group in systems.chunk_by(|a, b| a.cluster == b.cluster) {
                let plans: Vec<&FaultPlan> = group.iter().map(|s| &s.plan).collect();
                for &n in sizes {
                    for trace in [false, true] {
                        let shared = timed_under_plans(
                            kernel.recoverable(),
                            &group[0].cluster,
                            &net,
                            n,
                            &plans,
                            trace,
                        );
                        assert_eq!(shared.len(), group.len());
                        for (system, outcome) in group.iter().zip(&shared) {
                            assert_eq!(
                                *outcome,
                                alone(system, n, trace),
                                "{} n={n} trace={trace}",
                                system.label()
                            );
                            if !trace {
                                assert_eq!(system.execute(n), outcome.makespan.as_secs());
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn drop_free_plans_trace_no_retry_span() {
        // The sweep traces its representative runs only under the drop
        // plans, and the other rows read a retry share of 0 from no
        // spans. That holds only while a traced run under each resolved
        // drop-free plan records no `Retry` span either.
        use hetsim_mpi::trace::OpKind;
        let net = sunwulf::sunwulf_network();
        for (kernel, repr_n) in [(Kernel::Ge, 192), (Kernel::Mm, 128)] {
            for severity in [Severity::None, Severity::Straggler, Severity::Death] {
                let system = FaultedSystem::new(kernel, severity, 8, &net);
                assert_eq!(system.plan.drop_per_mille(), 0);
                let traced = alone(&system, repr_n, true);
                assert_eq!(traced.traces.len(), system.cluster.size());
                let retries = traced.traces.iter().flat_map(|t| &t.records);
                let retries = retries.filter(|span| span.kind == OpKind::Retry).count();
                assert_eq!(retries, 0, "{}", system.label());
            }
        }
    }
}

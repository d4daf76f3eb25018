//! Scalability under faults — the `--faults` experiment family.
//!
//! The paper's ψ assumes every node delivers its marked speed and every
//! message arrives. This sweep asks what remains of ψ when the *scaled*
//! system is faulty: the base configuration runs clean, the scaled
//! configuration runs under a deterministic [`FaultPlan`] of increasing
//! severity (stragglers, lossy links, a dead node). Retention is
//! `ψ_faulted / ψ_fault-free` for the same base→scaled step; the empty
//! plan retains exactly 1 because the faulted runtime path is
//! bit-identical to the baseline without a plan.

use super::Kernel;
use crate::params::ExperimentParams;
use crate::systems::{GeSystem, MmSystem};
use crate::table::{fnum, Table};
use hetpart::repartition_after_deaths;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::sunwulf;
use hetsim_mpi::RunSpec;
use kernels::ge::ge_parallel_timed;
use kernels::mm::mm_parallel_timed;
use scalability::metric::{AlgorithmSystem, ScalabilityLadder};
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
    /// Empty plan: must retain ψ exactly (bit-equal runtime path).
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
        let spec = RunSpec { trace: false, faults: Some(&self.plan) };
        match self.kernel {
            Kernel::Ge => {
                crate::memo::cached("ge", &self.cluster, self.network, n, Some(&self.plan), || {
                    ge_parallel_timed(&self.cluster, self.network, n, spec).makespan
                })
                .as_secs()
            }
            Kernel::Mm => {
                crate::memo::cached("mm", &self.cluster, self.network, n, Some(&self.plan), || {
                    mm_parallel_timed(&self.cluster, self.network, n, spec).makespan
                })
                .as_secs()
            }
        }
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
    let measure_step = |scaled: &dyn AlgorithmSystem| -> ScalabilityLadder {
        let base: &dyn AlgorithmSystem = match kernel {
            Kernel::Ge => &base_ge,
            Kernel::Mm => &base_mm,
        };
        ScalabilityLadder::measure(&[base, scaled], target, sizes, params.fit_degree)
            .expect("fault sweep rung reaches the target efficiency")
    };

    let mut rows = Vec::new();
    let mut psi_baseline = f64::NAN;
    for severity in Severity::ALL {
        let faulted = FaultedSystem::new(kernel, severity, p_scaled, net);
        let ladder = measure_step(&faulted);
        let psi = ladder.steps[0].psi;
        if severity == Severity::None {
            psi_baseline = psi;
        }
        // Representative traced run at a fixed size: retry fraction and
        // (for deaths) the survivor repartition.
        let traced = RunSpec { trace: true, faults: Some(&faulted.plan) };
        let traces = match kernel {
            Kernel::Ge => ge_parallel_timed(&faulted.cluster, net, repr_n, traced).traces,
            Kernel::Mm => mm_parallel_timed(&faulted.cluster, net, repr_n, traced).traces,
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
        "severity none uses the faulted runtime with an empty plan: retention 1 certifies \
         the fault path is bit-identical to the baseline",
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
                // Empty plan: the faulted path is bit-identical, so
                // retention is exactly 1.
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
}

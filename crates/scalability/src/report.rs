//! Human-readable scalability reports: one call turns a measured
//! [`ScalabilityLadder`] into the full story — ψ per step, the
//! execution-time cost of holding efficiency, the fixed-time work
//! budget, and a classification — the summary a capacity planner would
//! actually read.

use crate::execution_time::{
    classify, execution_time_ratio, fixed_time_work_budget, TimeBehaviour,
};
use crate::metric::ScalabilityLadder;
use hetsim_cluster::faults::RecoveryOverhead;
use hetsim_mpi::trace::{OpKind, OverheadBreakdown, RankTrace};
use std::fmt;

/// One analyzed ladder step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepAnalysis {
    /// Step label, e.g. `"sunwulf-ge-2 -> sunwulf-ge-4"`.
    pub step: String,
    /// The scalability ψ(C, C').
    pub psi: f64,
    /// Execution-time growth `T'/T = 1/ψ` under iso-efficiency scaling.
    pub time_ratio: f64,
    /// The largest work runnable on the scaled system within the *base*
    /// execution time at the base efficiency.
    pub fixed_time_work_budget: f64,
    /// The work the iso-efficiency condition actually demands.
    pub required_work: f64,
    /// Qualitative classification.
    pub behaviour: TimeBehaviour,
}

/// The report's one-line reading of a [`TimeBehaviour`].
fn verdict(behaviour: TimeBehaviour) -> &'static str {
    match behaviour {
        TimeBehaviour::Shrinking => "super-scalable (scaled runs get faster)",
        TimeBehaviour::Constant => "perfectly scalable (constant execution time)",
        TimeBehaviour::Growing => "scalable with growing execution time",
    }
}

/// How a faulted run compares to its fault-free baseline — the
/// robustness annex printed next to the ψ table. ψ retention is the
/// headline: the fraction of fault-free scalability the system keeps
/// under the injected fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessAnnex {
    /// `ψ_faulted / ψ_baseline` (geometric means): 1 means the faults
    /// cost no scalability, < 1 quantifies the loss.
    pub psi_retention: f64,
    /// Fraction of total traced time spent in [`OpKind::Retry`] spans —
    /// the lossy-link share of Theorem 1's `T_o`.
    pub retry_overhead_fraction: f64,
    /// Virtual-time cost of redistributing data to the survivors after
    /// declared node deaths (0 when nobody died).
    pub repartition_cost_secs: f64,
    /// Original rank ids declared dead by the fault plan, ascending.
    pub dead_ranks: Vec<usize>,
    /// Mid-run recovery overhead decomposition, present when the run
    /// recovered from an MTBF-sampled death (DESIGN.md §12).
    pub recovery: Option<RecoveryOverhead>,
}

impl RobustnessAnnex {
    /// Builds the annex from the two geometric-mean ψ values, the
    /// faulted run's traces (for the retry fraction), and the death
    /// outcome.
    pub fn from_comparison(
        psi_baseline: f64,
        psi_faulted: f64,
        traces: &[RankTrace],
        repartition_cost_secs: f64,
        dead_ranks: Vec<usize>,
    ) -> RobustnessAnnex {
        let breakdown = OverheadBreakdown::from_traces(traces);
        RobustnessAnnex {
            psi_retention: if psi_baseline == 0.0 { 0.0 } else { psi_faulted / psi_baseline },
            retry_overhead_fraction: breakdown.fraction(OpKind::Retry),
            repartition_cost_secs,
            dead_ranks,
            recovery: None,
        }
    }

    /// Attaches a mid-run recovery overhead decomposition.
    pub fn with_recovery(mut self, recovery: RecoveryOverhead) -> RobustnessAnnex {
        self.recovery = Some(recovery);
        self
    }
}

impl fmt::Display for RobustnessAnnex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  under faults: psi retention = {:.3}   retry share of time = {:.1}%",
            self.psi_retention,
            self.retry_overhead_fraction * 100.0
        )?;
        if self.dead_ranks.is_empty() {
            writeln!(f)?;
        } else {
            writeln!(
                f,
                "   dead ranks {:?} repartitioned in {:.4}s",
                self.dead_ranks, self.repartition_cost_secs
            )?;
        }
        if let Some(recovery) = &self.recovery {
            writeln!(f, "  {recovery}")?;
        }
        Ok(())
    }
}

/// The full analysis of one measured ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityReport {
    /// The efficiency everything was held to.
    pub target_efficiency: f64,
    /// Per-step analyses, in ladder order.
    pub steps: Vec<StepAnalysis>,
    /// Geometric-mean ψ across the ladder.
    pub geometric_mean_psi: f64,
    /// Optional faulted-vs-baseline comparison (see
    /// [`ScalabilityReport::with_robustness`]).
    pub robustness: Option<RobustnessAnnex>,
}

impl ScalabilityReport {
    /// Attaches a robustness annex comparing this (faulted) ladder to a
    /// fault-free baseline.
    pub fn with_robustness(mut self, annex: RobustnessAnnex) -> ScalabilityReport {
        self.robustness = Some(annex);
        self
    }
}

/// Relative tolerance around ψ = 1 treated as "constant time".
pub const CONSTANT_TOLERANCE: f64 = 0.05;

/// Analyzes a measured ladder.
pub fn analyze(ladder: &ScalabilityLadder) -> ScalabilityReport {
    let steps = ladder
        .steps
        .iter()
        .map(|s| {
            let (budget, required) = fixed_time_work_budget(s.w, s.c, s.c_prime, s.psi);
            StepAnalysis {
                step: format!("{} -> {}", s.from, s.to),
                psi: s.psi,
                time_ratio: execution_time_ratio(s.psi),
                fixed_time_work_budget: budget,
                required_work: required,
                behaviour: classify(s.psi, CONSTANT_TOLERANCE),
            }
        })
        .collect();
    ScalabilityReport {
        target_efficiency: ladder.target_efficiency,
        steps,
        geometric_mean_psi: ladder.geometric_mean_psi(),
        robustness: None,
    }
}

impl fmt::Display for ScalabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scalability report (speed-efficiency held at {:.2})", self.target_efficiency)?;
        for s in &self.steps {
            writeln!(f, "  {}", s.step)?;
            writeln!(
                f,
                "    psi = {:.4}   T'/T = {:.2}x   {}",
                s.psi,
                s.time_ratio,
                verdict(s.behaviour)
            )?;
            writeln!(
                f,
                "    fixed-time budget {:.3e} flop vs required {:.3e} flop ({})",
                s.fixed_time_work_budget,
                s.required_work,
                if s.required_work <= s.fixed_time_work_budget { "fits" } else { "exceeds" }
            )?;
        }
        writeln!(f, "  geometric mean psi = {:.4}", self.geometric_mean_psi)?;
        if let Some(annex) = &self.robustness {
            write!(f, "{annex}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::LadderStep;

    fn ladder_with(psis: &[f64]) -> ScalabilityLadder {
        let steps = psis
            .iter()
            .enumerate()
            .map(|(i, &psi)| {
                let c = 1e8 * (1 << i) as f64;
                let c2 = 2.0 * c;
                let w = 1e9;
                // ψ = C'W/(CW') ⇒ W' = (C'/C)·W/ψ.
                let w2 = (c2 / c) * w / psi;
                LadderStep {
                    from: format!("sys-{i}"),
                    to: format!("sys-{}", i + 1),
                    c,
                    c_prime: c2,
                    n: 100,
                    n_prime: 150,
                    w,
                    w_prime: w2,
                    psi,
                }
            })
            .collect();
        ScalabilityLadder { target_efficiency: 0.3, required: Vec::new(), steps }
    }

    #[test]
    fn analysis_computes_consistent_ratios() {
        let report = analyze(&ladder_with(&[0.5, 1.0, 1.25]));
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.steps[0].time_ratio, 2.0);
        assert_eq!(report.steps[0].behaviour, TimeBehaviour::Growing);
        assert_eq!(report.steps[1].behaviour, TimeBehaviour::Constant);
        assert_eq!(report.steps[2].behaviour, TimeBehaviour::Shrinking);
    }

    #[test]
    fn budget_fits_exactly_at_psi_one() {
        let report = analyze(&ladder_with(&[1.0]));
        let s = &report.steps[0];
        assert!((s.fixed_time_work_budget - s.required_work).abs() < 1e-6);
    }

    #[test]
    fn display_reads_like_a_report() {
        let report = analyze(&ladder_with(&[0.4]));
        let text = format!("{report}");
        assert!(text.contains("scalability report"));
        assert!(text.contains("psi = 0.4000"));
        assert!(text.contains("T'/T = 2.50x"));
        assert!(text.contains("exceeds"));
        assert!(text.contains("geometric mean"));
    }

    #[test]
    fn geometric_mean_carries_over() {
        let report = analyze(&ladder_with(&[0.25, 1.0]));
        assert!((report.geometric_mean_psi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn robustness_annex_reports_retention_and_retries() {
        use hetsim_cluster::cluster::ClusterSpec;
        use hetsim_cluster::faults::FaultPlan;
        use hetsim_cluster::network::SharedEthernet;
        use hetsim_mpi::Tag;
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let net = SharedEthernet::new(1e-3, 1e6);
        let plan = FaultPlan::new(11).with_link_drops(500);
        let traces = hetsim_mpi::run_spmd(
            &cluster,
            &net,
            hetsim_mpi::RunSpec { trace: true, faults: Some(&plan) },
            |rank| {
                for i in 0..16 {
                    if rank.rank() == 0 {
                        rank.send_f64s(1, Tag(i), &[1.0]);
                    } else {
                        let _ = rank.recv_f64s(0, Tag(i));
                    }
                    rank.barrier();
                }
            },
        )
        .traces;
        let annex = RobustnessAnnex::from_comparison(0.8, 0.6, &traces, 0.0, vec![]);
        assert!((annex.psi_retention - 0.75).abs() < 1e-12);
        assert!(annex.retry_overhead_fraction > 0.0, "50% drops must surface retries");
        assert!(annex.retry_overhead_fraction < 1.0);
        let text = format!("{annex}");
        assert!(text.contains("psi retention = 0.750"));
        assert!(!text.contains("dead ranks"));

        let with_deaths = RobustnessAnnex::from_comparison(0.8, 0.4, &traces, 0.25, vec![1, 3]);
        let text = format!("{with_deaths}");
        assert!(text.contains("dead ranks [1, 3]"));
        assert!(text.contains("0.2500s"));
    }

    #[test]
    fn report_display_includes_robustness_when_attached() {
        let annex = RobustnessAnnex {
            psi_retention: 0.9,
            retry_overhead_fraction: 0.05,
            repartition_cost_secs: 0.0,
            dead_ranks: vec![],
            recovery: None,
        };
        let report = analyze(&ladder_with(&[0.5])).with_robustness(annex);
        let text = format!("{report}");
        assert!(text.contains("under faults"));
        let bare = format!("{}", analyze(&ladder_with(&[0.5])));
        assert!(!bare.contains("under faults"));
    }

    #[test]
    fn recovery_breakdown_prints_and_serializes_only_when_present() {
        let annex = RobustnessAnnex {
            psi_retention: 0.9,
            retry_overhead_fraction: 0.0,
            repartition_cost_secs: 0.0,
            dead_ranks: vec![2],
            recovery: None,
        };
        // Absent: no recovery line.
        let text = format!("{annex}");
        assert!(!text.contains("recovery overhead"));

        let with = annex.clone().with_recovery(RecoveryOverhead {
            checkpoint_secs: 0.5,
            detect_secs: 0.1,
            lost_work_secs: 0.25,
            rebalance_secs: 0.15,
        });
        let recovery = with.recovery.unwrap();
        assert!((recovery.total_secs() - 1.0).abs() < 1e-12);
        let text = format!("{with}");
        assert!(text.contains("recovery overhead 1.0000s"));
        assert!(text.contains("checkpoint 0.5000s"));
        assert!(text.contains("lost work 0.2500s"));
        assert!(text.contains("rebalance 0.1500s"));
    }
}

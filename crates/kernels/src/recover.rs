//! Mid-run failure recovery scaffolding shared by the recoverable
//! kernel variants (DESIGN.md §12).
//!
//! The plan's MTBF stream yields seeded per-rank death *times*; the
//! kernel drivers here map the earliest one onto an **iteration index**
//! through a pure work-proportional progress estimate
//! ([`death_iteration`]) — never through simulated clocks. That keeps
//! recorded op streams clock-independent (a body may not consult the
//! virtual clock mid-run), so the threaded oracle, the event-driven
//! scheduler, and every `--jobs` worker price the identical program and
//! the recovery sweep stays byte-stable. The same estimated clock
//! converts a checkpoint *interval* into an iteration stride
//! ([`checkpoint_stride`]).

use crate::ge::TimingOutcome;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{run_spmd_fast, RecordTimer, RunSpec, SpmdOutcome};

/// The plan's earliest sampled death, resolved onto the driver's
/// iteration axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeathEvent {
    /// The rank whose exponential draw fires first (ties break low).
    pub rank: usize,
    /// The sampled death time on the MTBF stream's clock.
    pub time: SimTime,
    /// The kernel iteration the death interrupts, on the
    /// work-proportional progress estimate.
    pub iteration: usize,
}

/// Recovery overhead decomposition, summed over ranks in virtual
/// seconds — the same quantities the runtime charges as `Checkpoint`,
/// `Detect`, `LostWork`, and `Rebalance` spans, recomputed in closed
/// form by the drivers for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryOverhead {
    /// Checkpoint I/O tax: every coordinated checkpoint, every rank.
    pub checkpoint_secs: f64,
    /// Failure-detector timeouts charged when a death fires.
    pub detect_secs: f64,
    /// Work rolled back and replayed (checkpoint/restart) or recomputed
    /// for the dead rank (shrink-rebalance).
    pub lost_work_secs: f64,
    /// Repartition traffic absorbed by the survivors.
    pub rebalance_secs: f64,
}

impl RecoveryOverhead {
    /// Sum of all four components.
    pub fn total_secs(&self) -> f64 {
        self.checkpoint_secs + self.detect_secs + self.lost_work_secs + self.rebalance_secs
    }
}

/// Outcome of one recoverable timed-kernel run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Virtual timings, recovery charges included.
    pub timing: TimingOutcome,
    /// Closed-form recovery overhead decomposition.
    pub overhead: RecoveryOverhead,
    /// The death the run recovered from, if the MTBF stream fired one
    /// inside the estimated run.
    pub death: Option<DeathEvent>,
}

/// Work-proportional runtime estimate: `total_flops` over the cluster's
/// aggregate marked speed. This is the *progress clock* recovery
/// schedules are expressed on — deliberately not the simulated clock,
/// which a recorded body may not consult.
pub fn estimated_run_secs(cluster: &ClusterSpec, total_flops: f64) -> f64 {
    let total_speed: f64 = cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).sum();
    total_flops / total_speed
}

/// Resolves the plan's earliest sampled death onto an iteration index
/// of a kernel with `iters` uniform-progress iterations and
/// `total_flops` aggregate work. `None` when the plan has no MTBF
/// stream, the kernel has no iterations, or the draw lands past the
/// estimated completion (the run finishes first).
pub fn death_iteration(
    plan: &FaultPlan,
    cluster: &ClusterSpec,
    iters: usize,
    total_flops: f64,
) -> Option<DeathEvent> {
    if iters == 0 {
        return None;
    }
    let (rank, time) = plan.first_sampled_death(cluster.size())?;
    let frac = time.as_secs() / estimated_run_secs(cluster, total_flops);
    if frac >= 1.0 {
        return None;
    }
    let iteration = ((frac * iters as f64) as usize).min(iters - 1);
    Some(DeathEvent { rank, time, iteration })
}

/// Converts a checkpoint interval in virtual seconds into an iteration
/// stride on the same work-proportional progress clock; at least 1.
///
/// # Panics
/// Panics unless `interval_secs` is finite and `> 0`.
pub fn checkpoint_stride(
    interval_secs: f64,
    cluster: &ClusterSpec,
    iters: usize,
    total_flops: f64,
) -> usize {
    assert!(
        interval_secs.is_finite() && interval_secs > 0.0,
        "checkpoint interval must be finite and > 0"
    );
    if iters == 0 {
        return 1;
    }
    let per_iter = estimated_run_secs(cluster, total_flops) / iters as f64;
    ((interval_secs / per_iter) as usize).max(1)
}

/// Speed-proportional shares of `lost_flops` across the survivors:
/// each survivor replays its share at its own speed, so the replay
/// finishes simultaneously everywhere.
pub(crate) fn survivor_shares(lost_flops: f64, survivor_speeds: &[f64]) -> Vec<f64> {
    let total: f64 = survivor_speeds.iter().sum();
    survivor_speeds.iter().map(|&s| lost_flops * s / total).collect()
}

/// Whether `plan` injects anything the *runtime* must price per-op
/// (degradation windows or lossy links). An MTBF stream alone does not
/// count: it is resolved by the driver, so pure checkpoint/restart runs
/// take the plain fast path — where the lockstep analyzer sees the
/// recovery ops and records its typed `recovery-ops` fallback.
pub(crate) fn runtime_faults_active(plan: &FaultPlan, p: usize) -> bool {
    plan.drop_per_mille() > 0 || (0..p).any(|r| plan.windows_for(r).is_some())
}

/// Runs `body` on the fast engine, attaching `plan` to the run only when
/// it carries runtime faults (see [`runtime_faults_active`]).
pub(crate) fn run_recoverable<N, F>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    trace: bool,
    body: F,
) -> SpmdOutcome<()>
where
    N: NetworkModel,
    F: Fn(&mut RecordTimer),
{
    let faults = runtime_faults_active(plan, cluster.size()).then_some(plan);
    run_spmd_fast(cluster, network, RunSpec { trace, faults }, body)
}

/// Composes a shrink-rebalance run's two segments into one
/// [`TimingOutcome`]: survivors resume from the segment-A makespan (the
/// whole machine rendezvouses at the death boundary), the dead rank
/// stops at its segment-A clock, and overhead is the sum of both
/// segments' communication time. Traced segments merge into one trace
/// per rank, segment-B spans offset by the segment-A makespan so the
/// composed timeline is monotone per rank.
pub(crate) fn compose_segments(
    a: SpmdOutcome<()>,
    b: SpmdOutcome<()>,
    survivors: &[usize],
) -> TimingOutcome {
    let shift = a.makespan();
    let total_overhead = a.total_overhead() + b.total_overhead();
    let mut times = a.times;
    let mut compute_times = a.compute_times;
    let mut traces = a.traces;
    for (b_idx, &orig) in survivors.iter().enumerate() {
        times[orig] = shift + b.times[b_idx];
        compute_times[orig] += b.compute_times[b_idx];
        if let Some(b_trace) = b.traces.get(b_idx) {
            for rec in &b_trace.records {
                let mut shifted = *rec;
                shifted.start += shift;
                shifted.end += shift;
                traces[orig].records.push(shifted);
            }
        }
    }
    TimingOutcome { makespan: shift + b.makespan(), total_overhead, times, compute_times, traces }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                hetsim_cluster::NodeSpec::synthetic("a", 90.0),
                hetsim_cluster::NodeSpec::synthetic("b", 50.0),
                hetsim_cluster::NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn death_iteration_is_deterministic_and_inside_the_run() {
        let cluster = het3();
        let plan = FaultPlan::new(42).with_mtbf(10.0);
        let a = death_iteration(&plan, &cluster, 100, 2.5e9);
        let b = death_iteration(&plan, &cluster, 100, 2.5e9);
        assert_eq!(a, b);
        if let Some(ev) = a {
            assert!(ev.rank < 3);
            assert!(ev.iteration < 100);
        }
    }

    #[test]
    fn long_mtbf_outlives_a_short_run() {
        let cluster = het3();
        // Estimated run ~0.004s, MTBF 1e9s: the draw cannot land inside.
        let plan = FaultPlan::new(1).with_mtbf(1e9);
        assert_eq!(death_iteration(&plan, &cluster, 50, 1e6), None);
    }

    #[test]
    fn no_mtbf_means_no_death() {
        let cluster = het3();
        let plan = FaultPlan::new(7);
        assert_eq!(death_iteration(&plan, &cluster, 50, 1e9), None);
    }

    #[test]
    fn stride_tracks_the_interval() {
        let cluster = het3();
        // 250 MFLOPS aggregate → 1e9 flops ≈ 4 s; 100 iterations ≈
        // 0.04 s each; a 0.4 s interval is a stride of 10.
        assert_eq!(checkpoint_stride(0.4, &cluster, 100, 1.0e9), 10);
        // Intervals shorter than one iteration clamp to every iteration.
        assert_eq!(checkpoint_stride(1e-6, &cluster, 100, 1.0e9), 1);
    }

    #[test]
    fn survivor_shares_sum_to_the_loss() {
        let shares = survivor_shares(9.0e6, &[90.0e6, 110.0e6]);
        assert!((shares.iter().sum::<f64>() - 9.0e6).abs() < 1e-3);
        assert!(shares[1] > shares[0]);
    }

    #[test]
    fn mtbf_alone_is_not_a_runtime_fault() {
        let plan = FaultPlan::new(3).with_mtbf(5.0);
        assert!(!runtime_faults_active(&plan, 3));
        let plan = plan.with_straggler(1, 0.5);
        assert!(runtime_faults_active(&plan, 3));
    }
}

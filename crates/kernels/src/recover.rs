//! Mid-run failure recovery in virtual time for the timed GE and MM
//! kernels (DESIGN.md §12).
//!
//! The plan's MTBF stream decides *whether and when* a rank dies; the
//! [`RecoveryPolicy`] decides what the machine does about it:
//!
//! - **Checkpoint/restart** keeps the full cluster. Every `stride`
//!   iterations each rank charges a coordinated checkpoint
//!   (`Checkpoint` spans); at the death iteration every rank charges the
//!   failure-detector timeout (`Detect`) and replays its own work since
//!   the last checkpoint (`LostWork`), then the run continues unchanged.
//! - **Shrink-and-rebalance** drops the dead rank. The run is composed
//!   from two segments: iterations `[0, k)` on the full cluster, then —
//!   after the survivors detect the death, replay the dead rank's work
//!   speed-proportionally (`LostWork`), and absorb its rows via
//!   [`hetpart::rebalance`] (`Rebalance` spans) — iterations `[k, end)`
//!   plus the gather on the survivor cluster under a fresh
//!   speed-proportional distribution.
//!
//! GE iterates over its `n - 1` elimination rounds. MM's baseline body
//! charges each rank's multiply as one flop block, so its recovery
//! segments split the multiply into `n` virtual column-chunks instead;
//! the split changes the float-op sequence, so an MM run with any
//! checkpoint or death is a different (still deterministic) program
//! than the baseline, and a shrink run's resume prices the remaining
//! chunks under the survivor distribution — a uniform-progress
//! approximation of migrating the partial product.
//!
//! Each kernel's protocol is written once, as a body that records any
//! segment of a run (the whole run, a checkpointed run, a shrink prefix,
//! or a shrink resume); one driver ([`timed_recoverable`]) places the
//! death, sets the checkpoint cadence, builds the survivor machine, and
//! computes the overhead split for both kernels. With no death and no
//! checkpoint due it records the plain body, so the outcome is bit-equal
//! to the baseline timed run.
//!
//! The plan's MTBF stream yields seeded per-rank death *times*; the
//! driver maps the earliest one onto an **iteration index** through a
//! pure work-proportional progress estimate ([`death_iteration`]) —
//! never through simulated clocks. That keeps recorded op streams
//! clock-independent (a body may not consult the virtual clock
//! mid-run), so the threaded oracle, the event-driven scheduler, and
//! every `--jobs` worker price the identical program and the recovery
//! sweep stays byte-stable. The same estimated clock converts a
//! checkpoint *interval* into an iteration stride
//! ([`checkpoint_stride`]). On the plain fast path the lockstep analyzer
//! sees the recovery ops and records its typed `recovery-ops` fallback.

use crate::ge::timed::{ge_segment_body, round_flops, TimingOutcome};
use crate::mm::multiply_flops;
use crate::mm::timed::mm_segment_body;
use crate::workload::{ge_work, mm_work};
use hetpart::{repartition_after_deaths, BlockDistribution, CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{
    checkpoint_cost_secs, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT_SECS,
    REBALANCE_BANDWIDTH_BYTES_PER_SEC,
};
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{run_spmd_fast, RunSpec, SpmdOutcome, SpmdTimer};
use std::ops::Range;

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
/// form by the driver for reporting.
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
fn survivor_shares(lost_flops: f64, survivor_speeds: &[f64]) -> Vec<f64> {
    let total: f64 = survivor_speeds.iter().sum();
    survivor_speeds.iter().map(|&s| lost_flops * s / total).collect()
}

/// Whether `plan` injects anything the *runtime* must price per-op
/// (degradation windows or lossy links). An MTBF stream alone does not
/// count: it is resolved by the driver, so pure checkpoint/restart runs
/// take the plain fast path — where the lockstep analyzer sees the
/// recovery ops and records its typed `recovery-ops` fallback.
fn runtime_faults_active(plan: &FaultPlan, p: usize) -> bool {
    plan.drop_per_mille() > 0 || (0..p).any(|r| plan.windows_for(r).is_some())
}

/// Composes a shrink-rebalance run's two segments into one
/// [`TimingOutcome`]: survivors resume from the segment-A makespan (the
/// whole machine rendezvouses at the death boundary), the dead rank
/// stops at its segment-A clock, and overhead is the sum of both
/// segments' communication time. Traced segments merge into one trace
/// per rank, segment-B spans offset by the segment-A makespan so the
/// composed timeline is monotone per rank.
fn compose_segments(a: SpmdOutcome<()>, b: SpmdOutcome<()>, survivors: &[usize]) -> TimingOutcome {
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

/// What one recording of a kernel protocol runs: a range of iterations,
/// how it opens and closes, and where recovery charges land. The whole
/// run is [`Segment::whole`]; the driver builds the rest.
#[derive(PartialEq)]
pub(crate) struct Segment {
    /// The kernel iterations this recording covers.
    pub(crate) iters: Range<usize>,
    /// `None` opens with the root's data distribution; `Some` opens a
    /// shrink run's survivor segment with the resume prologue instead.
    resume: Option<Resume>,
    /// Coordinated checkpoints at iteration heads.
    checkpoints: Option<Checkpoints>,
    /// The death this recording detects and rolls back from.
    death: Option<Death>,
    /// Whether the recording closes with the gather (an interrupted
    /// prefix does not).
    pub(crate) gather: bool,
}

/// The survivors' prologue: detect the death, replay this rank's share
/// of the dead rank's work, absorb its repartitioned rows.
#[derive(PartialEq)]
struct Resume {
    lost_share: Vec<f64>,
    moved_in_bytes: Vec<u64>,
}

/// A checkpoint every `stride` iterations (never at iteration 0), of
/// `bytes[rank]` per rank.
#[derive(PartialEq)]
struct Checkpoints {
    stride: usize,
    bytes: Vec<u64>,
}

/// A death at the head of `iteration`: every rank detects it and
/// replays `lost_flops[rank]` since its last checkpoint.
#[derive(PartialEq)]
struct Death {
    iteration: usize,
    lost_flops: Vec<f64>,
}

impl Segment {
    /// The whole fault-free run of a kernel with `iters` iterations.
    pub(crate) fn whole(iters: usize) -> Segment {
        Segment { iters: 0..iters, resume: None, checkpoints: None, death: None, gather: true }
    }

    /// Opens the segment on `rank`: `distribute` charges the kernel's
    /// data distribution, unless the segment resumes a shrink run, which
    /// charges the recovery prologue instead.
    pub(crate) fn open<T: SpmdTimer>(&self, rank: &mut T, distribute: impl FnOnce(&mut T)) {
        match &self.resume {
            None => distribute(rank),
            Some(resume) => {
                let me = rank.rank();
                rank.detect_failure(DETECT_TIMEOUT_SECS);
                rank.recover(resume.lost_share[me], resume.moved_in_bytes[me]);
            }
        }
    }

    /// Charges the recovery ops due at the head of iteration `i`: the
    /// coordinated checkpoint, then the death's detect and replay.
    pub(crate) fn at_iteration<T: SpmdTimer>(&self, rank: &mut T, i: usize) {
        if let Some(ckpt) = &self.checkpoints {
            if i > 0 && i.is_multiple_of(ckpt.stride) {
                let me = rank.rank();
                rank.checkpoint(ckpt.bytes[me]);
            }
        }
        if let Some(death) = &self.death {
            if death.iteration == i {
                let me = rank.rank();
                rank.detect_failure(DETECT_TIMEOUT_SECS);
                rank.recover(death.lost_flops[me], 0);
            }
        }
    }
}

/// The facts a recoverable kernel contributes to the shared driver.
trait Protocol {
    /// The kernel's standard row distribution.
    type Dist: Distribution + Sync;
    /// Uniform-progress iterations of a size-`n` run.
    fn iterations(n: usize) -> usize;
    /// The work polynomial `W(n)`.
    fn work(n: usize) -> f64;
    /// Bytes of one checkpointed or migrated row.
    fn row_bytes(n: usize) -> u64;
    /// The standard speed-proportional distribution.
    fn distribute(n: usize, speeds_mflops: &[f64]) -> Self::Dist;
    /// `rank`'s flops over iterations `[lo, hi)` — the work rolled back
    /// by a restart or recomputed for a dead rank.
    fn flops(dist: &Self::Dist, rank: usize, n: usize, lo: usize, hi: usize) -> f64;
    /// The protocol body, recording `seg`.
    fn body<T: SpmdTimer>(rank: &mut T, dist: &Self::Dist, n: usize, seg: &Segment);
}

/// Gaussian elimination: `n - 1` pivot rounds over cyclic rows of
/// `n + 1` doubles.
struct GeProtocol;

impl Protocol for GeProtocol {
    type Dist = CyclicDistribution;
    fn iterations(n: usize) -> usize {
        n.saturating_sub(1)
    }
    fn work(n: usize) -> f64 {
        ge_work(n)
    }
    fn row_bytes(n: usize) -> u64 {
        ((n + 1) * 8) as u64
    }
    fn distribute(n: usize, speeds_mflops: &[f64]) -> CyclicDistribution {
        CyclicDistribution::fine(n, speeds_mflops)
    }
    fn flops(dist: &CyclicDistribution, rank: usize, n: usize, lo: usize, hi: usize) -> f64 {
        let rows = dist.rows_of(rank);
        let mut below = 0;
        (lo..hi).map(|i| round_flops(&rows, n, i, &mut below)).fold(0.0, |acc, f| acc + f)
    }
    fn body<T: SpmdTimer>(rank: &mut T, dist: &CyclicDistribution, n: usize, seg: &Segment) {
        ge_segment_body(rank, dist, n, seg);
    }
}

/// Matrix multiplication: `n` column-chunks over proportional block
/// rows of `n` doubles.
struct MmProtocol;

impl Protocol for MmProtocol {
    type Dist = BlockDistribution;
    fn iterations(n: usize) -> usize {
        n
    }
    fn work(n: usize) -> f64 {
        mm_work(n)
    }
    fn row_bytes(n: usize) -> u64 {
        (n * 8) as u64
    }
    fn distribute(n: usize, speeds_mflops: &[f64]) -> BlockDistribution {
        BlockDistribution::proportional(n, speeds_mflops)
    }
    fn flops(dist: &BlockDistribution, rank: usize, n: usize, lo: usize, hi: usize) -> f64 {
        (hi - lo) as f64 * (multiply_flops(dist.range_of(rank).len(), n) / n as f64)
    }
    fn body<T: SpmdTimer>(rank: &mut T, dist: &BlockDistribution, n: usize, seg: &Segment) {
        mm_segment_body(rank, dist, n, seg);
    }
}

/// A kernel with a recoverable timed protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverableKernel {
    /// Gaussian elimination (speed-proportional cyclic rows).
    Ge,
    /// Matrix multiplication (speed-proportional row blocks).
    Mm,
}

impl RecoverableKernel {
    /// Per-rank bytes of one coordinated checkpoint at problem size `n`
    /// on `cluster` — each rank's rows under the kernel's standard
    /// distribution, exactly what [`timed_recoverable`] charges.
    pub fn checkpoint_bytes(self, cluster: &ClusterSpec, n: usize) -> Vec<u64> {
        let speeds = speeds_mflops(cluster);
        match self {
            RecoverableKernel::Ge => {
                checkpoint_bytes::<GeProtocol>(&GeProtocol::distribute(n, &speeds), n)
            }
            RecoverableKernel::Mm => {
                checkpoint_bytes::<MmProtocol>(&MmProtocol::distribute(n, &speeds), n)
            }
        }
    }
}

fn checkpoint_bytes<K: Protocol>(dist: &K::Dist, n: usize) -> Vec<u64> {
    dist.counts().iter().map(|&rows| rows as u64 * K::row_bytes(n)).collect()
}

fn speeds_mflops(cluster: &ClusterSpec) -> Vec<f64> {
    cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect()
}

fn speeds_flops(cluster: &ClusterSpec) -> Vec<f64> {
    cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect()
}

/// Seconds to replay `flops[r]` at `speeds[r]`, summed over ranks.
fn replay_secs(flops: &[f64], speeds: &[f64]) -> f64 {
    flops.iter().zip(speeds).map(|(&l, &s)| l / s).sum()
}

/// Where the driver records a segment: the fast engine in production,
/// the threaded oracle in the tests.
trait Runtime {
    fn record<K: Protocol, N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        spec: RunSpec<'_>,
        dist: &K::Dist,
        n: usize,
        seg: &Segment,
    ) -> SpmdOutcome<()>;
}

/// The fast engine ([`run_spmd_fast`]).
struct Fast;

impl Runtime for Fast {
    fn record<K: Protocol, N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        spec: RunSpec<'_>,
        dist: &K::Dist,
        n: usize,
        seg: &Segment,
    ) -> SpmdOutcome<()> {
        run_spmd_fast(cluster, network, spec, |t| K::body(t, dist, n, seg))
    }
}

/// Recoverable timing-mode `kernel` at problem size `n` under `plan`'s
/// MTBF stream and `policy`. With `trace` set, checkpoint, detect,
/// lost-work, and rebalance charges appear as typed spans in
/// `timing.traces`; a shrink run's survivor-segment spans are offset
/// past the death boundary. The plan's degradation windows and link
/// drops, if any, are priced per op; an MTBF stream alone is resolved
/// here and keeps the run on the plain fast path.
pub fn timed_recoverable<N: NetworkModel>(
    kernel: RecoverableKernel,
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
    trace: bool,
) -> RecoveryOutcome {
    match kernel {
        RecoverableKernel::Ge => {
            drive::<GeProtocol, Fast, N>(cluster, network, plan, policy, n, trace)
        }
        RecoverableKernel::Mm => {
            drive::<MmProtocol, Fast, N>(cluster, network, plan, policy, n, trace)
        }
    }
}

/// The one recovery driver: decides the run's segments, machines,
/// overhead, and death for kernel `K`, then records the segments on
/// runtime `R`.
fn drive<K: Protocol, R: Runtime, N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
    trace: bool,
) -> RecoveryOutcome {
    let record = |cluster: &ClusterSpec, plan: &FaultPlan, dist: &K::Dist, seg: &Segment| {
        let faults = runtime_faults_active(plan, cluster.size()).then_some(plan);
        R::record::<K, N>(cluster, network, RunSpec { trace, faults }, dist, n, seg)
    };
    let p = cluster.size();
    let speeds = speeds_mflops(cluster);
    let dist = K::distribute(n, &speeds);
    let iters = K::iterations(n);
    let total_flops = K::work(n);
    let death = death_iteration(plan, cluster, iters, total_flops);
    let plain = || RecoveryOutcome {
        timing: TimingOutcome::from_spmd(record(cluster, plan, &dist, &Segment::whole(iters))),
        overhead: RecoveryOverhead::default(),
        death: None,
    };

    match policy {
        RecoveryPolicy::CheckpointRestart { interval_secs } => {
            let stride = checkpoint_stride(interval_secs, cluster, iters, total_flops);
            let num_ckpts = if iters > 1 { (iters - 1) / stride } else { 0 };
            if death.is_none() && num_ckpts == 0 {
                // Nothing to inject: the plain body is the whole program.
                return plain();
            }
            let bytes = checkpoint_bytes::<K>(&dist, n);
            let lost_flops: Vec<f64> = match death {
                Some(ev) => {
                    let last_ckpt = (ev.iteration / stride) * stride;
                    (0..p).map(|r| K::flops(&dist, r, n, last_ckpt, ev.iteration)).collect()
                }
                None => vec![0.0; p],
            };
            let overhead = RecoveryOverhead {
                checkpoint_secs: num_ckpts as f64
                    * bytes.iter().map(|&b| checkpoint_cost_secs(b)).sum::<f64>(),
                detect_secs: if death.is_some() { p as f64 * DETECT_TIMEOUT_SECS } else { 0.0 },
                lost_work_secs: replay_secs(&lost_flops, &speeds_flops(cluster)),
                rebalance_secs: 0.0,
            };
            let seg = Segment {
                iters: 0..iters,
                resume: None,
                checkpoints: Some(Checkpoints { stride, bytes }),
                death: death.map(|ev| Death { iteration: ev.iteration, lost_flops }),
                gather: true,
            };
            let timing = TimingOutcome::from_spmd(record(cluster, plan, &dist, &seg));
            RecoveryOutcome { timing, overhead, death }
        }
        RecoveryPolicy::ShrinkRebalance => {
            let Some(ev) = death else {
                return plain();
            };
            let k = ev.iteration;
            let death_plan = plan.clone().with_death(ev.rank, ev.time);
            let surv_cluster = death_plan
                .surviving_cluster(cluster)
                .expect("shrink-rebalance needs at least one survivor");
            let surv_plan = death_plan.for_survivors(p);
            let repart = repartition_after_deaths(n, &speeds, &[ev.rank], K::row_bytes(n));
            let surv_dist = K::distribute(n, &speeds_mflops(&surv_cluster));
            let surv_speeds = speeds_flops(&surv_cluster);
            let lost_share = survivor_shares(K::flops(&dist, ev.rank, n, 0, k), &surv_speeds);
            let moved_in_bytes =
                repart.moved_in_rows.iter().map(|&r| r as u64 * K::row_bytes(n)).collect();
            let overhead = RecoveryOverhead {
                checkpoint_secs: 0.0,
                detect_secs: repart.survivors.len() as f64 * DETECT_TIMEOUT_SECS,
                lost_work_secs: replay_secs(&lost_share, &surv_speeds),
                rebalance_secs: repart.moved_bytes as f64 / REBALANCE_BANDWIDTH_BYTES_PER_SEC,
            };

            let prefix = Segment { iters: 0..k, gather: false, ..Segment::whole(iters) };
            let resume = Segment {
                iters: k..iters,
                resume: Some(Resume { lost_share, moved_in_bytes }),
                ..Segment::whole(iters)
            };
            let a = record(cluster, plan, &dist, &prefix);
            let b = record(&surv_cluster, &surv_plan, &surv_dist, &resume);
            RecoveryOutcome {
                timing: compose_segments(a, b, &repart.survivors),
                overhead,
                death: Some(ev),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_parallel_timed;
    use crate::mm::mm_parallel_timed;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::run_spmd;
    use hetsim_mpi::trace::OpKind;

    const KERNELS: [RecoverableKernel; 2] = [RecoverableKernel::Ge, RecoverableKernel::Mm];

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                NodeSpec::synthetic("a", 90.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    /// The three-node machine each kernel's recovery tests run on.
    fn cluster(kernel: RecoverableKernel) -> ClusterSpec {
        match kernel {
            RecoverableKernel::Ge => het3(),
            RecoverableKernel::Mm => ClusterSpec::new(
                "het3",
                vec![
                    NodeSpec::synthetic("a", 45.0),
                    NodeSpec::synthetic("b", 50.0),
                    NodeSpec::synthetic("c", 110.0),
                ],
            )
            .unwrap(),
        }
    }

    fn net() -> SharedEthernet {
        SharedEthernet::new(0.3e-3, 1.25e7)
    }

    fn work(kernel: RecoverableKernel, n: usize) -> f64 {
        match kernel {
            RecoverableKernel::Ge => ge_work(n),
            RecoverableKernel::Mm => mm_work(n),
        }
    }

    fn iterations(kernel: RecoverableKernel, n: usize) -> usize {
        match kernel {
            RecoverableKernel::Ge => GeProtocol::iterations(n),
            RecoverableKernel::Mm => MmProtocol::iterations(n),
        }
    }

    fn est(kernel: RecoverableKernel, n: usize) -> f64 {
        estimated_run_secs(&cluster(kernel), work(kernel, n))
    }

    /// The plain timed run the recoverable program must degenerate to.
    fn baseline(kernel: RecoverableKernel, n: usize) -> TimingOutcome {
        let (cluster, spec) = (cluster(kernel), RunSpec::default());
        match kernel {
            RecoverableKernel::Ge => ge_parallel_timed(&cluster, &net(), n, spec),
            RecoverableKernel::Mm => mm_parallel_timed(&cluster, &net(), n, spec),
        }
    }

    fn run(
        kernel: RecoverableKernel,
        plan: &FaultPlan,
        policy: RecoveryPolicy,
        n: usize,
        trace: bool,
    ) -> RecoveryOutcome {
        timed_recoverable(kernel, &cluster(kernel), &net(), plan, policy, n, trace)
    }

    /// An MTBF short enough (relative to the estimated run) that the
    /// seeded stream fires a death inside the run for this seed.
    fn deadly_plan(kernel: RecoverableKernel, n: usize, seed: u64) -> FaultPlan {
        let plan = FaultPlan::new(seed).with_mtbf(est(kernel, n) * 0.5);
        assert!(
            death_iteration(&plan, &cluster(kernel), iterations(kernel, n), work(kernel, n))
                .is_some(),
            "seed {seed} must fire a death for {kernel:?}"
        );
        plan
    }

    fn kinds(timing: &TimingOutcome) -> Vec<OpKind> {
        timing.traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect()
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

    #[test]
    fn no_death_and_no_checkpoints_match_the_baseline() {
        // MTBF far past the run; interval far past the run: the
        // recoverable program degenerates to the baseline op stream.
        let n = 24;
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        for kernel in KERNELS {
            for policy in [
                RecoveryPolicy::CheckpointRestart { interval_secs: 1e9 },
                RecoveryPolicy::ShrinkRebalance,
            ] {
                let r = run(kernel, &plan, policy, n, false);
                assert_eq!(r.timing, baseline(kernel, n), "{kernel:?} {policy:?}");
                assert_eq!(r.overhead.total_secs(), 0.0);
                assert_eq!(r.death, None);
            }
        }
    }

    #[test]
    fn checkpointing_taxes_the_run() {
        let n = 32;
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        for kernel in KERNELS {
            let policy = RecoveryPolicy::CheckpointRestart { interval_secs: est(kernel, n) / 8.0 };
            let r = run(kernel, &plan, policy, n, false);
            assert!(r.timing.makespan > baseline(kernel, n).makespan, "{kernel:?}");
            assert!(r.overhead.checkpoint_secs > 0.0);
            assert_eq!(r.overhead.detect_secs, 0.0);
            assert_eq!(r.overhead.lost_work_secs, 0.0);
        }
    }

    /// The threaded runtime ([`run_spmd`]) as a [`Runtime`]: the
    /// semantic oracle for every segment the driver records.
    struct Threaded;

    impl Runtime for Threaded {
        fn record<K: Protocol, N: NetworkModel>(
            cluster: &ClusterSpec,
            network: &N,
            spec: RunSpec<'_>,
            dist: &K::Dist,
            n: usize,
            seg: &Segment,
        ) -> SpmdOutcome<()> {
            run_spmd(cluster, network, spec, |rank| K::body(rank, dist, n, seg))
        }
    }

    /// Prices every run the driver decides — both policies, with and
    /// without runtime faults, traced and untraced — on the fast engine
    /// and on the threaded oracle.
    fn assert_fast_matches_threaded<K: Protocol>(kernel: RecoverableKernel, n: usize) {
        let cluster = cluster(kernel);
        let mtbf_only = deadly_plan(kernel, n, 42);
        let with_runtime_faults = mtbf_only.clone().with_straggler(2, 0.5).with_link_drops(120);
        for plan in [&mtbf_only, &with_runtime_faults] {
            for policy in [
                RecoveryPolicy::CheckpointRestart { interval_secs: est(kernel, n) / 5.0 },
                RecoveryPolicy::ShrinkRebalance,
            ] {
                for trace in [false, true] {
                    let fast = drive::<K, Fast, _>(&cluster, &net(), plan, policy, n, trace);
                    let threaded =
                        drive::<K, Threaded, _>(&cluster, &net(), plan, policy, n, trace);
                    assert!(fast.death.is_some());
                    assert_eq!(trace, !fast.timing.traces.is_empty());
                    assert_eq!(
                        fast,
                        threaded,
                        "{kernel:?} {policy:?} trace={trace} faults={}",
                        runtime_faults_active(plan, cluster.size())
                    );
                }
            }
        }
    }

    #[test]
    fn fast_matches_threaded_on_every_recovery_run() {
        assert_fast_matches_threaded::<GeProtocol>(RecoverableKernel::Ge, 20);
        assert_fast_matches_threaded::<MmProtocol>(RecoverableKernel::Mm, 18);
    }

    #[test]
    fn shrink_drops_the_dead_rank_and_charges_rebalance() {
        let n = 24;
        for kernel in KERNELS {
            let plan = deadly_plan(kernel, n, 42);
            let r = run(kernel, &plan, RecoveryPolicy::ShrinkRebalance, n, false);
            let ev = r.death.unwrap();
            assert!(r.timing.makespan.as_secs() > 0.0);
            assert!(r.overhead.rebalance_secs > 0.0, "{kernel:?}");
            assert!(r.overhead.detect_secs > 0.0, "{kernel:?}");
            assert!(r.overhead.lost_work_secs >= 0.0, "{kernel:?}");
            // The dead rank's clock stops at the death boundary; every
            // survivor finishes after it.
            for (rk, &t) in r.timing.times.iter().enumerate() {
                if rk != ev.rank {
                    assert!(t > r.timing.times[ev.rank], "{kernel:?}: survivor {rk} ended first");
                }
            }
        }
    }

    #[test]
    fn recoverable_runs_are_deterministic() {
        let n = 24;
        for kernel in KERNELS {
            let plan = deadly_plan(kernel, n, 42);
            for policy in [
                RecoveryPolicy::CheckpointRestart { interval_secs: 0.01 },
                RecoveryPolicy::ShrinkRebalance,
            ] {
                let once = run(kernel, &plan, policy, n, false);
                assert_eq!(once, run(kernel, &plan, policy, n, false), "{kernel:?} {policy:?}");
            }
        }
    }

    #[test]
    fn traced_recovery_emits_typed_spans() {
        let n = 24;
        for kernel in KERNELS {
            let plan = deadly_plan(kernel, n, 42);

            let ckpt = RecoveryPolicy::CheckpointRestart { interval_secs: est(kernel, n) / 2.0 };
            let ck = run(kernel, &plan, ckpt, n, true);
            let ck_kinds = kinds(&ck.timing);
            assert!(ck_kinds.contains(&OpKind::Checkpoint), "{kernel:?}");
            assert!(ck_kinds.contains(&OpKind::Detect), "{kernel:?}");
            assert!(ck_kinds.contains(&OpKind::LostWork), "{kernel:?}");
            assert_eq!(
                TimingOutcome { traces: Vec::new(), ..ck.timing },
                run(kernel, &plan, ckpt, n, false).timing,
                "{kernel:?}: tracing must not perturb timings"
            );

            let shrink = run(kernel, &plan, RecoveryPolicy::ShrinkRebalance, n, true);
            let shrink_kinds = kinds(&shrink.timing);
            assert!(shrink_kinds.contains(&OpKind::Detect), "{kernel:?}");
            assert!(shrink_kinds.contains(&OpKind::Rebalance), "{kernel:?}");
            assert!(shrink_kinds.contains(&OpKind::LostWork), "{kernel:?}");
            // Per-rank timelines stay monotone across the composed segments.
            for t in &shrink.timing.traces {
                for w in t.records.windows(2) {
                    assert!(w[1].start >= w[0].start, "{kernel:?}: trace went backwards");
                }
            }
        }
    }

    #[test]
    fn frequent_checkpoints_lose_less_work() {
        let n = 40;
        for kernel in KERNELS {
            let plan = deadly_plan(kernel, n, 42);
            let every = |interval_secs| {
                run(kernel, &plan, RecoveryPolicy::CheckpointRestart { interval_secs }, n, false)
            };
            let coarse = every(est(kernel, n) * 2.0);
            let fine = every(est(kernel, n) / 16.0);
            assert!(fine.overhead.lost_work_secs <= coarse.overhead.lost_work_secs, "{kernel:?}");
            assert!(fine.overhead.checkpoint_secs > coarse.overhead.checkpoint_secs, "{kernel:?}");
        }
    }

    #[test]
    fn checkpoint_bytes_are_rows_times_row_bytes() {
        let n = 30;
        for kernel in KERNELS {
            let cluster = cluster(kernel);
            let bytes = kernel.checkpoint_bytes(&cluster, n);
            assert_eq!(bytes.len(), cluster.size());
            let row_bytes = match kernel {
                RecoverableKernel::Ge => (n + 1) * 8,
                RecoverableKernel::Mm => n * 8,
            };
            assert_eq!(bytes.iter().sum::<u64>(), (n * row_bytes) as u64, "{kernel:?}");
        }
    }
}

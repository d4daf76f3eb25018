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
//! ([`checkpoint_stride`]).
//!
//! Each segment is priced by the tier rule every timed kernel shares
//! (`ge::timed::price`): an untraced run without runtime faults takes
//! the kernel's closed form ([`crate::analytic`]), which reads the same
//! `Segment` the body records, so a recovery charge lands at the same
//! iteration on every tier; traced, faulted and `--no-analytic` runs
//! record the body on the fast engine.
//!
//! The same protocols price a whole run under a list of fault plans
//! ([`timed_under_plans`], the fault sweep's cells). A plan that injects
//! nothing at run time prices as no plan, and the plans that still need
//! the engine replay one recording: recording never reads the plan.

use crate::analytic::{ge_segment_closed_form, mm_segment_closed_form};
use crate::ge::timed::{closed_form_applies, ge_segment_body, price, round_flops, TimingOutcome};
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
use hetsim_mpi::{record_spmd, OpKind, RunSpec, SpmdTimer};
use std::ops::Range;

pub use hetsim_cluster::faults::RecoveryOverhead;

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

/// Composes a shrink-rebalance run's two segments into one
/// [`TimingOutcome`]: survivors resume from the segment-A makespan (the
/// whole machine rendezvouses at the death boundary), the dead rank
/// stops at its segment-A clock, and overhead is the sum of both
/// segments' communication time. Traced segments merge into one trace
/// per rank, segment-B spans offset by the segment-A makespan so the
/// composed timeline is monotone per rank.
fn compose_segments(a: TimingOutcome, b: TimingOutcome, survivors: &[usize]) -> TimingOutcome {
    let shift = a.makespan;
    let total_overhead = a.total_overhead + b.total_overhead;
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
    TimingOutcome { makespan: shift + b.makespan, total_overhead, times, compute_times, traces }
}

/// What one recording of a kernel protocol runs: a range of iterations,
/// how it opens and closes, and where recovery charges land. The whole
/// run is [`Segment::whole`]; the driver builds the rest.
#[derive(PartialEq)]
pub(crate) struct Segment {
    /// The kernel iterations this recording covers.
    pub(crate) iters: Range<usize>,
    /// `None` opens with the root's data distribution; `Some` opens a
    /// shrink run's survivor segment with each rank's resume prologue
    /// instead (see [`resume_prologue`]).
    resume: Option<Vec<Vec<Charge>>>,
    /// Coordinated checkpoints at iteration heads.
    checkpoints: Option<Checkpoints>,
    /// The death this recording detects and rolls back from.
    death: Option<Death>,
    /// Whether the recording closes with the gather (an interrupted
    /// prefix does not).
    pub(crate) gather: bool,
}

/// A checkpoint every `stride` iterations (never at iteration 0):
/// `charges[rank]` writes that rank's rows.
#[derive(PartialEq)]
struct Checkpoints {
    stride: usize,
    charges: Vec<Charge>,
}

impl Checkpoints {
    /// A checkpoint of `bytes[rank]` per rank every `stride` iterations.
    fn new(stride: usize, bytes: &[u64]) -> Checkpoints {
        let charge =
            |bytes| Charge { kind: OpKind::Checkpoint, secs: checkpoint_cost_secs(bytes), bytes };
        Checkpoints { stride, charges: bytes.iter().map(|&b| charge(b)).collect() }
    }
}

/// A death at the head of `iteration`: `charges[rank]` detects it,
/// then replays the work the rank lost since its last checkpoint.
#[derive(PartialEq)]
struct Death {
    iteration: usize,
    charges: Vec<Vec<Charge>>,
}

impl Death {
    /// A death at the head of `iteration`, rolling rank `r` back by
    /// `lost_flops[r]`, replayed at its marked speed `speeds_flops[r]`.
    fn new(iteration: usize, lost_flops: &[f64], speeds_flops: &[f64]) -> Death {
        let charges =
            lost_flops.iter().zip(speeds_flops).map(|(&l, &s)| recovery(l, s, 0)).collect();
        Death { iteration, charges }
    }
}

/// The survivors' resume prologue, per rank `r` of the survivor
/// machine: [`recovery`] from `lost_share[r]` of the dead rank's work at
/// the marked speed `speeds_flops[r]` and `moved_in_bytes[r]` of its rows.
fn resume_prologue(
    lost_share: &[f64],
    moved_in_bytes: &[u64],
    speeds_flops: &[f64],
) -> Vec<Vec<Charge>> {
    let ranks = lost_share.iter().zip(moved_in_bytes).zip(speeds_flops);
    ranks.map(|((&l, &m), &s)| recovery(l, s, m)).collect()
}

/// One rank's charges for a death: detect it, replay `lost_flops` at
/// the marked speed `speed_flops`, absorb `moved_in_bytes` of the dead
/// rank's rows. A zero operand charges nothing, so a policy that loses
/// or moves nothing records no span for it.
fn recovery(lost_flops: f64, speed_flops: f64, moved_in_bytes: u64) -> Vec<Charge> {
    let mut charges = vec![Charge { kind: OpKind::Detect, secs: DETECT_TIMEOUT_SECS, bytes: 0 }];
    if lost_flops > 0.0 {
        charges.push(Charge { kind: OpKind::LostWork, secs: lost_flops / speed_flops, bytes: 0 });
    }
    if moved_in_bytes > 0 {
        let secs = moved_in_bytes as f64 / REBALANCE_BANDWIDTH_BYTES_PER_SEC;
        charges.push(Charge { kind: OpKind::Rebalance, secs, bytes: moved_in_bytes });
    }
    charges
}

/// One recovery charge a segment lands on one rank: a local span of
/// `secs`, traced as `kind` carrying `bytes`. Its cost is worked out
/// once, when [`drive`] builds the segment, from the recovery cost
/// model of `hetsim_cluster::faults` and the segment machine's marked
/// speeds; the recorded body and the closed forms both charge `secs`.
#[derive(Clone, Copy, PartialEq)]
struct Charge {
    kind: OpKind,
    secs: f64,
    bytes: u64,
}

impl Charge {
    /// Records the charge on `rank`.
    fn record<T: SpmdTimer>(self, rank: &mut T) {
        rank.charge(self.kind, self.secs, self.bytes);
    }

    /// Prices the charge on a closed form's clock and comm accumulator
    /// with the runtime's own float ops: `new = clock + dt; comm += new
    /// − clock`.
    fn price(self, clock: &mut SimTime, comm: &mut SimTime) {
        let new = *clock + SimTime::from_secs(self.secs);
        *comm += new - *clock;
        *clock = new;
    }
}

impl Segment {
    /// The whole fault-free run of a kernel with `iters` iterations.
    pub(crate) fn whole(iters: usize) -> Segment {
        Segment { iters: 0..iters, resume: None, checkpoints: None, death: None, gather: true }
    }

    /// The resume prologue's charges on rank `me`; none when the segment
    /// opens with the root's data distribution.
    fn prologue(&self, me: usize) -> impl Iterator<Item = Charge> + '_ {
        self.resume.iter().flat_map(move |resume| resume[me].iter().copied())
    }

    /// The charges due on rank `me` at the head of iteration `i`, in
    /// order: the coordinated checkpoint, then the death's detect and
    /// replay.
    fn head(&self, i: usize, me: usize) -> impl Iterator<Item = Charge> + '_ {
        let checkpoint = self
            .checkpoints
            .iter()
            .filter(move |ckpt| i > 0 && i.is_multiple_of(ckpt.stride))
            .map(move |ckpt| ckpt.charges[me]);
        let death = self
            .death
            .iter()
            .filter(move |death| death.iteration == i)
            .flat_map(move |death| death.charges[me].iter().copied());
        checkpoint.chain(death)
    }

    /// The first iteration at or after `from` whose head carries a
    /// charge, or `iters.end` when none does: the closed forms walk the
    /// rounds in between on their uniform path.
    pub(crate) fn next_charged(&self, from: usize) -> usize {
        let mut next = self.iters.end;
        if let Some(ckpt) = &self.checkpoints {
            next = next.min(from.max(1).div_ceil(ckpt.stride).saturating_mul(ckpt.stride));
        }
        if let Some(death) = &self.death {
            if death.iteration >= from {
                next = next.min(death.iteration);
            }
        }
        next
    }

    /// Opens the segment on `rank`: `distribute` charges the kernel's
    /// data distribution, unless the segment resumes a shrink run, which
    /// charges the recovery prologue instead.
    pub(crate) fn open<T: SpmdTimer>(&self, rank: &mut T, distribute: impl FnOnce(&mut T)) {
        if self.resume.is_none() {
            distribute(rank);
        }
        let me = rank.rank();
        self.prologue(me).for_each(|charge| charge.record(rank));
    }

    /// Records the recovery charges due at the head of iteration `i`.
    pub(crate) fn at_iteration<T: SpmdTimer>(&self, rank: &mut T, i: usize) {
        let me = rank.rank();
        self.head(i, me).for_each(|charge| charge.record(rank));
    }

    /// [`Segment::open`] on a closed form's per-rank clocks and comm
    /// accumulators: `distribute` prices the data distribution, or
    /// every rank prices its resume prologue.
    pub(crate) fn open_priced(
        &self,
        clock: &mut [SimTime],
        comm: &mut [SimTime],
        distribute: impl FnOnce(&mut [SimTime], &mut [SimTime]),
    ) {
        if self.resume.is_none() {
            distribute(clock, comm);
        }
        for (me, (c, cm)) in clock.iter_mut().zip(comm).enumerate() {
            self.prologue(me).for_each(|charge| charge.price(c, cm));
        }
    }

    /// [`Segment::at_iteration`] on a closed form's clock and comm
    /// accumulator for rank `me`.
    pub(crate) fn price_head(&self, i: usize, me: usize, clock: &mut SimTime, comm: &mut SimTime) {
        self.head(i, me).for_each(|charge| charge.price(clock, comm));
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
    /// The closed form of [`Protocol::body`], pricing `seg`.
    fn closed_form<N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        dist: &Self::Dist,
        n: usize,
        seg: &Segment,
    ) -> TimingOutcome;
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
    fn closed_form<N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        dist: &CyclicDistribution,
        n: usize,
        seg: &Segment,
    ) -> TimingOutcome {
        ge_segment_closed_form(cluster, network, n, dist, seg)
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
    fn closed_form<N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        dist: &BlockDistribution,
        n: usize,
        seg: &Segment,
    ) -> TimingOutcome {
        mm_segment_closed_form(cluster, network, n, dist, seg)
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
        let speeds = cluster.speeds_mflops();
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

/// Seconds to replay `flops[r]` at `speeds[r]`, summed over ranks.
fn replay_secs(flops: &[f64], speeds: &[f64]) -> f64 {
    flops.iter().zip(speeds).map(|(&l, &s)| l / s).sum()
}

/// Where the driver prices a segment: the timed kernels' tier rule in
/// production, the threaded oracle in the tests.
trait Runtime {
    fn record<K: Protocol, N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        spec: RunSpec<'_>,
        dist: &K::Dist,
        n: usize,
        seg: &Segment,
    ) -> TimingOutcome;
}

/// The tier rule every timed kernel shares (`ge::timed::price`): the
/// closed form when the run is untraced, fault-free and the analytic
/// tier is on, the fast engine otherwise.
struct Fast;

impl Runtime for Fast {
    fn record<K: Protocol, N: NetworkModel>(
        cluster: &ClusterSpec,
        network: &N,
        spec: RunSpec<'_>,
        dist: &K::Dist,
        n: usize,
        seg: &Segment,
    ) -> TimingOutcome {
        price(
            cluster,
            network,
            spec,
            || K::closed_form(cluster, network, dist, n, seg),
            |t| K::body(t, dist, n, seg),
        )
    }
}

/// Recoverable timing-mode `kernel` at problem size `n` under `plan`'s
/// MTBF stream and `policy`. With `trace` set, checkpoint, detect,
/// lost-work, and rebalance charges appear as typed spans in
/// `timing.traces`; a shrink run's survivor-segment spans are offset
/// past the death boundary. The plan's stragglers and link drops, if
/// any, are priced per op on the fast engine; an MTBF stream
/// alone is resolved here, so an untraced run under it takes the
/// closed forms.
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

/// Timing-mode `kernel` at problem size `n` on `cluster` under each of
/// `plans`, traced when `trace` is set: entry `i` equals the kernel's
/// plain timed run (`ge_parallel_timed` or `mm_parallel_timed`) under
/// `plans[i]` alone, bit for bit. A plan that injects nothing at run
/// time ([`FaultPlan::injects_runtime_faults`]) prices as no plan, so an
/// untraced run under it takes the closed form; the plans that still
/// need the fast engine all replay one recording of the body, made on
/// first need and dropped on return. Declared deaths must already be
/// resolved.
pub fn timed_under_plans<N: NetworkModel>(
    kernel: RecoverableKernel,
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    plans: &[&FaultPlan],
    trace: bool,
) -> Vec<TimingOutcome> {
    match kernel {
        RecoverableKernel::Ge => under_plans::<GeProtocol, N>(cluster, network, n, plans, trace),
        RecoverableKernel::Mm => under_plans::<MmProtocol, N>(cluster, network, n, plans, trace),
    }
}

/// [`timed_under_plans`] for kernel `K`: each plan through the tier
/// rule, one recording of the whole run shared by the engine's plans.
fn under_plans<K: Protocol, N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    plans: &[&FaultPlan],
    trace: bool,
) -> Vec<TimingOutcome> {
    let dist = K::distribute(n, &cluster.speeds_mflops());
    let seg = Segment::whole(K::iterations(n));
    let mut program = None;
    plans
        .iter()
        .map(|&plan| {
            let faults = plan.injects_runtime_faults(cluster.size()).then_some(plan);
            let spec = RunSpec { trace, faults };
            if closed_form_applies(spec) {
                return K::closed_form(cluster, network, &dist, n, &seg);
            }
            let program =
                program.get_or_insert_with(|| record_spmd(cluster, |t| K::body(t, &dist, n, &seg)));
            TimingOutcome::from_spmd(program.simulate(cluster, network, spec))
        })
        .collect()
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
    // An MTBF stream alone is resolved here, so a plan without runtime
    // faults prices as no plan.
    let record = |cluster: &ClusterSpec, plan: &FaultPlan, dist: &K::Dist, seg: &Segment| {
        let faults = plan.injects_runtime_faults(cluster.size()).then_some(plan);
        R::record::<K, N>(cluster, network, RunSpec { trace, faults }, dist, n, seg)
    };
    let p = cluster.size();
    let speeds = cluster.speeds_mflops();
    let dist = K::distribute(n, &speeds);
    let iters = K::iterations(n);
    let total_flops = K::work(n);
    let death = death_iteration(plan, cluster, iters, total_flops);
    let plain = || RecoveryOutcome {
        timing: record(cluster, plan, &dist, &Segment::whole(iters)),
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
            let speeds_flops = cluster.speeds_flops();
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
                lost_work_secs: replay_secs(&lost_flops, &speeds_flops),
                rebalance_secs: 0.0,
            };
            let seg = Segment {
                iters: 0..iters,
                resume: None,
                checkpoints: Some(Checkpoints::new(stride, &bytes)),
                death: death.map(|ev| Death::new(ev.iteration, &lost_flops, &speeds_flops)),
                gather: true,
            };
            let timing = record(cluster, plan, &dist, &seg);
            RecoveryOutcome { timing, overhead, death }
        }
        RecoveryPolicy::ShrinkRebalance => {
            let Some(ev) = death else {
                return plain();
            };
            let k = ev.iteration;
            let death_plan = plan.clone().with_death(ev.rank);
            let surv_cluster = death_plan
                .surviving_cluster(cluster)
                .expect("shrink-rebalance needs at least one survivor");
            let surv_plan = death_plan.for_survivors(p);
            let repart = repartition_after_deaths(n, &speeds, &[ev.rank], K::row_bytes(n));
            let surv_dist = K::distribute(n, &surv_cluster.speeds_mflops());
            let surv_speeds = surv_cluster.speeds_flops();
            let lost_share = survivor_shares(K::flops(&dist, ev.rank, n, 0, k), &surv_speeds);
            let moved_in_bytes: Vec<u64> =
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
                resume: Some(resume_prologue(&lost_share, &moved_in_bytes, &surv_speeds)),
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
    use crate::analytic::tests::{clusters, networks};
    use crate::ge::ge_parallel_timed;
    use crate::mm::mm_parallel_timed;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{run_spmd, run_spmd_fast};
    use proptest::prelude::*;

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
        ) -> TimingOutcome {
            TimingOutcome::from_spmd(run_spmd(cluster, network, spec, |rank| {
                K::body(rank, dist, n, seg)
            }))
        }
    }

    /// Prices every run the driver decides — both policies, with and
    /// without runtime faults, traced and untraced — on the production
    /// tiers (the closed forms for the untraced MTBF-only runs, the fast
    /// engine for the rest) and on the threaded oracle. The straggler
    /// plan without link drops pins the straggler clause of
    /// `FaultPlan::injects_runtime_faults` on its own: drops alone
    /// already make a plan inject.
    fn assert_fast_matches_threaded<K: Protocol>(kernel: RecoverableKernel, n: usize) {
        let cluster = cluster(kernel);
        let mtbf_only = deadly_plan(kernel, n, 42);
        let with_straggler = mtbf_only.clone().with_straggler(2, 0.5);
        let with_runtime_faults = with_straggler.clone().with_link_drops(120);
        for plan in [&mtbf_only, &with_straggler, &with_runtime_faults] {
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
                        plan.injects_runtime_faults(cluster.size())
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

    /// A checkpoint-restart segment over all `iters` iterations of
    /// kernel `K` on `cluster`, checkpointing every `stride` iterations
    /// and, with `death_at`, dying there with every rank losing its work
    /// since its last checkpoint — as [`drive`] builds it.
    fn checkpointed<K: Protocol>(
        cluster: &ClusterSpec,
        dist: &K::Dist,
        n: usize,
        stride: usize,
        death_at: Option<usize>,
    ) -> Segment {
        let death = death_at.map(|iteration| {
            let last_ckpt = (iteration / stride) * stride;
            let lost_flops: Vec<f64> =
                (0..cluster.size()).map(|r| K::flops(dist, r, n, last_ckpt, iteration)).collect();
            Death::new(iteration, &lost_flops, &cluster.speeds_flops())
        });
        Segment {
            iters: 0..K::iterations(n),
            resume: None,
            checkpoints: Some(Checkpoints::new(stride, &checkpoint_bytes::<K>(dist, n))),
            death,
            gather: true,
        }
    }

    /// A shrink run split at iteration `k`: the interrupted prefix and
    /// the survivors' resume. The resume replays a speed-proportional
    /// share of rank 0's lost work and moves rows into every rank but
    /// rank 0, so both zero-operand spans are skipped somewhere.
    fn shrink<K: Protocol>(
        cluster: &ClusterSpec,
        dist: &K::Dist,
        n: usize,
        k: usize,
    ) -> [Segment; 2] {
        let iters = K::iterations(n);
        let speeds = cluster.speeds_flops();
        let lost_share = survivor_shares(K::flops(dist, 0, n, 0, k), &speeds);
        let moved_in_bytes: Vec<u64> =
            (0..cluster.size()).map(|r| r as u64 * K::row_bytes(n)).collect();
        [
            Segment { iters: 0..k, gather: false, ..Segment::whole(iters) },
            Segment {
                iters: k..iters,
                resume: Some(resume_prologue(&lost_share, &moved_in_bytes, &speeds)),
                ..Segment::whole(iters)
            },
        ]
    }

    /// Every segment shape the driver builds for kernel `K` at size `n`:
    /// the whole run; checkpoints every iteration, every other one and at
    /// strides of at least the iteration count, each without a death and
    /// with one at iteration 0, at a checkpoint iteration and at the last
    /// iteration; and, on two or more ranks, shrink prefixes and resumes
    /// at `k = 0`, a middle `k` and `k = iters − 1`.
    fn segment_shapes<K: Protocol>(
        cluster: &ClusterSpec,
        dist: &K::Dist,
        n: usize,
    ) -> Vec<(String, Segment)> {
        let (p, iters) = (cluster.size(), K::iterations(n));
        let mut shapes = vec![("whole".to_string(), Segment::whole(iters))];
        let deaths = [None, Some(0), Some(2), Some(iters.saturating_sub(1))];
        for stride in [1, 2, iters.max(1), iters + 3] {
            for death_at in deaths.into_iter().filter(|d| d.is_none_or(|it| it < iters)) {
                let seg = checkpointed::<K>(cluster, dist, n, stride, death_at);
                shapes.push((format!("stride {stride} death {death_at:?}"), seg));
            }
        }
        if p >= 2 && iters > 0 {
            for k in [0, iters / 2, iters - 1] {
                let [prefix, resume] = shrink::<K>(cluster, dist, n, k);
                shapes.push((format!("prefix k={k}"), prefix));
                shapes.push((format!("resume k={k}"), resume));
            }
        }
        shapes
    }

    /// `K`'s closed form prices `seg` bit for bit like the event-driven
    /// engine replaying the recorded body, under every network family.
    fn assert_closed_form_matches_event_driven<K: Protocol>(
        cluster: &ClusterSpec,
        dist: &K::Dist,
        n: usize,
        shape: &str,
        seg: &Segment,
    ) {
        let program = record_spmd(cluster, |t| K::body(t, dist, n, seg));
        for (tag, net) in &networks() {
            let net: &dyn NetworkModel = net.as_ref();
            let engine = TimingOutcome::from_spmd(program.simulate_event_driven(cluster, &net));
            let closed = K::closed_form(cluster, &net, dist, n, seg);
            assert_eq!(closed, engine, "{shape} ({tag}, p = {}, n = {n})", cluster.size());
        }
    }

    fn assert_every_shape_matches<K: Protocol>() {
        for cluster in &clusters() {
            for n in [2, 3, 17] {
                let dist = K::distribute(n, &cluster.speeds_mflops());
                for (shape, seg) in segment_shapes::<K>(cluster, &dist, n) {
                    assert_closed_form_matches_event_driven::<K>(cluster, &dist, n, &shape, &seg);
                }
            }
        }
    }

    #[test]
    fn ge_closed_form_matches_event_driven_on_every_segment_shape() {
        assert_every_shape_matches::<GeProtocol>();
    }

    #[test]
    fn mm_closed_form_matches_event_driven_on_every_segment_shape() {
        assert_every_shape_matches::<MmProtocol>();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random machines (speeds drawn from a palette with an
        /// ulp-adjacent pair), sizes, checkpoint strides, death
        /// iterations and shrink points: both closed forms stay
        /// bit-identical to the event-driven engine.
        #[test]
        fn closed_forms_match_event_driven_on_random_segments(
            picks in prop::collection::vec(0usize..4, 1..7),
            n in 2usize..40,
            stride in 1usize..48,
            death in 0usize..48,
            k in 0usize..48,
        ) {
            let palette = [50.0, f64::from_bits(50f64.to_bits() + 1), 80.0, 110.0];
            let nodes = picks
                .iter()
                .enumerate()
                .map(|(i, &c)| NodeSpec::synthetic(format!("r{i}"), palette[c]))
                .collect();
            let cluster = ClusterSpec::new("palette", nodes).expect("p >= 1");
            let speeds = cluster.speeds_mflops();

            let dist = GeProtocol::distribute(n, &speeds);
            let iters = GeProtocol::iterations(n);
            let seg = checkpointed::<GeProtocol>(&cluster, &dist, n, stride, Some(death % iters));
            assert_closed_form_matches_event_driven::<GeProtocol>(&cluster, &dist, n, "ge", &seg);
            for seg in shrink::<GeProtocol>(&cluster, &dist, n, k % iters) {
                assert_closed_form_matches_event_driven::<GeProtocol>(
                    &cluster, &dist, n, "ge shrink", &seg,
                );
            }

            let dist = MmProtocol::distribute(n, &speeds);
            let iters = MmProtocol::iterations(n);
            let seg = checkpointed::<MmProtocol>(&cluster, &dist, n, stride, Some(death % iters));
            assert_closed_form_matches_event_driven::<MmProtocol>(&cluster, &dist, n, "mm", &seg);
            for seg in shrink::<MmProtocol>(&cluster, &dist, n, k % iters) {
                assert_closed_form_matches_event_driven::<MmProtocol>(
                    &cluster, &dist, n, "mm shrink", &seg,
                );
            }
        }
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
    fn traced_recovery_spans_sum_to_the_overhead_decomposition() {
        // The recover table prints the closed-form overhead `drive` sums;
        // the charges the runtimes execute must add up to it.
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * got.abs().max(want.abs());
        for kernel in KERNELS {
            for n in [24, 40] {
                let plan = deadly_plan(kernel, n, 42);
                for policy in [
                    RecoveryPolicy::CheckpointRestart { interval_secs: est(kernel, n) / 4.0 },
                    RecoveryPolicy::ShrinkRebalance,
                ] {
                    let r = run(kernel, &plan, policy, n, true);
                    let o = r.overhead;
                    assert!(o.total_secs() > 0.0, "{kernel:?} n={n} {policy:?}");
                    for (kind, want) in [
                        (OpKind::Checkpoint, o.checkpoint_secs),
                        (OpKind::Detect, o.detect_secs),
                        (OpKind::LostWork, o.lost_work_secs),
                        (OpKind::Rebalance, o.rebalance_secs),
                    ] {
                        let spans = r.timing.traces.iter().flat_map(|t| &t.records);
                        let got: f64 = spans
                            .filter(|span| span.kind == kind)
                            .map(|span| (span.end - span.start).as_secs())
                            .sum();
                        assert!(
                            close(got, want),
                            "{kernel:?} n={n} {policy:?} {kind:?}: {got} {want}"
                        );
                    }
                }
            }
        }
    }

    /// Per-rank counts of `kind` spans when the event-driven engine
    /// replays `K`'s body recording `seg`, traced.
    fn spans_per_rank<K: Protocol>(
        cluster: &ClusterSpec,
        dist: &K::Dist,
        n: usize,
        seg: &Segment,
        kind: OpKind,
    ) -> Vec<usize> {
        let traced = RunSpec { trace: true, faults: None };
        let outcome = run_spmd_fast(cluster, &net(), traced, |t| K::body(t, dist, n, seg));
        outcome.traces.iter().map(|t| t.records.iter().filter(|r| r.kind == kind).count()).collect()
    }

    fn assert_zero_operands_record_no_span<K: Protocol>(kernel: RecoverableKernel) {
        let (cluster, n) = (cluster(kernel), 24);
        let dist = K::distribute(n, &cluster.speeds_mflops());
        let spans = |seg: &Segment, kind| spans_per_rank::<K>(&cluster, &dist, n, seg, kind);
        // Rank 0 receives no rows in the resume; every rank replays a
        // share of the lost work.
        let [_, resume] = shrink::<K>(&cluster, &dist, n, K::iterations(n) / 2);
        assert_eq!(spans(&resume, OpKind::Rebalance), [0, 1, 1], "{kernel:?}");
        assert_eq!(spans(&resume, OpKind::LostWork), [1, 1, 1], "{kernel:?}");
        // A death on a checkpoint iteration loses no work: every rank
        // detects it and replays nothing.
        let seg = checkpointed::<K>(&cluster, &dist, n, 4, Some(8));
        assert_eq!(spans(&seg, OpKind::Detect), [1, 1, 1], "{kernel:?}");
        assert_eq!(spans(&seg, OpKind::LostWork), [0, 0, 0], "{kernel:?}");
    }

    #[test]
    fn zero_operand_charges_record_no_span() {
        assert_zero_operands_record_no_span::<GeProtocol>(RecoverableKernel::Ge);
        assert_zero_operands_record_no_span::<MmProtocol>(RecoverableKernel::Mm);
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

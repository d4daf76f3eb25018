//! Hand-derived closed forms for the four kernel protocols, evaluated
//! without the engine's record/replay machinery.
//!
//! All four timing-mode kernels are *lockstep* (see
//! `hetsim_mpi::engine`'s analytic module for the general detector):
//! their collective schedules are identical on every rank, so each
//! phase's exit clocks are a straight-line function of its entry
//! clocks. The evaluators here go one step further than the generic
//! analyzer — they skip recording entirely and derive the per-phase
//! costs (message counts, charged flops, row ownership) directly from
//! the distribution, which removes the O(ops · p) record pass from
//! every priced cell.
//!
//! **Bit-identity contract**: each closed form performs, per rank, the
//! *same float-op sequence* the event-driven engine charges for the
//! corresponding `*_timed_body` — same `max` folds in rank order, same
//! `+=` order on the clock and the compute/comm accumulators, same
//! division shapes. IEEE 754 addition is non-associative, so only this
//! mirroring (not algebraic equivalence) keeps the results bit-equal.
//! Pure cost-model calls (`p2p_time_between`, `bcast_time`,
//! `gather_time`, `barrier_time`) may be hoisted out of loops: the
//! same arguments produce the same bits, so reuse cannot perturb a
//! result. The `closed_form_matches_engine` grids below pin every
//! kernel × cluster shape × network family against the event-driven
//! scheduler, and transitively (via each kernel's
//! `fast_matches_threaded`) against the thread-per-rank oracle.
//!
//! The closed forms serve the untraced, fault-free path only; span
//! traces and fault plans keep the engine, whose generality they need
//! (the per-kind totals of a trace do not: see below). The
//! kernel entry points select automatically, honouring
//! [`hetsim_mpi::set_analytic_enabled`] (`--no-analytic`). The GE and
//! MM forms also price each segment of a recoverable run
//! (`crate::recover`): its MTBF stream is resolved before pricing, so
//! its checkpoint, detect, lost-work and rebalance charges are local
//! clock spans at known iterations, read from the same segment the
//! body records.
//!
//! The GE round walk also charges each span it prices to a sink: `()`
//! everywhere a caller wants clocks only (the charges compile away), or
//! one [`KindTotals`] per rank for the overhead decomposition, which
//! then holds exactly the per-kind totals a traced engine run reports
//! through `RankTrace::by_kind` — without recording a span.

use crate::ge::{back_substitution_flops, elimination_flops, TimingOutcome};
use crate::mm::multiply_flops;
use crate::power::{matvec_flops, normalize_flops};
use crate::recover::Segment;
use crate::stencil::update_flops;
use hetpart::{BlockDistribution, CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::{KindTotals, OpKind};

/// Where a closed form charges the spans the traced engine would record
/// for each rank, with the same operands.
trait SpanSink {
    /// The sink of a `p`-rank run.
    fn for_ranks(p: usize) -> Self;

    /// Charges the span `[start, end]` of `kind` on `rank`.
    fn span(&mut self, rank: usize, kind: OpKind, start: SimTime, end: SimTime);

    /// Charges what the engine's waited exit records for a rank entering
    /// at `entry`, its peer ready at `ready` and its clock leaving at
    /// `exit`: the idle `Wait` up to `ready` (only when it has length),
    /// then `kind` to `exit`.
    fn waited(&mut self, rank: usize, kind: OpKind, entry: SimTime, ready: SimTime, exit: SimTime) {
        let wait_end = ready.max(entry).min(exit);
        if wait_end > entry {
            self.span(rank, OpKind::Wait, entry, wait_end);
        }
        self.span(rank, kind, wait_end, exit);
    }
}

/// Clocks only: no span is charged.
impl SpanSink for () {
    fn for_ranks(_: usize) {}

    #[inline(always)]
    fn span(&mut self, _: usize, _: OpKind, _: SimTime, _: SimTime) {}
}

/// Each rank's time per kind.
impl SpanSink for Vec<KindTotals> {
    fn for_ranks(p: usize) -> Self {
        vec![KindTotals::default(); p]
    }

    fn span(&mut self, rank: usize, kind: OpKind, start: SimTime, end: SimTime) {
        self[rank].add(kind, start, end);
    }
}

/// Root-serialized distribution: rank 0's sends occupy its clock back
/// to back; each receiver's recv completes at the message's arrival
/// (`max` with its own clock, zero here), idle from its entry until
/// the root starts that send. `counts[peer]` is the element count sent
/// to `peer` (`counts[0]` unused).
fn scatter_from_root<N: NetworkModel, S: SpanSink>(
    network: &N,
    clock: &mut [SimTime],
    comm: &mut [SimTime],
    counts: &[usize],
    sink: &mut S,
) {
    for peer in 1..clock.len() {
        let bytes = (counts[peer] * 8) as u64;
        let cost = SimTime::from_secs(network.p2p_time_between(0, peer, bytes));
        let sent_at = clock[0];
        let arrival = sent_at + cost;
        sink.span(0, OpKind::Send, sent_at, arrival);
        comm[0] += arrival - sent_at;
        clock[0] = arrival;
        let exit = clock[peer].max(arrival);
        sink.waited(peer, OpKind::Recv, clock[peer], sent_at, exit);
        comm[peer] += exit - clock[peer];
        clock[peer] = exit;
    }
}

/// Broadcast of `count` elements from `root`: the root departs at
/// entry + cost; every receiver exits at `max(own clock, departure)`.
fn bcast_from<N: NetworkModel>(
    network: &N,
    clock: &mut [SimTime],
    comm: &mut [SimTime],
    root: usize,
    count: usize,
) {
    let p = clock.len();
    let bytes = (count * 8) as u64;
    let cost = SimTime::from_secs(network.bcast_time(p, bytes));
    let departure = clock[root] + cost;
    comm[root] += departure - clock[root];
    clock[root] = departure;
    for r in 0..p {
        if r != root {
            let exit = clock[r].max(departure);
            comm[r] += exit - clock[r];
            clock[r] = exit;
        }
    }
}

/// Per-rank element counts to byte sizes, rank-indexed like the engine.
fn byte_sizes(counts: &[usize]) -> Vec<u64> {
    counts.iter().map(|&c| (c * 8) as u64).collect()
}

/// Gather of `sizes[r]` bytes per rank to `root` (callers precompute
/// the size vector once — the power iteration gathers every sweep and
/// the batched GE every campaign with the same sizes). Deposits carry
/// each rank's *entry* clock; leaves then pay their p2p cost while the
/// root waits for the latest deposit plus the gather cost over the
/// size vector (rank-indexed, like the engine).
fn gather_to<N: NetworkModel, S: SpanSink>(
    network: &N,
    clock: &mut [SimTime],
    comm: &mut [SimTime],
    root: usize,
    sizes: &[u64],
    sink: &mut S,
) {
    let p = clock.len();
    let max_entry = *clock.iter().max().expect("p >= 1");
    for r in 0..p {
        if r != root {
            let cost = SimTime::from_secs(network.p2p_time_between(r, root, sizes[r]));
            let exit = clock[r] + cost;
            sink.span(r, OpKind::Gather, clock[r], exit);
            comm[r] += exit - clock[r];
            clock[r] = exit;
        }
    }
    let gather_cost = SimTime::from_secs(network.gather_time(sizes, root));
    let ready = clock[root].max(max_entry);
    let exit = ready + gather_cost;
    sink.waited(root, OpKind::Gather, clock[root], ready, exit);
    comm[root] += exit - clock[root];
    clock[root] = exit;
}

/// Condenses per-rank clocks into the timing summary, with the same
/// rank-order folds as `SpmdOutcome::makespan` / `total_overhead`.
fn finish(clock: Vec<SimTime>, compute: Vec<SimTime>, comm: Vec<SimTime>) -> TimingOutcome {
    TimingOutcome {
        makespan: clock.iter().copied().max().unwrap_or(SimTime::ZERO),
        total_overhead: comm.iter().fold(SimTime::ZERO, |acc, &t| acc + t),
        times: clock,
        compute_times: compute,
        traces: Vec::new(),
    }
}

/// Closed-form GE timings: bit-identical to the engine pricing
/// `ge::timed`'s skeleton (scatter, per-pivot bcast → eliminate →
/// barrier rounds, gather, root back-substitution).
pub fn ge_closed_form<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &CyclicDistribution,
) -> TimingOutcome {
    ge_closed_form_many(cluster, std::slice::from_ref(network), n, dist)
        .pop()
        .expect("one network in, one outcome out")
}

/// Each rank's time per operation kind in [`ge_closed_form`]'s run:
/// entry `r` holds, bit for bit, what `RankTrace::by_kind` reports for
/// rank `r` of the traced engine run of `ge::timed`'s skeleton.
pub(crate) fn ge_kind_totals<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &CyclicDistribution,
) -> Vec<KindTotals> {
    let seg = Segment::whole(n.saturating_sub(1));
    let (_, totals) = ge_segment_many(cluster, std::slice::from_ref(network), n, dist, &seg)
        .pop()
        .expect("one network in, one outcome out");
    totals
}

/// The closed form of one GE [`Segment`] — a piece of a recoverable run
/// (`crate::recover`) or the whole run — bit-identical to the engine
/// pricing `ge::timed`'s segment body.
pub(crate) fn ge_segment_closed_form<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &CyclicDistribution,
    seg: &Segment,
) -> TimingOutcome {
    let (outcome, ()) = ge_segment_many(cluster, std::slice::from_ref(network), n, dist, seg)
        .pop()
        .expect("one network in, one outcome out");
    outcome
}

/// Per-campaign mutable state of the batched GE evaluation. Campaigns
/// share no float state: only the network-independent inputs (row
/// ownership, `remaining` counts, elimination `dt`s) are computed once
/// and read by all.
struct GeCampaign<S> {
    clock: Vec<SimTime>,
    compute: Vec<SimTime>,
    comm: Vec<SimTime>,
    /// The last walked round's barrier rendezvous (its latest entry)
    /// and the shared post-barrier clock `rendezvous + barrier_cost`
    /// (all ranks leave a barrier with the same f64), valid from the
    /// end of a segment's first round onwards.
    rendezvous: SimTime,
    clk: SimTime,
    /// Where this campaign's spans are charged.
    sink: S,
}

impl<S: SpanSink> GeCampaign<S> {
    /// Charges the deferred barrier of the last round walked — the
    /// rendezvous entry in `clock[r]` up to the shared exit `clk` — and
    /// equalizes the clocks.
    fn flush_barrier(&mut self) {
        let (rendezvous, clk) = (self.rendezvous, self.clk);
        for (r, (c, cm)) in self.clock.iter_mut().zip(self.comm.iter_mut()).enumerate() {
            self.sink.waited(r, OpKind::Barrier, *c, rendezvous, clk);
            *cm += clk - *c;
            *c = clk;
        }
    }
}

/// [`ge_closed_form`] over many network models at once — the same
/// problem on the same cluster and distribution, priced under each
/// network in one pass over the elimination rounds.
///
/// The noise ablation is the motivating caller: its frozen-noise
/// campaigns differ *only* in the jittered network, so the row
/// ownership scan, the `remaining` below-pivot counts, and every
/// elimination `dt` (`remaining · elim / speed` — no network anywhere
/// in it) are computed once per round and reused across all campaigns.
/// Each campaign's float-op sequence is exactly the one
/// [`ge_closed_form`] performs for its network — sharing
/// network-independent inputs reorders evaluation only across
/// *independent* values, so results stay bit-identical (pinned by
/// `many_matches_one_by_one` below).
pub fn ge_closed_form_many<N: NetworkModel>(
    cluster: &ClusterSpec,
    networks: &[N],
    n: usize,
    dist: &CyclicDistribution,
) -> Vec<TimingOutcome> {
    ge_segment_many(cluster, networks, n, dist, &Segment::whole(n.saturating_sub(1)))
        .into_iter()
        .map(|(outcome, ())| outcome)
        .collect()
}

/// The one GE round walk behind [`ge_closed_form_many`],
/// [`ge_segment_closed_form`] and [`ge_kind_totals`]: `seg` says which
/// rounds to walk, how the segment opens and closes, and which rounds
/// carry recovery charges at their heads. Each campaign also charges
/// its distribution, broadcast, compute, barrier and gather spans to a
/// sink of type `S`, in program order per rank; a segment's recovery
/// charges are not spans of the sink, so only whole runs (which carry
/// none) take a sink that keeps anything.
fn ge_segment_many<N: NetworkModel, S: SpanSink>(
    cluster: &ClusterSpec,
    networks: &[N],
    n: usize,
    dist: &CyclicDistribution,
    seg: &Segment,
) -> Vec<(TimingOutcome, S)> {
    let whole = *seg == Segment::whole(n.saturating_sub(1));
    hetsim_mpi::telemetry::record_closed_form(
        if whole { "ge" } else { "ge-recover" },
        networks.len() as u64,
    );
    let p = cluster.size();
    let speeds = cluster.speeds_flops();
    // Row counts per rank in one O(n) ownership pass (materializing
    // each rank's row list would be O(n · p)).
    let mut rows = vec![0usize; p];
    for i in 0..n {
        rows[dist.owner(i)] += 1;
    }
    let scatter_counts: Vec<usize> = rows.iter().map(|&r| r * (n + 1)).collect();

    // Stage 1: root-serialized distribution of row blocks (or a shrink
    // run's resume prologue), per campaign.
    let mut campaigns: Vec<GeCampaign<S>> = networks
        .iter()
        .map(|net| {
            let mut clock = vec![SimTime::ZERO; p];
            let mut comm = vec![SimTime::ZERO; p];
            let mut sink = S::for_ranks(p);
            seg.open_priced(&mut clock, &mut comm, |clock, comm| {
                scatter_from_root(net, clock, comm, &scatter_counts, &mut sink)
            });
            GeCampaign {
                clock,
                compute: vec![SimTime::ZERO; p],
                comm,
                rendezvous: SimTime::ZERO,
                clk: SimTime::ZERO,
                sink,
            }
        })
        .collect();

    // Stage 2: elimination rounds. The barrier cost depends only on
    // `p` — hoisted once per campaign, exactly as the engine hoists it
    // per replay. `remaining[r]` tracks rank `r`'s rows strictly below
    // the pivot: row `i` leaves its owner's count at round `i`, which
    // reproduces the body's sorted-row scan bit for bit (a segment
    // starting at round `k` starts from the rows `k..`). `dts[r]` is
    // the round's elimination time — network-free, so shared.
    let barrier_costs: Vec<SimTime> =
        networks.iter().map(|net| SimTime::from_secs(net.barrier_time(p))).collect();
    let mut remaining = rows;
    for i in 0..seg.iters.start {
        remaining[dist.owner(i)] -= 1;
    }
    let mut dts = vec![SimTime::ZERO; p];
    // The elimination-flops ladder is a pure function of the round —
    // precomputed once per batch and shared by every campaign.
    let elims: Vec<f64> = (0..seg.iters.end).map(|i| elimination_flops(n - i)).collect();
    let mut next = seg.iters.start;
    while next < seg.iters.end {
        // A segment's first round, and every round that carries a
        // recovery charge at its head, runs generically: rank clocks
        // are unequal (after the scatter, the prologue or the charges),
        // so receivers genuinely race the pivot broadcast. A previous
        // round's barrier *comm* charge is deferred: each campaign
        // records the barrier exit in `clk` and leaves `clock[r]` at
        // the rendezvous entries; the next round (or the final flush)
        // charges `clk − clock[r]` first, which is the same operand
        // pair in the same per-accumulator order as the engine.
        let i = next;
        let owner = dist.owner(i);
        let bytes = ((n - i + 1) * 8) as u64;
        remaining[owner] -= 1;
        let elim = elims[i];
        for (d, (&rem, &spd)) in dts.iter_mut().zip(remaining.iter().zip(speeds.iter())) {
            *d = SimTime::from_secs(rem as f64 * elim / spd);
        }
        for ((net, cpn), &barrier_cost) in
            networks.iter().zip(campaigns.iter_mut()).zip(barrier_costs.iter())
        {
            if i > seg.iters.start {
                cpn.flush_barrier();
            }
            for (r, (clock, comm)) in cpn.clock.iter_mut().zip(&mut cpn.comm).enumerate() {
                seg.price_head(i, r, clock, comm);
            }
            let cost = SimTime::from_secs(net.bcast_time(p, bytes));
            let departure = cpn.clock[owner] + cost;
            cpn.sink.span(owner, OpKind::Bcast, cpn.clock[owner], departure);
            cpn.comm[owner] += departure - cpn.clock[owner];
            cpn.clock[owner] = departure;
            // Fused receiver-exit + elimination + rendezvous pass. The
            // incremental `max` sees the same operands as a whole-slice
            // fold over the final clocks (all clocks are non-negative,
            // so seeding with zero is exact).
            let mut rendezvous = SimTime::ZERO;
            for (r, &dt) in dts.iter().enumerate() {
                if r != owner {
                    let exit = cpn.clock[r].max(departure);
                    cpn.sink.span(r, OpKind::Bcast, cpn.clock[r], exit);
                    cpn.comm[r] += exit - cpn.clock[r];
                    cpn.clock[r] = exit;
                }
                let start = cpn.clock[r];
                cpn.clock[r] += dt;
                cpn.sink.span(r, OpKind::Compute, start, cpn.clock[r]);
                cpn.compute[r] += dt;
                rendezvous = rendezvous.max(cpn.clock[r]);
            }
            cpn.rendezvous = rendezvous;
            cpn.clk = rendezvous + barrier_cost;
        }
        // The rounds up to the next charged head: every rank left the
        // previous barrier with the *same* clock (`rendezvous +
        // barrier_cost` is one f64 written to all), so the per-rank
        // clock is the scalar `clk` until the next compute. The
        // broadcast then departs at `clk + cost ≥ clk`, making every
        // receiver's `max(clock, departure)` collapse to `departure`
        // (on a zero-cost tie, `SimTime::max` keeps `self`, whose bits
        // equal `departure`'s) and the per-rank comm charge `departure
        // − clock` collapse to one shared sub. Each rank then computes
        // `departure + dt[r]` — the exact add the engine performs.
        // `clock[r]` holds the previous round's rendezvous entry, so
        // the deferred barrier charge `clk − clock[r]` lands here,
        // first in the per-accumulator order (the sink splits it at the
        // previous `rendezvous` into idle wait and the barrier's own
        // cost); the zipped iterators keep the hot loop free of bounds
        // checks.
        next = seg.next_charged(i + 1);
        for (i, &elim) in (i + 1..next).zip(&elims[i + 1..next]) {
            let owner = dist.owner(i);
            let bytes = ((n - i + 1) * 8) as u64;
            remaining[owner] -= 1;
            for (d, (&rem, &spd)) in dts.iter_mut().zip(remaining.iter().zip(speeds.iter())) {
                *d = SimTime::from_secs(rem as f64 * elim / spd);
            }
            for ((net, cpn), &barrier_cost) in
                networks.iter().zip(campaigns.iter_mut()).zip(barrier_costs.iter())
            {
                let cost = SimTime::from_secs(net.bcast_time(p, bytes));
                let (prev_rendezvous, prev_exit) = (cpn.rendezvous, cpn.clk);
                let departure = prev_exit + cost;
                let delta = departure - prev_exit;
                let mut rendezvous = SimTime::ZERO;
                for (r, (((c, cm), cp), &dt)) in cpn
                    .clock
                    .iter_mut()
                    .zip(cpn.comm.iter_mut())
                    .zip(cpn.compute.iter_mut())
                    .zip(dts.iter())
                    .enumerate()
                {
                    cpn.sink.waited(r, OpKind::Barrier, *c, prev_rendezvous, prev_exit);
                    *cm += prev_exit - *c;
                    let t = departure + dt;
                    cpn.sink.span(r, OpKind::Bcast, prev_exit, departure);
                    cpn.sink.span(r, OpKind::Compute, departure, t);
                    *c = t;
                    *cm += delta;
                    *cp += dt;
                    rendezvous = rendezvous.max(t);
                }
                cpn.rendezvous = rendezvous;
                cpn.clk = rendezvous + barrier_cost;
            }
        }
    }
    // Flush the last round's deferred barrier charge and materialize
    // the equalized clocks.
    if !seg.iters.is_empty() {
        campaigns.iter_mut().for_each(GeCampaign::flush_barrier);
    }

    // Stage 3: gather to rank 0, then sequential back substitution —
    // unless the segment is an interrupted prefix.
    let backsub = SimTime::from_secs(back_substitution_flops(n) / speeds[0]);
    let gather_sizes = byte_sizes(&scatter_counts);
    networks
        .iter()
        .zip(campaigns)
        .map(|(net, cpn)| {
            let GeCampaign { mut clock, mut compute, mut comm, mut sink, .. } = cpn;
            if seg.gather {
                gather_to(net, &mut clock, &mut comm, 0, &gather_sizes, &mut sink);
                let start = clock[0];
                clock[0] += backsub;
                sink.span(0, OpKind::Compute, start, clock[0]);
                compute[0] += backsub;
            }
            (finish(clock, compute, comm), sink)
        })
        .collect()
}

/// Closed-form MM (HoHe) timings: A-block scatter, B broadcast, local
/// multiply, C gather — bit-identical to the engine on `mm::timed`'s
/// skeleton.
pub fn mm_closed_form<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &BlockDistribution,
) -> TimingOutcome {
    mm_segment_closed_form(cluster, network, n, dist, &Segment::whole(n))
}

/// The closed form of one MM [`Segment`], bit-identical to the engine
/// pricing `mm::timed`'s segment body: the whole run charges each
/// rank's multiply as one block, every other segment walks its chunks
/// of `flops / n`, each after its head's recovery charges.
pub(crate) fn mm_segment_closed_form<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &BlockDistribution,
    seg: &Segment,
) -> TimingOutcome {
    let whole = *seg == Segment::whole(n);
    hetsim_mpi::telemetry::record_closed_form(if whole { "mm" } else { "mm-recover" }, 1);
    let p = cluster.size();
    let speeds = cluster.speeds_flops();
    let rows: Vec<usize> = (0..p).map(|r| dist.range_of(r).len()).collect();

    let mut clock = vec![SimTime::ZERO; p];
    let mut compute = vec![SimTime::ZERO; p];
    let mut comm = vec![SimTime::ZERO; p];

    let block_counts: Vec<usize> = rows.iter().map(|&r| r * n).collect();
    seg.open_priced(&mut clock, &mut comm, |clock, comm| {
        scatter_from_root(network, clock, comm, &block_counts, &mut ());
        bcast_from(network, clock, comm, 0, n * n);
    });
    // Ranks share nothing between the opening and the gather, so each
    // walks its own chunks.
    for r in 0..p {
        let flops = multiply_flops(rows[r], n);
        if whole {
            let dt = SimTime::from_secs(flops / speeds[r]);
            clock[r] += dt;
            compute[r] += dt;
        } else {
            let dt = SimTime::from_secs(flops / n as f64 / speeds[r]);
            for j in seg.iters.clone() {
                seg.price_head(j, r, &mut clock[r], &mut comm[r]);
                clock[r] += dt;
                compute[r] += dt;
            }
        }
    }
    if seg.gather {
        gather_to(network, &mut clock, &mut comm, 0, &byte_sizes(&block_counts), &mut ());
    }

    finish(clock, compute, comm)
}

/// Closed-form power-iteration timings: scatter, then `iters` sweeps
/// of local matvec → allgather (gather to 0 + packed rebroadcast) →
/// normalization — bit-identical to the engine on `power::timed`'s
/// skeleton.
pub fn power_closed_form<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    iters: usize,
    dist: &BlockDistribution,
) -> TimingOutcome {
    hetsim_mpi::telemetry::record_closed_form("power", 1);
    let p = cluster.size();
    let speeds = cluster.speeds_flops();
    let rows: Vec<usize> = (0..p).map(|r| dist.range_of(r).len()).collect();

    let mut clock = vec![SimTime::ZERO; p];
    let mut compute = vec![SimTime::ZERO; p];
    let mut comm = vec![SimTime::ZERO; p];

    let block_counts: Vec<usize> = rows.iter().map(|&r| r * n).collect();
    scatter_from_root(network, &mut clock, &mut comm, &block_counts, &mut ());

    // Per-sweep costs are sweep-invariant (pure functions of sizes and
    // speeds); compute them once.
    let matvec: Vec<SimTime> =
        (0..p).map(|r| SimTime::from_secs(matvec_flops(rows[r], n) / speeds[r])).collect();
    let normalize: Vec<SimTime> =
        (0..p).map(|r| SimTime::from_secs(normalize_flops(n) / speeds[r])).collect();
    // The allgather's closing broadcast carries `p` length headers plus
    // the packed gathered contributions.
    let packed = p + rows.iter().sum::<usize>();
    let gather_sizes = byte_sizes(&rows);
    for _sweep in 0..iters {
        for r in 0..p {
            clock[r] += matvec[r];
            compute[r] += matvec[r];
        }
        gather_to(network, &mut clock, &mut comm, 0, &gather_sizes, &mut ());
        bcast_from(network, &mut clock, &mut comm, 0, packed);
        for r in 0..p {
            clock[r] += normalize[r];
            compute[r] += normalize[r];
        }
    }

    finish(clock, compute, comm)
}

/// Closed-form stencil timings: scatter, `iters` halo-exchange sweeps
/// (send up/down, receive down/up, interior update), gather —
/// bit-identical to the engine on `stencil::timed`'s skeleton.
pub fn stencil_closed_form<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    iters: usize,
    dist: &BlockDistribution,
) -> TimingOutcome {
    hetsim_mpi::telemetry::record_closed_form("stencil", 1);
    let p = cluster.size();
    let speeds = cluster.speeds_flops();
    let rows: Vec<usize> = (0..p).map(|r| dist.range_of(r).len()).collect();

    let mut clock = vec![SimTime::ZERO; p];
    let mut compute = vec![SimTime::ZERO; p];
    let mut comm = vec![SimTime::ZERO; p];

    let block_counts: Vec<usize> = rows.iter().map(|&r| r * n).collect();
    scatter_from_root(network, &mut clock, &mut comm, &block_counts, &mut ());

    if n >= 3 && iters > 0 {
        // Halo neighbours skip empty ranks; a rank with no rows sits
        // the sweeps out entirely.
        let prev: Vec<Option<usize>> =
            (0..p).map(|me| (0..me).rev().find(|&r| rows[r] > 0)).collect();
        let next: Vec<Option<usize>> =
            (0..p).map(|me| (me + 1..p).find(|&r| rows[r] > 0)).collect();
        let halo_bytes = (n * 8) as u64;
        // Sweep-invariant per-rank costs, hoisted like the engine's
        // per-replay barrier cost (pure calls, identical bits).
        let up_cost: Vec<SimTime> = (0..p)
            .map(|r| match prev[r] {
                Some(prv) => SimTime::from_secs(network.p2p_time_between(r, prv, halo_bytes)),
                None => SimTime::ZERO,
            })
            .collect();
        let down_cost: Vec<SimTime> = (0..p)
            .map(|r| match next[r] {
                Some(nxt) => SimTime::from_secs(network.p2p_time_between(r, nxt, halo_bytes)),
                None => SimTime::ZERO,
            })
            .collect();
        let update: Vec<SimTime> = (0..p)
            .map(|r| {
                let range = dist.range_of(r);
                let interior = (range.start.max(1)..range.end.min(n - 1)).count();
                SimTime::from_secs(update_flops(interior * (n - 2)) / speeds[r])
            })
            .collect();
        // Per-sweep message bookkeeping: (sent_at, arrival) of each
        // rank's up (to prev) and down (to next) halo messages.
        let mut up_msg = vec![(SimTime::ZERO, SimTime::ZERO); p];
        let mut down_msg = vec![(SimTime::ZERO, SimTime::ZERO); p];
        for _sweep in 0..iters {
            // Sends, in per-rank program order: up to prev, down to
            // next, serialized on the sender's clock.
            for r in 0..p {
                if rows[r] == 0 {
                    continue;
                }
                if prev[r].is_some() {
                    let sent_at = clock[r];
                    let arrival = sent_at + up_cost[r];
                    comm[r] += arrival - clock[r];
                    clock[r] = arrival;
                    up_msg[r] = (sent_at, arrival);
                }
                if next[r].is_some() {
                    let sent_at = clock[r];
                    let arrival = sent_at + down_cost[r];
                    comm[r] += arrival - clock[r];
                    clock[r] = arrival;
                    down_msg[r] = (sent_at, arrival);
                }
            }
            // Receives (down from prev, up from next — `prev`'s down
            // message targets exactly this rank and vice versa), then
            // the interior update.
            for r in 0..p {
                if rows[r] == 0 {
                    continue;
                }
                if let Some(prv) = prev[r] {
                    let (_sent_at, arrival) = down_msg[prv];
                    let exit = clock[r].max(arrival);
                    comm[r] += exit - clock[r];
                    clock[r] = exit;
                }
                if let Some(nxt) = next[r] {
                    let (_sent_at, arrival) = up_msg[nxt];
                    let exit = clock[r].max(arrival);
                    comm[r] += exit - clock[r];
                    clock[r] = exit;
                }
                clock[r] += update[r];
                compute[r] += update[r];
            }
        }
    }

    gather_to(network, &mut clock, &mut comm, 0, &byte_sizes(&block_counts), &mut ());

    finish(clock, compute, comm)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ge::ge_timed_body;
    use crate::mm::mm_timed_body;
    use crate::power::power_timed_body;
    use crate::stencil::stencil_timed_body;
    use hetsim_cluster::network::{
        ConstantLatency, JitteredNetwork, MpichEthernet, SharedEthernet, SwitchedNetwork,
    };
    use hetsim_cluster::{sunwulf, NodeSpec};
    use hetsim_mpi::{record_spmd, run_spmd_fast, RecordTimer, RunSpec};
    use std::collections::BTreeMap;

    /// Cluster extremes for the class-structure sweep: single rank,
    /// server + blade, all-distinct speeds, wide homogeneous (the
    /// shape where rank classes actually dedup).
    pub(crate) fn clusters() -> Vec<ClusterSpec> {
        vec![
            ClusterSpec::homogeneous(1, 50.0),
            ClusterSpec::new(
                "srv+blade",
                vec![NodeSpec::synthetic("srv", 90.0), NodeSpec::synthetic("blade", 50.0)],
            )
            .unwrap(),
            ClusterSpec::new(
                "distinct5",
                (0..5)
                    .map(|i| NodeSpec::synthetic("n", 40.0 + 17.0 * i as f64))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            ClusterSpec::homogeneous(8, 70.0),
        ]
    }

    pub(crate) fn networks() -> Vec<(&'static str, Box<dyn NetworkModel>)> {
        vec![
            ("const", Box::new(ConstantLatency::new(2.5e-4))),
            ("switched", Box::new(SwitchedNetwork::new(1.2e-4, 9.0e-9))),
            ("shared", Box::new(SharedEthernet::new(0.3e-3, 1.25e7))),
            ("mpich", Box::new(MpichEthernet::new(0.30e-3, 1.0e8))),
            (
                "jittered",
                Box::new(JitteredNetwork::new(MpichEthernet::new(0.30e-3, 1.0e8), 0.1, 7)),
            ),
        ]
    }

    /// Every closed form must be bit-identical to the *event-driven*
    /// scheduler (not the engine's own analytic path) across cluster
    /// shapes × networks × sizes.
    #[test]
    fn closed_form_matches_engine_mm() {
        for cluster in &clusters() {
            for n in [1usize, 2, 3, 17, 64] {
                let dist = BlockDistribution::proportional(n, &cluster.speeds_mflops());
                let program = record_spmd(cluster, |t| mm_timed_body(t, &dist, n));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let engine =
                        TimingOutcome::from_spmd(program.simulate_event_driven(cluster, &net));
                    let closed = mm_closed_form(cluster, &net, n, &dist);
                    assert_eq!(closed, engine, "mm diverged ({tag}, p={}, n={n})", cluster.size());
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_engine_power() {
        for cluster in &clusters() {
            for (n, iters) in [(1usize, 1usize), (2, 2), (3, 1), (17, 4), (64, 3)] {
                let dist = BlockDistribution::proportional(n, &cluster.speeds_mflops());
                let program = record_spmd(cluster, |t| power_timed_body(t, &dist, n, iters));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let engine =
                        TimingOutcome::from_spmd(program.simulate_event_driven(cluster, &net));
                    let closed = power_closed_form(cluster, &net, n, iters, &dist);
                    assert_eq!(
                        closed,
                        engine,
                        "power diverged ({tag}, p={}, n={n}, iters={iters})",
                        cluster.size()
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_engine_stencil() {
        for cluster in &clusters() {
            // n < 3 skips the sweep block; n = 17 at p = 8 leaves some
            // ranks with single rows; 64 exercises long halo chains.
            for (n, iters) in [(1usize, 2usize), (2, 2), (3, 1), (17, 4), (64, 3)] {
                let dist = BlockDistribution::proportional(n, &cluster.speeds_mflops());
                let program = record_spmd(cluster, |t| stencil_timed_body(t, &dist, n, iters));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let engine =
                        TimingOutcome::from_spmd(program.simulate_event_driven(cluster, &net));
                    let closed = stencil_closed_form(cluster, &net, n, iters, &dist);
                    assert_eq!(
                        closed,
                        engine,
                        "stencil diverged ({tag}, p={}, n={n}, iters={iters})",
                        cluster.size()
                    );
                }
            }
        }
    }

    /// The GE grid lives in `ge::timed` (its historical home); this
    /// adds the speed-blind cyclic deal the distribution ablation uses,
    /// where `remaining` decrements hit every rank evenly.
    #[test]
    fn closed_form_matches_engine_ge_blind_cyclic() {
        for cluster in &clusters() {
            for n in [3usize, 17, 64] {
                let dist = CyclicDistribution::fine(n, &vec![1.0; cluster.size()]);
                let program = record_spmd(cluster, |t| ge_timed_body(t, &dist, n));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let engine =
                        TimingOutcome::from_spmd(program.simulate_event_driven(cluster, &net));
                    let closed = ge_closed_form(cluster, &net, n, &dist);
                    assert_eq!(closed, engine, "ge diverged ({tag}, p={}, n={n})", cluster.size());
                }
            }
        }
    }

    /// The batched evaluator must be bit-identical to evaluating each
    /// network on its own — the contract that lets the noise ablation
    /// share the network-independent state across its campaigns.
    #[test]
    fn many_matches_one_by_one() {
        for cluster in &clusters() {
            let sp = cluster.speeds_mflops();
            let nets: Vec<JitteredNetwork<MpichEthernet>> = (0..5)
                .map(|i| {
                    JitteredNetwork::new(
                        MpichEthernet::new(0.30e-3, 1.0e8),
                        0.02 + 0.03 * i as f64,
                        i,
                    )
                })
                .collect();
            for n in [1usize, 2, 3, 17, 64] {
                let dist = CyclicDistribution::fine(n, &sp);
                let batch = ge_closed_form_many(cluster, &nets, n, &dist);
                for (net, out) in nets.iter().zip(&batch) {
                    let single = ge_closed_form(cluster, net, n, &dist);
                    assert_eq!(out, &single, "batch diverged (p={}, n={n})", cluster.size());
                }
            }
        }
    }

    /// A rank's time per kind as a map of bit patterns.
    fn bits(kinds: impl IntoIterator<Item = (OpKind, SimTime)>) -> BTreeMap<OpKind, u64> {
        kinds.into_iter().map(|(k, t)| (k, t.as_secs().to_bits())).collect()
    }

    /// Checks, rank by rank, that the closed form's time per kind is
    /// what `RankTrace::by_kind` reports for the traced engine run of
    /// the same GE skeleton: the same kinds present and the same bits.
    fn assert_kind_totals_match(cluster: &ClusterSpec, net: &dyn NetworkModel, n: usize) {
        let dist = CyclicDistribution::fine(n, &cluster.speeds_mflops());
        let traced = run_spmd_fast(cluster, &net, RunSpec { trace: true, faults: None }, |t| {
            ge_timed_body(t, &dist, n)
        });
        let closed = ge_kind_totals(cluster, &net, n, &dist);
        assert_eq!(closed.len(), traced.traces.len());
        for (r, (totals, trace)) in closed.iter().zip(&traced.traces).enumerate() {
            assert_eq!(
                bits(totals.iter()),
                bits(trace.by_kind()),
                "rank {r} of {} diverged at n = {n}",
                cluster.size()
            );
        }
    }

    #[test]
    fn kind_totals_match_engine_traces() {
        for cluster in &clusters() {
            for n in [0usize, 1, 2, 3, 17, 64, 129] {
                for (_, net) in &networks() {
                    assert_kind_totals_match(cluster, net.as_ref(), n);
                }
            }
        }
    }

    /// The overhead decomposition's own cells: every Sunwulf GE rung at
    /// its problem size.
    #[test]
    fn kind_totals_match_engine_traces_on_sunwulf_rungs() {
        let net = sunwulf::sunwulf_network();
        for p in 2..=32 {
            assert_kind_totals_match(&sunwulf::ge_config(p), &net, 384);
        }
    }

    /// All four recorded kernel bodies must be accepted by the generic
    /// lockstep analyzer (the engine-level fast path behind
    /// `run_spmd_fast`).
    #[test]
    fn kernel_recordings_are_lockstep() {
        let cluster = clusters().pop().expect("non-empty");
        let n = 17usize;
        let sp = cluster.speeds_mflops();
        let cyc = CyclicDistribution::fine(n, &sp);
        let blk = BlockDistribution::proportional(n, &sp);
        let reason =
            |body: &dyn Fn(&mut RecordTimer)| record_spmd(&cluster, body).fallback_reason();
        assert_eq!(reason(&|t| ge_timed_body(t, &cyc, n)), None);
        assert_eq!(reason(&|t| mm_timed_body(t, &blk, n)), None);
        assert_eq!(reason(&|t| power_timed_body(t, &blk, n, 3)), None);
        assert_eq!(reason(&|t| stencil_timed_body(t, &blk, n, 3)), None);
    }
}

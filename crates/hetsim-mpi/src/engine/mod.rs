//! Fast-path analytic timing engine: payload-free, single-threaded,
//! bit-identical to the threaded runtime.
//!
//! The threaded runtime in [`crate::runtime`] prices a run by actually
//! executing it — one OS thread per rank, real byte buffers through real
//! mailboxes. For *timing-mode* kernels none of that machinery affects
//! the result: virtual time is a pure function of marked speeds, payload
//! **sizes**, and the network model (see the crate docs). This module
//! exploits that purity with a two-phase evaluator:
//!
//! 1. **Record** — the SPMD body runs once per rank against a
//!    [`RecordTimer`], a [`SpmdTimer`] implementation that executes no
//!    communication at all and instead logs the rank's operation list
//!    (op kind, peers, element counts, charged flops, local charges).
//!    Timing-mode bodies have data-independent control flow, so the log
//!    is exactly the op sequence the threaded runtime would execute, and
//!    every op carries its own size: the replay derives none. Collectives
//!    are logged unnumbered: every rank calls them in the same order,
//!    so the simulator numbers each rank's collectives by position, as
//!    [`Rank`] does. Recordings are
//!    deduplicated into **rank classes**: ranks whose op lists and node
//!    speeds coincide share one stored recording ([`record_spmd`]), so a
//!    homogeneous sub-pool of 80 identical blades stores one op list,
//!    not 80. Clocks and results stay per-rank — only the recording is
//!    shared.
//! 2. **Simulate** — a single-threaded run-until-blocked scheduler
//!    replays the per-rank op lists against virtual mailboxes and
//!    collective slots, performing the *identical* float-op sequences as
//!    [`crate::context::Rank`] — same order of `+=` on the clock and the
//!    compute/comm/wait accumulators, same `max`/rendezvous folds, same
//!    fault retry charges. IEEE 754 addition is not associative, so this
//!    mirroring is what makes the result bit-identical rather than
//!    merely close; the `fast_matches_threaded` tests pin it. The
//!    scheduler is an indexed ready queue: a blocked rank parks on the
//!    wake list of exactly the mailbox or collective slot it needs, and
//!    only the ranks a completed op can unblock are re-queued — a
//!    blocking round costs O(woken ranks), not O(P). Virtual times are
//!    pure functions of message and slot contents (the same argument
//!    that makes the threaded runtime scheduling-independent), so the
//!    visit order change cannot perturb a single bit.
//!
//! Lockstep recordings skip the scheduler: `analytic` factors a
//! recording once into a phase plan, the engine's only plan, which two
//! tiers walk — the per-rank lockstep evaluator (DESIGN.md §10) and the
//! class-aggregated walk of `aggregate` (DESIGN.md §13). Each tier
//! has one way to ask for it: [`run_spmd_fast`] records and routes,
//! and a recorded [`SpmdProgram`] prices on one tier through
//! [`simulate_analytic`](SpmdProgram::simulate_analytic),
//! [`simulate_event_driven`](SpmdProgram::simulate_event_driven) or
//! [`simulate_aggregated`](SpmdProgram::simulate_aggregated).
//!
//! The threaded runtime remains the semantic oracle: any new operation
//! must land in [`crate::context::Rank`] first and be mirrored here,
//! guarded by an equality test.

use crate::context::{assert_chargeable, Rank};
use crate::message::Tag;
use crate::runtime::{RunSpec, SpmdOutcome};
use crate::telemetry::{self, EnginePath, EngineReport, EventDrivenMode, FallbackReason};
use crate::trace::{OpKind, RankTrace, TraceRecord};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

mod aggregate;
mod analytic;

pub use aggregate::AggregateOutcome;
use analytic::LockstepProgram;

/// Process-wide switch for the lockstep analytic evaluator (default
/// on). See [`set_analytic_enabled`].
static ANALYTIC_ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables the lockstep analytic evaluator
/// (`bench-tables`' `--no-analytic` flag). With it disabled,
/// [`run_spmd_fast`] always uses the event-driven ready-queue
/// scheduler. Both paths are bit-identical by
/// construction (the analytic evaluator mirrors the scheduler's float-op
/// sequences), so flipping this mid-run changes cost, never results.
pub fn set_analytic_enabled(enabled: bool) {
    ANALYTIC_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the lockstep analytic evaluator is currently enabled.
pub fn analytic_enabled() -> bool {
    ANALYTIC_ENABLED.load(Ordering::Relaxed)
}

/// Size-only SPMD operations: the interface timing-mode bodies program
/// against so one body drives both engines.
///
/// Implemented by [`Rank`] (threaded oracle — materializes zero-filled
/// payloads of the given element counts) and by [`RecordTimer`] (fast
/// path — logs the operation for later simulation). All counts are in
/// `f64` elements; the wire cost is `8 × count` bytes, exactly what the
/// threaded runtime charges for a `count`-element payload.
///
/// There is no allgather: a body records the two collectives
/// [`Rank::allgather_f64s`] runs, a gather to rank 0 and then a
/// broadcast from rank 0 of one length header per rank plus every
/// gathered element.
pub trait SpmdTimer {
    /// This process's rank id, `0 ≤ rank < size`.
    fn rank(&self) -> usize;

    /// Number of processes in the run.
    fn size(&self) -> usize;

    /// Charges `flops` floating-point operations at the node's marked
    /// speed (see [`Rank::compute_flops`]).
    fn compute_flops(&mut self, flops: f64);

    /// Sends `count` `f64` elements to `dest` with `tag`.
    fn send_count(&mut self, dest: usize, tag: Tag, count: usize);

    /// Receives from `source` with `tag`, asserting the payload carries
    /// exactly `expect` elements.
    fn recv_count(&mut self, source: usize, tag: Tag, expect: usize);

    /// Barrier across all ranks (see [`Rank::barrier`]).
    fn barrier(&mut self);

    /// Broadcast of `count` elements from `root`; every rank passes the
    /// same `count` (timing-mode bodies know their sizes a priori).
    fn broadcast_count(&mut self, root: usize, count: usize);

    /// Gather to `root`; `count` is this rank's own contribution size.
    fn gather_count(&mut self, root: usize, count: usize);

    /// Charges `secs` of local overhead as one `kind` span carrying
    /// `bytes` (see [`Rank::charge`]).
    fn charge(&mut self, kind: OpKind, secs: f64, bytes: u64);
}

impl SpmdTimer for Rank<'_> {
    fn rank(&self) -> usize {
        Rank::rank(self)
    }

    fn size(&self) -> usize {
        Rank::size(self)
    }

    fn compute_flops(&mut self, flops: f64) {
        Rank::compute_flops(self, flops);
    }

    fn send_count(&mut self, dest: usize, tag: Tag, count: usize) {
        self.send_f64s(dest, tag, &vec![0.0; count]);
    }

    fn recv_count(&mut self, source: usize, tag: Tag, expect: usize) {
        let got = self.recv_f64s(source, tag);
        assert_eq!(got.len(), expect, "recv_count: payload size disagrees with the protocol");
    }

    fn barrier(&mut self) {
        Rank::barrier(self);
    }

    fn broadcast_count(&mut self, root: usize, count: usize) {
        if Rank::rank(self) == root {
            self.broadcast_f64s(root, Some(&vec![0.0; count]));
        } else {
            let got = self.broadcast_f64s(root, None);
            debug_assert_eq!(got.len(), count, "broadcast_count: size disagrees with the root");
        }
    }

    fn gather_count(&mut self, root: usize, count: usize) {
        let _ = self.gather_f64s(root, &vec![0.0; count]);
    }

    fn charge(&mut self, kind: OpKind, secs: f64, bytes: u64) {
        Rank::charge(self, kind, secs, bytes);
    }
}

/// One recorded operation of one rank. Element counts, not payloads.
///
/// Collectives carry no number: every rank calls its collectives in
/// the same order, so the replay numbers each one by its position in
/// the rank's collective sequence, as [`Rank`] does.
///
/// `PartialEq` is the rank-class criterion: two ranks share a recording
/// only when their op streams compare equal field-for-field (flops
/// compare as `f64`, which is exact here — recorded flops are finite and
/// non-negative, so equal values are bit-equal up to the sign of zero,
/// and `±0.0` flops price identically).
#[derive(Debug, Clone, PartialEq)]
enum Op {
    Compute {
        flops: f64,
    },
    Send {
        dest: usize,
        tag: Tag,
        count: usize,
    },
    Recv {
        source: usize,
        tag: Tag,
        expect: usize,
    },
    Barrier,
    BcastRoot {
        count: usize,
    },
    BcastRecv {
        root: usize,
        count: usize,
    },
    GatherRoot {
        count: usize,
    },
    GatherLeaf {
        root: usize,
        count: usize,
    },
    /// A local `kind` span of `secs` carrying `bytes` (never blocks).
    Charge {
        kind: OpKind,
        secs: f64,
        bytes: u64,
    },
}

/// Recording [`SpmdTimer`]: logs a rank's operation list for the
/// simulator instead of executing anything. Created internally by
/// [`record_spmd`] and [`run_spmd_fast`]; bodies only see
/// `&mut RecordTimer`.
pub struct RecordTimer {
    id: usize,
    size: usize,
    ops: Vec<Op>,
}

impl SpmdTimer for RecordTimer {
    fn rank(&self) -> usize {
        self.id
    }

    fn size(&self) -> usize {
        self.size
    }

    fn compute_flops(&mut self, flops: f64) {
        assert!(flops.is_finite() && flops >= 0.0, "flops must be finite and ≥ 0");
        self.ops.push(Op::Compute { flops });
    }

    fn send_count(&mut self, dest: usize, tag: Tag, count: usize) {
        assert!(dest < self.size, "destination rank {dest} out of range");
        assert_ne!(dest, self.id, "self-send is not supported");
        self.ops.push(Op::Send { dest, tag, count });
    }

    fn recv_count(&mut self, source: usize, tag: Tag, expect: usize) {
        assert!(source < self.size, "source rank {source} out of range");
        assert_ne!(source, self.id, "self-receive is not supported");
        self.ops.push(Op::Recv { source, tag, expect });
    }

    fn barrier(&mut self) {
        self.ops.push(Op::Barrier);
    }

    fn broadcast_count(&mut self, root: usize, count: usize) {
        assert!(root < self.size, "root rank {root} out of range");
        if self.id == root {
            self.ops.push(Op::BcastRoot { count });
        } else {
            self.ops.push(Op::BcastRecv { root, count });
        }
    }

    fn gather_count(&mut self, root: usize, count: usize) {
        assert!(root < self.size, "root rank {root} out of range");
        if self.id == root {
            self.ops.push(Op::GatherRoot { count });
        } else {
            self.ops.push(Op::GatherLeaf { root, count });
        }
    }

    fn charge(&mut self, kind: OpKind, secs: f64, bytes: u64) {
        assert_chargeable(kind, secs);
        self.ops.push(Op::Charge { kind, secs, bytes });
    }
}

/// An in-flight sized message (the fast-path `Message`).
struct SimMsg {
    source: usize,
    tag: Tag,
    sent_at: SimTime,
    arrival: SimTime,
    count: usize,
}

/// Collective slot state, mirroring `collectives::Slot` minus payloads.
///
/// `missing` counters and the cached barrier `rendezvous` replace the
/// round-robin scheduler's per-visit O(p) "anyone absent? fold the max"
/// scans. The cached fold runs exactly once, over the same complete
/// deposit set the old code folded on every visit, so every float
/// compare sees the same operands and the result is bit-equal.
enum SimSlot {
    Barrier { entries: Vec<Option<SimTime>>, missing: usize, rendezvous: SimTime, reads: usize },
    Gather { deposits: Vec<Option<(SimTime, usize)>>, missing: usize },
    Bcast { deposit: Option<(SimTime, usize)>, reads: usize },
}

/// A collective slot plus the ranks parked on it — the per-collective
/// wake list of the ready-queue scheduler.
///
/// The wake list is an intrusive chain: `waiters` holds the first
/// parked rank (or [`NO_WAITER`]) and `SimShared::wait_link[r]` holds
/// the next one after `r`. A blocked rank waits on exactly one object
/// at a time, so one link cell per rank suffices and parking never
/// allocates. Wake order is chain (LIFO) order — only the ready-queue
/// visit order depends on it, and virtual times are visit-order
/// invariant.
struct SlotBox {
    slot: SimSlot,
    waiters: u32,
}

/// Sentinel for "no rank parked" in the intrusive wake chains.
const NO_WAITER: u32 = u32::MAX;

/// One rank's simulation state: the exact accumulator set of
/// [`Rank`], advanced by the same float-op sequences.
struct SimRank {
    id: usize,
    clock: SimTime,
    compute_time: SimTime,
    comm_time: SimTime,
    wait_time: SimTime,
    speed_flops: f64,
    /// Mirrors `Rank::straggled_flops`.
    straggled_flops: Option<f64>,
    send_seq: Vec<u64>,
    trace: RankTrace,
    pc: usize,
    /// Collectives completed: the number of the next one, as
    /// `Rank::next_op` hands them out.
    collectives: usize,
    /// Telemetry: sends that paid a non-zero retry charge.
    retry_events: u64,
    /// Telemetry: failed attempts across those sends.
    retry_attempts: u64,
    /// Telemetry: retry charge, rounded to integer µs per event so the
    /// cross-simulation total is an order-independent integer sum.
    retry_us: u64,
}

impl SimRank {
    /// A plan sizes the per-destination retry sequence table; only
    /// faulted replays consult it (`charge_link_retries` early-returns
    /// without a plan), and eagerly allocating it per rank made a
    /// fault-free P-rank replay O(P²) in memory.
    fn new(id: usize, cluster: &ClusterSpec, faults: Option<&FaultPlan>) -> SimRank {
        let speed_flops = cluster.nodes()[id].marked_speed_flops();
        SimRank {
            id,
            clock: SimTime::ZERO,
            compute_time: SimTime::ZERO,
            comm_time: SimTime::ZERO,
            wait_time: SimTime::ZERO,
            speed_flops,
            straggled_flops: faults.and_then(|p| p.straggler(id)).map(|m| speed_flops * m),
            send_seq: if faults.is_some() { vec![0; cluster.size()] } else { Vec::new() },
            trace: RankTrace::default(),
            pc: 0,
            collectives: 0,
            retry_events: 0,
            retry_attempts: 0,
            retry_us: 0,
        }
    }

    fn push_record(
        &mut self,
        tracing: bool,
        kind: OpKind,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        peer: Option<usize>,
    ) {
        if tracing {
            self.trace.records.push(TraceRecord { kind, start, end, bytes, peer });
        }
    }

    fn record(
        &mut self,
        tracing: bool,
        kind: OpKind,
        start: SimTime,
        bytes: u64,
        peer: Option<usize>,
    ) {
        let end = self.clock;
        self.push_record(tracing, kind, start, end, bytes, peer);
    }

    /// Mirrors [`Rank::compute_flops`] float-op for float-op.
    fn compute(&mut self, tracing: bool, flops: f64) {
        let start = self.clock;
        match self.straggled_flops {
            Some(speed) => {
                let end = start + SimTime::from_secs(flops / speed);
                self.compute_time += end - start;
                self.clock = end;
            }
            None => {
                let dt = SimTime::from_secs(flops / self.speed_flops);
                self.clock += dt;
                self.compute_time += dt;
            }
        }
        self.record(tracing, OpKind::Compute, start, 0, None);
    }

    /// Mirrors `Rank::charge_link_retries`.
    fn charge_link_retries(
        &mut self,
        tracing: bool,
        faults: Option<&FaultPlan>,
        dest: usize,
        bytes: u64,
    ) {
        let Some(plan) = faults else { return };
        if plan.drop_per_mille() == 0 {
            return;
        }
        let msg_index = self.send_seq[dest];
        self.send_seq[dest] += 1;
        match plan.send_retry_charge(self.id, dest, msg_index) {
            Ok(charge) if charge.failed_attempts > 0 => {
                let start = self.clock;
                self.comm_time += charge.total;
                self.clock += charge.total;
                self.retry_events += 1;
                self.retry_attempts += u64::from(charge.failed_attempts);
                self.retry_us += (charge.total.as_secs() * 1e6).round() as u64;
                self.record(tracing, OpKind::Retry, start, bytes, Some(dest));
            }
            Ok(_) => {}
            Err(e) => panic!("{e}"),
        }
    }

    /// Mirrors `Rank::charge_comm`.
    fn charge_comm(
        &mut self,
        tracing: bool,
        new_clock: SimTime,
        kind: OpKind,
        bytes: u64,
        peer: Option<usize>,
    ) {
        debug_assert!(new_clock >= self.clock, "communication cannot rewind time");
        let start = self.clock;
        self.comm_time += new_clock - self.clock;
        self.clock = new_clock;
        self.record(tracing, kind, start, bytes, peer);
    }

    /// Mirrors `Rank::charge_comm_waited`.
    fn charge_comm_waited(
        &mut self,
        tracing: bool,
        ready: SimTime,
        exit: SimTime,
        kind: OpKind,
        bytes: u64,
        peer: Option<usize>,
    ) {
        let entry = self.clock;
        debug_assert!(exit >= entry, "communication cannot rewind time");
        let wait_end = ready.max(entry).min(exit);
        if wait_end > entry {
            self.wait_time += wait_end - entry;
            self.push_record(tracing, OpKind::Wait, entry, wait_end, 0, peer);
        }
        self.comm_time += exit - entry;
        self.clock = exit;
        self.push_record(tracing, kind, wait_end, exit, bytes, peer);
    }
}

/// Outcome of trying to execute one op.
enum Step {
    Progress,
    Blocked,
}

/// Shared simulator state the ops rendezvous through.
///
/// Generic over the network model so every cost lookup is statically
/// dispatched and inlinable (the round-robin engine paid a vtable hop
/// per call — measurable on latency-dominated two-rank sweeps).
struct SimShared<'a, N: NetworkModel> {
    p: usize,
    network: &'a N,
    faults: Option<&'a FaultPlan>,
    tracing: bool,
    mailboxes: Vec<VecDeque<SimMsg>>,
    /// `mailbox_waiting[r]` — rank `r` is blocked on its own mailbox.
    mailbox_waiting: Vec<bool>,
    /// Collective slots indexed by collective number (dense from 0, so
    /// a flat table, grown on first touch, replaces the hash map).
    slots: Vec<Option<SlotBox>>,
    /// Open-slot count, for the leak check.
    live: usize,
    /// Ranks unblocked by the op in flight; drained into the ready
    /// queue by the scheduler.
    woken: Vec<usize>,
    /// `wait_link[r]` — next rank after `r` in its wake chain.
    wait_link: Vec<u32>,
    /// Recycled barrier `entries` buffers (one barrier per program round
    /// on GE-shaped kernels makes this allocation hot).
    barrier_pool: Vec<Vec<Option<SimTime>>>,
    /// Recycled gather `deposits` buffers.
    gather_pool: Vec<Vec<Option<(SimTime, usize)>>>,
    /// `barrier_time(p)` is round-invariant (it depends on nothing but
    /// `p`), so it is priced once per replay instead of once per rank
    /// per barrier — the exact same pure call, hence the exact same
    /// bits. Round-sized kernels execute it millions of times, and
    /// wrapper models (e.g. the frozen-noise jitter) make each call
    /// expensive.
    barrier_cost: SimTime,
}

/// Fetches (creating on first touch) the slot for collective `op`.
///
/// A free function over the individual fields (not a method) so callers
/// can keep `self.woken` borrowed alongside the returned slot.
fn slot_mut<'s>(
    slots: &'s mut Vec<Option<SlotBox>>,
    live: &mut usize,
    op: usize,
    make: impl FnOnce() -> SimSlot,
) -> &'s mut SlotBox {
    if op >= slots.len() {
        slots.resize_with(op + 1, || None);
    }
    let cell = &mut slots[op];
    if cell.is_none() {
        *cell = Some(SlotBox { slot: make(), waiters: NO_WAITER });
        *live += 1;
    }
    cell.as_mut().expect("just ensured")
}

/// Removes the slot for `op`, returning it for by-value consumption.
fn take_slot(slots: &mut [Option<SlotBox>], live: &mut usize, op: usize) -> SlotBox {
    *live -= 1;
    slots[op].take().expect("slot present")
}

/// Parks `rank` on a slot's wake chain (allocation-free: one link cell
/// per rank in `wait_link`). A blocked rank is never on two chains, so
/// its cell is free to overwrite.
fn park(wait_link: &mut [u32], slot: &mut SlotBox, rank: usize) {
    wait_link[rank] = slot.waiters;
    slot.waiters = rank as u32;
}

/// Drains a slot's wake chain into `woken` (chain order — see
/// [`SlotBox`]).
fn wake_chain(wait_link: &[u32], woken: &mut Vec<usize>, head: &mut u32) {
    let mut cur = *head;
    while cur != NO_WAITER {
        woken.push(cur as usize);
        cur = wait_link[cur as usize];
    }
    *head = NO_WAITER;
}

/// Takes a zeroed length-`p` buffer from `pool` (or allocates one).
fn pooled<T: Clone>(pool: &mut Vec<Vec<Option<T>>>, p: usize) -> Vec<Option<T>> {
    match pool.pop() {
        Some(mut v) => {
            v.clear();
            v.resize(p, None);
            v
        }
        None => vec![None; p],
    }
}

impl<N: NetworkModel> SimShared<'_, N> {
    /// Root half of a broadcast, with the same operation order as
    /// [`Rank::broadcast_f64s`].
    fn bcast_root(&mut self, rank: &mut SimRank, count: usize) {
        let op = rank.collectives;
        let bytes = (count * 8) as u64;
        if self.faults.is_some() {
            // Fault-free runs skip the per-peer walk entirely
            // (charge_link_retries is a no-op without a plan).
            for peer in 0..self.p {
                if peer != rank.id {
                    rank.charge_link_retries(self.tracing, self.faults, peer, bytes);
                }
            }
        }
        let cost = SimTime::from_secs(self.network.bcast_time(self.p, bytes));
        let departure = rank.clock + cost;
        let slot = slot_mut(&mut self.slots, &mut self.live, op, || SimSlot::Bcast {
            deposit: None,
            reads: 0,
        });
        let SimSlot::Bcast { deposit, .. } = &mut slot.slot else {
            panic!("collective sequence mismatch: op {op} is not a bcast");
        };
        assert!(deposit.is_none(), "two roots deposited into bcast {op}");
        *deposit = Some((departure, count));
        wake_chain(&self.wait_link, &mut self.woken, &mut slot.waiters);
        if self.p == 1 {
            take_slot(&mut self.slots, &mut self.live, op);
        }
        rank.charge_comm(self.tracing, departure, OpKind::Bcast, bytes, None);
    }

    fn exec(&mut self, rank: &mut SimRank, next: &Op) -> Step {
        match *next {
            Op::Compute { flops } => {
                rank.compute(self.tracing, flops);
                Step::Progress
            }
            Op::Send { dest, tag, count } => {
                let bytes = (count * 8) as u64;
                rank.charge_link_retries(self.tracing, self.faults, dest, bytes);
                let sent_at = rank.clock;
                let cost = SimTime::from_secs(self.network.p2p_time_between(rank.id, dest, bytes));
                rank.charge_comm(self.tracing, rank.clock + cost, OpKind::Send, bytes, Some(dest));
                self.mailboxes[dest].push_back(SimMsg {
                    source: rank.id,
                    tag,
                    sent_at,
                    arrival: rank.clock,
                    count,
                });
                if self.mailbox_waiting[dest] {
                    self.mailbox_waiting[dest] = false;
                    self.woken.push(dest);
                }
                Step::Progress
            }
            Op::Recv { source, tag, expect } => {
                let Some(idx) =
                    self.mailboxes[rank.id].iter().position(|m| m.source == source && m.tag == tag)
                else {
                    // Park on the mailbox; any future send to this rank
                    // re-queues it (a non-matching one is a spurious
                    // wake — it just re-parks).
                    self.mailbox_waiting[rank.id] = true;
                    return Step::Blocked;
                };
                let msg = self.mailboxes[rank.id].remove(idx).expect("index just found");
                assert_eq!(
                    msg.count, expect,
                    "recv_count: payload size disagrees with the protocol"
                );
                let bytes = (msg.count * 8) as u64;
                let exit = rank.clock.max(msg.arrival);
                rank.charge_comm_waited(
                    self.tracing,
                    msg.sent_at,
                    exit,
                    OpKind::Recv,
                    bytes,
                    Some(source),
                );
                Step::Progress
            }
            Op::Barrier => {
                let (p, op) = (self.p, rank.collectives);
                let pool = &mut self.barrier_pool;
                let slot = slot_mut(&mut self.slots, &mut self.live, op, || SimSlot::Barrier {
                    entries: pooled(pool, p),
                    missing: p,
                    rendezvous: SimTime::ZERO,
                    reads: 0,
                });
                let SimSlot::Barrier { entries, missing, rendezvous, reads } = &mut slot.slot
                else {
                    panic!("collective sequence mismatch: op {op} is not a barrier");
                };
                if entries[rank.id].is_none() {
                    entries[rank.id] = Some(rank.clock);
                    *missing -= 1;
                    if *missing == 0 {
                        // Same fold over the same complete entry set the
                        // round-robin engine performed on every visit —
                        // computed once, cached, bit-equal.
                        *rendezvous =
                            entries.iter().map(|e| e.expect("all present")).max().expect("p ≥ 1");
                        wake_chain(&self.wait_link, &mut self.woken, &mut slot.waiters);
                    }
                }
                if *missing > 0 {
                    park(&mut self.wait_link, slot, rank.id);
                    return Step::Blocked;
                }
                let rendezvous = *rendezvous;
                *reads += 1;
                if *reads == p {
                    let taken = take_slot(&mut self.slots, &mut self.live, op);
                    if let SimSlot::Barrier { entries, .. } = taken.slot {
                        self.barrier_pool.push(entries);
                    }
                }
                let cost = self.barrier_cost;
                rank.charge_comm_waited(
                    self.tracing,
                    rendezvous,
                    rendezvous + cost,
                    OpKind::Barrier,
                    0,
                    None,
                );
                Step::Progress
            }
            Op::BcastRoot { count } => {
                self.bcast_root(rank, count);
                Step::Progress
            }
            Op::BcastRecv { root, count: expect } => {
                // Receivers may arrive before the root; the slot is
                // created on first touch so the wake list has somewhere
                // to live.
                let op = rank.collectives;
                let slot = slot_mut(&mut self.slots, &mut self.live, op, || SimSlot::Bcast {
                    deposit: None,
                    reads: 0,
                });
                let SimSlot::Bcast { deposit, reads } = &mut slot.slot else {
                    panic!("collective sequence mismatch: op {op} is not a bcast");
                };
                let Some((departure, count)) = *deposit else {
                    park(&mut self.wait_link, slot, rank.id);
                    return Step::Blocked;
                };
                debug_assert_eq!(count, expect, "broadcast_count: size disagrees with the root");
                *reads += 1;
                if *reads == self.p - 1 {
                    take_slot(&mut self.slots, &mut self.live, op);
                }
                let bytes = (count * 8) as u64;
                rank.charge_comm(
                    self.tracing,
                    rank.clock.max(departure),
                    OpKind::Bcast,
                    bytes,
                    Some(root),
                );
                Step::Progress
            }
            Op::GatherRoot { count } => {
                let (p, op) = (self.p, rank.collectives);
                let pool = &mut self.gather_pool;
                let slot = slot_mut(&mut self.slots, &mut self.live, op, || SimSlot::Gather {
                    deposits: pooled(pool, p),
                    missing: p,
                });
                let SimSlot::Gather { deposits, missing } = &mut slot.slot else {
                    panic!("collective sequence mismatch: op {op} is not a gather");
                };
                if deposits[rank.id].is_none() {
                    deposits[rank.id] = Some((rank.clock, count));
                    *missing -= 1;
                }
                if *missing > 0 {
                    park(&mut self.wait_link, slot, rank.id);
                    return Step::Blocked;
                }
                let taken = take_slot(&mut self.slots, &mut self.live, op);
                let SimSlot::Gather { mut deposits, .. } = taken.slot else {
                    unreachable!("checked above")
                };
                let sizes: Vec<u64> =
                    deposits.iter().map(|d| (d.expect("all present").1 * 8) as u64).collect();
                let max_entry = deposits
                    .iter()
                    .map(|d| d.expect("all present").0)
                    .max()
                    .expect("at least the root deposited");
                let cost = SimTime::from_secs(self.network.gather_time(&sizes, rank.id));
                let total_bytes: u64 = sizes.iter().sum();
                let ready = rank.clock.max(max_entry);
                rank.charge_comm_waited(
                    self.tracing,
                    ready,
                    ready + cost,
                    OpKind::Gather,
                    total_bytes,
                    None,
                );
                deposits.clear();
                self.gather_pool.push(deposits);
                Step::Progress
            }
            Op::Charge { kind, secs, bytes } => {
                // Mirrors [`Rank::charge`].
                let dt = SimTime::from_secs(secs);
                rank.charge_comm(self.tracing, rank.clock + dt, kind, bytes, None);
                Step::Progress
            }
            Op::GatherLeaf { root, count } => {
                let bytes = (count * 8) as u64;
                rank.charge_link_retries(self.tracing, self.faults, root, bytes);
                let (p, op) = (self.p, rank.collectives);
                let pool = &mut self.gather_pool;
                let slot = slot_mut(&mut self.slots, &mut self.live, op, || SimSlot::Gather {
                    deposits: pooled(pool, p),
                    missing: p,
                });
                let SimSlot::Gather { deposits, missing } = &mut slot.slot else {
                    panic!("collective sequence mismatch: op {op} is not a gather");
                };
                assert!(
                    deposits[rank.id].is_none(),
                    "rank {} deposited twice into gather {op}",
                    rank.id
                );
                deposits[rank.id] = Some((rank.clock, count));
                *missing -= 1;
                if *missing == 0 {
                    wake_chain(&self.wait_link, &mut self.woken, &mut slot.waiters);
                }
                let cost = SimTime::from_secs(self.network.p2p_time_between(rank.id, root, bytes));
                rank.charge_comm(
                    self.tracing,
                    rank.clock + cost,
                    OpKind::Gather,
                    bytes,
                    Some(root),
                );
                Step::Progress
            }
        }
    }
}

/// FNV-1a style hash over the rank-class key (node speed bits + op
/// stream). Collisions are harmless — hash buckets are confirmed with
/// full `Vec<Op>` equality before two ranks share a recording.
fn class_hash(speed_bits: u64, ops: &[Op]) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h = mix(0xcbf2_9ce4_8422_2325, speed_bits);
    for op in ops {
        h = match *op {
            Op::Compute { flops } => mix(mix(h, 1), flops.to_bits()),
            Op::Send { dest, tag, count } => {
                mix(mix(mix(mix(h, 2), dest as u64), tag.0 as u64), count as u64)
            }
            Op::Recv { source, tag, expect } => {
                mix(mix(mix(mix(h, 3), source as u64), tag.0 as u64), expect as u64)
            }
            Op::Barrier => mix(h, 4),
            Op::BcastRoot { count } => mix(mix(h, 5), count as u64),
            Op::BcastRecv { root, count } => mix(mix(mix(h, 6), root as u64), count as u64),
            Op::GatherRoot { count } => mix(mix(h, 7), count as u64),
            Op::GatherLeaf { root, count } => mix(mix(mix(h, 8), root as u64), count as u64),
            Op::Charge { kind, secs, bytes } => {
                mix(mix(mix(mix(h, 9), kind as u64), secs.to_bits()), bytes)
            }
        };
    }
    h
}

/// A recorded SPMD program: per-rank results plus rank-class
/// deduplicated op lists, ready to price on any tier.
///
/// Produced by [`record_spmd`]. Ranks whose recorded op streams and
/// marked node speeds coincide share a single stored recording — on a
/// mostly-homogeneous cluster the storage is O(distinct classes), not
/// O(ranks). Sharing is sound because the simulator treats op lists as
/// read-only programs: clocks, mailboxes, and accumulators stay
/// per-rank, so two ranks replaying the same list still interleave (and
/// wait) exactly as if each owned a private copy.
pub struct SpmdProgram<R> {
    p: usize,
    results: Vec<R>,
    /// One op list per distinct rank class.
    classes: Vec<Vec<Op>>,
    /// Class index per rank.
    class_of: Vec<usize>,
    /// Lazily computed lockstep phase plan; `Err` caches the analyzer's
    /// rejection reason so the structure check runs at most once.
    lockstep: OnceLock<Result<LockstepProgram, FallbackReason>>,
}

/// Phase 1 of the fast engine, exposed for benchmarks and callers that
/// want to replay one recording under several network models: runs
/// `body` once per rank against a [`RecordTimer`] and deduplicates the
/// recordings into rank classes.
pub fn record_spmd<R, F>(cluster: &ClusterSpec, body: F) -> SpmdProgram<R>
where
    F: Fn(&mut RecordTimer) -> R,
{
    // Wall-clock is profile-only telemetry (DESIGN.md §11); nothing
    // deterministic depends on it.
    let record_started = std::time::Instant::now();
    let p = cluster.size();
    let mut results = Vec::with_capacity(p);
    let mut classes: Vec<Vec<Op>> = Vec::new();
    let mut class_speeds: Vec<u64> = Vec::new();
    let mut class_of = Vec::with_capacity(p);
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    // Duplicate recordings recycle one scratch buffer, so allocation is
    // O(classes) even on an 85-rank three-class cluster.
    let mut scratch: Vec<Op> = Vec::new();
    for id in 0..p {
        let mut timer = RecordTimer { id, size: p, ops: scratch };
        results.push(body(&mut timer));
        let speed = cluster.nodes()[id].marked_speed_flops().to_bits();
        let hash = class_hash(speed, &timer.ops);
        let bucket = by_hash.entry(hash).or_default();
        let hit =
            bucket.iter().copied().find(|&c| class_speeds[c] == speed && classes[c] == timer.ops);
        match hit {
            Some(c) => {
                class_of.push(c);
                scratch = timer.ops;
                scratch.clear();
            }
            None => {
                let c = classes.len();
                bucket.push(c);
                class_speeds.push(speed);
                let len = timer.ops.len();
                classes.push(timer.ops);
                class_of.push(c);
                // Ranks of one SPMD body record similar-length streams;
                // presizing the replacement scratch skips the
                // realloc-and-copy ladder on O(n·p)-op recordings.
                scratch = Vec::with_capacity(len);
            }
        }
    }
    telemetry::add_record_wall_ns(record_started.elapsed().as_nanos() as u64);
    SpmdProgram { p, results, classes, class_of, lockstep: OnceLock::new() }
}

impl<R> SpmdProgram<R> {
    /// Number of ranks in the recording.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Number of distinct rank classes (≤ [`size`](Self::size); equal
    /// only when no two ranks share both op stream and node speed).
    pub fn distinct_classes(&self) -> usize {
        self.classes.len()
    }

    /// The recording's lockstep phase plan (or the analyzer's rejection
    /// reason), computed once on first use; the analysis is timed for
    /// the profile export's `analyze_us` phase.
    fn lockstep_result(&self) -> &Result<LockstepProgram, FallbackReason> {
        self.lockstep.get_or_init(|| {
            let analyze_started = std::time::Instant::now();
            let result = analytic::analyze(self.p, &self.classes, &self.class_of);
            telemetry::add_analyze_wall_ns(analyze_started.elapsed().as_nanos() as u64);
            result
        })
    }

    /// Why the lockstep analyzer rejected this recording, or `None`
    /// when it is lockstep (DESIGN.md §10). Forces the (cached)
    /// structure check.
    pub fn fallback_reason(&self) -> Option<FallbackReason> {
        self.lockstep_result().as_ref().err().copied()
    }

    /// Phase 2 of the fast engine on the event-driven ready-queue
    /// scheduler, regardless of the global analytic toggle:
    /// bit-identical to [`run_spmd_fast`] on the same body, and the
    /// reference path equivalence tests and benches compare against.
    /// `cluster` must be the recording's cluster (or one of identical
    /// size — per-rank speeds are re-read from it).
    pub fn simulate_event_driven<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
    ) -> SpmdOutcome<R>
    where
        R: Clone,
    {
        self.replay(
            cluster,
            network,
            RunSpec::default(),
            EventDrivenMode::Forced,
            self.results.clone(),
        )
    }

    /// Analytic evaluation of the recording, or `None` when the
    /// lockstep analyzer rejected its shape (ignores the global
    /// toggle). Bit-identical to
    /// [`simulate_event_driven`](Self::simulate_event_driven) whenever
    /// it returns `Some`.
    pub fn simulate_analytic<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
    ) -> Option<SpmdOutcome<R>>
    where
        R: Clone,
    {
        let plan = self.lockstep_result().as_ref().ok()?;
        Some(self.replay_analytic(plan, cluster, network, self.results.clone()))
    }

    fn replay_analytic<N: NetworkModel>(
        &self,
        plan: &LockstepProgram,
        cluster: &ClusterSpec,
        network: &N,
        results: Vec<R>,
    ) -> SpmdOutcome<R> {
        assert_eq!(
            cluster.size(),
            self.p,
            "cluster size disagrees with the recording's rank count"
        );
        let simulate_started = std::time::Instant::now();
        let ranks = plan.evaluate(cluster, network, &self.classes, &self.class_of);
        telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
        let mut report =
            EngineReport::new(EnginePath::Analytic, self.p as u64, self.classes.len() as u64);
        report.collective_events = plan.collective_ops;
        report.p2p_events = plan.p2p_ops;
        telemetry::record_simulation(&report);
        outcome_from_ranks(ranks, results, false)
    }

    fn replay<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
        spec: RunSpec<'_>,
        mode: EventDrivenMode,
        results: Vec<R>,
    ) -> SpmdOutcome<R> {
        let RunSpec { trace: tracing, faults } = spec;
        let p = self.p;
        assert_eq!(cluster.size(), p, "cluster size disagrees with the recording's rank count");
        let simulate_started = std::time::Instant::now();

        let mut ranks: Vec<SimRank> = (0..p).map(|id| SimRank::new(id, cluster, faults)).collect();
        if tracing {
            // Presize each trace for the common case of at most two
            // records per op (a Wait plus the op itself); fault-path
            // retries can still grow past the reservation.
            for rank in ranks.iter_mut() {
                rank.trace.records.reserve(2 * self.classes[self.class_of[rank.id]].len());
            }
        }
        let mut shared = SimShared {
            p,
            network,
            faults,
            tracing,
            mailboxes: (0..p).map(|_| VecDeque::new()).collect(),
            mailbox_waiting: vec![false; p],
            slots: Vec::new(),
            live: 0,
            woken: Vec::new(),
            wait_link: vec![NO_WAITER; p],
            barrier_pool: Vec::new(),
            gather_pool: Vec::new(),
            barrier_cost: SimTime::from_secs(network.barrier_time(p)),
        };

        // Indexed ready-queue run-until-blocked scheduler. Every rank's
        // virtual-time arithmetic depends only on message/slot contents,
        // never on execution order — the same argument that makes the
        // threaded runtime scheduling-independent — so visiting only
        // runnable ranks (instead of sweeping all p per round) yields
        // bit-identical clocks, splits, traces, and retry charges.
        let mut ready: VecDeque<usize> = (0..p).collect();
        let mut queued = vec![true; p];
        let mut finished = 0usize;
        // Telemetry: per-replay locals, flushed once at the end so the
        // hot loop touches no shared state.
        let mut parks = 0u64;
        let mut wakes = 0u64;
        let mut p2p_events = 0u64;
        while let Some(r) = ready.pop_front() {
            queued[r] = false;
            let ops = &self.classes[self.class_of[r]];
            loop {
                let pc = ranks[r].pc;
                if pc >= ops.len() {
                    finished += 1;
                    break;
                }
                match shared.exec(&mut ranks[r], &ops[pc]) {
                    Step::Progress => {
                        match ops[pc] {
                            // Charges are local like compute: neither
                            // p2p nor collective events.
                            Op::Compute { .. } | Op::Charge { .. } => {}
                            Op::Send { .. } | Op::Recv { .. } => p2p_events += 1,
                            _ => ranks[r].collectives += 1,
                        }
                        ranks[r].pc += 1;
                    }
                    Step::Blocked => {
                        parks += 1;
                        break;
                    }
                }
            }
            for w in shared.woken.drain(..) {
                wakes += 1;
                if !queued[w] {
                    queued[w] = true;
                    ready.push_back(w);
                }
            }
        }
        assert!(
            finished == p,
            "fast-engine deadlock: no rank can progress (mismatched sends/receives \
             or collective schedules)"
        );

        // Same protocol-hygiene checks as the threaded runtime.
        for (id, mb) in shared.mailboxes.iter().enumerate() {
            assert!(
                mb.is_empty(),
                "rank {id} finished with {} undelivered message(s) in its mailbox",
                mb.len()
            );
        }
        assert_eq!(shared.live, 0, "collective slots leaked — ranks disagreed on collective count");

        telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
        let mut report =
            EngineReport::new(EnginePath::EventDriven(mode), p as u64, self.classes.len() as u64);
        report.parks = parks;
        report.wakes = wakes;
        report.p2p_events = p2p_events;
        for rank in &ranks {
            report.collective_events += rank.collectives as u64;
            report.retry_events += rank.retry_events;
            report.retry_attempts += rank.retry_attempts;
            report.retry_charge_us += rank.retry_us;
        }
        telemetry::record_simulation(&report);

        outcome_from_ranks(ranks, results, tracing)
    }
}

/// Collapses final per-rank simulation states into an [`SpmdOutcome`]
/// (shared by the scheduler and the analytic evaluator); `traces` stays
/// empty unless `tracing`.
fn outcome_from_ranks<R>(
    mut ranks: Vec<SimRank>,
    results: Vec<R>,
    tracing: bool,
) -> SpmdOutcome<R> {
    let p = ranks.len();
    let mut times = Vec::with_capacity(p);
    let mut compute_times = Vec::with_capacity(p);
    let mut comm_times = Vec::with_capacity(p);
    let mut wait_times = Vec::with_capacity(p);
    let mut traces = Vec::with_capacity(if tracing { p } else { 0 });
    for rank in &mut ranks {
        times.push(rank.clock);
        compute_times.push(rank.compute_time);
        comm_times.push(rank.comm_time);
        wait_times.push(rank.wait_time);
        if tracing {
            traces.push(std::mem::take(&mut rank.trace));
        }
    }
    SpmdOutcome { results, times, compute_times, comm_times, wait_times, traces }
}

/// Runs `body` through the fast-path engine: same clocks, overhead
/// split, and (when `spec.trace` is set) spans as [`crate::run_spmd`] on
/// an equivalent size-only body under the same `spec`, without threads
/// or payloads.
///
/// `body` is invoked once per rank against a [`RecordTimer`]; its return
/// values populate `results` indexed by rank. The engine picks its mode
/// in this order: a fault plan or tracing keeps the event-driven
/// scheduler, whose generality they need; `--no-analytic` forces it;
/// otherwise lockstep recordings are evaluated analytically and the rest
/// fall back to the scheduler with a typed [`FallbackReason`].
///
/// # Panics
/// Panics on protocol bugs exactly like the threaded runtime: leaked
/// messages, mismatched collective schedules, unresolved node deaths in
/// `spec.faults`, exhausted retry budgets, and (additionally) any op
/// structure where no rank can make progress.
pub fn run_spmd_fast<R, F, N>(
    cluster: &ClusterSpec,
    network: &N,
    spec: RunSpec<'_>,
    body: F,
) -> SpmdOutcome<R>
where
    F: Fn(&mut RecordTimer) -> R,
    N: NetworkModel,
{
    spec.assert_launchable();
    let mut program = record_spmd(cluster, body);
    let results = std::mem::take(&mut program.results);
    let mode = if spec.faults.is_some() {
        EventDrivenMode::Faulted
    } else if spec.trace {
        EventDrivenMode::Traced
    } else if !analytic_enabled() {
        EventDrivenMode::Forced
    } else {
        match program.lockstep_result() {
            Ok(plan) => return program.replay_analytic(plan, cluster, network, results),
            Err(reason) => {
                telemetry::record_fallback(*reason);
                EventDrivenMode::Fallback
            }
        }
    };
    program.replay(cluster, network, spec, mode, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_spmd;
    use hetsim_cluster::network::{
        ConstantLatency, JitteredNetwork, MpichEthernet, SharedEthernet,
    };
    use hetsim_cluster::node::NodeSpec;

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

    /// A body exercising every op kind, with rank-skewed compute so
    /// waits, rendezvous, and arrival orders are all non-trivial.
    fn mixed_body<T: SpmdTimer>(t: &mut T) {
        let me = t.rank();
        let p = t.size();
        t.compute_flops(1e6 * (me + 1) as f64);
        if p > 1 {
            if me == 0 {
                for peer in 1..p {
                    t.send_count(peer, Tag(5), 17 + peer);
                }
            } else {
                t.recv_count(0, Tag(5), 17 + me);
            }
        }
        t.barrier();
        t.broadcast_count(p - 1, 33);
        t.compute_flops(2.5e5 * (p - me) as f64);
        t.gather_count(0, 3 * me + 1);
        // An allgather of `me + 2` elements, as `Rank::allgather_f64s`
        // runs it: one length header per rank, then every element.
        t.gather_count(0, me + 2);
        t.broadcast_count(0, p + (2..p + 2).sum::<usize>());
        if p > 1 {
            if me == p - 1 {
                t.send_count(0, Tag(9), 4);
            } else if me == 0 {
                t.recv_count(p - 1, Tag(9), 4);
            }
        }
        t.barrier();
    }

    fn assert_outcomes_match(fast: &SpmdOutcome<()>, threaded: &SpmdOutcome<()>) {
        assert_eq!(fast.times, threaded.times, "clocks");
        assert_eq!(fast.compute_times, threaded.compute_times, "compute");
        assert_eq!(fast.comm_times, threaded.comm_times, "comm");
        assert_eq!(fast.wait_times, threaded.wait_times, "wait");
        assert_eq!(fast.traces, threaded.traces, "traces");
    }

    #[test]
    fn fast_matches_threaded_on_mixed_program() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let fast = run_spmd_fast(&cluster, &net, RunSpec { trace: true, faults: None }, mixed_body);
        let threaded =
            run_spmd(&cluster, &net, RunSpec { trace: true, faults: None }, |r| mixed_body(r));
        assert_outcomes_match(&fast, &threaded);
    }

    fn check_network<N: NetworkModel>(cluster: &ClusterSpec, net: &N) {
        let fast = run_spmd_fast(cluster, net, RunSpec { trace: true, faults: None }, mixed_body);
        let threaded =
            run_spmd(cluster, net, RunSpec { trace: true, faults: None }, |r| mixed_body(r));
        assert_outcomes_match(&fast, &threaded);
    }

    #[test]
    fn fast_matches_threaded_across_networks() {
        let cluster = het3();
        check_network(&cluster, &SharedEthernet::new(1e-3, 1e6));
        check_network(&cluster, &MpichEthernet::new(0.2e-3, 1e8));
        check_network(&cluster, &ConstantLatency::new(2e-3));
    }

    #[test]
    fn fast_matches_threaded_under_faults() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let plan = FaultPlan::new(7).with_straggler(1, 0.4).with_link_drops(250);
        let fast =
            run_spmd_fast(&cluster, &net, RunSpec { trace: true, faults: Some(&plan) }, mixed_body);
        let threaded =
            run_spmd(&cluster, &net, RunSpec { trace: true, faults: Some(&plan) }, |r| {
                mixed_body(r)
            });
        assert_outcomes_match(&fast, &threaded);
        let retries = fast
            .traces
            .iter()
            .flat_map(|t| t.records.iter())
            .filter(|r| r.kind == OpKind::Retry)
            .count();
        assert!(retries > 0, "a 25% drop rate over this program must hit at least once");
    }

    #[test]
    fn fast_matches_threaded_on_single_rank() {
        let cluster = ClusterSpec::homogeneous(1, 80.0);
        let net = SharedEthernet::new(1e-3, 1e7);
        let fast = run_spmd_fast(&cluster, &net, RunSpec { trace: true, faults: None }, mixed_body);
        let threaded =
            run_spmd(&cluster, &net, RunSpec { trace: true, faults: None }, |r| mixed_body(r));
        assert_outcomes_match(&fast, &threaded);
        assert_eq!(fast.makespan(), fast.compute_times[0], "p = 1 collectives are free");
    }

    #[test]
    fn fast_empty_fault_plan_is_bit_identical_to_unfaulted() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let plan = FaultPlan::new(123);
        let base = run_spmd_fast(&cluster, &net, RunSpec::default(), mixed_body);
        let faulted = run_spmd_fast(
            &cluster,
            &net,
            RunSpec { trace: false, faults: Some(&plan) },
            mixed_body,
        );
        assert_eq!(base.times, faulted.times);
        assert_eq!(base.comm_times, faulted.comm_times);
    }

    #[test]
    fn fast_results_are_record_phase_returns() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let net = ConstantLatency::new(1e-3);
        let outcome = run_spmd_fast(&cluster, &net, RunSpec::default(), |t| {
            t.barrier();
            t.rank() * 10
        });
        assert_eq!(outcome.results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn fast_engine_is_deterministic() {
        let cluster = het3();
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let run =
            || run_spmd_fast(&cluster, &net, RunSpec { trace: true, faults: None }, mixed_body);
        let a = run();
        let b = run();
        assert_eq!(a.times, b.times);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn identical_ranks_share_one_recording() {
        let cluster = ClusterSpec::homogeneous(6, 50.0);
        let program: SpmdProgram<()> = record_spmd(&cluster, |t| {
            t.compute_flops(1e5);
            t.barrier();
        });
        assert_eq!(program.size(), 6);
        assert_eq!(program.distinct_classes(), 1);
    }

    #[test]
    fn distinct_speeds_split_classes_even_with_identical_ops() {
        let cluster = het3();
        let program: SpmdProgram<()> = record_spmd(&cluster, |t| t.barrier());
        assert_eq!(program.distinct_classes(), 3);
    }

    /// Two classes (one sender, p − 1 identical receivers) on a
    /// homogeneous cluster — the Sunwulf shape in miniature.
    fn two_class_body<T: SpmdTimer>(t: &mut T) {
        let p = t.size();
        if t.rank() == 0 {
            t.compute_flops(4e5);
            for peer in 1..p {
                t.send_count(peer, Tag(3), 64);
            }
        } else {
            t.compute_flops(4e5);
            t.recv_count(0, Tag(3), 64);
        }
    }

    #[test]
    fn shared_recordings_keep_per_rank_clocks() {
        let cluster = ClusterSpec::homogeneous(5, 80.0);
        let net = MpichEthernet::new(0.3e-3, 1e8);
        let program = record_spmd(&cluster, two_class_body);
        assert_eq!(program.distinct_classes(), 2);
        let fast: SpmdOutcome<()> = program.simulate_analytic(&cluster, &net).expect("lockstep");
        let threaded =
            crate::runtime::run_spmd(&cluster, &net, RunSpec::default(), |r| two_class_body(r));
        assert_eq!(fast.times, threaded.times, "clocks");
        assert_eq!(fast.comm_times, threaded.comm_times, "comm");
        assert_eq!(fast.wait_times, threaded.wait_times, "wait");
        // Receivers share one recording but their arrivals serialize at
        // the sender, so their clocks must still differ.
        assert!(fast.times[1] < fast.times[4], "shared class must not collapse clocks");
    }

    #[test]
    fn simulate_replays_a_recording_repeatedly() {
        let cluster = het3();
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let program = record_spmd(&cluster, mixed_body);
        let a: SpmdOutcome<()> = program.simulate_analytic(&cluster, &net).expect("lockstep");
        let b: SpmdOutcome<()> = program.simulate_event_driven(&cluster, &net);
        let direct = run_spmd_fast(&cluster, &net, RunSpec::default(), mixed_body);
        assert_eq!(a.times, b.times);
        assert_eq!(a.times, direct.times);
        assert_eq!(a.comm_times, direct.comm_times);
    }

    #[test]
    fn mixed_program_is_lockstep_and_analytic_matches_event_driven() {
        let cluster = het3();
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let program: SpmdProgram<()> = record_spmd(&cluster, mixed_body);
        let analytic = program
            .simulate_analytic(&cluster, &net)
            .expect("mixed_body alternates collectives with closed p2p");
        let event = program.simulate_event_driven(&cluster, &net);
        assert_eq!(analytic.times, event.times, "clocks");
        assert_eq!(analytic.compute_times, event.compute_times, "compute");
        assert_eq!(analytic.comm_times, event.comm_times, "comm");
        assert_eq!(analytic.wait_times, event.wait_times, "wait");
    }

    #[test]
    fn shared_class_program_is_lockstep_and_analytic_matches() {
        let cluster = ClusterSpec::homogeneous(5, 80.0);
        let net = MpichEthernet::new(0.3e-3, 1e8);
        let program: SpmdProgram<()> = record_spmd(&cluster, two_class_body);
        let analytic = program.simulate_analytic(&cluster, &net).expect("lockstep");
        let event = program.simulate_event_driven(&cluster, &net);
        assert_eq!(analytic.times, event.times);
        assert_eq!(analytic.comm_times, event.comm_times);
        assert_eq!(analytic.wait_times, event.wait_times);
    }

    /// A valid program the analyzer must *reject*: the message is sent
    /// before a barrier and received after it, so the p2p batch cannot
    /// quiesce at the collective boundary.
    fn crossing_body<T: SpmdTimer>(t: &mut T) {
        if t.rank() == 0 {
            t.send_count(1, Tag(7), 5);
        }
        t.barrier();
        if t.rank() == 1 {
            t.recv_count(0, Tag(7), 5);
        }
    }

    #[test]
    fn message_crossing_a_barrier_falls_back_to_the_scheduler() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let net = ConstantLatency::new(1e-3);
        let program: SpmdProgram<()> = record_spmd(&cluster, crossing_body);
        // An in-flight message across a barrier is not lockstep.
        assert_eq!(program.fallback_reason(), Some(FallbackReason::SendAcrossSync));
        assert!(program.simulate_analytic(&cluster, &net).is_none());
        // The auto-selecting path must still price it, via fallback,
        // matching the scheduler and the threaded oracle exactly.
        let auto = run_spmd_fast(&cluster, &net, RunSpec::default(), crossing_body);
        let event = program.simulate_event_driven(&cluster, &net);
        assert_eq!(auto.times, event.times);
        assert_eq!(auto.comm_times, event.comm_times);
        let threaded =
            crate::runtime::run_spmd(&cluster, &net, RunSpec::default(), |r| crossing_body(r));
        assert_eq!(auto.times, threaded.times);
        assert_eq!(auto.comm_times, threaded.comm_times);
        assert_eq!(auto.wait_times, threaded.wait_times);
    }

    #[test]
    fn disabling_analytic_forces_the_scheduler_with_identical_results() {
        let cluster = het3();
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let on = run_spmd_fast(&cluster, &net, RunSpec::default(), mixed_body);
        set_analytic_enabled(false);
        let off = run_spmd_fast(&cluster, &net, RunSpec::default(), mixed_body);
        set_analytic_enabled(true);
        assert_eq!(on.times, off.times);
        assert_eq!(on.compute_times, off.compute_times);
        assert_eq!(on.comm_times, off.comm_times);
        assert_eq!(on.wait_times, off.wait_times);
    }

    /// Why the class tier refuses `body` recorded on `cluster`: the
    /// lockstep analyzer's reason when it rejects the recording first.
    fn refusal<N: NetworkModel>(
        cluster: &ClusterSpec,
        net: &N,
        body: fn(&mut RecordTimer),
    ) -> Option<FallbackReason> {
        let program = record_spmd(cluster, body);
        program.simulate_aggregated(cluster, net, &vec![1; cluster.size()]).err()
    }

    #[test]
    fn every_fallback_reason_has_a_program_that_reaches_it() {
        let (two, three) = (ClusterSpec::homogeneous(2, 50.0), ClusterSpec::homogeneous(3, 50.0));
        let net = ConstantLatency::new(1e-3);
        let jittered = JitteredNetwork::new(MpichEthernet::new(0.2e-3, 1e8), 0.25, 99);
        for reason in FallbackReason::ALL {
            // Exhaustive, so a new reason needs a program here too.
            let got = match reason {
                // Rank 0 reaches a barrier no one else joins: the
                // analyzer refuses (the scheduler owns the deadlock
                // diagnostic).
                FallbackReason::ClassExhausted => refusal(&two, &net, |t| {
                    if t.rank() == 0 {
                        t.barrier();
                    }
                }),
                FallbackReason::MixedCollectiveKinds => refusal(&two, &net, |t| match t.rank() {
                    0 => t.barrier(),
                    _ => t.gather_count(0, 3),
                }),
                FallbackReason::DuplicateRoot => refusal(&two, &net, |t| {
                    let me = t.rank();
                    t.broadcast_count(me, 4 + me);
                }),
                // Equal counts: both roots share one class.
                FallbackReason::MultiMemberRootClass => refusal(&two, &net, |t| {
                    let me = t.rank();
                    t.broadcast_count(me, 4);
                }),
                FallbackReason::CollectiveSizeMismatch => refusal(&two, &net, |t| {
                    let me = t.rank();
                    t.broadcast_count(0, 4 + me);
                }),
                FallbackReason::P2pSizeMismatch => refusal(&two, &net, |t| match t.rank() {
                    0 => t.send_count(1, Tag(1), 3),
                    _ => t.recv_count(0, Tag(1), 4),
                }),
                FallbackReason::SendAcrossSync => refusal(&two, &net, crossing_body),
                FallbackReason::RecvBeforeSend => refusal(&two, &net, |t| {
                    if t.rank() == 0 {
                        t.recv_count(1, Tag(1), 4);
                        t.barrier();
                    } else {
                        t.barrier();
                        t.send_count(0, Tag(1), 4);
                    }
                }),
                FallbackReason::RecoveryOps => {
                    refusal(&two, &net, |t| t.charge(OpKind::Checkpoint, 0.02, 64))
                }
                // Two senders in one batch.
                FallbackReason::AsymmetricP2p => refusal(&three, &net, |t| match t.rank() {
                    2 => {
                        t.recv_count(0, Tag(1), 4);
                        t.recv_count(1, Tag(1), 4);
                    }
                    _ => t.send_count(2, Tag(1), 4),
                }),
                FallbackReason::UnclassedNetwork => {
                    refusal(&two, &jittered, |t| t.gather_count(0, 4))
                }
                // Ranks 1 and 2 share a class, but the hub serves 2 first.
                FallbackReason::ClassOrderDiverged => refusal(&three, &net, |t| {
                    if t.rank() == 0 {
                        t.send_count(2, Tag(1), 4);
                        t.send_count(1, Tag(1), 4);
                    } else {
                        t.recv_count(0, Tag(1), 4);
                    }
                }),
            };
            assert_eq!(got, Some(reason), "{reason}");
        }
    }

    #[test]
    fn a_root_meeting_another_collective_reads_mixed_kinds() {
        let two = ClusterSpec::homogeneous(2, 50.0);
        let reason = |body: fn(&mut RecordTimer)| record_spmd(&two, body).fallback_reason();
        let mixed = Some(FallbackReason::MixedCollectiveKinds);
        assert_eq!(
            reason(|t| match t.rank() {
                0 => t.broadcast_count(0, 4),
                _ => t.barrier(),
            }),
            mixed
        );
        assert_eq!(
            reason(|t| match t.rank() {
                0 => t.gather_count(0, 4),
                _ => t.barrier(),
            }),
            mixed
        );
    }

    #[test]
    fn recorded_ops_stay_within_24_bytes() {
        // Every recorded op of every rank class pays for each byte here;
        // a GE recording holds ~3 ops per rank-round.
        assert!(
            std::mem::size_of::<Op>() <= 24,
            "Op grew to {} bytes: every recording grows with it, and the 10^3-rank GE \
             oracle's memory (ROADMAP.md items 1 and 4) needs the headroom",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn mismatched_recv_deadlocks_with_diagnostic() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let net = ConstantLatency::new(1e-3);
        run_spmd_fast(&cluster, &net, RunSpec::default(), |t| {
            if t.rank() == 1 {
                // Nobody ever sends this.
                t.recv_count(0, Tag(99), 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "undelivered message")]
    fn leaked_message_is_detected() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let net = ConstantLatency::new(1e-3);
        run_spmd_fast(&cluster, &net, RunSpec::default(), |t| {
            if t.rank() == 0 {
                t.send_count(1, Tag(1), 3);
            }
        });
    }

    /// A body charging every local kind between ordinary collectives,
    /// with rank-skewed seconds and bytes. Rank 0's lost-work and
    /// rebalance charges last zero seconds and carry zero bytes.
    fn recovery_body<T: SpmdTimer>(t: &mut T) {
        let me = t.rank();
        t.compute_flops(5e5 * (me + 1) as f64);
        t.charge(OpKind::Checkpoint, 0.02 + 8.192e-5 * (me + 1) as f64, 4096 * (me as u64 + 1));
        t.barrier();
        t.compute_flops(3e5);
        t.charge(OpKind::Detect, 0.05, 0);
        t.charge(OpKind::LostWork, 2.5e-3 * me as f64, 0);
        t.charge(OpKind::Rebalance, 8.192e-5 * me as f64, 1024 * me as u64);
        t.barrier();
    }

    #[test]
    fn fast_matches_threaded_on_recovery_ops() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let fast =
            run_spmd_fast(&cluster, &net, RunSpec { trace: true, faults: None }, recovery_body);
        let threaded =
            run_spmd(&cluster, &net, RunSpec { trace: true, faults: None }, |r| recovery_body(r));
        assert_outcomes_match(&fast, &threaded);
    }

    #[test]
    fn fast_matches_threaded_on_recovery_ops_under_faults() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let plan = FaultPlan::new(11).with_straggler(2, 0.5);
        let fast = run_spmd_fast(
            &cluster,
            &net,
            RunSpec { trace: true, faults: Some(&plan) },
            recovery_body,
        );
        let threaded =
            run_spmd(&cluster, &net, RunSpec { trace: true, faults: Some(&plan) }, |r| {
                recovery_body(r)
            });
        assert_outcomes_match(&fast, &threaded);
    }

    #[test]
    fn recovery_ops_reject_the_lockstep_analyzer_with_a_typed_reason() {
        let cluster = het3();
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let program: SpmdProgram<()> = record_spmd(&cluster, recovery_body);
        // Local charges have no lockstep phase grammar.
        assert_eq!(program.fallback_reason(), Some(FallbackReason::RecoveryOps));
        assert!(program.simulate_analytic(&cluster, &net).is_none());
        // The auto-selecting path still prices it via fallback, matching
        // the scheduler and the threaded oracle exactly.
        let auto = run_spmd_fast(&cluster, &net, RunSpec::default(), recovery_body);
        let event = program.simulate_event_driven(&cluster, &net);
        assert_eq!(auto.times, event.times);
        assert_eq!(auto.comm_times, event.comm_times);
        let threaded =
            crate::runtime::run_spmd(&cluster, &net, RunSpec::default(), |r| recovery_body(r));
        assert_eq!(auto.times, threaded.times);
        assert_eq!(auto.comm_times, threaded.comm_times);
        assert_eq!(auto.wait_times, threaded.wait_times);
    }

    #[test]
    fn each_charge_records_one_span_of_its_kind_and_bytes() {
        let cluster = het3();
        let net = ConstantLatency::new(1e-3);
        let outcome =
            run_spmd_fast(&cluster, &net, RunSpec { trace: true, faults: None }, recovery_body);
        for (r, trace) in outcome.traces.iter().enumerate() {
            let charged: Vec<(OpKind, u64)> = trace
                .records
                .iter()
                .filter(|t| {
                    use OpKind::{Checkpoint, Detect, LostWork, Rebalance};
                    matches!(t.kind, Checkpoint | Detect | LostWork | Rebalance)
                })
                .map(|t| (t.kind, t.bytes))
                .collect();
            let me = r as u64;
            let want = [
                (OpKind::Checkpoint, 4096 * (me + 1)),
                (OpKind::Detect, 0),
                (OpKind::LostWork, 0),
                (OpKind::Rebalance, 1024 * me),
            ];
            // Zero seconds still make a span: omitting one is the
            // caller's rule (`kernels::recover`).
            assert_eq!(charged, want, "rank {r}");
        }
    }

    #[test]
    #[should_panic(expected = "Bcast is not a local charge kind")]
    fn a_message_kind_is_not_a_local_charge() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        run_spmd_fast(&cluster, &ConstantLatency::new(1e-3), RunSpec::default(), |t| {
            t.charge(OpKind::Bcast, 0.01, 8)
        });
    }

    #[test]
    #[should_panic(expected = "deaths must be resolved before launch")]
    fn unresolved_deaths_are_rejected() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let plan = FaultPlan::new(0).with_death(1);
        run_spmd_fast(
            &cluster,
            &ConstantLatency::new(1e-3),
            RunSpec { trace: false, faults: Some(&plan) },
            |_t| {},
        );
    }
}

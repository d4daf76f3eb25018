//! Lockstep phase analyzer: closed-form evaluation of recorded SPMD
//! programs whose collective structure is the same on every rank class.
//!
//! The ready-queue scheduler in the parent module is fully general: it
//! replays any op structure, blocking and waking ranks as messages and
//! collective deposits become available. But the kernels this workspace
//! prices are *lockstep*: every rank class walks the same alternating
//! sequence of collectives with per-class compute (and closed
//! point-to-point exchanges) in between, so there is nothing for a
//! scheduler to decide — each phase's exit clocks are a straight-line
//! function of its entry clocks. This module detects that structure
//! ([`analyze`]) and, when it holds, evaluates the
//! whole schedule phase by phase ([`LockstepProgram::evaluate`]) with
//! no mailboxes, slots, park/wake chains, or program counters.
//!
//! The phase plan is the engine's only plan. Two tiers walk it: the
//! per-rank evaluator here, and the class-aggregated walk
//! (`aggregate.rs`, DESIGN.md §13), which folds each phase over class
//! tails instead of ranks. Both read a compute run's flops through
//! [`run_flops`].
//!
//! # What "lockstep" means
//!
//! A recording is lockstep when its per-class op lists factor into a
//! single shared sequence of **phases**:
//!
//! - **Compute** — a maximal run of `Compute` ops per class (possibly
//!   empty, possibly different lengths per class). Pure local work;
//!   absorbed greedily between synchronization points.
//! - **Collective** — every class's next op is the same collective
//!   kind at the same position (the classes have completed equally many
//!   collectives, so the heads are one collective, as the replay
//!   numbers them). Broadcast and gather phases additionally require
//!   the root's class to have exactly one member (two ranks sharing a
//!   root recording would double-deposit, which the engine rejects at
//!   run time), and receiver size expectations must match the root's
//!   count.
//! - **P2P** — a closed batch of sends/receives: starting from any
//!   `Send`/`Recv` head, ranks exchange messages until every class
//!   reaches a non-p2p op, every send is consumed, and no receive is
//!   left waiting for a message from a later phase. The batch is
//!   topologically ordered at analysis time (a send is scheduled
//!   before its matching receive), so evaluation is a single pass.
//!
//! Anything else — crossing a collective boundary with an in-flight
//! message, mismatched collective kinds, multi-member root classes,
//! size mismatches — makes [`analyze`] return a typed
//! [`FallbackReason`], and the caller prices the program on the
//! ready-queue scheduler, which either prices it correctly or reports
//! the protocol bug with its usual diagnostics. The analyzer never
//! weakens an engine panic into a wrong answer: every shape it cannot
//! *prove* lockstep is refused, and the reason is surfaced through
//! `SpmdProgram::fallback_reason` and the telemetry counters.
//!
//! # Float-op mirroring
//!
//! Evaluation reuses [`SimRank`]'s charge methods — the same
//! `charge_comm` / `charge_comm_waited` / `compute` the scheduler
//! calls — and performs per-rank charges in program order with the
//! identical operands: message `(sent_at, arrival)` pairs, rank-order
//! rendezvous/entry `max` folds, hoisted per-replay barrier cost.
//! IEEE 754 addition is non-associative, so this mirroring (not mere
//! mathematical equivalence) is what makes the result bit-identical to
//! the event-driven engine; `analytic_matches_event_driven` tests in
//! the parent module and the cross-crate `engine_equivalence` suite
//! pin it.

use super::{Op, SimRank};
use crate::message::Tag;
use crate::telemetry::FallbackReason;
use crate::trace::OpKind;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use std::collections::VecDeque;

/// A recording's lockstep phase plan, produced by [`analyze`].
#[derive(Debug)]
pub(super) struct LockstepProgram {
    pub(super) phases: Vec<Phase>,
    /// Collective ops one evaluation covers (per participating rank) —
    /// the same count the scheduler would execute, kept for telemetry.
    pub(super) collective_ops: u64,
    /// Point-to-point ops one evaluation covers.
    pub(super) p2p_ops: u64,
}

/// One lockstep phase. Exit clocks are a pure function of entry clocks.
#[derive(Debug)]
pub(super) enum Phase {
    /// Per-class maximal compute runs: `runs[c]` is the `[start, end)`
    /// op-index range into class `c`'s op list (flops stay per-op, as
    /// the engine charges them individually).
    Compute { runs: Vec<(u32, u32)> },
    /// All ranks enter one barrier.
    Barrier,
    /// Broadcast of `count` elements from rank `root`.
    Bcast { root: u32, count: usize },
    /// Gather to rank `root`; `sizes[r]` is rank `r`'s contribution in
    /// wire bytes, `targets[r]` the leaf's p2p target.
    Gather { root: u32, sizes: Vec<u64>, targets: Vec<u32> },
    /// A closed batch of point-to-point messages in topological order.
    P2p { steps: Vec<P2pStep> },
}

/// One scheduled op of a P2P phase. `slot` indexes the phase's sends
/// in emission order; analysis guarantees a receive's slot precedes it.
#[derive(Debug)]
pub(super) enum P2pStep {
    Send { rank: u32, dest: u32, count: usize },
    Recv { rank: u32, source: u32, count: usize, slot: u32 },
}

/// A message in flight during analysis: `(source, tag, slot, count)`.
type Pending = (usize, Tag, u32, usize);

/// The per-op flops of compute run `run` (a [`Phase::Compute`] range)
/// of `ops`, in program order.
pub(super) fn run_flops(ops: &[Op], (start, end): (u32, u32)) -> impl Iterator<Item = f64> + '_ {
    ops[start as usize..end as usize].iter().map(|op| {
        let Op::Compute { flops } = *op else { unreachable!("compute runs hold only compute ops") };
        flops
    })
}

/// Detects lockstep phase structure in a recording's per-class op
/// lists. Returns the [`FallbackReason`] — *fall back to the
/// ready-queue scheduler* — for any shape it cannot prove lockstep.
pub(super) fn analyze(
    p: usize,
    classes: &[Vec<Op>],
    class_of: &[usize],
) -> Result<LockstepProgram, FallbackReason> {
    let nc = classes.len();
    let mut members = vec![0usize; nc];
    let mut rank_of_class = vec![usize::MAX; nc];
    for (r, &c) in class_of.iter().enumerate() {
        members[c] += 1;
        if rank_of_class[c] == usize::MAX {
            rank_of_class[c] = r;
        }
    }

    let mut cursor = vec![0usize; nc];
    let mut phases = Vec::new();
    // One mailbox per rank for p2p matching, empty again after every
    // accepted phase.
    let mut mailboxes: Vec<VecDeque<Pending>> = vec![VecDeque::new(); p];
    loop {
        // Absorb per-class compute runs greedily.
        let mut runs = vec![(0u32, 0u32); nc];
        let mut any_compute = false;
        for c in 0..nc {
            let start = cursor[c];
            let mut end = start;
            while matches!(classes[c].get(end), Some(Op::Compute { .. })) {
                end += 1;
            }
            if end > start {
                any_compute = true;
            }
            runs[c] = (start as u32, end as u32);
            cursor[c] = end;
        }
        if any_compute {
            phases.push(Phase::Compute { runs });
        }

        let done = (0..nc).filter(|&c| cursor[c] == classes[c].len()).count();
        if done == nc {
            break;
        }
        // Local charges have no phase grammar here: recovery programs
        // always price on the ready-queue scheduler, with the typed
        // reason surfaced through telemetry.
        if (0..nc).any(|c| matches!(classes[c].get(cursor[c]), Some(Op::Charge { .. }))) {
            return Err(FallbackReason::RecoveryOps);
        }
        let any_p2p = (0..nc)
            .any(|c| matches!(classes[c].get(cursor[c]), Some(Op::Send { .. } | Op::Recv { .. })));
        if any_p2p {
            phases.push(p2p_phase(classes, class_of, &mut cursor, &mut mailboxes)?);
            continue;
        }
        if done > 0 {
            // A collective needs every rank; some class is out of ops.
            return Err(FallbackReason::ClassExhausted);
        }
        phases.push(collective_phase(classes, class_of, &members, &rank_of_class, &mut cursor)?);
    }
    // The per-rank op counts the scheduler would have executed — kept
    // so analytic and event-driven telemetry agree on lockstep shapes.
    let mut collective_ops = 0u64;
    let mut p2p_ops = 0u64;
    for phase in &phases {
        match phase {
            Phase::Compute { .. } => {}
            Phase::Barrier | Phase::Bcast { .. } | Phase::Gather { .. } => {
                collective_ops += p as u64
            }
            Phase::P2p { steps } => p2p_ops += steps.len() as u64,
        }
    }
    Ok(LockstepProgram { phases, collective_ops, p2p_ops })
}

/// Closes a collective phase: every class's head must be the same
/// collective (consistent kind, singleton root class). Every class has
/// completed the same number of collectives here, so the heads are one
/// collective by position, as the replay numbers them.
fn collective_phase(
    classes: &[Vec<Op>],
    class_of: &[usize],
    members: &[usize],
    rank_of_class: &[usize],
    cursor: &mut [usize],
) -> Result<Phase, FallbackReason> {
    let nc = classes.len();
    let mut barriers = 0usize;
    let mut bcast_recvs = 0usize;
    let mut gather_leaves = 0usize;
    let mut bcast_root: Option<(usize, usize)> = None;
    let mut gather_root: Option<usize> = None;
    for c in 0..nc {
        match classes[c][cursor[c]] {
            Op::Barrier => barriers += 1,
            Op::BcastRoot { count } => {
                if bcast_root.replace((c, count)).is_some() {
                    return Err(FallbackReason::DuplicateRoot);
                }
            }
            Op::BcastRecv { .. } => bcast_recvs += 1,
            Op::GatherRoot { .. } => {
                if gather_root.replace(c).is_some() {
                    return Err(FallbackReason::DuplicateRoot);
                }
            }
            Op::GatherLeaf { .. } => gather_leaves += 1,
            Op::Compute { .. } | Op::Send { .. } | Op::Recv { .. } | Op::Charge { .. } => {
                unreachable!("compute absorbed, charges rejected, p2p dispatched before this")
            }
        }
    }

    // The root rank of class `rc`, once every other head is one of its
    // collective's `receivers` (anything else meets it at another kind,
    // and the engine panics on the slot type mismatch; let it) and no
    // other rank shares its recording.
    let root_of = |rc: usize, receivers: usize| {
        if receivers != nc - 1 {
            Err(FallbackReason::MixedCollectiveKinds)
        } else if members[rc] != 1 {
            Err(FallbackReason::MultiMemberRootClass)
        } else {
            Ok(rank_of_class[rc] as u32)
        }
    };
    let phase = if barriers == nc {
        Phase::Barrier
    } else if let Some((rc, count)) = bcast_root {
        let root = root_of(rc, bcast_recvs)?;
        for c in 0..nc {
            if let Op::BcastRecv { count: expect, .. } = classes[c][cursor[c]] {
                if expect != count {
                    return Err(FallbackReason::CollectiveSizeMismatch);
                }
            }
        }
        Phase::Bcast { root, count }
    } else if let Some(rc) = gather_root {
        let root = root_of(rc, gather_leaves)?;
        let p = class_of.len();
        let mut sizes = vec![0u64; p];
        let mut targets = vec![0u32; p];
        for r in 0..p {
            match classes[class_of[r]][cursor[class_of[r]]] {
                Op::GatherRoot { count } => sizes[r] = (count * 8) as u64,
                Op::GatherLeaf { root, count } => {
                    sizes[r] = (count * 8) as u64;
                    targets[r] = root as u32;
                }
                _ => unreachable!("kind counts checked above"),
            }
        }
        Phase::Gather { root, sizes, targets }
    } else {
        return Err(FallbackReason::MixedCollectiveKinds);
    };
    for c in cursor.iter_mut() {
        *c += 1;
    }
    Ok(phase)
}

/// Closes a P2P phase by Kahn-style scheduling: repeatedly drain each
/// rank's sends (always executable) and receives whose matching send
/// was already emitted *within this phase*, preserving per-rank program
/// order. Messages wait in the destination's mailbox (empty on entry),
/// and a receive takes the first one matching its `(source, tag)` —
/// the event-driven engine's rule, so each `(source, dest, tag)`
/// stream stays FIFO. Rejects stalls (a receive whose send never
/// materializes here) and leftovers (a send consumed only after the
/// next synchronization point).
fn p2p_phase(
    classes: &[Vec<Op>],
    class_of: &[usize],
    cursor: &mut [usize],
    mailboxes: &mut [VecDeque<Pending>],
) -> Result<Phase, FallbackReason> {
    let p = class_of.len();
    let mut pc: Vec<usize> = (0..p).map(|r| cursor[class_of[r]]).collect();
    let mut steps = Vec::new();
    let mut sends = 0u32;
    let mut progress = true;
    while progress {
        progress = false;
        for r in 0..p {
            let ops = &classes[class_of[r]];
            loop {
                match ops.get(pc[r]) {
                    Some(&Op::Send { dest, tag, count }) => {
                        steps.push(P2pStep::Send { rank: r as u32, dest: dest as u32, count });
                        mailboxes[dest].push_back((r, tag, sends, count));
                        sends += 1;
                        pc[r] += 1;
                        progress = true;
                    }
                    Some(&Op::Recv { source, tag, expect }) => {
                        let mailbox = &mut mailboxes[r];
                        let Some(i) = mailbox.iter().position(|m| (m.0, m.1) == (source, tag))
                        else {
                            break;
                        };
                        let (_, _, slot, count) = mailbox.remove(i).expect("index just found");
                        if count != expect {
                            // The engine's size assert owns this
                            // diagnostic; fall back.
                            return Err(FallbackReason::P2pSizeMismatch);
                        }
                        steps.push(P2pStep::Recv {
                            rank: r as u32,
                            source: source as u32,
                            count,
                            slot,
                        });
                        pc[r] += 1;
                        progress = true;
                    }
                    _ => break,
                }
            }
        }
    }
    if mailboxes.iter().any(|m| !m.is_empty()) {
        return Err(FallbackReason::SendAcrossSync);
    }
    for r in 0..p {
        if matches!(classes[class_of[r]].get(pc[r]), Some(Op::Recv { .. })) {
            return Err(FallbackReason::RecvBeforeSend);
        }
    }
    // Every rank of a class stopped at the same first non-p2p op (the
    // stall check above rejected anything else), so the per-rank
    // counters collapse back into per-class cursors.
    for r in 0..p {
        cursor[class_of[r]] = pc[r];
    }
    Ok(Phase::P2p { steps })
}

impl LockstepProgram {
    /// Evaluates the phase plan, producing the same per-rank clocks and
    /// accumulator splits as the event-driven scheduler — bit for bit.
    /// Untraced and fault-free only (traced/faulted runs keep the
    /// scheduler, whose generality they need).
    pub(super) fn evaluate<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
        classes: &[Vec<Op>],
        class_of: &[usize],
    ) -> Vec<SimRank> {
        let p = class_of.len();
        let mut ranks: Vec<SimRank> = (0..p).map(|id| SimRank::new(id, cluster, None)).collect();
        // Hoisted once per evaluation, exactly as the scheduler hoists
        // it once per replay.
        let barrier_cost = SimTime::from_secs(network.barrier_time(p));
        // (sent_at, arrival) per send slot of the current P2P phase.
        let mut msgs: Vec<(SimTime, SimTime)> = Vec::new();
        for phase in &self.phases {
            match phase {
                Phase::Compute { runs } => {
                    for (r, rank) in ranks.iter_mut().enumerate() {
                        let c = class_of[r];
                        for flops in run_flops(&classes[c], runs[c]) {
                            rank.compute(false, flops);
                        }
                    }
                }
                Phase::Barrier => {
                    // Same rank-order fold over the same complete entry
                    // set as the scheduler's cached rendezvous.
                    let rendezvous = ranks.iter().map(|r| r.clock).max().expect("p >= 1");
                    let exit = rendezvous + barrier_cost;
                    for rank in ranks.iter_mut() {
                        rank.charge_comm_waited(false, rendezvous, exit, OpKind::Barrier, 0, None);
                    }
                }
                Phase::Bcast { root, count } => {
                    // Root, then receivers: `SimShared::bcast_root` and
                    // the event-driven engine's `BcastRecv` arm.
                    let root = *root as usize;
                    let bytes = (count * 8) as u64;
                    let cost = SimTime::from_secs(network.bcast_time(p, bytes));
                    let departure = ranks[root].clock + cost;
                    ranks[root].charge_comm(false, departure, OpKind::Bcast, bytes, None);
                    for (r, rank) in ranks.iter_mut().enumerate() {
                        if r != root {
                            let exit = rank.clock.max(departure);
                            rank.charge_comm(false, exit, OpKind::Bcast, bytes, Some(root));
                        }
                    }
                }
                Phase::Gather { root, sizes, targets } => {
                    let root = *root as usize;
                    // Deposits carry entry clocks; in lockstep every
                    // rank is at the phase boundary, so the fold runs
                    // over current clocks in rank order.
                    let max_entry = ranks.iter().map(|r| r.clock).max().expect("p >= 1");
                    let cost = SimTime::from_secs(network.gather_time(sizes, root));
                    let total_bytes: u64 = sizes.iter().sum();
                    let ready = ranks[root].clock.max(max_entry);
                    ranks[root].charge_comm_waited(
                        false,
                        ready,
                        ready + cost,
                        OpKind::Gather,
                        total_bytes,
                        None,
                    );
                    for (r, rank) in ranks.iter_mut().enumerate() {
                        if r != root {
                            let bytes = sizes[r];
                            let target = targets[r] as usize;
                            let cost =
                                SimTime::from_secs(network.p2p_time_between(r, target, bytes));
                            let exit = rank.clock + cost;
                            rank.charge_comm(false, exit, OpKind::Gather, bytes, Some(target));
                        }
                    }
                }
                Phase::P2p { steps } => {
                    msgs.clear();
                    for step in steps {
                        match *step {
                            P2pStep::Send { rank, dest, count } => {
                                let r = rank as usize;
                                let dest = dest as usize;
                                let bytes = (count * 8) as u64;
                                let sent_at = ranks[r].clock;
                                let cost =
                                    SimTime::from_secs(network.p2p_time_between(r, dest, bytes));
                                ranks[r].charge_comm(
                                    false,
                                    sent_at + cost,
                                    OpKind::Send,
                                    bytes,
                                    Some(dest),
                                );
                                msgs.push((sent_at, ranks[r].clock));
                            }
                            P2pStep::Recv { rank, source, count, slot } => {
                                let r = rank as usize;
                                let (sent_at, arrival) = msgs[slot as usize];
                                let bytes = (count * 8) as u64;
                                let exit = ranks[r].clock.max(arrival);
                                ranks[r].charge_comm_waited(
                                    false,
                                    sent_at,
                                    exit,
                                    OpKind::Recv,
                                    bytes,
                                    Some(source as usize),
                                );
                            }
                        }
                    }
                }
            }
        }
        ranks
    }
}

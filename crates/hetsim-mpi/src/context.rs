//! Per-rank execution context: the handle SPMD code programs against.
//!
//! All virtual-time arithmetic lives here, in one place, directly
//! implementing the semantics documented at the crate root.

use crate::collectives::CollectiveHub;
use crate::message::{Mailbox, Message, Tag};
use crate::trace::{OpKind, RankTrace, TraceRecord};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;

/// Panic message of an allgather receive whose broadcast payload is
/// shorter than the `p`-entry length header [`Rank::allgather_f64s`]
/// reads first. Only a plain broadcast root that a receive meets as an
/// allgather can send one; the engine's replay panics with it too.
pub(crate) const SHORT_ALLGATHER_PAYLOAD: &str =
    "allgather: the broadcast payload is shorter than its p-length header";

/// State shared by every rank of one SPMD run.
pub(crate) struct Shared<'a> {
    pub cluster: &'a ClusterSpec,
    pub network: &'a dyn NetworkModel,
    pub mailboxes: Vec<Mailbox>,
    pub hub: CollectiveHub,
    /// When set, every rank records a [`RankTrace`].
    pub tracing: bool,
    /// Deterministic fault plan (stragglers, lossy links). `None` keeps
    /// every code path bit-identical to the fault-free runtime.
    pub faults: Option<&'a FaultPlan>,
}

/// The handle one SPMD process uses to compute, communicate, and read its
/// virtual clock. Mirrors the slice of MPI the paper's kernels need.
pub struct Rank<'a> {
    id: usize,
    shared: &'a Shared<'a>,
    clock: SimTime,
    compute_time: SimTime,
    comm_time: SimTime,
    wait_time: SimTime,
    collective_seq: u64,
    speed_flops: f64,
    /// The fault plan's straggler speed for this rank, `speed_flops ×
    /// multiplier`; `None` for a rank at its marked speed.
    straggled_flops: Option<f64>,
    trace: RankTrace,
    /// Per-destination send counter: the message index fed to the fault
    /// plan's seeded drop schedule. Advances deterministically with the
    /// program order of sends on this rank, never with wall time.
    send_seq: Vec<u64>,
}

impl<'a> Rank<'a> {
    pub(crate) fn new(id: usize, shared: &'a Shared<'a>) -> Self {
        let speed_flops = shared.cluster.nodes()[id].marked_speed_flops();
        let straggled_flops = shared.faults.and_then(|p| p.straggler(id)).map(|m| speed_flops * m);
        let size = shared.cluster.size();
        Rank {
            id,
            shared,
            clock: SimTime::ZERO,
            compute_time: SimTime::ZERO,
            comm_time: SimTime::ZERO,
            wait_time: SimTime::ZERO,
            collective_seq: 0,
            speed_flops,
            straggled_flops,
            trace: RankTrace::default(),
            send_seq: vec![0; size],
        }
    }

    /// Consumes the rank's trace at end of run (runtime use).
    pub(crate) fn take_trace(&mut self) -> RankTrace {
        std::mem::take(&mut self.trace)
    }

    /// Appends an explicit span to the trace when tracing. All trace
    /// emission funnels through here.
    fn push_record(
        &mut self,
        kind: OpKind,
        start: SimTime,
        end: SimTime,
        bytes: u64,
        peer: Option<usize>,
    ) {
        if self.shared.tracing {
            self.trace.records.push(TraceRecord { kind, start, end, bytes, peer });
        }
    }

    fn record(&mut self, kind: OpKind, start: SimTime, bytes: u64, peer: Option<usize>) {
        let end = self.clock;
        self.push_record(kind, start, end, bytes, peer);
    }

    /// This process's rank id, `0 ≤ rank < size`.
    pub fn rank(&self) -> usize {
        self.id
    }

    /// Number of processes in the run.
    pub fn size(&self) -> usize {
        self.shared.cluster.size()
    }

    /// Current virtual time of this rank.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Accumulated computation time (the `T_c` of the paper's Theorem 1).
    pub fn compute_time(&self) -> SimTime {
        self.compute_time
    }

    /// Accumulated communication/synchronization time — this rank's share
    /// of the total overhead `T_o`. Includes [`Rank::wait_time`].
    pub fn comm_time(&self) -> SimTime {
        self.comm_time
    }

    /// Accumulated idle-wait time: the part of [`Rank::comm_time`] spent
    /// blocked on peers (stragglers at a barrier, a sender that has not
    /// started transmitting, late gather contributions) rather than on
    /// an actual transfer. Pure load-imbalance loss.
    pub fn wait_time(&self) -> SimTime {
        self.wait_time
    }

    /// Advances the clock by the time to execute `flops` floating-point
    /// operations at this node's marked speed.
    ///
    /// # Panics
    /// Panics on negative or non-finite `flops`.
    pub fn compute_flops(&mut self, flops: f64) {
        assert!(flops.is_finite() && flops >= 0.0, "flops must be finite and ≥ 0");
        let start = self.clock;
        match self.straggled_flops {
            Some(speed) => {
                // Straggler: the end time first, then the span it
                // covers, the float-op order the engine mirrors.
                let end = start + SimTime::from_secs(flops / speed);
                self.compute_time += end - start;
                self.clock = end;
            }
            None => {
                // Fault-free path: this exact float-op sequence must stay
                // unchanged so undegraded runs remain bit-identical
                // (`(start + dt) - start` need not equal `dt` in IEEE754).
                let dt = SimTime::from_secs(flops / self.speed_flops);
                self.clock += dt;
                self.compute_time += dt;
            }
        }
        self.record(OpKind::Compute, start, 0, None);
    }

    /// Charges retry/timeout/backoff time for one logical message to
    /// `dest` when a lossy-link fault plan is active; no-op (and no
    /// counter advance) otherwise, keeping fault-free runs bit-identical.
    /// Point-to-point sends and the transmitting side of collectives
    /// (broadcast roots, gather contributors) all funnel through
    /// here, so the drop schedule covers every wire crossing.
    ///
    /// # Panics
    /// Panics with the typed [`hetsim_cluster::faults::FaultError`]
    /// message when the plan's retry budget is exhausted.
    fn charge_link_retries(&mut self, dest: usize, bytes: u64) {
        let Some(plan) = self.shared.faults else { return };
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
                self.record(OpKind::Retry, start, bytes, Some(dest));
            }
            Ok(_) => {}
            Err(e) => panic!("{e}"),
        }
    }

    fn charge_comm(&mut self, new_clock: SimTime, kind: OpKind, bytes: u64, peer: Option<usize>) {
        debug_assert!(new_clock >= self.clock, "communication cannot rewind time");
        let start = self.clock;
        self.comm_time += new_clock - self.clock;
        self.clock = new_clock;
        self.record(kind, start, bytes, peer);
    }

    /// Charges a blocking operation whose precondition was met at
    /// `ready` and which completes at `exit`: the span `[clock, ready)`
    /// is idle-wait (recorded as [`OpKind::Wait`] when non-empty), the
    /// span `[max(clock, ready), exit)` is the operation proper. Both
    /// count toward `comm_time`; only the former counts toward
    /// `wait_time`.
    fn charge_comm_waited(
        &mut self,
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
            self.push_record(OpKind::Wait, entry, wait_end, 0, peer);
        }
        self.comm_time += exit - entry;
        self.clock = exit;
        self.push_record(kind, wait_end, exit, bytes, peer);
    }

    // ---- failure recovery (DESIGN.md §12) -------------------------------

    /// Writes `bytes` of checkpoint state to the shared store: a fixed
    /// coordination latency plus the transfer at the store bandwidth
    /// (`hetsim_cluster::faults::checkpoint_cost_secs`). Charged as an
    /// [`OpKind::Checkpoint`] overhead span — insurance, not progress.
    pub fn checkpoint(&mut self, bytes: u64) {
        let dt = SimTime::from_secs(hetsim_cluster::faults::checkpoint_cost_secs(bytes));
        self.charge_comm(self.clock + dt, OpKind::Checkpoint, bytes, None);
    }

    /// Charges the failure detector's timeout: the span this rank waits
    /// before declaring a silent peer dead ([`OpKind::Detect`]).
    ///
    /// # Panics
    /// Panics on negative or non-finite `timeout_secs`.
    pub fn detect_failure(&mut self, timeout_secs: f64) {
        assert!(
            timeout_secs.is_finite() && timeout_secs >= 0.0,
            "detector timeout must be finite and ≥ 0"
        );
        let dt = SimTime::from_secs(timeout_secs);
        self.charge_comm(self.clock + dt, OpKind::Detect, 0, None);
    }

    /// Recovers from a detected death: replays `lost_flops` of work at
    /// this rank's marked speed (the progress rolled back to the last
    /// checkpoint — an [`OpKind::LostWork`] span), then absorbs
    /// `moved_bytes` of repartition traffic at the rebalance bandwidth
    /// (an [`OpKind::Rebalance`] span). Either span is omitted when its
    /// operand is zero, so a policy that loses nothing or moves nothing
    /// stays bit-identical to not charging it at all.
    ///
    /// # Panics
    /// Panics on negative or non-finite `lost_flops`.
    pub fn recover(&mut self, lost_flops: f64, moved_bytes: u64) {
        assert!(
            lost_flops.is_finite() && lost_flops >= 0.0,
            "lost work must be finite and ≥ 0 flops"
        );
        if lost_flops > 0.0 {
            // Replay at the undegraded marked speed: the same float op
            // as the fault-free compute path, charged as overhead.
            let dt = SimTime::from_secs(lost_flops / self.speed_flops);
            self.charge_comm(self.clock + dt, OpKind::LostWork, 0, None);
        }
        if moved_bytes > 0 {
            let dt = SimTime::from_secs(
                moved_bytes as f64 / hetsim_cluster::faults::REBALANCE_BANDWIDTH_BYTES_PER_SEC,
            );
            self.charge_comm(self.clock + dt, OpKind::Rebalance, moved_bytes, None);
        }
    }

    // ---- point-to-point -------------------------------------------------

    /// Sends a slice of `f64`s to `dest` with `tag`. The sender occupies
    /// the wire for `p2p_time(8 × len)`; the message arrives when the
    /// send completes.
    ///
    /// # Panics
    /// Panics when `dest` is out of range or equals this rank (self-sends
    /// are a deadlock in this blocking-receive runtime, so they are
    /// rejected eagerly).
    ///
    /// Under a lossy-link fault plan, dropped attempts are charged first
    /// as an [`OpKind::Retry`] span (timeout + exponential backoff per
    /// drop); the message then goes out at the post-retry clock. A plan
    /// that exhausts its retry budget aborts the run with the typed
    /// [`hetsim_cluster::faults::FaultError`] message.
    pub fn send_f64s(&mut self, dest: usize, tag: Tag, values: &[f64]) {
        assert!(dest < self.size(), "destination rank {dest} out of range");
        assert_ne!(dest, self.id, "self-send is not supported");
        let bytes = (values.len() * 8) as u64;
        self.charge_link_retries(dest, bytes);
        let sent_at = self.clock;
        let cost = SimTime::from_secs(self.shared.network.p2p_time_between(self.id, dest, bytes));
        self.charge_comm(self.clock + cost, OpKind::Send, bytes, Some(dest));
        self.shared.mailboxes[dest].push(Message {
            source: self.id,
            tag,
            sent_at,
            arrival: self.clock,
            payload: values.to_vec(),
        });
    }

    /// Receives a vector of `f64`s from `source` with `tag`, blocking
    /// until available. The clock advances to the message arrival time
    /// if later; time spent blocked before the sender even started
    /// transmitting is attributed to [`OpKind::Wait`], the rest of the
    /// span to [`OpKind::Recv`].
    pub fn recv_f64s(&mut self, source: usize, tag: Tag) -> Vec<f64> {
        assert!(source < self.size(), "source rank {source} out of range");
        assert_ne!(source, self.id, "self-receive is not supported");
        let msg = self.shared.mailboxes[self.id].recv_matching(source, tag);
        let bytes = (msg.payload.len() * 8) as u64;
        let exit = self.clock.max(msg.arrival);
        self.charge_comm_waited(msg.sent_at, exit, OpKind::Recv, bytes, Some(source));
        msg.payload
    }

    // ---- collectives ----------------------------------------------------

    fn next_op(&mut self) -> u64 {
        let op = self.collective_seq;
        self.collective_seq += 1;
        op
    }

    /// Barrier across all ranks: every rank leaves at
    /// `max(entry clocks) + barrier_time(p)`. The span spent waiting for
    /// stragglers is attributed to [`OpKind::Wait`]; the barrier's
    /// network cost itself to [`OpKind::Barrier`].
    pub fn barrier(&mut self) {
        let op = self.next_op();
        let cost = SimTime::from_secs(self.shared.network.barrier_time(self.size()));
        let rendezvous = self.shared.hub.barrier(op, self.id, self.clock);
        self.charge_comm_waited(rendezvous, rendezvous + cost, OpKind::Barrier, 0, None);
    }

    /// Broadcast from `root`. The root passes `Some(data)` and gets its
    /// own data back; receivers pass `None`. The root leaves at
    /// `entry + bcast_time(p, bytes)`; receivers leave at
    /// `max(own entry, root departure)`.
    ///
    /// # Panics
    /// Panics when the caller's `data` argument disagrees with its role.
    pub fn broadcast_f64s(&mut self, root: usize, data: Option<&[f64]>) -> Vec<f64> {
        assert!(root < self.size(), "root rank {root} out of range");
        let op = self.next_op();
        if self.id == root {
            let data = data.expect("root must supply broadcast data");
            let bytes = (data.len() * 8) as u64;
            // Under a lossy plan the root retries each peer's logical
            // message before the broadcast proper; receivers then wait
            // for the (later) departure.
            for peer in 0..self.size() {
                if peer != self.id {
                    self.charge_link_retries(peer, bytes);
                }
            }
            let cost = SimTime::from_secs(self.shared.network.bcast_time(self.size(), bytes));
            let departure = self.clock + cost;
            self.shared.hub.bcast_deposit(op, departure, data.to_vec());
            self.charge_comm(departure, OpKind::Bcast, bytes, None);
            data.to_vec()
        } else {
            assert!(data.is_none(), "non-root rank {} passed broadcast data", self.id);
            let (departure, payload) = self.shared.hub.bcast_wait(op);
            let bytes = (payload.len() * 8) as u64;
            self.charge_comm(self.clock.max(departure), OpKind::Bcast, bytes, Some(root));
            payload
        }
    }

    /// Gather to `root`: every rank contributes a slice; the root gets
    /// all contributions indexed by rank (including its own), others get
    /// `None`. Contributors leave at `entry + p2p_time(own bytes)`; the
    /// root leaves at `max(all entries) + gather_time(sizes)`, with the
    /// span spent waiting for late contributors attributed to
    /// [`OpKind::Wait`].
    pub fn gather_f64s(&mut self, root: usize, contribution: &[f64]) -> Option<Vec<Vec<f64>>> {
        assert!(root < self.size(), "root rank {root} out of range");
        let op = self.next_op();
        if self.id == root {
            self.shared.hub.gather_deposit(op, self.id, self.clock, contribution.to_vec());
            let deposits = self.shared.hub.gather_collect(op);
            let sizes: Vec<u64> = deposits.iter().map(|(_, v)| (v.len() * 8) as u64).collect();
            let max_entry =
                deposits.iter().map(|(t, _)| *t).max().expect("at least the root deposited");
            let cost = SimTime::from_secs(self.shared.network.gather_time(&sizes, root));
            let total_bytes: u64 = sizes.iter().sum();
            let ready = self.clock.max(max_entry);
            self.charge_comm_waited(ready, ready + cost, OpKind::Gather, total_bytes, None);
            Some(deposits.into_iter().map(|(_, v)| v).collect())
        } else {
            let bytes = (contribution.len() * 8) as u64;
            // Retries delay this contributor's deposit, so the root's
            // rendezvous honestly reflects the lossy link.
            self.charge_link_retries(root, bytes);
            self.shared.hub.gather_deposit(op, self.id, self.clock, contribution.to_vec());
            let cost =
                SimTime::from_secs(self.shared.network.p2p_time_between(self.id, root, bytes));
            self.charge_comm(self.clock + cost, OpKind::Gather, bytes, Some(root));
            None
        }
    }

    /// All-gather: every rank contributes a slice and receives every
    /// rank's contribution, indexed by rank. Implemented as gather to
    /// rank 0 followed by a broadcast of the concatenation (the classic
    /// two-phase algorithm; both phases are priced by the network
    /// model). Contributions may differ in length; the per-rank split is
    /// carried in a length header.
    pub fn allgather_f64s(&mut self, contribution: &[f64]) -> Vec<Vec<f64>> {
        let p = self.size();
        let gathered = self.gather_f64s(0, contribution);
        if self.id == 0 {
            let parts = gathered.expect("rank 0 is the gather root");
            // Header: p lengths, then the concatenated payloads.
            let mut packed = Vec::with_capacity(p + parts.iter().map(|v| v.len()).sum::<usize>());
            packed.extend(parts.iter().map(|v| v.len() as f64));
            for v in &parts {
                packed.extend_from_slice(v);
            }
            self.broadcast_f64s(0, Some(&packed));
            parts
        } else {
            let packed = self.broadcast_f64s(0, None);
            assert!(packed.len() >= p, "{SHORT_ALLGATHER_PAYLOAD}");
            let lens: Vec<usize> = packed[..p].iter().map(|&l| l as usize).collect();
            let mut out = Vec::with_capacity(p);
            let mut cursor = p;
            for len in lens {
                out.push(packed[cursor..cursor + len].to_vec());
                cursor += len;
            }
            out
        }
    }
}

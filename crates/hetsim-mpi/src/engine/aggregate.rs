//! Class-aggregated evaluation: one representative clock per rank
//! class plus analytic fan-out corrections (DESIGN.md §13).
//!
//! The lockstep evaluator (`analytic.rs`) removed the *scheduler* but
//! kept O(P) state — one [`SimRank`] per rank, every fan-out walked
//! leg by leg. This module removes the per-rank walk too. Ranks that
//! share a recording class (identical op stream **and** identical
//! marked speed — exactly the dedup criterion of
//! [`super::record_spmd`]) are priced through a single representative:
//! the class's **last member in rank order** (its "tail"). Collectives
//! become O(classes) folds, and hub fan-outs collapse to closed-form
//! repeated-addition chains. There is no second plan: the tier walks
//! the lockstep phase plan once, checking each phase for class symmetry
//! and folding it over the class tails as it goes, so a walk costs
//! O(phases · recorded ranks) — independent of the P the weights stand
//! for. The first phase it cannot fold decides the typed reason it
//! returns.
//!
//! # Why the tail is enough, and exact
//!
//! The invariant is *class monotonicity*: within a class, member
//! clocks are non-decreasing in rank order. It holds at launch (all
//! zero) and every phase preserves it:
//!
//! - **Compute** adds the same `fl`-increments to every member
//!   (same flops, same speed); `fl(x + c)` is monotone in `x`.
//! - **Barrier** exits every rank at one uniform clock.
//! - **Broadcast** exits receivers at `max(clock, departure)` —
//!   monotone in `clock`.
//! - **Gather** advances each leaf by one class-constant p2p cost and
//!   needs only the *maximum* deposit clock at the root.
//! - **Hub scatter** delivers messages whose arrivals are
//!   non-decreasing in send order; the walk verifies delivery order
//!   follows member rank order within each class
//!   ([`FallbackReason::ClassOrderDiverged`] otherwise), so
//!   `max(clock, arrival)` stays monotone.
//!
//! Under the invariant, `max` over a class equals its tail, so every
//! rendezvous fold (`max` over all ranks, in rank order) equals the
//! fold over class tails — the same `f64` values, hence bit-equal.
//! Costs are class-constant only when the network prices transfers
//! by size alone; models that price endpoints individually make the
//! first gather or scatter phase return
//! [`FallbackReason::UnclassedNetwork`].
//!
//! # Fan-out corrections
//!
//! The two O(P) leg walks left are closed:
//!
//! - A hub scatter's sender clock is a chain of `fl`-additions, one
//!   cost per destination; runs of equal-size sends collapse through
//!   [`repeat_add`] (exact batched IEEE-754 repeated addition), with
//!   the chain sampled at each class tail's slot via the same gadget
//!   (splitting a `repeat_add` chain at any point composes exactly).
//! - A gather's serialization cost comes from
//!   [`NetworkModel::gather_time_classed`] over the run-length-encoded
//!   contribution sizes — bit-identical to the per-rank
//!   `gather_time` by each model's own equality tests.
//!
//! Everything else is the same float-op sequence the per-rank
//! evaluator performs, restricted to tails. The three-way
//! `engine_equivalence` proptests pin the aggregated makespan and
//! per-class tail clocks against both the event-driven engine and the
//! threaded oracle.
//!
//! A recording needs only one rank per run of ranks that record the
//! same op stream: weighted by the run's length, it stands for all of
//! them ([`SpmdProgram::simulate_aggregated`]). `kernels::mega` prices
//! MM and power at 10⁷ ranks this way, from one recorded rank per
//! subclass.

use super::analytic::{run_flops, LockstepProgram, P2pStep, Phase};
use super::SpmdProgram;
use crate::telemetry::{self, EnginePath, EngineReport, FallbackReason};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::flrepeat::repeat_add;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;

/// The result of one aggregated evaluation. Communication/wait splits
/// are per-member quantities the tail cannot represent, so the outcome
/// is the makespan plus the per-class tail clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOutcome {
    /// `max` over every rank's final clock — bit-identical to the
    /// maximum of [`crate::runtime::SpmdOutcome::times`].
    pub makespan: SimTime,
    /// Final clock of each class's last member, in class order.
    pub class_times: Vec<SimTime>,
    /// Members per class, aligned with `class_times`.
    pub class_members: Vec<u64>,
    /// Total ranks the evaluation priced.
    pub ranks: u64,
}

/// A single-hub scatter folded for tail sampling: the hub's class, the
/// `(bytes, count)` send-order RLE of its send sizes, and the
/// `(slot, class)` tail sample points, ascending by slot (the hub-chain
/// value after send `slot` is class `class`'s last arrival).
type HubScatter = (usize, Vec<(u64, u64)>, Vec<(u64, usize)>);

/// Appends `count` copies of `value` to a rank-order run-length
/// encoding, merging into the last run when the value repeats.
fn push_run(runs: &mut Vec<(u64, u64)>, value: u64, count: u64) {
    match runs.last_mut() {
        Some((last, n)) if *last == value => *n += count,
        _ => runs.push((value, count)),
    }
}

impl SpmdProgram {
    /// Class-aggregated pricing of the recording: walks its lockstep
    /// plan once, folding each phase over class tails in O(recorded
    /// ranks), and records [`EnginePath::Aggregated`] telemetry on
    /// success and the typed [`FallbackReason`] on a rejection (callers
    /// then price on another tier). The first phase the tier cannot fold
    /// decides the reason, so a network without per-class costs
    /// ([`FallbackReason::UnclassedNetwork`]) can be reported before a
    /// shape a later phase would reject. Only the walk is timed as the
    /// profile's simulate phase; the lockstep analysis is timed apart.
    ///
    /// `cluster` must agree with the recording's rank classes: same
    /// size, and one marked speed per class (the recording cluster
    /// always does; a re-pricing cluster that splits a class returns
    /// [`FallbackReason::ClassOrderDiverged`]).
    ///
    /// `weights[r]` is how many ranks of the priced machine recorded
    /// rank `r` stands for (all ones: the recording itself). The
    /// caller's contract: a recorded rank with weight `m` stands for `m`
    /// consecutive ranks that would have recorded the same op stream.
    /// Its hub receives and gather contributions then expand into `m`
    /// copies in member order, and `Σ weights` ranks enter the costs and
    /// the telemetry. A collective root of weight > 1 returns
    /// [`FallbackReason::MultiMemberRootClass`]; a scatter hub of
    /// weight > 1, or a P2P batch that sends to a rank of weight > 1
    /// more than once, returns [`FallbackReason::AsymmetricP2p`].
    ///
    /// # Panics
    /// When `cluster` or `weights` disagree with the recording's rank
    /// count, or a weight is zero.
    pub fn simulate_aggregated<N: NetworkModel>(
        &self,
        cluster: &ClusterSpec,
        network: &N,
        weights: &[u64],
    ) -> Result<AggregateOutcome, FallbackReason> {
        let p = self.p;
        assert_eq!(cluster.size(), p, "cluster size disagrees with the recording's rank count");
        assert_eq!(weights.len(), p, "one weight per recorded rank");
        assert!(weights.iter().all(|&w| w > 0), "every recorded rank stands for at least one rank");
        let walked = self.analyze().and_then(|plan| {
            let simulate_started = std::time::Instant::now();
            let walked = self.aggregate_walk(&plan, cluster, network, weights);
            telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
            walked
        });
        match walked {
            Ok((outcome, report)) => {
                telemetry::record_simulation(&report);
                Ok(outcome)
            }
            Err(reason) => {
                telemetry::record_fallback(reason);
                Err(reason)
            }
        }
    }

    /// The walk behind [`simulate_aggregated`](Self::simulate_aggregated),
    /// on its checked inputs, untimed and unrecorded: the outcome plus
    /// the engine report of the per-rank op counts it covers (every
    /// collective involves each priced rank, and every hub send pairs
    /// with one receive).
    fn aggregate_walk<N: NetworkModel>(
        &self,
        plan: &LockstepProgram,
        cluster: &ClusterSpec,
        network: &N,
        weights: &[u64],
    ) -> Result<(AggregateOutcome, EngineReport), FallbackReason> {
        let nc = self.classes.len();

        let mut members = vec![0u64; nc];
        let mut speed_flops = vec![0.0f64; nc];
        for (r, &c) in self.class_of.iter().enumerate() {
            let speed = cluster.nodes()[r].marked_speed_flops();
            if members[c] == 0 {
                speed_flops[c] = speed;
            } else if speed.to_bits() != speed_flops[c].to_bits() {
                // The pricing cluster assigns two speeds to one
                // recording class; the class is no longer one clock.
                return Err(FallbackReason::ClassOrderDiverged);
            }
            members[c] += weights[r];
        }
        let ranks: u64 = members.iter().sum();
        // A collective root's class is one rank only when the root
        // stands for itself alone (the analyzer already checked that
        // no other recorded rank shares its class).
        let root_class = |root: u32| {
            if weights[root as usize] == 1 {
                Ok(self.class_of[root as usize])
            } else {
                Err(FallbackReason::MultiMemberRootClass)
            }
        };

        let mut report = EngineReport::new(EnginePath::Aggregated, ranks, nc as u64);
        let mut last = vec![SimTime::ZERO; nc];
        // Hoisted once per evaluation, as both per-rank engines do.
        let barrier_cost = SimTime::from_secs(network.barrier_time(ranks as usize));
        for phase in &plan.phases {
            match phase {
                Phase::Compute { runs } => {
                    // The per-op flops, charged individually — same `fl`
                    // sequence as one member walking its op list.
                    for (c, l) in last.iter_mut().enumerate() {
                        for flops in run_flops(&self.classes[c], runs[c]) {
                            *l += SimTime::from_secs(flops / speed_flops[c]);
                        }
                    }
                }
                Phase::Barrier => {
                    report.collective_events += ranks;
                    let rendezvous = *last.iter().max().expect("classes >= 1");
                    last.fill(rendezvous + barrier_cost);
                }
                Phase::Bcast { root, count } => {
                    let rc = root_class(*root)?;
                    report.collective_events += ranks;
                    let bytes = (count * 8) as u64;
                    let cost = SimTime::from_secs(network.bcast_time(ranks as usize, bytes));
                    let departure = last[rc] + cost;
                    for (c, l) in last.iter_mut().enumerate() {
                        *l = if c == rc { departure } else { (*l).max(departure) };
                    }
                }
                Phase::Gather { root, sizes, .. } => {
                    let rc = root_class(*root)?;
                    report.collective_events += ranks;
                    let root = *root as usize;
                    // `(bytes, count)` rank-order RLE of contribution
                    // sizes, the run holding the root, and each class's
                    // own contribution (the root's entry unused).
                    let mut size_runs = Vec::new();
                    let mut root_run = 0usize;
                    let mut leaf_bytes = vec![0u64; nc];
                    for (r, (&bytes, &w)) in sizes.iter().zip(weights).enumerate() {
                        push_run(&mut size_runs, bytes, w);
                        if r == root {
                            root_run = size_runs.len() - 1;
                        }
                        leaf_bytes[self.class_of[r]] = bytes;
                    }
                    // Deposit clocks fold to the class tails (root
                    // included — its class is singleton).
                    let max_entry = *last.iter().max().expect("classes >= 1");
                    let cost = network
                        .gather_time_classed(&size_runs, root_run)
                        .ok_or(FallbackReason::UnclassedNetwork)?;
                    let ready = last[rc].max(max_entry);
                    let root_exit = ready + SimTime::from_secs(cost);
                    for (c, l) in last.iter_mut().enumerate() {
                        if c != rc {
                            let leg = network
                                .p2p_time_class(leaf_bytes[c])
                                .ok_or(FallbackReason::UnclassedNetwork)?;
                            *l += SimTime::from_secs(leg);
                        }
                    }
                    last[rc] = root_exit;
                }
                Phase::P2p { steps } => {
                    let (hub, send_runs, samples) = self.hub_scatter(steps, weights)?;
                    report.p2p_events += 2 * send_runs.iter().map(|&(_, n)| n).sum::<u64>();
                    // The hub clock chains one fl-addition per send;
                    // equal-size runs batch through repeat_add, and
                    // each class tail's arrival is the chain sampled
                    // at its slot (chain splits compose exactly).
                    let mut chain = last[hub].as_secs();
                    let mut slot_base = 0u64;
                    let mut next_sample = samples.into_iter().peekable();
                    for (bytes, count) in send_runs {
                        let cost = network
                            .p2p_time_class(bytes)
                            .ok_or(FallbackReason::UnclassedNetwork)?;
                        while let Some((slot, c)) =
                            next_sample.next_if(|&(slot, _)| slot < slot_base + count)
                        {
                            let arrival = repeat_add(chain, cost, slot - slot_base + 1);
                            last[c] = last[c].max(SimTime::from_secs(arrival));
                        }
                        chain = repeat_add(chain, cost, count);
                        slot_base += count;
                    }
                    last[hub] = SimTime::from_secs(chain);
                }
            }
        }
        let makespan = *last.iter().max().expect("classes >= 1");
        let outcome =
            AggregateOutcome { makespan, class_times: last, class_members: members, ranks };
        Ok((outcome, report))
    }

    /// Folds a lockstep P2P batch into a hub scatter, or reports why
    /// it cannot be: sends from more than one rank, a sending rank that
    /// also receives, a hub standing for more than one rank, or a
    /// second send to a rank of weight > 1 are
    /// [`FallbackReason::AsymmetricP2p`], and deliveries that do not
    /// follow member rank order within a class are
    /// [`FallbackReason::ClassOrderDiverged`]. A send to a rank of
    /// weight `m` expands into `m` back-to-back sends, one per member —
    /// the materialized hub's order only while it sends to each
    /// member once per batch.
    fn hub_scatter(
        &self,
        steps: &[P2pStep],
        weights: &[u64],
    ) -> Result<HubScatter, FallbackReason> {
        let mut hub: Option<u32> = None;
        let mut send_runs: Vec<(u64, u64)> = Vec::new();
        // Expanded slot of each recorded send's last copy: the one its
        // destination's tail member receives.
        let mut tail_slot: Vec<u64> = Vec::new();
        let mut sent = 0u64;
        // Weighted ranks already sent to in this batch.
        let mut sent_to = vec![false; self.p];
        // Highest-slot message each rank receives (u64::MAX = none);
        // per-rank exits fold `max(clock, arrival)`, and arrivals are
        // non-decreasing in slot, so only the last message matters.
        let mut last_slot = vec![u64::MAX; self.p];
        for step in steps {
            match *step {
                P2pStep::Send { rank, dest, count } => {
                    if *hub.get_or_insert(rank) != rank {
                        return Err(FallbackReason::AsymmetricP2p);
                    }
                    let copies = weights[dest as usize];
                    if copies > 1 && std::mem::replace(&mut sent_to[dest as usize], true) {
                        return Err(FallbackReason::AsymmetricP2p);
                    }
                    push_run(&mut send_runs, (count * 8) as u64, copies);
                    sent += copies;
                    tail_slot.push(sent - 1);
                }
                P2pStep::Recv { rank, slot, .. } => {
                    if hub == Some(rank) {
                        return Err(FallbackReason::AsymmetricP2p);
                    }
                    let slot = tail_slot[slot as usize];
                    let cell = &mut last_slot[rank as usize];
                    *cell = if *cell == u64::MAX { slot } else { (*cell).max(slot) };
                }
            }
        }
        let hub = hub.ok_or(FallbackReason::AsymmetricP2p)?;
        if weights[hub as usize] != 1 {
            return Err(FallbackReason::AsymmetricP2p);
        }

        // Tail sampling is sound only when, within each class, the
        // last-message slot increases with member rank order (the tail
        // then owns the class's latest arrival).
        let mut class_last: Vec<Option<u64>> = vec![None; self.classes.len()];
        for (r, &c) in self.class_of.iter().enumerate() {
            let slot = last_slot[r];
            if slot == u64::MAX {
                continue;
            }
            if class_last[c].is_some_and(|prev| prev >= slot) {
                return Err(FallbackReason::ClassOrderDiverged);
            }
            class_last[c] = Some(slot);
        }
        let mut samples: Vec<(u64, usize)> =
            class_last.iter().enumerate().filter_map(|(c, s)| s.map(|slot| (slot, c))).collect();
        samples.sort_unstable();
        Ok((self.class_of[hub as usize], send_runs, samples))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{record_spmd, RecordTimer, SpmdTimer};
    use super::*;
    use crate::message::Tag;
    use crate::runtime::SpmdOutcome;
    use hetsim_cluster::network::{
        ConstantLatency, JitteredNetwork, MpichEthernet, SharedEthernet, SwitchedNetwork,
    };
    use hetsim_cluster::node::NodeSpec;

    type Program = super::super::SpmdProgram;

    /// Every op kind the aggregator folds, over per-rank row counts:
    /// barrier, compute, hub scatter, compute, broadcast, gathers to
    /// rank 0 and to `root`, an allgather (a gather to rank 0, then the
    /// broadcast of `packed` elements: one length header per priced rank
    /// plus every priced rank's rows) — the master–worker shape MM and
    /// power iteration record. The first compute prices by speed alone,
    /// so a receiver slower than the hub is still computing when its
    /// message arrives (its clock wins the scatter's `max`) and a faster
    /// one is not (the arrival wins). The second prices by rows, so a
    /// receiver with more rows than the hub carries its arrival past the
    /// hub's clock into the makespan.
    fn body<T: SpmdTimer>(t: &mut T, rows: &[usize], root: usize, packed: usize) {
        let me = t.rank();
        t.barrier();
        t.compute_flops(1e6);
        if me == 0 {
            for (peer, &r) in rows.iter().enumerate().skip(1) {
                t.send_count(peer, Tag(5), r * 4);
            }
        } else {
            t.recv_count(0, Tag(5), rows[me] * 4);
        }
        t.compute_flops(rows[me] as f64 * 1e5);
        t.broadcast_count(0, 33);
        t.gather_count(0, rows[me] * 4);
        t.gather_count(root, rows[me]);
        t.gather_count(0, rows[me]);
        t.broadcast_count(0, packed);
    }

    /// [`body`] recorded on `(speed, rows, members)` runs, rooting its
    /// second gather at run `root_run`: materialized with unit weights,
    /// or as a skeleton of one rank per run weighted by its members.
    fn recorded(
        runs: &[(f64, usize, u64)],
        root_run: usize,
        skeleton: bool,
    ) -> (Program, ClusterSpec, Vec<u64>) {
        let (mut nodes, mut rows, mut weights, mut root) = (Vec::new(), Vec::new(), Vec::new(), 0);
        for (i, &(speed, r, m)) in runs.iter().enumerate() {
            if i == root_run {
                root = nodes.len();
            }
            let (copies, weight) = if skeleton { (1, m) } else { (m, 1) };
            for _ in 0..copies {
                nodes.push(NodeSpec::synthetic(format!("n{}", nodes.len()), speed));
                rows.push(r);
                weights.push(weight);
            }
        }
        let cluster = ClusterSpec::new("runs", nodes).unwrap();
        let packed = runs.iter().map(|&(_, r, m)| (1 + r) * m as usize).sum();
        (record_spmd(&cluster, |t| body(t, &rows, root, packed)), cluster, weights)
    }

    /// `batch` then a barrier, recorded on `weights.len()` equal ranks
    /// and priced under `weights` on a constant-latency network.
    fn priced_batch(
        weights: &[u64],
        batch: impl Fn(&mut RecordTimer),
    ) -> Result<AggregateOutcome, FallbackReason> {
        let cluster = ClusterSpec::homogeneous(weights.len(), 50.0);
        let program: Program = record_spmd(&cluster, |t| {
            batch(t);
            t.barrier();
        });
        program.simulate_aggregated(&cluster, &ConstantLatency::new(1e-3), weights)
    }

    /// Checks the aggregated outcome against a per-rank outcome: the
    /// makespan is the per-rank maximum, and every class tail clock is
    /// the final clock of that class's last member — bit for bit.
    fn assert_agg_matches(program: &Program, agg: &AggregateOutcome, per_rank: &SpmdOutcome<()>) {
        assert_eq!(agg.makespan, per_rank.makespan(), "makespan");
        assert_eq!(agg.ranks as usize, program.size());
        let nc = agg.class_times.len();
        let mut tail = vec![usize::MAX; nc];
        let mut members = vec![0u64; nc];
        for (r, &c) in program.class_of.iter().enumerate() {
            tail[c] = r;
            members[c] += 1;
        }
        assert_eq!(agg.class_members, members, "class multiplicities");
        for (c, &t) in tail.iter().enumerate() {
            assert_eq!(agg.class_times[c], per_rank.times[t], "tail clock of class {c}");
        }
    }

    #[test]
    fn aggregated_matches_event_driven_across_networks() {
        // Distinct speeds, one speed, one rank, and two (50, 2) runs
        // that dedup into one class across the mid-machine root; each
        // materialized and as a skeleton, walked under every network.
        // The row-heavy runs at the hub's speed put a weighted class's
        // scatter arrival into the makespan.
        let machines = [
            (&[(90.0, 2, 1), (50.0, 1, 1), (110.0, 3, 1)][..], 2),
            (&[(80.0, 2, 1), (80.0, 5, 4)], 0),
            (&[(70.0, 3, 1)], 0),
            (&[(90.0, 3, 1), (90.0, 6, 2), (50.0, 2, 2), (110.0, 4, 1), (50.0, 2, 3)], 3),
        ];
        let nets: [&dyn NetworkModel; 4] = [
            &SharedEthernet::new(0.3e-3, 1.25e7),
            &MpichEthernet::new(0.2e-3, 1e8),
            &SwitchedNetwork::new(0.1e-3, 1.2e7),
            &ConstantLatency::new(1e-3),
        ];
        let walk = |program: &Program, cluster: &ClusterSpec, weights: &[u64], net| {
            let plan = program.analyze().expect("lockstep");
            program.aggregate_walk(&plan, cluster, &net, weights).expect("aggregatable")
        };
        for (runs, root_run) in machines {
            let (full, full_cluster, ones) = recorded(runs, root_run, false);
            let (skel, skel_cluster, weights) = recorded(runs, root_run, true);
            let sends = 2 * (full.size() as u64 - 1);
            for net in nets {
                let (agg, skel_ops) = walk(&skel, &skel_cluster, &weights, net);
                let (full_agg, full_ops) = walk(&full, &full_cluster, &ones, net);
                assert_eq!(
                    skel_ops.collective_events, full_ops.collective_events,
                    "collective ops"
                );
                assert_eq!((skel_ops.p2p_events, full_ops.p2p_events), (sends, sends), "p2p ops");
                // Makespan, every class tail, members and rank count.
                assert_eq!(agg, full_agg);
                assert_agg_matches(&full, &agg, &full.simulate_event_driven(&full_cluster, &net));
            }
        }
    }

    #[test]
    fn second_send_to_a_weighted_rank_is_asymmetric() {
        // The hub sends each peer two messages back to back. Weighted,
        // the expansion would put a member's copies of one message
        // together, but the materialized hub alternates the two.
        let batch = |t: &mut RecordTimer| {
            if t.rank() == 0 {
                for peer in 1..3 {
                    t.send_count(peer, Tag(1), 4);
                    t.send_count(peer, Tag(2), 9);
                }
            } else {
                t.recv_count(0, Tag(1), 4);
                t.recv_count(0, Tag(2), 9);
            }
        };
        assert!(priced_batch(&[1; 3], batch).is_ok());
        assert_eq!(priced_batch(&[1, 1, 3], batch), Err(FallbackReason::AsymmetricP2p));
    }

    #[test]
    fn endpoint_priced_networks_are_rejected_as_unclassed() {
        let (program, cluster, weights) = recorded(&[(80.0, 2, 4)], 0, false);
        let net = JitteredNetwork::new(MpichEthernet::new(0.2e-3, 1e8), 0.25, 99);
        assert_eq!(
            program.simulate_aggregated(&cluster, &net, &weights),
            Err(FallbackReason::UnclassedNetwork)
        );
    }

    #[test]
    fn non_lockstep_recordings_keep_their_typed_reason() {
        // Sent before the barrier, received after: not even lockstep.
        let batch = |t: &mut RecordTimer| {
            if t.rank() == 0 {
                t.send_count(1, Tag(7), 5);
            }
            t.barrier();
            if t.rank() == 1 {
                t.recv_count(0, Tag(7), 5);
            }
        };
        assert_eq!(priced_batch(&[1; 2], batch), Err(FallbackReason::SendAcrossSync));
    }

    #[test]
    fn multi_sender_batches_are_asymmetric() {
        let batch = |t: &mut RecordTimer| match t.rank() {
            0 => t.send_count(2, Tag(1), 4),
            1 => t.send_count(2, Tag(2), 4),
            _ => {
                t.recv_count(0, Tag(1), 4);
                t.recv_count(1, Tag(2), 4);
            }
        };
        assert_eq!(priced_batch(&[1; 3], batch), Err(FallbackReason::AsymmetricP2p));
    }

    #[test]
    fn out_of_order_delivery_within_a_class_is_rejected() {
        // Ranks 1 and 2 share a class, but the hub serves rank 2 first:
        // the class tail no longer owns the latest arrival (a reason
        // only a class of two or more recorded ranks can return).
        let batch = |t: &mut RecordTimer| {
            if t.rank() == 0 {
                t.send_count(2, Tag(1), 4);
                t.send_count(1, Tag(1), 4);
            } else {
                t.recv_count(0, Tag(1), 4);
            }
        };
        assert_eq!(priced_batch(&[1; 3], batch), Err(FallbackReason::ClassOrderDiverged));
    }

    #[test]
    fn repricing_cluster_that_splits_a_class_is_rejected() {
        let (program, recorded_on, weights) = recorded(&[(80.0, 2, 4)], 0, false);
        // Speeds 80, 80, 90, 80: rank 2 leaves the class of ranks 1 and 3.
        let (_, reprice, _) = recorded(&[(80.0, 2, 2), (90.0, 2, 1), (80.0, 2, 1)], 0, false);
        let net = ConstantLatency::new(1e-3);
        assert_eq!(
            program.simulate_aggregated(&reprice, &net, &weights),
            Err(FallbackReason::ClassOrderDiverged)
        );
        assert!(program.simulate_aggregated(&recorded_on, &net, &weights).is_ok());
    }

    #[test]
    fn aggregation_records_telemetry() {
        // A skeleton of 1 + 6 + 1 ranks; rank 2 roots the second gather.
        let (program, cluster, weights) =
            recorded(&[(80.0, 2, 1), (80.0, 2, 6), (90.0, 1, 1)], 2, true);
        let net = MpichEthernet::new(0.2e-3, 1e8);
        let before = telemetry::snapshot();
        program.simulate_aggregated(&cluster, &net, &weights).expect("aggregatable");
        let after = telemetry::snapshot();
        assert!(after.aggregated_sims > before.aggregated_sims);
        assert!(after.aggregated_ranks >= before.aggregated_ranks + 8, "weighted ranks");
        assert!(
            after.aggregated_classes
                >= before.aggregated_classes + program.distinct_classes() as u64
        );
        // A hub or a root standing for more than one rank is rejected
        // with its typed reason, and the rejection is counted.
        for (heavy, reason) in
            [(0, FallbackReason::AsymmetricP2p), (2, FallbackReason::MultiMemberRootClass)]
        {
            let mut heavier = weights.clone();
            heavier[heavy] = 2;
            let count = || telemetry::snapshot().fallback_reasons.get(reason.name()).copied();
            let before = count().unwrap_or(0);
            assert_eq!(program.simulate_aggregated(&cluster, &net, &heavier), Err(reason));
            assert!(count().unwrap_or(0) > before, "{reason:?} is counted");
        }
    }
}

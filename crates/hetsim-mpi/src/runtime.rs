//! SPMD launcher: runs one closure on every rank and collects results,
//! per-rank virtual clocks, and the run's makespan.

use crate::collectives::CollectiveHub;
use crate::context::{Rank, Shared};
use crate::message::Mailbox;
use crate::trace::RankTrace;
use crate::PeerPanicked;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::FaultPlan;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;

/// Everything a finished SPMD run reports.
#[derive(Debug, Clone)]
pub struct SpmdOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub times: Vec<SimTime>,
    /// Per-rank accumulated pure-computation time (`T_c` components).
    pub compute_times: Vec<SimTime>,
    /// Per-rank accumulated communication/wait time (`T_o` components).
    pub comm_times: Vec<SimTime>,
    /// Per-rank idle-wait time: the share of `comm_times` spent blocked
    /// on peers (stragglers, unstarted senders) rather than on actual
    /// transfers — the load-imbalance component of `T_o`.
    pub wait_times: Vec<SimTime>,
    /// Per-rank operation traces, indexed by rank; empty unless the run
    /// was started with [`RunSpec::trace`] set.
    pub traces: Vec<RankTrace>,
}

impl<R> SpmdOutcome<R> {
    /// The parallel execution time `T`: the latest rank's final clock.
    pub fn makespan(&self) -> SimTime {
        self.times.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Total communication overhead `T_o`: the sum of per-rank comm time.
    /// This is the quantity Theorem 1 calls "total overhead spent on
    /// communication, synchronization and other overhead".
    pub fn total_overhead(&self) -> SimTime {
        self.comm_times.iter().fold(SimTime::ZERO, |acc, &t| acc + t)
    }

    /// Total idle-wait time across ranks — the load-imbalance share of
    /// [`SpmdOutcome::total_overhead`].
    pub fn total_wait(&self) -> SimTime {
        self.wait_times.iter().fold(SimTime::ZERO, |acc, &t| acc + t)
    }
}

/// Held by each rank thread: if the rank's body unwinds, every peer
/// blocked in the hub or a mailbox (or blocking there later) unwinds
/// too, instead of waiting forever for a rank that is gone.
struct AbortPeersOnUnwind<'s>(&'s Shared<'s>);

impl Drop for AbortPeersOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.hub.abort();
            for mailbox in &self.0.mailboxes {
                mailbox.abort();
            }
        }
    }
}

/// What one rank thread hands back when it joins.
struct RankReport<R> {
    result: R,
    clock: SimTime,
    compute_time: SimTime,
    comm_time: SimTime,
    wait_time: SimTime,
    trace: RankTrace,
}

/// How to run an SPMD program. Both runtimes ([`run_spmd`], the
/// threaded oracle, and [`crate::run_spmd_fast`]) and every timed kernel
/// take one; `RunSpec::default()` is the plain untraced, fault-free run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSpec<'a> {
    /// Record one [`RankTrace`] per rank into [`SpmdOutcome::traces`].
    /// Tracing is a pure read: it changes no clock.
    pub trace: bool,
    /// A deterministic [`FaultPlan`]: a straggler multiplier stretches
    /// every compute span of its rank, and a non-zero link-drop rate
    /// charges retry/timeout/backoff time before each send (traced as
    /// [`crate::OpKind::Retry`]). Virtual times remain pure functions of
    /// (cluster, network, plan seed), and an empty plan is bit-identical
    /// to `None`. Node deaths must be resolved *before* launch via
    /// [`FaultPlan::surviving_cluster`] / [`FaultPlan::for_survivors`].
    pub faults: Option<&'a FaultPlan>,
}

impl RunSpec<'_> {
    /// Rejects a plan whose node deaths were not resolved before launch:
    /// neither runtime can lose a rank mid-collective.
    pub(crate) fn assert_launchable(&self) {
        if let Some(plan) = self.faults {
            assert!(
                plan.deaths().is_empty(),
                "node deaths must be resolved before launch (surviving_cluster/for_survivors)"
            );
        }
    }
}

/// Runs `body` as an SPMD program: one OS thread per node of `cluster`,
/// each handed a [`Rank`] whose virtual clock is driven by the node's
/// marked speed and `network`'s communication costs, under `spec`'s
/// tracing and fault plan.
///
/// Blocks until every rank returns. Results arrive indexed by rank.
///
/// # Panics
/// Propagates a panicking rank's own panic, the first in rank order
/// (peers it left blocked are woken to unwind, so the run ends instead
/// of hanging), and panics if a rank leaves undelivered
/// messages in another rank's mailbox (a protocol bug in `body`). Also
/// panics if `spec.faults` declares node deaths, and (with the typed
/// [`hetsim_cluster::faults::FaultError`] message) when a send exhausts
/// its retry budget.
pub fn run_spmd<R, F, N>(
    cluster: &ClusterSpec,
    network: &N,
    spec: RunSpec<'_>,
    body: F,
) -> SpmdOutcome<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Sync,
    N: NetworkModel,
{
    spec.assert_launchable();
    let p = cluster.size();
    let shared = Shared {
        cluster,
        network,
        mailboxes: (0..p).map(|_| Mailbox::new()).collect(),
        hub: CollectiveHub::new(p),
        tracing: spec.trace,
        faults: spec.faults,
    };

    let mut slots: Vec<Option<RankReport<R>>> = Vec::with_capacity(p);
    slots.resize_with(p, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for id in 0..p {
            let shared_ref = &shared;
            let body_ref = &body;
            handles.push(scope.spawn(move || {
                let _abort = AbortPeersOnUnwind(shared_ref);
                let mut rank = Rank::new(id, shared_ref);
                let result = body_ref(&mut rank);
                let trace = rank.take_trace();
                RankReport {
                    result,
                    clock: rank.clock(),
                    compute_time: rank.compute_time(),
                    comm_time: rank.comm_time(),
                    wait_time: rank.wait_time(),
                    trace,
                }
            }));
        }
        // Join every rank before propagating: a peer woken by the abort
        // unwinds with a `PeerPanicked` marker, and the bug's own
        // payload is the first one that is not the marker.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for (id, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(report) => slots[id] = Some(report),
                Err(payload) => {
                    if panic.as_ref().is_none_or(|first| first.is::<PeerPanicked>()) {
                        panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    for (id, mb) in shared.mailboxes.iter().enumerate() {
        assert!(
            mb.is_empty(),
            "rank {id} finished with {} undelivered message(s) in its mailbox",
            mb.len()
        );
    }
    assert_eq!(
        shared.hub.live_slots(),
        0,
        "collective slots leaked — ranks disagreed on collective count"
    );

    let mut results = Vec::with_capacity(p);
    let mut times = Vec::with_capacity(p);
    let mut compute_times = Vec::with_capacity(p);
    let mut comm_times = Vec::with_capacity(p);
    let mut wait_times = Vec::with_capacity(p);
    let mut traces = Vec::with_capacity(if spec.trace { p } else { 0 });
    for slot in slots {
        let report = slot.expect("every rank joined");
        results.push(report.result);
        times.push(report.clock);
        compute_times.push(report.compute_time);
        comm_times.push(report.comm_time);
        wait_times.push(report.wait_time);
        if spec.trace {
            traces.push(report.trace);
        }
    }
    // The oracle runtime stores one op stream per rank — no dedup.
    crate::telemetry::record_simulation(&crate::telemetry::EngineReport::new(
        crate::telemetry::EnginePath::Threaded,
        p as u64,
        p as u64,
    ));
    SpmdOutcome { results, times, compute_times, comm_times, wait_times, traces }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;
    use hetsim_cluster::network::{ConstantLatency, SharedEthernet};
    use hetsim_cluster::node::NodeSpec;

    fn small_net() -> SharedEthernet {
        SharedEthernet::new(1e-3, 1e6) // 1 ms latency, 1 MB/s
    }

    fn het2() -> ClusterSpec {
        ClusterSpec::new(
            "het2",
            vec![NodeSpec::synthetic("fast", 100.0), NodeSpec::synthetic("slow", 25.0)],
        )
        .unwrap()
    }

    #[test]
    fn compute_time_reflects_marked_speed() {
        let outcome = run_spmd(&het2(), &small_net(), RunSpec::default(), |rank| {
            rank.compute_flops(1e8); // 100 Mflop
            rank.clock().as_secs()
        });
        // fast: 100 Mflop at 100 Mflop/s = 1 s; slow: 4 s.
        assert!((outcome.results[0] - 1.0).abs() < 1e-12);
        assert!((outcome.results[1] - 4.0).abs() < 1e-12);
        assert_eq!(outcome.makespan(), SimTime::from_secs(4.0));
    }

    #[test]
    fn send_recv_transfers_data_and_time() {
        let outcome = run_spmd(&het2(), &small_net(), RunSpec::default(), |rank| {
            if rank.rank() == 0 {
                rank.compute_flops(1e8); // ready at t = 1
                rank.send_f64s(1, Tag::DATA, &[1.0, 2.0, 3.0]);
                rank.clock().as_secs()
            } else {
                let data = rank.recv_f64s(0, Tag::DATA);
                assert_eq!(data, vec![1.0, 2.0, 3.0]);
                rank.clock().as_secs()
            }
        });
        // Transfer: 24 bytes at 1 MB/s + 1 ms = 1.024 ms.
        let t_send = 1e-3 + 24.0 / 1e6;
        assert!((outcome.results[0] - (1.0 + t_send)).abs() < 1e-12);
        // Receiver idles until the arrival.
        assert!((outcome.results[1] - (1.0 + t_send)).abs() < 1e-12);
    }

    #[test]
    fn receiver_already_late_keeps_its_own_clock() {
        let outcome = run_spmd(&het2(), &small_net(), RunSpec::default(), |rank| {
            if rank.rank() == 0 {
                rank.send_f64s(1, Tag::DATA, &[5.0]);
            } else {
                rank.compute_flops(1e9); // 40 s of local work first
                let _ = rank.recv_f64s(0, Tag::DATA);
            }
            rank.clock().as_secs()
        });
        // The message arrived long ago; recv is effectively free.
        assert!((outcome.results[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let net = ConstantLatency::new(2e-3);
        let outcome = run_spmd(&cluster, &net, RunSpec::default(), |rank| {
            rank.compute_flops(1e6 * (rank.rank() as f64 + 1.0));
            rank.barrier();
            rank.clock().as_secs()
        });
        // Slowest rank: 4 Mflop at 50 Mflop/s = 0.08 s; barrier +2 ms.
        for &t in &outcome.results {
            assert!((t - 0.082).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn broadcast_delivers_and_times_correctly() {
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = small_net();
        let outcome = run_spmd(&cluster, &net, RunSpec::default(), |rank| {
            let data = if rank.rank() == 0 {
                rank.broadcast_f64s(0, Some(&[7.0, 8.0]))
            } else {
                rank.broadcast_f64s(0, None)
            };
            assert_eq!(data, vec![7.0, 8.0]);
            rank.clock().as_secs()
        });
        // Shared ethernet bcast p=3: 2 transfers of 16 B.
        let expect = 2.0 * (1e-3 + 16.0 / 1e6);
        for &t in &outcome.results {
            assert!((t - expect).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn gather_collects_rank_indexed_data() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let outcome = run_spmd(&cluster, &small_net(), RunSpec::default(), |rank| {
            let mine = vec![rank.rank() as f64; rank.rank() + 1];
            rank.gather_f64s(0, &mine)
        });
        let gathered = outcome.results[0].as_ref().expect("root result");
        for (r, v) in gathered.iter().enumerate() {
            assert_eq!(v.len(), r + 1);
            assert!(v.iter().all(|&x| x == r as f64));
        }
        assert!(outcome.results[1].is_none());
    }

    #[test]
    fn allgather_delivers_everything_everywhere() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let outcome = run_spmd(&cluster, &small_net(), RunSpec::default(), |rank| {
            let mine = vec![rank.rank() as f64; rank.rank() + 1];
            rank.allgather_f64s(&mine)
        });
        for (r, got) in outcome.results.iter().enumerate() {
            assert_eq!(got.len(), 4, "rank {r}");
            for (peer, v) in got.iter().enumerate() {
                assert_eq!(v.len(), peer + 1, "rank {r} part {peer}");
                assert!(v.iter().all(|&x| x == peer as f64));
            }
        }
        // Everyone pays: no rank finishes at time zero.
        assert!(outcome.times.iter().all(|t| t.as_secs() > 0.0));
    }

    #[test]
    fn allgather_clocks_agree_across_ranks() {
        // The closing broadcast synchronizes receivers to the root's
        // departure; with equal entry clocks all exits match.
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let outcome = run_spmd(&cluster, &small_net(), RunSpec::default(), |rank| {
            rank.allgather_f64s(&[rank.rank() as f64]);
            rank.clock()
        });
        let t0 = outcome.results[0];
        assert!(outcome.results.iter().all(|&t| t == t0), "{:?}", outcome.results);
    }

    #[test]
    fn allgather_is_the_gather_then_the_packed_broadcast() {
        // Size-only bodies have no allgather: they record the gather to
        // rank 0 and the broadcast of the packed payload it runs, which
        // must price and trace the same, retries included.
        let cluster = ClusterSpec::new(
            "het4",
            vec![
                NodeSpec::synthetic("a", 90.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
                NodeSpec::synthetic("d", 75.0),
            ],
        )
        .unwrap();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let allgather = |rank: &mut Rank| {
            for round in 0..3 {
                rank.compute_flops(1e6 * (rank.rank() + round + 1) as f64);
                drop(rank.allgather_f64s(&vec![round as f64; rank.rank() + round]));
            }
        };
        let gather_then_broadcast = |rank: &mut Rank| {
            for round in 0..3 {
                rank.compute_flops(1e6 * (rank.rank() + round + 1) as f64);
                match rank.gather_f64s(0, &vec![round as f64; rank.rank() + round]) {
                    Some(parts) => {
                        let mut packed: Vec<f64> = parts.iter().map(|v| v.len() as f64).collect();
                        parts.iter().for_each(|v| packed.extend_from_slice(v));
                        drop(rank.broadcast_f64s(0, Some(&packed)));
                    }
                    None => drop(rank.broadcast_f64s(0, None)),
                }
            }
        };
        let plan = FaultPlan::new(5).with_link_drops(300);
        for faults in [None, Some(&plan)] {
            let spec = RunSpec { trace: true, faults };
            let a = run_spmd(&cluster, &net, spec, allgather);
            let b = run_spmd(&cluster, &net, spec, gather_then_broadcast);
            assert_eq!(a.times, b.times, "{faults:?}");
            assert_eq!(a.comm_times, b.comm_times, "{faults:?}");
            assert_eq!(a.wait_times, b.wait_times, "{faults:?}");
            assert_eq!(a.traces, b.traces, "{faults:?}");
            let retries = a.traces.iter().flat_map(|t| &t.records);
            let retries = retries.filter(|r| r.kind == crate::trace::OpKind::Retry).count();
            assert_eq!(retries > 0, faults.is_some(), "drops hit only under the plan");
        }
    }

    #[test]
    fn an_allgather_receive_shorter_than_its_header_panics() {
        // Rank 0 gathers, then broadcasts one element: fewer than the
        // three-entry length header the allgather's receivers read.
        let message = panic_message(3, |rank| {
            if rank.rank() == 0 {
                let _ = rank.gather_f64s(0, &[1.0, 2.0]);
                drop(rank.broadcast_f64s(0, Some(&[7.0])));
            } else {
                drop(rank.allgather_f64s(&[1.0, 2.0]));
            }
        });
        assert_eq!(message, crate::context::SHORT_ALLGATHER_PAYLOAD);
    }

    #[test]
    fn virtual_times_are_deterministic_across_runs() {
        let cluster = het2();
        let net = small_net();
        let run = || {
            run_spmd(&cluster, &net, RunSpec::default(), |rank| {
                for i in 0..10 {
                    rank.compute_flops(1e6 * (rank.rank() + 1) as f64);
                    if rank.rank() == 0 {
                        rank.send_f64s(1, Tag(i), &[i as f64]);
                    } else {
                        let _ = rank.recv_f64s(0, Tag(i));
                    }
                    rank.barrier();
                }
                rank.clock()
            })
            .results
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overhead_accounting_splits_compute_and_comm() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let net = ConstantLatency::new(1e-2);
        let outcome = run_spmd(&cluster, &net, RunSpec::default(), |rank| {
            rank.compute_flops(1e8); // exactly 1 s
            rank.barrier();
        });
        for r in 0..2 {
            assert!((outcome.compute_times[r].as_secs() - 1.0).abs() < 1e-12);
            assert!((outcome.comm_times[r].as_secs() - 1e-2).abs() < 1e-12);
        }
        assert!((outcome.total_overhead().as_secs() - 2e-2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "undelivered message")]
    fn leaked_message_is_detected() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        run_spmd(&cluster, &small_net(), RunSpec::default(), |rank| {
            if rank.rank() == 0 {
                rank.send_f64s(1, Tag::DATA, &[1.0]);
                // rank 1 never receives it.
            }
        });
    }

    #[test]
    #[should_panic(expected = "self-send")]
    fn self_send_is_rejected() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        run_spmd(&cluster, &small_net(), RunSpec::default(), |rank| {
            if rank.rank() == 0 {
                rank.send_f64s(0, Tag::DATA, &[1.0]);
            }
        });
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_baseline() {
        let cluster = het2();
        let net = small_net();
        let plan = FaultPlan::new(42);
        let body = |rank: &mut Rank| {
            for i in 0..8 {
                rank.compute_flops(3.7e6 * (rank.rank() + 1) as f64);
                if rank.rank() == 0 {
                    rank.send_f64s(1, Tag(i), &[i as f64, 0.5]);
                } else {
                    let _ = rank.recv_f64s(0, Tag(i));
                }
                rank.barrier();
            }
            rank.clock()
        };
        let base = run_spmd(&cluster, &net, RunSpec::default(), body);
        let faulted = run_spmd(&cluster, &net, RunSpec { trace: false, faults: Some(&plan) }, body);
        assert_eq!(base.results, faulted.results);
        assert_eq!(base.times, faulted.times);
        assert_eq!(base.compute_times, faulted.compute_times);
        assert_eq!(base.comm_times, faulted.comm_times);
    }

    #[test]
    fn straggler_window_stretches_compute() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let plan = FaultPlan::new(1).with_straggler(1, 0.5);
        let outcome = run_spmd(
            &cluster,
            &small_net(),
            RunSpec { trace: false, faults: Some(&plan) },
            |rank| {
                rank.compute_flops(1e8); // 1 s nominal
                rank.clock().as_secs()
            },
        );
        assert!((outcome.results[0] - 1.0).abs() < 1e-12);
        assert!((outcome.results[1] - 2.0).abs() < 1e-12, "straggler at half speed");
    }

    #[test]
    fn link_drops_charge_retry_spans_deterministically() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let net = small_net();
        let plan = FaultPlan::new(7).with_link_drops(400);
        let run = || {
            run_spmd(&cluster, &net, RunSpec { trace: true, faults: Some(&plan) }, |rank| {
                for i in 0..20 {
                    if rank.rank() == 0 {
                        rank.send_f64s(1, Tag(i), &[i as f64]);
                    } else {
                        let _ = rank.recv_f64s(0, Tag(i));
                    }
                    rank.barrier();
                }
                rank.clock()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.times, b.times, "same plan ⇒ bit-identical clocks");
        let retries: usize =
            a.traces[0].records.iter().filter(|r| r.kind == crate::trace::OpKind::Retry).count();
        assert!(retries > 0, "40% drop rate over 20 sends must hit at least once");
        // Faulted run is strictly slower than fault-free.
        let base = run_spmd(&cluster, &net, RunSpec::default(), |rank| {
            for i in 0..20 {
                if rank.rank() == 0 {
                    rank.send_f64s(1, Tag(i), &[i as f64]);
                } else {
                    let _ = rank.recv_f64s(0, Tag(i));
                }
                rank.barrier();
            }
            rank.clock()
        });
        assert!(a.makespan() > base.makespan());
    }

    /// Runs `body` on `p` ranks on a helper thread and returns the
    /// message `run_spmd` panicked with. A run still going after 10 s
    /// fails the test instead of hanging it (its helper stays blocked,
    /// unjoined).
    fn panic_message(p: usize, body: fn(&mut Rank)) -> String {
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let cluster = ClusterSpec::homogeneous(p, 100.0);
            let run = std::panic::catch_unwind(|| {
                run_spmd(&cluster, &small_net(), RunSpec::default(), body)
            });
            let _ = done.send(());
            run.expect_err("the run panics")
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        waited.expect("run_spmd hung after a rank panicked");
        match helper.join().expect("the helper returns the run's panic").downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload.downcast_ref::<&str>().expect("a text payload").to_string(),
        }
    }

    #[test]
    fn a_panicking_rank_wakes_a_peer_blocked_in_a_barrier() {
        let message = panic_message(2, |rank| {
            if rank.rank() == 1 {
                panic!("rank 1 failed before the barrier");
            }
            rank.barrier();
        });
        assert_eq!(message, "rank 1 failed before the barrier");
    }

    #[test]
    fn a_panicking_rank_wakes_a_peer_blocked_in_a_receive() {
        let message = panic_message(2, |rank| {
            if rank.rank() == 1 {
                panic!("rank 1 failed before its send");
            }
            let _ = rank.recv_f64s(1, Tag(3));
        });
        assert_eq!(message, "rank 1 failed before its send");
    }

    #[test]
    fn a_collective_sequence_mismatch_fails_instead_of_hanging() {
        // Rank 1 broadcasts as root while rank 0 enters a barrier. The
        // rank that reaches the hub second panics there; when that is
        // the root, rank 0 is left blocked in the barrier.
        let as_root = panic_message(2, |rank| match rank.rank() {
            0 => rank.barrier(),
            _ => drop(rank.broadcast_f64s(1, Some(&[1.0]))),
        });
        assert!(as_root.starts_with("collective sequence mismatch: op 0 is not a"), "{as_root}");
        // As a receiver, rank 1 panics in the hub in either order, with
        // rank 0 blocked in the barrier.
        let as_receiver = panic_message(2, |rank| match rank.rank() {
            0 => rank.barrier(),
            _ => drop(rank.broadcast_f64s(0, None)),
        });
        assert_eq!(as_receiver, "collective sequence mismatch: op 0 is not a bcast");
    }

    #[test]
    fn a_broadcast_receiver_waiting_first_still_reports_the_mismatch() {
        // Rank 1 lets rank 0 go only on its way into the broadcast, so
        // it usually waits for the slot before rank 0 opens it as a
        // barrier; opening the slot must wake it to report.
        let message = panic_message(2, |rank| match rank.rank() {
            0 => {
                let _ = rank.recv_f64s(1, Tag(0));
                rank.barrier();
            }
            _ => {
                rank.send_f64s(0, Tag(0), &[]);
                drop(rank.broadcast_f64s(0, None));
            }
        });
        assert_eq!(message, "collective sequence mismatch: op 0 is not a bcast");
    }

    #[test]
    #[should_panic(expected = "deaths must be resolved before launch")]
    fn unresolved_deaths_are_rejected() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let plan = FaultPlan::new(0).with_death(1);
        run_spmd(&cluster, &small_net(), RunSpec { trace: false, faults: Some(&plan) }, |_rank| {});
    }

    #[test]
    fn both_runtimes_return_traces_only_when_traced() {
        let cluster = het2();
        let net = small_net();
        let traced = RunSpec { trace: true, faults: None };
        let threaded = |spec| {
            run_spmd(&cluster, &net, spec, |rank| {
                rank.compute_flops(1e6);
                rank.barrier();
            })
        };
        let fast = |spec| {
            crate::run_spmd_fast(&cluster, &net, spec, |t| {
                crate::SpmdTimer::compute_flops(t, 1e6);
                crate::SpmdTimer::barrier(t);
            })
        };
        assert!(threaded(RunSpec::default()).traces.is_empty());
        assert!(fast(RunSpec::default()).traces.is_empty());
        assert_eq!(threaded(traced).traces.len(), 2);
        assert_eq!(fast(traced).traces, threaded(traced).traces);
    }

    #[test]
    fn single_rank_runs_degenerate_collectives() {
        let cluster = ClusterSpec::homogeneous(1, 100.0);
        let outcome = run_spmd(&cluster, &small_net(), RunSpec::default(), |rank| {
            rank.barrier();
            let b = rank.broadcast_f64s(0, Some(&[1.0]));
            let g = rank.gather_f64s(0, &[2.0]).unwrap();
            (b, g, rank.clock().as_secs())
        });
        let (b, g, t) = &outcome.results[0];
        assert_eq!(b, &vec![1.0]);
        assert_eq!(g, &vec![vec![2.0]]);
        // No peers: every collective is free.
        assert_eq!(*t, 0.0);
    }
}

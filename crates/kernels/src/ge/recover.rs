//! Recoverable timing-mode GE: the elimination skeleton of
//! [`crate::ge::timed`] with mid-run failure recovery in virtual time
//! (DESIGN.md §12).
//!
//! The plan's MTBF stream decides *whether and when* a rank dies; the
//! [`RecoveryPolicy`] decides what the machine does about it:
//!
//! - **Checkpoint/restart** keeps the full cluster. Every `stride`
//!   elimination iterations each rank charges a coordinated checkpoint
//!   (`Checkpoint` spans); at the death iteration every rank charges the
//!   failure-detector timeout (`Detect`) and replays its own work since
//!   the last checkpoint (`LostWork`), then the run continues unchanged.
//! - **Shrink-and-rebalance** drops the dead rank. The run is composed
//!   from two segments: iterations `[0, k)` on the full cluster, then —
//!   after the survivors detect the death, replay the dead rank's
//!   eliminated work speed-proportionally (`LostWork`), and absorb its
//!   rows via [`hetpart::rebalance`] (`Rebalance` spans) — iterations
//!   `[k, n-1)` plus the gather tail on the survivor cluster with a
//!   fresh speed-proportional cyclic distribution.
//!
//! Both policies record clock-independent op streams (death and
//! checkpoint placement come from the work-proportional progress
//! estimate in [`crate::recover`], never the simulated clock), so the
//! fast engine, the event-driven scheduler, and the threaded oracle all
//! price the identical program and results stay byte-stable across
//! runs, `--jobs`, and `--no-analytic`. On the plain fast path the
//! lockstep analyzer sees the recovery ops and records its typed
//! `recovery-ops` fallback.

use crate::analytic::elimination_flops;
use crate::ge::timed::{ge_timed_body, TimingOutcome};
use crate::recover::{
    checkpoint_stride, compose_segments, death_iteration, run_recoverable, survivor_shares,
    DeathEvent, RecoveryOutcome, RecoveryOverhead,
};
use crate::workload::ge_work;
use hetpart::{repartition_after_deaths, CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{
    checkpoint_cost_secs, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT_SECS,
};
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::SpmdTimer;

/// Bytes of one checkpointed augmented-matrix row: `n + 1` doubles.
fn row_bytes(n: usize) -> u64 {
    ((n + 1) * 8) as u64
}

/// This rank's elimination flops over pivot iterations `[lo, hi)` —
/// the quantity rolled back by a restart or recomputed for a dead rank.
fn ge_elim_flops_range(rows: &[usize], n: usize, lo: usize, hi: usize) -> f64 {
    let mut below_idx = 0usize;
    let mut flops = 0.0;
    for i in 0..hi.min(n.saturating_sub(1)) {
        while below_idx < rows.len() && rows[below_idx] <= i {
            below_idx += 1;
        }
        if i >= lo {
            flops += (rows.len() - below_idx) as f64 * elimination_flops(n - i);
        }
    }
    flops
}

/// The checkpoint/restart elimination body: the baseline skeleton with
/// checkpoint, detect, and lost-work charges injected at iteration
/// heads. With no death and a stride past the last iteration it records
/// exactly the baseline op stream.
#[allow(clippy::too_many_arguments)]
fn ge_ckpt_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &CyclicDistribution,
    n: usize,
    stride: usize,
    death_iter: Option<usize>,
    lost_flops: &[f64],
    ckpt_bytes: &[u64],
) {
    let me = rank.rank();
    let p = rank.size();
    let my_rows = dist.rows_of(me);

    if me == 0 {
        for peer in 1..p {
            let count = dist.rows_of(peer).len() * (n + 1);
            rank.send_count(peer, hetsim_mpi::Tag::DATA, count);
        }
    } else {
        rank.recv_count(0, hetsim_mpi::Tag::DATA, my_rows.len() * (n + 1));
    }

    let mut below_idx = 0usize;
    for i in 0..n.saturating_sub(1) {
        if i > 0 && i % stride == 0 {
            rank.checkpoint(ckpt_bytes[me]);
        }
        if death_iter == Some(i) {
            rank.detect_failure(DETECT_TIMEOUT_SECS);
            rank.recover(lost_flops[me], 0);
        }
        let owner = dist.owner(i);
        rank.broadcast_count(owner, n - i + 1);
        while below_idx < my_rows.len() && my_rows[below_idx] <= i {
            below_idx += 1;
        }
        rank.compute_flops((my_rows.len() - below_idx) as f64 * elimination_flops(n - i));
        rank.barrier();
    }

    rank.gather_count(0, my_rows.len() * (n + 1));
    if me == 0 {
        rank.compute_flops((n * n) as f64);
    }
}

/// Shrink-rebalance segment A: stage 1 plus elimination iterations
/// `[0, k)` on the full cluster. No gather — the run is interrupted.
fn ge_prefix_body<T: SpmdTimer>(rank: &mut T, dist: &CyclicDistribution, n: usize, k: usize) {
    let me = rank.rank();
    let p = rank.size();
    let my_rows = dist.rows_of(me);

    if me == 0 {
        for peer in 1..p {
            let count = dist.rows_of(peer).len() * (n + 1);
            rank.send_count(peer, hetsim_mpi::Tag::DATA, count);
        }
    } else {
        rank.recv_count(0, hetsim_mpi::Tag::DATA, my_rows.len() * (n + 1));
    }

    let mut below_idx = 0usize;
    for i in 0..k {
        let owner = dist.owner(i);
        rank.broadcast_count(owner, n - i + 1);
        while below_idx < my_rows.len() && my_rows[below_idx] <= i {
            below_idx += 1;
        }
        rank.compute_flops((my_rows.len() - below_idx) as f64 * elimination_flops(n - i));
        rank.barrier();
    }
}

/// Shrink-rebalance segment B, run on the survivor cluster: recovery
/// prologue (detect, replay the dead rank's share, absorb repartitioned
/// rows), then iterations `[k, n-1)` under the survivor distribution
/// and the gather tail.
#[allow(clippy::too_many_arguments)]
fn ge_resume_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &CyclicDistribution,
    n: usize,
    k: usize,
    lost_share: &[f64],
    moved_in_bytes: &[u64],
) {
    let me = rank.rank();
    let my_rows = dist.rows_of(me);

    rank.detect_failure(DETECT_TIMEOUT_SECS);
    rank.recover(lost_share[me], moved_in_bytes[me]);

    let mut below_idx = 0usize;
    for i in k..n.saturating_sub(1) {
        let owner = dist.owner(i);
        rank.broadcast_count(owner, n - i + 1);
        while below_idx < my_rows.len() && my_rows[below_idx] <= i {
            below_idx += 1;
        }
        rank.compute_flops((my_rows.len() - below_idx) as f64 * elimination_flops(n - i));
        rank.barrier();
    }

    rank.gather_count(0, my_rows.len() * (n + 1));
    if me == 0 {
        rank.compute_flops((n * n) as f64);
    }
}

/// Recoverable timing-mode GE under `plan`'s MTBF stream and `policy`.
/// With `trace` set, checkpoint, detect, lost-work, and rebalance
/// charges appear as typed spans in `timing.traces`; a shrink run's
/// segment-B spans are offset past the death boundary.
pub fn ge_parallel_timed_recoverable<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    n: usize,
    trace: bool,
) -> RecoveryOutcome {
    let p = cluster.size();
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let speed_flops: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
    let dist = CyclicDistribution::fine(n, &speeds);
    let iters = n.saturating_sub(1);
    let total_flops = ge_work(n);
    let death = death_iteration(plan, cluster, iters, total_flops);

    match policy {
        RecoveryPolicy::CheckpointRestart { interval_secs } => {
            let stride = checkpoint_stride(interval_secs, cluster, iters, total_flops);
            let ckpt_bytes: Vec<u64> =
                (0..p).map(|r| dist.rows_of(r).len() as u64 * row_bytes(n)).collect();
            let lost_flops: Vec<f64> = match death {
                Some(ev) => {
                    let c = (ev.iteration / stride) * stride;
                    (0..p)
                        .map(|r| ge_elim_flops_range(&dist.rows_of(r), n, c, ev.iteration))
                        .collect()
                }
                None => vec![0.0; p],
            };
            let death_iter = death.map(|ev| ev.iteration);
            let outcome = run_recoverable(cluster, network, plan, trace, |t| {
                ge_ckpt_body(t, &dist, n, stride, death_iter, &lost_flops, &ckpt_bytes)
            });

            let num_ckpts = if iters > 1 { (iters - 1) / stride } else { 0 };
            let overhead = RecoveryOverhead {
                checkpoint_secs: num_ckpts as f64
                    * ckpt_bytes.iter().map(|&b| checkpoint_cost_secs(b)).sum::<f64>(),
                detect_secs: if death.is_some() { p as f64 * DETECT_TIMEOUT_SECS } else { 0.0 },
                lost_work_secs: lost_flops.iter().zip(&speed_flops).map(|(&l, &s)| l / s).sum(),
                rebalance_secs: 0.0,
            };
            RecoveryOutcome { timing: TimingOutcome::from_spmd(outcome), overhead, death }
        }
        RecoveryPolicy::ShrinkRebalance => match death {
            None => {
                let outcome =
                    run_recoverable(cluster, network, plan, trace, |t| ge_timed_body(t, &dist, n));
                RecoveryOutcome {
                    timing: TimingOutcome::from_spmd(outcome),
                    overhead: RecoveryOverhead::default(),
                    death: None,
                }
            }
            Some(ev) => ge_shrink(cluster, network, plan, n, &dist, ev, trace),
        },
    }
}

fn ge_shrink<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    n: usize,
    dist: &CyclicDistribution,
    ev: DeathEvent,
    trace: bool,
) -> RecoveryOutcome {
    let p = cluster.size();
    let k = ev.iteration;
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();

    let death_plan = plan.clone().with_death(ev.rank, ev.time);
    let surv_cluster = death_plan
        .surviving_cluster(cluster)
        .expect("shrink-rebalance needs at least one survivor");
    let surv_plan = death_plan.for_survivors(p);
    let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));

    let surv_speeds: Vec<f64> =
        surv_cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let surv_speed_flops: Vec<f64> =
        surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
    let surv_dist = CyclicDistribution::fine(n, &surv_speeds);

    let lost_total = ge_elim_flops_range(&dist.rows_of(ev.rank), n, 0, k);
    let lost_share = survivor_shares(lost_total, &surv_speed_flops);
    let moved_in_bytes: Vec<u64> =
        repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();

    let a = run_recoverable(cluster, network, plan, trace, |t| ge_prefix_body(t, dist, n, k));
    let b = run_recoverable(&surv_cluster, network, &surv_plan, trace, |t| {
        ge_resume_body(t, &surv_dist, n, k, &lost_share, &moved_in_bytes)
    });
    let timing = compose_segments(a, b, &repart.survivors);

    let overhead = RecoveryOverhead {
        checkpoint_secs: 0.0,
        detect_secs: repart.survivors.len() as f64 * DETECT_TIMEOUT_SECS,
        lost_work_secs: lost_share.iter().zip(&surv_speed_flops).map(|(&l, &s)| l / s).sum(),
        rebalance_secs: repart.moved_bytes as f64
            / hetsim_cluster::faults::REBALANCE_BANDWIDTH_BYTES_PER_SEC,
    };
    RecoveryOutcome { timing, overhead, death: Some(ev) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_parallel_timed;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{run_spmd, RunSpec};

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

    fn net() -> SharedEthernet {
        SharedEthernet::new(0.3e-3, 1.25e7)
    }

    /// An MTBF short enough (relative to the estimated run) that the
    /// seeded stream fires a death inside the run for this seed.
    fn deadly_plan(cluster: &ClusterSpec, n: usize, seed: u64) -> FaultPlan {
        let est = crate::recover::estimated_run_secs(cluster, ge_work(n));
        let plan = FaultPlan::new(seed).with_mtbf(est * 0.5);
        assert!(
            death_iteration(&plan, cluster, n - 1, ge_work(n)).is_some(),
            "seed {seed} must fire a death for this test"
        );
        plan
    }

    #[test]
    fn no_death_and_no_checkpoints_match_the_baseline() {
        let cluster = het3();
        let n = 24;
        // MTBF far past the run; interval far past the run: the
        // recoverable program degenerates to the baseline op stream.
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        let base = ge_parallel_timed(&cluster, &net(), n, RunSpec::default());
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_secs: 1e9 },
            RecoveryPolicy::ShrinkRebalance,
        ] {
            let r = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);
            assert_eq!(r.timing, base, "policy {policy:?} diverged from baseline");
            assert_eq!(r.overhead.total_secs(), 0.0);
            assert_eq!(r.death, None);
        }
    }

    #[test]
    fn checkpointing_taxes_the_run() {
        let cluster = het3();
        let n = 32;
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        let base = ge_parallel_timed(&cluster, &net(), n, RunSpec::default());
        let r = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est / 8.0 },
            n,
            false,
        );
        assert!(r.timing.makespan > base.makespan);
        assert!(r.overhead.checkpoint_secs > 0.0);
        assert_eq!(r.overhead.detect_secs, 0.0);
        assert_eq!(r.overhead.lost_work_secs, 0.0);
    }

    #[test]
    fn fast_matches_threaded_on_recoverable_checkpoint_body() {
        let cluster = het3();
        let n = 20;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        let interval = est / 5.0;
        let policy = RecoveryPolicy::CheckpointRestart { interval_secs: interval };
        let fast = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);

        // Re-derive the injected body's inputs and run it on the
        // threaded oracle.
        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = CyclicDistribution::fine(n, &speeds);
        let iters = n - 1;
        let stride = checkpoint_stride(interval, &cluster, iters, ge_work(n));
        let ev = death_iteration(&plan, &cluster, iters, ge_work(n)).unwrap();
        let c = (ev.iteration / stride) * stride;
        let lost: Vec<f64> =
            (0..3).map(|r| ge_elim_flops_range(&dist.rows_of(r), n, c, ev.iteration)).collect();
        let bytes: Vec<u64> = (0..3).map(|r| dist.rows_of(r).len() as u64 * row_bytes(n)).collect();
        let threaded =
            TimingOutcome::from_spmd(run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
                ge_ckpt_body(rank, &dist, n, stride, Some(ev.iteration), &lost, &bytes)
            }));
        assert_eq!(fast.timing, threaded);
    }

    #[test]
    fn fast_matches_threaded_on_shrink_segments() {
        let cluster = het3();
        let n = 20;
        let plan = deadly_plan(&cluster, n, 42);
        let fast = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
            false,
        );
        let ev = fast.death.unwrap();

        // Re-run both segments on the threaded oracle and compose.
        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = CyclicDistribution::fine(n, &speeds);
        let death_plan = plan.clone().with_death(ev.rank, ev.time);
        let surv_cluster = death_plan.surviving_cluster(&cluster).unwrap();
        let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));
        let surv_speeds: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let surv_speed_flops: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
        let surv_dist = CyclicDistribution::fine(n, &surv_speeds);
        let lost_total = ge_elim_flops_range(&dist.rows_of(ev.rank), n, 0, ev.iteration);
        let lost_share = survivor_shares(lost_total, &surv_speed_flops);
        let moved_in: Vec<u64> =
            repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();
        let a = run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
            ge_prefix_body(rank, &dist, n, ev.iteration)
        });
        let b = run_spmd(&surv_cluster, &net(), RunSpec::default(), |rank| {
            ge_resume_body(rank, &surv_dist, n, ev.iteration, &lost_share, &moved_in)
        });
        let threaded = compose_segments(a, b, &repart.survivors);
        assert_eq!(fast.timing, threaded);
    }

    #[test]
    fn shrink_drops_the_dead_rank_and_charges_rebalance() {
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let r = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
            false,
        );
        let ev = r.death.unwrap();
        assert!(r.overhead.rebalance_secs > 0.0);
        assert!(r.overhead.detect_secs > 0.0);
        // The dead rank's clock stops at the death boundary; every
        // survivor finishes after it.
        for (rk, &t) in r.timing.times.iter().enumerate() {
            if rk != ev.rank {
                assert!(t > r.timing.times[ev.rank], "survivor {rk} ended before the dead rank");
            }
        }
    }

    #[test]
    fn recoverable_runs_are_deterministic() {
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_secs: 0.01 },
            RecoveryPolicy::ShrinkRebalance,
        ] {
            let a = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);
            let b = ge_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn traced_recovery_emits_typed_spans() {
        use hetsim_mpi::trace::OpKind;
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));

        let ckpt = RecoveryPolicy::CheckpointRestart { interval_secs: est / 2.0 };
        let ck = ge_parallel_timed_recoverable(&cluster, &net(), &plan, ckpt, n, true);
        let kinds: Vec<OpKind> =
            ck.timing.traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Checkpoint));
        assert!(kinds.contains(&OpKind::Detect));
        assert!(kinds.contains(&OpKind::LostWork));
        assert_eq!(
            TimingOutcome { traces: Vec::new(), ..ck.timing },
            ge_parallel_timed_recoverable(&cluster, &net(), &plan, ckpt, n, false).timing,
            "tracing must not perturb timings"
        );

        let shrink = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
            true,
        );
        let traces = shrink.timing.traces;
        let kinds: Vec<OpKind> =
            traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Detect));
        assert!(kinds.contains(&OpKind::Rebalance));
        // Per-rank timelines stay monotone across the composed segments.
        for t in &traces {
            for w in t.records.windows(2) {
                assert!(w[1].start >= w[0].start, "trace went backwards across the death boundary");
            }
        }
    }

    #[test]
    fn frequent_checkpoints_lose_less_work() {
        let cluster = het3();
        let n = 40;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, ge_work(n));
        let coarse = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est * 2.0 },
            n,
            false,
        );
        let fine = ge_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::CheckpointRestart { interval_secs: est / 16.0 },
            n,
            false,
        );
        assert!(fine.overhead.lost_work_secs <= coarse.overhead.lost_work_secs);
        assert!(fine.overhead.checkpoint_secs > coarse.overhead.checkpoint_secs);
    }
}

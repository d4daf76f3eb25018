//! Recoverable timing-mode MM: the HoHe skeleton of [`crate::mm::timed`]
//! with mid-run failure recovery in virtual time. See
//! [`crate::ge::recover`] for the policy semantics — this module differs
//! only in how the multiply is given an iteration axis.
//!
//! The baseline MM body charges each rank's multiply as one flop block;
//! recovery needs intermediate states to checkpoint and to interrupt, so
//! the recoverable variant splits the multiply into `n` virtual
//! column-chunks of `flops / n` each and injects checkpoint, detect, and
//! recovery charges at chunk boundaries. The split changes the
//! float-op sequence, so a recoverable run with *any* checkpoint or
//! death is a different (still deterministic) program than the
//! baseline; with no checkpoints and no death the driver records the
//! baseline body and the outcomes are bit-equal. A shrink run's resume
//! segment prices the remaining `n - k` chunks under the survivor
//! distribution — a uniform-progress approximation of migrating the
//! partial product.

use crate::ge::timed::TimingOutcome;
use crate::mm::timed::mm_timed_body;
use crate::recover::{
    checkpoint_stride, compose_segments, death_iteration, run_recoverable, survivor_shares,
    DeathEvent, RecoveryOutcome, RecoveryOverhead,
};
use crate::workload::mm_work;
use hetpart::{repartition_after_deaths, BlockDistribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::faults::{
    checkpoint_cost_secs, FaultPlan, RecoveryPolicy, DETECT_TIMEOUT_SECS,
};
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::{SpmdTimer, Tag};

/// Bytes of one matrix row: `n` doubles.
fn row_bytes(n: usize) -> u64 {
    (n * 8) as u64
}

/// A rank's charged multiply flops under `dist`.
fn mm_flops(dist: &BlockDistribution, rank: usize, n: usize) -> f64 {
    let rows = dist.range_of(rank).len();
    (2 * rows * n * n).saturating_sub(rows * n) as f64
}

/// The checkpoint/restart multiply body: distribution and broadcast as
/// the baseline, then `n` column-chunks with checkpoint, detect, and
/// lost-work charges injected at chunk heads, then the gather.
fn mm_ckpt_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    stride: usize,
    death_iter: Option<usize>,
    lost_flops: &[f64],
    ckpt_bytes: &[u64],
) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, my_range.len() * n);
    }
    rank.broadcast_count(0, n * n);

    let chunk = mm_flops(dist, me, n) / n as f64;
    for j in 0..n {
        if j > 0 && j % stride == 0 {
            rank.checkpoint(ckpt_bytes[me]);
        }
        if death_iter == Some(j) {
            rank.detect_failure(DETECT_TIMEOUT_SECS);
            rank.recover(lost_flops[me], 0);
        }
        rank.compute_flops(chunk);
    }

    rank.gather_count(0, my_range.len() * n);
}

/// Shrink-rebalance segment A: distribution, broadcast, and the first
/// `k` column-chunks on the full cluster. No gather — interrupted.
fn mm_prefix_body<T: SpmdTimer>(rank: &mut T, dist: &BlockDistribution, n: usize, k: usize) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, my_range.len() * n);
    }
    rank.broadcast_count(0, n * n);

    let chunk = mm_flops(dist, me, n) / n as f64;
    for _ in 0..k {
        rank.compute_flops(chunk);
    }
}

/// Shrink-rebalance segment B on the survivor cluster: recovery
/// prologue, the remaining `n - k` chunks under the survivor
/// distribution, then the gather with survivor counts.
fn mm_resume_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    k: usize,
    lost_share: &[f64],
    moved_in_bytes: &[u64],
) {
    let me = rank.rank();
    let my_range = dist.range_of(me);

    rank.detect_failure(DETECT_TIMEOUT_SECS);
    rank.recover(lost_share[me], moved_in_bytes[me]);

    let chunk = mm_flops(dist, me, n) / n as f64;
    for _ in k..n {
        rank.compute_flops(chunk);
    }

    rank.gather_count(0, my_range.len() * n);
}

/// Recoverable timing-mode MM under `plan`'s MTBF stream and `policy`;
/// `trace` records typed recovery spans in `timing.traces` (see
/// [`crate::ge::ge_parallel_timed_recoverable`]).
pub fn mm_parallel_timed_recoverable<N: NetworkModel>(
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
    let dist = BlockDistribution::proportional(n, &speeds);
    let total_flops = mm_work(n);
    let death = death_iteration(plan, cluster, n, total_flops);
    let baseline = || {
        let outcome =
            run_recoverable(cluster, network, plan, trace, |t| mm_timed_body(t, &dist, n));
        RecoveryOutcome {
            timing: TimingOutcome::from_spmd(outcome),
            overhead: RecoveryOverhead::default(),
            death: None,
        }
    };

    match policy {
        RecoveryPolicy::CheckpointRestart { interval_secs } => {
            let stride = checkpoint_stride(interval_secs, cluster, n, total_flops);
            let any_ckpt = n > 1 && stride < n;
            if death.is_none() && !any_ckpt {
                // Nothing to inject: record the baseline body so the
                // outcome is bit-equal to the plain timed run.
                return baseline();
            }
            let ckpt_bytes: Vec<u64> =
                (0..p).map(|r| dist.range_of(r).len() as u64 * row_bytes(n)).collect();
            let lost_flops: Vec<f64> = match death {
                Some(ev) => {
                    let c = (ev.iteration / stride) * stride;
                    (0..p)
                        .map(|r| (ev.iteration - c) as f64 * (mm_flops(&dist, r, n) / n as f64))
                        .collect()
                }
                None => vec![0.0; p],
            };
            let death_iter = death.map(|ev| ev.iteration);
            let outcome = run_recoverable(cluster, network, plan, trace, |t| {
                mm_ckpt_body(t, &dist, n, stride, death_iter, &lost_flops, &ckpt_bytes)
            });

            let num_ckpts = if n > 1 { (n - 1) / stride } else { 0 };
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
            None => baseline(),
            Some(ev) => mm_shrink(cluster, network, plan, n, &dist, ev, trace),
        },
    }
}

fn mm_shrink<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    plan: &FaultPlan,
    n: usize,
    dist: &BlockDistribution,
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
    let surv_dist = BlockDistribution::proportional(n, &surv_speeds);

    let lost_total = k as f64 * (mm_flops(dist, ev.rank, n) / n as f64);
    let lost_share = survivor_shares(lost_total, &surv_speed_flops);
    let moved_in_bytes: Vec<u64> =
        repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();

    let a = run_recoverable(cluster, network, plan, trace, |t| mm_prefix_body(t, dist, n, k));
    let b = run_recoverable(&surv_cluster, network, &surv_plan, trace, |t| {
        mm_resume_body(t, &surv_dist, n, k, &lost_share, &moved_in_bytes)
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
    use crate::mm::mm_parallel_timed;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{run_spmd, RunSpec};

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                NodeSpec::synthetic("a", 45.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    fn net() -> SharedEthernet {
        SharedEthernet::new(0.3e-3, 1.25e7)
    }

    fn deadly_plan(cluster: &ClusterSpec, n: usize, seed: u64) -> FaultPlan {
        let est = crate::recover::estimated_run_secs(cluster, mm_work(n));
        let plan = FaultPlan::new(seed).with_mtbf(est * 0.5);
        assert!(
            death_iteration(&plan, cluster, n, mm_work(n)).is_some(),
            "seed {seed} must fire a death for this test"
        );
        plan
    }

    #[test]
    fn no_death_and_no_checkpoints_match_the_baseline() {
        let cluster = het3();
        let n = 24;
        let plan = FaultPlan::new(1).with_mtbf(1e12);
        let base = mm_parallel_timed(&cluster, &net(), n, RunSpec::default());
        for policy in [
            RecoveryPolicy::CheckpointRestart { interval_secs: 1e9 },
            RecoveryPolicy::ShrinkRebalance,
        ] {
            let r = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);
            assert_eq!(r.timing, base, "policy {policy:?} diverged from baseline");
            assert_eq!(r.overhead.total_secs(), 0.0);
            assert_eq!(r.death, None);
        }
    }

    #[test]
    fn fast_matches_threaded_on_recoverable_checkpoint_body() {
        let cluster = het3();
        let n = 18;
        let plan = deadly_plan(&cluster, n, 42);
        let est = crate::recover::estimated_run_secs(&cluster, mm_work(n));
        let interval = est / 5.0;
        let policy = RecoveryPolicy::CheckpointRestart { interval_secs: interval };
        let fast = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);

        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let stride = checkpoint_stride(interval, &cluster, n, mm_work(n));
        let ev = death_iteration(&plan, &cluster, n, mm_work(n)).unwrap();
        let c = (ev.iteration / stride) * stride;
        let lost: Vec<f64> = (0..3)
            .map(|r| (ev.iteration - c) as f64 * (mm_flops(&dist, r, n) / n as f64))
            .collect();
        let bytes: Vec<u64> =
            (0..3).map(|r| dist.range_of(r).len() as u64 * row_bytes(n)).collect();
        let threaded =
            TimingOutcome::from_spmd(run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
                mm_ckpt_body(rank, &dist, n, stride, Some(ev.iteration), &lost, &bytes)
            }));
        assert_eq!(fast.timing, threaded);
    }

    #[test]
    fn fast_matches_threaded_on_shrink_segments() {
        let cluster = het3();
        let n = 18;
        let plan = deadly_plan(&cluster, n, 42);
        let fast = mm_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
            false,
        );
        let ev = fast.death.unwrap();

        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let death_plan = plan.clone().with_death(ev.rank, ev.time);
        let surv_cluster = death_plan.surviving_cluster(&cluster).unwrap();
        let repart = repartition_after_deaths(n, &speeds, &[ev.rank], row_bytes(n));
        let surv_speeds: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let surv_speed_flops: Vec<f64> =
            surv_cluster.nodes().iter().map(|nd| nd.marked_speed_flops()).collect();
        let surv_dist = BlockDistribution::proportional(n, &surv_speeds);
        let lost_total = ev.iteration as f64 * (mm_flops(&dist, ev.rank, n) / n as f64);
        let lost_share = survivor_shares(lost_total, &surv_speed_flops);
        let moved_in: Vec<u64> =
            repart.moved_in_rows.iter().map(|&r| r as u64 * row_bytes(n)).collect();
        let a = run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
            mm_prefix_body(rank, &dist, n, ev.iteration)
        });
        let b = run_spmd(&surv_cluster, &net(), RunSpec::default(), |rank| {
            mm_resume_body(rank, &surv_dist, n, ev.iteration, &lost_share, &moved_in)
        });
        let threaded = compose_segments(a, b, &repart.survivors);
        assert_eq!(fast.timing, threaded);
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
            let a = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);
            let b = mm_parallel_timed_recoverable(&cluster, &net(), &plan, policy, n, false);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn traced_recovery_emits_typed_spans() {
        use hetsim_mpi::trace::OpKind;
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let r = mm_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
            true,
        );
        let kinds: Vec<OpKind> =
            r.timing.traces.iter().flat_map(|t| t.records.iter().map(|r| r.kind)).collect();
        assert!(kinds.contains(&OpKind::Detect));
        assert!(kinds.contains(&OpKind::Rebalance));
        assert!(kinds.contains(&OpKind::LostWork));
    }

    #[test]
    fn shrink_recovery_costs_beat_a_dead_machine_standing_still() {
        // The composed shrink run must finish: makespan is strictly
        // larger than the interrupted prefix alone but finite and
        // positive, with rebalance traffic accounted.
        let cluster = het3();
        let n = 24;
        let plan = deadly_plan(&cluster, n, 42);
        let r = mm_parallel_timed_recoverable(
            &cluster,
            &net(),
            &plan,
            RecoveryPolicy::ShrinkRebalance,
            n,
            false,
        );
        assert!(r.timing.makespan.as_secs() > 0.0);
        assert!(r.overhead.rebalance_secs > 0.0);
        assert!(r.overhead.lost_work_secs >= 0.0);
    }
}

//! Timing-mode power iteration: identical distribution, allgather and
//! charged flops; size-only messages, no arithmetic. Equivalence is
//! pinned in the parent module's tests and by `fast_matches_threaded`
//! below.

use crate::analytic::power_closed_form;
use crate::ge::timed::price;
use crate::ge::TimingOutcome;
use crate::power::{matvec_flops, normalize_flops};
use hetpart::BlockDistribution;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::{RunSpec, SpmdTimer, Tag};

/// Runs the power-method protocol skeleton: `iters` sweeps at size `n`,
/// under `spec` (see [`crate::ge::ge_parallel_timed`]).
pub fn power_parallel_timed<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    iters: usize,
    spec: RunSpec<'_>,
) -> TimingOutcome {
    let speeds = cluster.speeds_mflops();
    let dist = BlockDistribution::proportional(n, &speeds);
    price(
        cluster,
        network,
        spec,
        || power_closed_form(cluster, network, n, iters, &dist),
        |t| power_timed_body(t, &dist, n, iters),
    )
}

/// The power-iteration protocol skeleton as a generic [`SpmdTimer`]
/// body — the single source of truth the engines, the threaded oracle,
/// and [`crate::analytic::power_closed_form`] are pinned to.
pub fn power_timed_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    iters: usize,
) {
    let me = rank.rank();
    let p = rank.size();
    let rows = dist.range_of(me).len();

    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, rows * n);
    }

    for _sweep in 0..iters {
        rank.compute_flops(matvec_flops(rows, n));
        rank.allgather_count(rows);
        rank.compute_flops(normalize_flops(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::faults::FaultPlan;
    use hetsim_cluster::network::MpichEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::run_spmd;

    #[test]
    fn timed_is_deterministic() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let net = MpichEthernet::new(1e-4, 1e8);
        assert_eq!(
            power_parallel_timed(&cluster, &net, 40, 5, RunSpec::default()),
            power_parallel_timed(&cluster, &net, 40, 5, RunSpec::default())
        );
    }

    #[test]
    fn fast_matches_threaded() {
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
        let net = MpichEthernet::new(1e-4, 1e8);
        // A fault plan keeps the kernel off its closed form and on the
        // fast engine's faulted, traced mode, spans included.
        let plan = FaultPlan::new(17).with_straggler(1, 0.5).with_link_drops(200);
        let faulted = RunSpec { trace: true, faults: Some(&plan) };
        for (n, iters) in [(13usize, 3usize), (40, 5)] {
            let speeds = cluster.speeds_mflops();
            let dist = BlockDistribution::proportional(n, &speeds);
            for spec in [RunSpec::default(), faulted] {
                let fast = power_parallel_timed(&cluster, &net, n, iters, spec);
                let threaded = TimingOutcome::from_spmd(run_spmd(&cluster, &net, spec, |rank| {
                    power_timed_body(rank, &dist, n, iters)
                }));
                assert_eq!(fast, threaded, "engine mismatch at n = {n}, iters = {iters}, {spec:?}");
            }
        }
    }

    #[test]
    fn overhead_scales_with_sweeps() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let net = MpichEthernet::new(1e-4, 1e8);
        let o1 = power_parallel_timed(&cluster, &net, 64, 2, RunSpec::default());
        let o2 = power_parallel_timed(&cluster, &net, 64, 8, RunSpec::default());
        assert!(o2.total_overhead > o1.total_overhead);
    }
}

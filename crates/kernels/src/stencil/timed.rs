//! Timing-mode stencil: same distribution, halo exchanges, charged
//! flops and collection as [`super::stencil_parallel`], size-only
//! messages, no arithmetic. Timing equivalence is pinned by the tests
//! in the parent module and by `fast_matches_threaded` below.

use crate::analytic::stencil_closed_form;
use crate::ge::timed::price;
use crate::ge::TimingOutcome;
use crate::stencil::update_flops;
use hetpart::BlockDistribution;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::{RunSpec, SpmdTimer, Tag};

const TAG_DOWN: Tag = Tag(10);
const TAG_UP: Tag = Tag(11);

/// Runs the stencil protocol skeleton at grid size `n` for `iters`
/// sweeps, under `spec` (see [`crate::ge::ge_parallel_timed`]).
pub fn stencil_parallel_timed<N: NetworkModel>(
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
        || stencil_closed_form(cluster, network, n, iters, &dist),
        |t| stencil_timed_body(t, &dist, n, iters),
    )
}

/// The stencil protocol skeleton as a generic [`SpmdTimer`] body — the
/// single source of truth the engines, the threaded oracle, and
/// [`crate::analytic::stencil_closed_form`] are pinned to.
pub fn stencil_timed_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    iters: usize,
) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);
    let rows = my_range.len();

    // Distribution.
    if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_count(peer, Tag::DATA, r.len() * n);
        }
    } else {
        rank.recv_count(0, Tag::DATA, rows * n);
    }

    // Sweeps: identical message pattern and charged flops.
    let prev = (0..me).rev().find(|&r| !dist.range_of(r).is_empty());
    let next = (me + 1..p).find(|&r| !dist.range_of(r).is_empty());
    if rows > 0 && n >= 3 && iters > 0 {
        let interior_rows = (my_range.start.max(1)..my_range.end.min(n - 1)).count();
        for _sweep in 0..iters {
            if let Some(prv) = prev {
                rank.send_count(prv, TAG_UP, n);
            }
            if let Some(nxt) = next {
                rank.send_count(nxt, TAG_DOWN, n);
            }
            if let Some(prv) = prev {
                rank.recv_count(prv, TAG_DOWN, n);
            }
            if let Some(nxt) = next {
                rank.recv_count(nxt, TAG_UP, n);
            }
            rank.compute_flops(update_flops(interior_rows * (n - 2)));
        }
    }

    // Collection.
    rank.gather_count(0, rows * n);
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
            stencil_parallel_timed(&cluster, &net, 48, 6, RunSpec::default()),
            stencil_parallel_timed(&cluster, &net, 48, 6, RunSpec::default())
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
        for (n, iters) in [(9usize, 2usize), (48, 6)] {
            let speeds = cluster.speeds_mflops();
            let dist = BlockDistribution::proportional(n, &speeds);
            for spec in [RunSpec::default(), faulted] {
                let fast = stencil_parallel_timed(&cluster, &net, n, iters, spec);
                let threaded = TimingOutcome::from_spmd(run_spmd(&cluster, &net, spec, |rank| {
                    stencil_timed_body(rank, &dist, n, iters)
                }));
                assert_eq!(fast, threaded, "engine mismatch at n = {n}, iters = {iters}, {spec:?}");
            }
        }
    }

    #[test]
    fn overhead_scales_with_iterations() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let net = MpichEthernet::new(1e-4, 1e8);
        let o2 = stencil_parallel_timed(&cluster, &net, 64, 2, RunSpec::default());
        let o8 = stencil_parallel_timed(&cluster, &net, 64, 8, RunSpec::default());
        assert!(o8.total_overhead > o2.total_overhead);
    }
}

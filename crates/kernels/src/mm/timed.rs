//! Timing-mode parallel MM: the HoHe protocol with size-only messages
//! and charged (not executed) arithmetic. See [`crate::ge::timed`] for
//! why this is timing-exact and how the two engines relate.

use crate::analytic::mm_closed_form;
use crate::ge::timed::price;
use crate::ge::TimingOutcome;
use crate::mm::multiply_flops;
use crate::recover::Segment;
use hetpart::{BlockDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::{RunSpec, SpmdTimer, Tag};

/// Runs the MM communication/computation skeleton at problem size `n`
/// with the standard speed-proportional block distribution, under
/// `spec` (see [`crate::ge::ge_parallel_timed`]).
pub fn mm_parallel_timed<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    spec: RunSpec<'_>,
) -> TimingOutcome {
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let dist = BlockDistribution::proportional(n, &speeds);
    price(
        cluster,
        network,
        spec,
        || mm_closed_form(cluster, network, n, &dist),
        |t| mm_timed_body(t, &dist, n),
    )
}

/// Runs the MM skeleton with an explicit block distribution — the hook
/// the distribution-strategy ablation uses (e.g. equal blocks on a
/// heterogeneous cluster).
///
/// # Panics
/// Panics when the distribution's shape does not match `n` and the
/// cluster size.
pub fn mm_parallel_timed_with<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &BlockDistribution,
) -> TimingOutcome {
    assert_eq!(dist.n(), n, "distribution covers a different problem size");
    assert_eq!(dist.p(), cluster.size(), "distribution has a different rank count");
    price(
        cluster,
        network,
        RunSpec::default(),
        || mm_closed_form(cluster, network, n, dist),
        |t| mm_timed_body(t, dist, n),
    )
}

/// The MM (HoHe) protocol skeleton as a generic [`SpmdTimer`] body —
/// the single source of truth the engines, the threaded oracle, and
/// the closed form ([`crate::analytic::mm_closed_form`]) are pinned to.
pub fn mm_timed_body<T: SpmdTimer>(rank: &mut T, dist: &BlockDistribution, n: usize) {
    mm_segment_body(rank, dist, n, &Segment::whole(n));
}

/// One segment of the MM protocol (see [`crate::ge::timed`]'s segment
/// body). The whole run charges each rank's multiply as one flop block;
/// recovery needs intermediate states to checkpoint and to interrupt,
/// so every other segment splits the multiply into `n` virtual
/// column-chunks of `flops / n` each and walks the chunks in its range.
pub(crate) fn mm_segment_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &BlockDistribution,
    n: usize,
    seg: &Segment,
) {
    let me = rank.rank();
    let p = rank.size();
    let rows = dist.range_of(me).len();

    seg.open(rank, |rank| {
        // A-block distribution.
        if me == 0 {
            for peer in 1..p {
                rank.send_count(peer, Tag::DATA, dist.range_of(peer).len() * n);
            }
        } else {
            rank.recv_count(0, Tag::DATA, rows * n);
        }
        // B broadcast.
        rank.broadcast_count(0, n * n);
    });

    // Local multiply: charged, not executed.
    let flops = multiply_flops(rows, n);
    if *seg == Segment::whole(n) {
        rank.compute_flops(flops);
    } else {
        let chunk = flops / n as f64;
        for j in seg.iters.clone() {
            seg.at_iteration(rank, j);
            rank.compute_flops(chunk);
        }
    }

    // C collection.
    if seg.gather {
        rank.gather_count(0, rows * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::mm::mm_parallel;
    use hetsim_cluster::faults::FaultPlan;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::run_spmd;

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

    #[test]
    fn timed_matches_real_timings() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        for n in [4usize, 15, 33] {
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let real = mm_parallel(&cluster, &net, &a, &b);
            let timed = mm_parallel_timed(&cluster, &net, n, RunSpec::default());
            assert_eq!(timed.makespan, real.makespan, "makespan mismatch at n = {n}");
            assert_eq!(timed.times, real.times, "per-rank clocks mismatch at n = {n}");
            assert_eq!(timed.compute_times, real.compute_times, "compute time mismatch at n = {n}");
            assert_eq!(timed.total_overhead, real.total_overhead, "overhead mismatch at n = {n}");
        }
    }

    #[test]
    fn fast_matches_threaded() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        for n in [4usize, 15, 33] {
            let speeds: Vec<f64> =
                cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
            let dist = BlockDistribution::proportional(n, &speeds);
            let fast = mm_parallel_timed(&cluster, &net, n, RunSpec::default());
            let threaded =
                TimingOutcome::from_spmd(run_spmd(&cluster, &net, RunSpec::default(), |rank| {
                    mm_timed_body(rank, &dist, n)
                }));
            assert_eq!(fast, threaded, "engine mismatch at n = {n}");
        }
    }

    #[test]
    fn fast_matches_threaded_under_faults() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let plan = FaultPlan::new(21).with_link_drops(500).with_straggler(0, 0.6);
        let n = 48usize;
        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = BlockDistribution::proportional(n, &speeds);
        let fast =
            mm_parallel_timed(&cluster, &net, n, RunSpec { trace: false, faults: Some(&plan) });
        let threaded = TimingOutcome::from_spmd(run_spmd(
            &cluster,
            &net,
            RunSpec { trace: false, faults: Some(&plan) },
            |rank| mm_timed_body(rank, &dist, n),
        ));
        assert_eq!(fast, threaded);
    }

    #[test]
    fn timed_is_deterministic() {
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        assert_eq!(
            mm_parallel_timed(&cluster, &net, 48, RunSpec::default()),
            mm_parallel_timed(&cluster, &net, 48, RunSpec::default())
        );
    }

    #[test]
    fn faulted_with_empty_plan_is_bit_equal_to_baseline() {
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let plan = FaultPlan::new(5);
        assert_eq!(
            mm_parallel_timed(&cluster, &net, 48, RunSpec::default()),
            mm_parallel_timed(&cluster, &net, 48, RunSpec { trace: false, faults: Some(&plan) })
        );
    }

    #[test]
    fn drops_slow_mm_makespan_and_trace_retries() {
        use hetsim_mpi::trace::OpKind;
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let plan = FaultPlan::new(21).with_link_drops(500);
        let base = mm_parallel_timed(&cluster, &net, 48, RunSpec::default());
        let faulted =
            mm_parallel_timed(&cluster, &net, 48, RunSpec { trace: true, faults: Some(&plan) });
        assert!(faulted.makespan > base.makespan);
        let retries: usize = faulted
            .traces
            .iter()
            .flat_map(|t| t.records.iter())
            .filter(|r| r.kind == OpKind::Retry)
            .count();
        assert!(retries > 0, "50% drop rate must charge retries");
    }
}

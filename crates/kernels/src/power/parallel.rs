//! Parallel power iteration: row-distributed matrix, replicated iterate,
//! one allgather per sweep.
//!
//! Process 0 distributes speed-proportional row blocks of `A`; the
//! iterate `x` starts as all-ones on every rank (no communication).
//! Each sweep: local slice of `y = A·x` (`2·rows·n` flops charged),
//! allgather of the slices, then every rank renormalizes the full
//! vector identically (`2n` flops) — keeping the iterate bit-identical
//! across ranks, which the tests pin against the sequential oracle.

use crate::matrix::Matrix;
use crate::power::{matvec_flops, normalize_flops};
use hetpart::BlockDistribution;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{run_spmd, Rank, RunSpec, Tag};

/// Result of one parallel power-method run.
#[derive(Debug, Clone)]
pub struct PowerOutcome {
    /// Dominant-eigenvalue estimate after the final sweep.
    pub eigenvalue: f64,
    /// Normalized eigenvector iterate.
    pub eigenvector: Vec<f64>,
    /// Parallel execution time `T`.
    pub makespan: SimTime,
    /// Total communication overhead `T_o` summed over ranks.
    pub total_overhead: SimTime,
    /// Per-rank final clocks.
    pub times: Vec<SimTime>,
    /// Per-rank pure-compute time.
    pub compute_times: Vec<SimTime>,
}

/// Runs `iters` power sweeps of the square matrix `a` on `cluster`.
///
/// # Panics
/// Panics when `a` is not square or an iterate collapses to zero.
pub fn power_parallel<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    a: &Matrix,
    iters: usize,
) -> PowerOutcome {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");

    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let dist = BlockDistribution::proportional(n, &speeds);

    let outcome = run_spmd(cluster, network, RunSpec::default(), |rank| {
        power_rank_body(rank, &dist, a, n, iters)
    });

    let (eigenvalue, eigenvector) = outcome.results[0].clone();
    PowerOutcome {
        eigenvalue,
        eigenvector,
        makespan: outcome.makespan(),
        total_overhead: outcome.total_overhead(),
        times: outcome.times.clone(),
        compute_times: outcome.compute_times.clone(),
    }
}

fn power_rank_body(
    rank: &mut Rank,
    dist: &BlockDistribution,
    a: &Matrix,
    n: usize,
    iters: usize,
) -> (f64, Vec<f64>) {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);
    let rows = my_range.len();

    // Distribution of A's row blocks.
    let my_a: Vec<f64> = if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_f64s(peer, Tag::DATA, &a.data()[r.start * n..r.end * n]);
        }
        a.data()[my_range.start * n..my_range.end * n].to_vec()
    } else {
        let block = rank.recv_f64s(0, Tag::DATA);
        assert_eq!(block.len(), rows * n, "A-block size mismatch");
        block
    };

    let mut x = vec![1.0f64; n];
    let mut lambda = 0.0f64;
    for _sweep in 0..iters {
        // Local slice of y = A·x.
        let mut y_local = vec![0.0f64; rows];
        for (i, yv) in y_local.iter_mut().enumerate() {
            let row = &my_a[i * n..(i + 1) * n];
            *yv = row.iter().zip(&x).map(|(&aij, &xj)| aij * xj).sum();
        }
        rank.compute_flops(matvec_flops(rows, n));

        // Replicate the full y everywhere.
        let slices = rank.allgather_f64s(&y_local);
        let mut cursor = 0usize;
        for slice in &slices {
            x[cursor..cursor + slice.len()].copy_from_slice(slice);
            cursor += slice.len();
        }
        debug_assert_eq!(cursor, n);

        // Identical renormalization on every rank.
        lambda = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(lambda > 0.0, "iterate collapsed to zero");
        for v in x.iter_mut() {
            *v /= lambda;
        }
        rank.compute_flops(normalize_flops(n));
    }
    (lambda, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::network::MpichEthernet;

    #[test]
    fn per_sweep_overhead_grows_with_p() {
        // The allgather-per-sweep signature: more ranks, more overhead
        // per sweep (unlike the stencil's halo exchange).
        let net = MpichEthernet::new(0.3e-3, 1e8);
        let a = Matrix::identity(32);
        let o2 = power_parallel(&ClusterSpec::homogeneous(2, 50.0), &net, &a, 4);
        let o8 = power_parallel(&ClusterSpec::homogeneous(8, 50.0), &net, &a, 4);
        assert!(
            o8.total_overhead.as_secs() / 8.0 > o2.total_overhead.as_secs() / 2.0,
            "per-rank overhead must grow: p8 {:?} vs p2 {:?}",
            o8.total_overhead,
            o2.total_overhead
        );
    }
}

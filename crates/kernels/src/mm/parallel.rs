//! Parallel matrix multiplication under the HoHe strategy (§4.1.2).
//!
//! The paper deliberately uses a simple row-based heuristic rather than
//! the NP-complete optimal tiling: homogeneous processes (one per
//! processor) with a heterogeneous block distribution of `A`. Process 0
//! distributes `A` proportionally to marked speeds, distributes `B` to
//! every node, each node multiplies its row block locally
//! (`2·N³·Cᵢ/C` flops), and process 0 collects the result. All
//! communication happens at distribution and collection — no
//! communication during computation, which is why MM out-scales GE.

use crate::matrix::Matrix;
use crate::mm::multiply_flops;
use hetpart::BlockDistribution;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{run_spmd, Rank, RunSpec, Tag};

/// Result of one parallel MM run.
#[derive(Debug, Clone)]
pub struct MmOutcome {
    /// The product matrix, assembled at rank 0.
    pub c: Matrix,
    /// Parallel execution time `T`.
    pub makespan: SimTime,
    /// Total communication overhead `T_o` summed over ranks.
    pub total_overhead: SimTime,
    /// Per-rank final clocks.
    pub times: Vec<SimTime>,
    /// Per-rank pure-compute time.
    pub compute_times: Vec<SimTime>,
}

/// Runs HoHe parallel MM on `cluster` over `network`: `C = A·B` for
/// square matrices of equal size.
///
/// # Panics
/// Panics unless `a` and `b` are square and of the same size.
pub fn mm_parallel<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    a: &Matrix,
    b: &Matrix,
) -> MmOutcome {
    let n = a.rows();
    assert_eq!(a.cols(), n, "A must be square");
    assert!(b.rows() == n && b.cols() == n, "A and B must be square and the same size");

    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let dist = BlockDistribution::proportional(n, &speeds);

    let outcome =
        run_spmd(cluster, network, RunSpec::default(), |rank| mm_rank_body(rank, &dist, a, b, n));

    let c = outcome.results[0].clone().expect("rank 0 assembles the product");
    MmOutcome {
        c,
        makespan: outcome.makespan(),
        total_overhead: outcome.total_overhead(),
        times: outcome.times.clone(),
        compute_times: outcome.compute_times.clone(),
    }
}

fn mm_rank_body(
    rank: &mut Rank,
    dist: &BlockDistribution,
    a: &Matrix,
    b: &Matrix,
    n: usize,
) -> Option<Matrix> {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);

    // ---- distribution of A (heterogeneous row blocks) -------------------
    let my_a: Vec<f64> = if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            if r.is_empty() {
                rank.send_f64s(peer, Tag::DATA, &[]);
            } else {
                let block = &a.data()[r.start * n..r.end * n];
                rank.send_f64s(peer, Tag::DATA, block);
            }
        }
        a.data()[my_range.start * n..my_range.end * n].to_vec()
    } else {
        let block = rank.recv_f64s(0, Tag::DATA);
        assert_eq!(block.len(), my_range.len() * n, "A-block size mismatch");
        block
    };

    // ---- distribution of B (full matrix to every node) ------------------
    let b_local: Vec<f64> =
        if me == 0 { rank.broadcast_f64s(0, Some(b.data())) } else { rank.broadcast_f64s(0, None) };
    assert_eq!(b_local.len(), n * n, "B size mismatch");

    // ---- local block multiply -------------------------------------------
    let rows = my_range.len();
    let mut c_block = vec![0.0f64; rows * n];
    for i in 0..rows {
        for k in 0..n {
            let aik = my_a[i * n + k];
            if aik == 0.0 {
                continue;
            }
            let brow = &b_local[k * n..(k + 1) * n];
            let crow = &mut c_block[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += aik * bv;
            }
        }
    }
    rank.compute_flops(multiply_flops(rows, n));

    // ---- collection -------------------------------------------------------
    let gathered = rank.gather_f64s(0, &c_block);
    if me == 0 {
        let gathered = gathered.expect("rank 0 is the gather root");
        let mut c = Matrix::zeros(n, n);
        for (peer, payload) in gathered.iter().enumerate() {
            let r = dist.range_of(peer);
            assert_eq!(payload.len(), r.len() * n, "C-block size mismatch");
            if !r.is_empty() {
                for (local, row) in (r.start..r.end).enumerate() {
                    c.row_mut(row).copy_from_slice(&payload[local * n..(local + 1) * n]);
                }
            }
        }
        Some(c)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;

    #[test]
    fn zero_speed_rank_participates_with_empty_block() {
        // A zero-speed node (e.g. administratively excluded) still joins
        // collectives but receives no rows.
        let cluster = ClusterSpec::new(
            "withzero",
            vec![
                NodeSpec::synthetic("a", 100.0),
                // NodeSpec requires positive speed, so emulate "nearly
                // excluded" with a vanishing speed instead.
                NodeSpec::synthetic("b", 1e-9),
            ],
        )
        .unwrap();
        let a = Matrix::random(6, 6, 1);
        let b = Matrix::random(6, 6, 2);
        let out = mm_parallel(&cluster, &SharedEthernet::new(1e-5, 1.25e8), &a, &b);
        assert!(out.c.max_diff(&a.multiply(&b)) < 1e-12);
    }

    #[test]
    fn mm_overhead_is_distribution_plus_collection_only() {
        // Unlike GE, MM performs no per-iteration communication: with a
        // (nearly) free network its makespan approaches pure compute.
        let cluster = ClusterSpec::homogeneous(4, 100.0);
        let a = Matrix::random(64, 64, 3);
        let b = Matrix::random(64, 64, 4);
        let free_net = SharedEthernet::new(1e-12, 1e15);
        let out = mm_parallel(&cluster, &free_net, &a, &b);
        let compute = out.compute_times.iter().map(|t| t.as_secs()).fold(0.0, f64::max);
        assert!(
            (out.makespan.as_secs() - compute) / compute < 1e-3,
            "makespan {} vs compute {}",
            out.makespan.as_secs(),
            compute
        );
    }
}

//! Parallel Jacobi with speed-proportional row blocks and halo exchange.
//!
//! Process 0 distributes contiguous row blocks proportional to marked
//! speeds (the HoHe pattern), each sweep exchanges one halo row with
//! each non-empty neighbouring block, and process 0 collects the final
//! grid. There is no global synchronization inside the iteration loop —
//! the halo exchange itself carries the data dependence — which is why
//! the per-iteration overhead does not grow with the process count.

use crate::matrix::Matrix;
use crate::stencil::update_flops;
use hetpart::{BlockDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{run_spmd, Rank, RunSpec, Tag};

/// Halo row travelling from a lower-index block to a higher-index one.
const TAG_DOWN: Tag = Tag(10);
/// Halo row travelling from a higher-index block to a lower-index one.
const TAG_UP: Tag = Tag(11);

/// Result of one parallel stencil run.
#[derive(Debug, Clone)]
pub struct StencilOutcome {
    /// The grid after all sweeps, assembled at rank 0.
    pub grid: Matrix,
    /// Parallel execution time `T`.
    pub makespan: SimTime,
    /// Total communication overhead `T_o` summed over ranks.
    pub total_overhead: SimTime,
    /// Per-rank final clocks.
    pub times: Vec<SimTime>,
    /// Per-rank pure-compute time.
    pub compute_times: Vec<SimTime>,
}

/// Nearest non-empty block below/above `rank`, if any.
fn neighbours(dist: &BlockDistribution, rank: usize) -> (Option<usize>, Option<usize>) {
    let prev = (0..rank).rev().find(|&r| !dist.range_of(r).is_empty());
    let next = (rank + 1..dist.p()).find(|&r| !dist.range_of(r).is_empty());
    (prev, next)
}

/// Runs `iters` Jacobi sweeps of the square grid `u0` on `cluster`.
///
/// # Panics
/// Panics when `u0` is not square.
pub fn stencil_parallel<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    u0: &Matrix,
    iters: usize,
) -> StencilOutcome {
    let n = u0.rows();
    assert_eq!(u0.cols(), n, "grid must be square");

    let speeds = cluster.speeds_mflops();
    let dist = BlockDistribution::proportional(n, &speeds);

    let outcome = run_spmd(cluster, network, RunSpec::default(), |rank| {
        stencil_rank_body(rank, &dist, u0, n, iters)
    });

    let grid = outcome.results[0].clone().expect("rank 0 assembles the grid");
    StencilOutcome {
        grid,
        makespan: outcome.makespan(),
        total_overhead: outcome.total_overhead(),
        times: outcome.times.clone(),
        compute_times: outcome.compute_times.clone(),
    }
}

fn stencil_rank_body(
    rank: &mut Rank,
    dist: &BlockDistribution,
    u0: &Matrix,
    n: usize,
    iters: usize,
) -> Option<Matrix> {
    let me = rank.rank();
    let p = rank.size();
    let my_range = dist.range_of(me);
    let rows = my_range.len();

    // ---- distribution ----------------------------------------------------
    let mut block: Vec<f64> = if me == 0 {
        for peer in 1..p {
            let r = dist.range_of(peer);
            rank.send_f64s(peer, Tag::DATA, &u0.data()[r.start * n..r.end * n]);
        }
        u0.data()[my_range.start * n..my_range.end * n].to_vec()
    } else {
        let data = rank.recv_f64s(0, Tag::DATA);
        assert_eq!(data.len(), rows * n, "block size mismatch");
        data
    };

    // ---- sweeps ------------------------------------------------------------
    let (prev, next) = neighbours(dist, me);
    if rows > 0 && n >= 3 && iters > 0 {
        let mut scratch = block.clone();
        let mut halo_above = vec![0.0f64; n];
        let mut halo_below = vec![0.0f64; n];
        for _sweep in 0..iters {
            // Exchange halo rows with non-empty neighbours: send first
            // (sends are asynchronous deposits), then receive.
            if let Some(prv) = prev {
                rank.send_f64s(prv, TAG_UP, &block[0..n]);
            }
            if let Some(nxt) = next {
                rank.send_f64s(nxt, TAG_DOWN, &block[(rows - 1) * n..rows * n]);
            }
            if let Some(prv) = prev {
                let got = rank.recv_f64s(prv, TAG_DOWN);
                halo_above.copy_from_slice(&got);
            }
            if let Some(nxt) = next {
                let got = rank.recv_f64s(nxt, TAG_UP);
                halo_below.copy_from_slice(&got);
            }

            // Update my interior rows from old values + halos.
            let mut points = 0usize;
            for local in 0..rows {
                let global = my_range.start + local;
                if global == 0 || global == n - 1 {
                    // Global boundary row: Dirichlet, copy through.
                    scratch[local * n..(local + 1) * n]
                        .copy_from_slice(&block[local * n..(local + 1) * n]);
                    continue;
                }
                let above: &[f64] =
                    if local == 0 { &halo_above } else { &block[(local - 1) * n..local * n] };
                let below_start = (local + 1) * n;
                // Split borrows: copy the below row when it lives in
                // `block` too (cheap relative to the update itself).
                let below_owned;
                let below: &[f64] = if local + 1 == rows {
                    &halo_below
                } else {
                    below_owned = block[below_start..below_start + n].to_vec();
                    &below_owned
                };
                let cur = &block[local * n..(local + 1) * n];
                let out = &mut scratch[local * n..(local + 1) * n];
                out[0] = cur[0];
                out[n - 1] = cur[n - 1];
                for j in 1..n - 1 {
                    out[j] = 0.25 * (above[j] + below[j] + cur[j - 1] + cur[j + 1]);
                }
                points += n - 2;
            }
            rank.compute_flops(update_flops(points));
            std::mem::swap(&mut block, &mut scratch);
        }
    }

    // ---- collection ---------------------------------------------------------
    let gathered = rank.gather_f64s(0, &block);
    if me == 0 {
        let gathered = gathered.expect("rank 0 is the gather root");
        let mut grid = Matrix::zeros(n, n);
        for (peer, payload) in gathered.iter().enumerate() {
            let r = dist.range_of(peer);
            assert_eq!(payload.len(), r.len() * n, "collected block size mismatch");
            for (local, row) in (r.start..r.end).enumerate() {
                grid.row_mut(row).copy_from_slice(&payload[local * n..(local + 1) * n]);
            }
        }
        Some(grid)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::NodeSpec;

    #[test]
    fn neighbour_search_skips_empty_blocks() {
        // Blocks: [0..3), [3..3) empty, [3..6).
        let dist = BlockDistribution::from_counts(6, &[3, 0, 3]);
        assert_eq!(neighbours(&dist, 0), (None, Some(2)));
        assert_eq!(neighbours(&dist, 2), (Some(0), None));
        // The empty middle rank sees both, but it has no rows to trade.
        assert_eq!(neighbours(&dist, 1), (Some(0), Some(2)));
    }

    #[test]
    fn empty_block_ranks_complete() {
        // A nearly-dead node gets zero rows; the run must still finish
        // and be correct.
        let cluster = ClusterSpec::new(
            "withempty",
            vec![
                NodeSpec::synthetic("a", 100.0),
                NodeSpec::synthetic("dead", 1e-9),
                NodeSpec::synthetic("c", 100.0),
            ],
        )
        .unwrap();
        let u0 = Matrix::random(9, 9, 4);
        let net = hetsim_cluster::network::MpichEthernet::new(1e-4, 1e8);
        let out = stencil_parallel(&cluster, &net, &u0, 3);
        let expected = crate::stencil::jacobi_sequential(&u0, 3);
        assert!(out.grid.max_diff(&expected) < 1e-12);
    }
}

//! Parallel Gaussian elimination, transcribing the paper's §4.1.1:
//!
//! 1. Process 0 distributes the rows of `[A | b]` proportionally to the
//!    nodes' marked speeds using a row-based heterogeneous cyclic
//!    distribution.
//! 2. All processes iterate over pivot rows: the owner broadcasts the
//!    pivot row, every process eliminates its own rows below the pivot,
//!    and the processes synchronize (data dependence between
//!    iterations).
//! 3. Process 0 collects the reduced rows and performs the back
//!    substitution stage — the algorithm's *sequential portion*.
//!
//! All arithmetic is executed for real (results are verified against the
//! sequential oracle) and the same operations are charged to the virtual
//! clock, so the reported times follow the machine model exactly.

use crate::ge::seq::back_substitute;
use crate::ge::{back_substitution_flops, elimination_flops};
use crate::matrix::Matrix;
use hetpart::{CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::{run_spmd, Rank, RunSpec, Tag};

/// Result of one parallel GE run.
#[derive(Debug, Clone)]
pub struct GeOutcome {
    /// The solution vector, produced by rank 0's back substitution.
    pub x: Vec<f64>,
    /// Parallel execution time `T` (latest rank's final virtual clock).
    pub makespan: SimTime,
    /// Total communication/synchronization overhead `T_o` summed over
    /// ranks (the quantity in Theorem 1).
    pub total_overhead: SimTime,
    /// Per-rank final clocks.
    pub times: Vec<SimTime>,
    /// Per-rank pure-compute time.
    pub compute_times: Vec<SimTime>,
}

/// Runs the paper's parallel GE on `cluster` over `network`.
///
/// `a` must be square with nonzero natural pivots (e.g. diagonally
/// dominant); `b.len()` must equal `a.rows()`.
///
/// # Panics
/// Panics on shape errors or a zero pivot.
pub fn ge_parallel<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    a: &Matrix,
    b: &[f64],
) -> GeOutcome {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must equal n");

    let speeds = cluster.speeds_mflops();
    let dist = CyclicDistribution::fine(n, &speeds);

    let outcome =
        run_spmd(cluster, network, RunSpec::default(), |rank| ge_rank_body(rank, &dist, a, b, n));

    let x = outcome.results[0].clone().expect("rank 0 returns the solution");
    GeOutcome {
        x,
        makespan: outcome.makespan(),
        total_overhead: outcome.total_overhead(),
        times: outcome.times.clone(),
        compute_times: outcome.compute_times.clone(),
    }
}

/// The SPMD body executed by every rank.
fn ge_rank_body(
    rank: &mut Rank,
    dist: &CyclicDistribution,
    a: &Matrix,
    b: &[f64],
    n: usize,
) -> Option<Vec<f64>> {
    let me = rank.rank();
    let p = rank.size();

    // ---- stage 1: distribution -----------------------------------------
    // Rank 0 packs each peer's rows (augmented with b) into one message.
    // Every rank ends up with `my_rows`: (row index, augmented row).
    let my_row_ids = dist.rows_of(me);
    let mut my_rows: Vec<(usize, Vec<f64>)> = Vec::with_capacity(my_row_ids.len());
    if me == 0 {
        for peer in 1..p {
            let rows = dist.rows_of(peer);
            let mut packed = Vec::with_capacity(rows.len() * (n + 1));
            for &r in &rows {
                packed.extend_from_slice(a.row(r));
                packed.push(b[r]);
            }
            rank.send_f64s(peer, Tag::DATA, &packed);
        }
        for &r in &my_row_ids {
            let mut row = a.row(r).to_vec();
            row.push(b[r]);
            my_rows.push((r, row));
        }
    } else {
        let packed = rank.recv_f64s(0, Tag::DATA);
        assert_eq!(packed.len(), my_row_ids.len() * (n + 1), "distribution size mismatch");
        for (slot, &r) in my_row_ids.iter().enumerate() {
            let start = slot * (n + 1);
            my_rows.push((r, packed[start..start + n + 1].to_vec()));
        }
    }

    // ---- stage 2: elimination ------------------------------------------
    for i in 0..n.saturating_sub(1) {
        let owner = dist.owner(i);
        // The pivot row slice from the pivot column through the rhs.
        let pivot: Vec<f64> = if me == owner {
            let (_, row) =
                my_rows.iter().find(|(idx, _)| *idx == i).expect("owner holds its pivot row");
            let slice = row[i..=n].to_vec();
            rank.broadcast_f64s(owner, Some(&slice))
        } else {
            rank.broadcast_f64s(owner, None)
        };
        let pivot_val = pivot[0];
        assert!(pivot_val != 0.0, "zero pivot at row {i}; system needs pivoting");

        // Eliminate this rank's rows below the pivot.
        let mut flops = 0.0;
        for (idx, row) in my_rows.iter_mut() {
            if *idx <= i {
                continue;
            }
            let factor = row[i] / pivot_val;
            row[i] = 0.0;
            if factor != 0.0 {
                for (k, &pv) in (i + 1..=n).zip(&pivot[1..]) {
                    row[k] -= factor * pv;
                }
            }
            flops += elimination_flops(n - i);
        }
        rank.compute_flops(flops);

        // Data-dependence synchronization between iterations (§4.1.1
        // step 2.2; the prediction model charges one barrier per pivot).
        rank.barrier();
    }

    // ---- stage 3: collection + back substitution at rank 0 -------------
    let mut packed = Vec::with_capacity(my_rows.len() * (n + 1));
    for (_, row) in &my_rows {
        packed.extend_from_slice(row);
    }
    let gathered = rank.gather_f64s(0, &packed);

    if me == 0 {
        let gathered = gathered.expect("rank 0 is the gather root");
        let mut aug = Matrix::zeros(n, n + 1);
        for (peer, payload) in gathered.iter().enumerate() {
            let rows = dist.rows_of(peer);
            assert_eq!(payload.len(), rows.len() * (n + 1), "collection size mismatch");
            for (slot, &r) in rows.iter().enumerate() {
                let start = slot * (n + 1);
                aug.row_mut(r).copy_from_slice(&payload[start..start + n + 1]);
            }
        }
        // Back substitution: the sequential portion, ~n² flops at rank 0.
        let x = back_substitute(&aug);
        rank.compute_flops(back_substitution_flops(n));
        Some(x)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_cluster_size() {
        use hetsim_cluster::network::SharedEthernet;
        let a = Matrix::random_diagonally_dominant(48, 2);
        let x_true: Vec<f64> = (0..48).map(|i| i as f64 * 0.1).collect();
        let b = a.matvec(&x_true);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let o2 = ge_parallel(&ClusterSpec::homogeneous(2, 50.0), &net, &a, &b);
        let o4 = ge_parallel(&ClusterSpec::homogeneous(4, 50.0), &net, &a, &b);
        assert!(
            o4.total_overhead > o2.total_overhead,
            "T_o must grow with p: {:?} vs {:?}",
            o4.total_overhead,
            o2.total_overhead
        );
    }
}

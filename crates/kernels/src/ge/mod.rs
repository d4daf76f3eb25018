//! Gaussian elimination: sequential reference and parallel SPMD kernel.

mod parallel;
mod seq;
pub mod timed;

pub use parallel::{ge_parallel, GeOutcome};
pub use seq::ge_sequential;
pub use timed::{
    ge_overhead_breakdown, ge_parallel_timed, ge_parallel_timed_many, ge_parallel_timed_with,
    ge_timed_body, TimingOutcome,
};

/// Flops charged for eliminating one row of length `len` (from the pivot
/// column to the augmented column): one divide for the factor, then a
/// multiply-subtract per remaining element.
pub(crate) fn elimination_flops(len: usize) -> f64 {
    (2 * len + 1) as f64
}

/// Flops charged for rank 0's back substitution at size `n`: the
/// algorithm's sequential portion, ~n².
pub(crate) fn back_substitution_flops(n: usize) -> f64 {
    (n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{residual_inf_norm, Matrix};
    use hetsim_cluster::network::{ConstantLatency, SharedEthernet};
    use hetsim_cluster::ClusterSpec;

    fn system(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let a = Matrix::random_diagonally_dominant(n, seed);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.0).collect();
        let b = a.matvec(&x_true);
        (a, b)
    }

    #[test]
    fn elimination_flops_counts_mul_sub_pairs() {
        // len elements each take a multiply and a subtract, plus the
        // factor's divide.
        assert_eq!(elimination_flops(10), 21.0);
        assert_eq!(elimination_flops(1), 3.0);
    }

    #[test]
    fn parallel_matches_sequential_on_heterogeneous_cluster() {
        let (a, b) = system(24, 11);
        let seq_x = ge_sequential(&a, &b);
        let cluster = ClusterSpec::new(
            "het3",
            vec![
                hetsim_cluster::NodeSpec::synthetic("a", 90.0),
                hetsim_cluster::NodeSpec::synthetic("b", 50.0),
                hetsim_cluster::NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap();
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let out = ge_parallel(&cluster, &net, &a, &b);
        for (ps, ss) in out.x.iter().zip(&seq_x) {
            assert!((ps - ss).abs() < 1e-9, "parallel {ps} vs sequential {ss}");
        }
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-8);
    }

    #[test]
    fn parallel_works_on_single_node() {
        let (a, b) = system(10, 5);
        let cluster = ClusterSpec::homogeneous(1, 50.0);
        let net = ConstantLatency::new(1e-3);
        let out = ge_parallel(&cluster, &net, &a, &b);
        assert!(residual_inf_norm(&a, &out.x, &b) < 1e-9);
        // One rank: no communication at all.
        assert_eq!(out.total_overhead.as_secs(), 0.0);
    }

    #[test]
    fn more_nodes_reduce_time_for_large_problems() {
        // Slow nodes + fast network: the compute term dominates, so
        // doubling the nodes should shorten the run.
        let (a, b) = system(96, 3);
        let net = SharedEthernet::new(1e-6, 1.25e9);
        let t2 = ge_parallel(&ClusterSpec::homogeneous(2, 5.0), &net, &a, &b).makespan.as_secs();
        let t4 = ge_parallel(&ClusterSpec::homogeneous(4, 5.0), &net, &a, &b).makespan.as_secs();
        assert!(t4 < t2, "t4 = {t4}, t2 = {t2}");
    }

    #[test]
    fn slow_network_increases_overhead_not_compute() {
        let (a, b) = system(32, 9);
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let fast = ge_parallel(&cluster, &SharedEthernet::new(1e-6, 1.25e9), &a, &b);
        let slow = ge_parallel(&cluster, &SharedEthernet::new(1e-3, 1.25e6), &a, &b);
        assert!(slow.total_overhead > fast.total_overhead);
        assert!(slow.makespan > fast.makespan);
        // Solutions identical regardless of network.
        for (f, s) in fast.x.iter().zip(&slow.x) {
            assert_eq!(f, s);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, b) = system(20, 1);
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let o1 = ge_parallel(&cluster, &net, &a, &b);
        let o2 = ge_parallel(&cluster, &net, &a, &b);
        assert_eq!(o1.x, o2.x);
        assert_eq!(o1.makespan, o2.makespan);
        assert_eq!(o1.total_overhead, o2.total_overhead);
    }

    #[test]
    fn tiny_systems_solve() {
        for n in [1usize, 2, 3] {
            let (a, b) = system(n, 40 + n as u64);
            let cluster = ClusterSpec::homogeneous(2, 50.0);
            let net = ConstantLatency::new(1e-4);
            let out = ge_parallel(&cluster, &net, &a, &b);
            assert!(residual_inf_norm(&a, &out.x, &b) < 1e-9, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_matrix_rejected() {
        let a = Matrix::zeros(3, 4);
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        ge_parallel(&cluster, &ConstantLatency::new(0.0), &a, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(3);
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        ge_parallel(&cluster, &ConstantLatency::new(0.0), &a, &[1.0, 2.0]);
    }
}

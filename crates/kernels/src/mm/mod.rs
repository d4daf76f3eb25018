//! Matrix multiplication: sequential reference and parallel HoHe kernel.

mod parallel;
mod seq;
pub mod timed;

pub use parallel::{mm_parallel, MmOutcome};
pub use seq::mm_sequential;
pub use timed::{mm_parallel_timed, mm_parallel_timed_with, mm_timed_body};

/// Flops charged for a `rows × n` by `n × n` block multiply: `rows × n`
/// inner products of length `n`, `2·rows·n² − rows·n` flops.
pub(crate) fn multiply_flops(rows: usize, n: usize) -> f64 {
    (2 * rows * n * n).saturating_sub(rows * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use hetsim_cluster::network::{ConstantLatency, SharedEthernet};
    use hetsim_cluster::{ClusterSpec, NodeSpec};

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
    fn parallel_matches_sequential_reference() {
        let a = Matrix::random(20, 20, 1);
        let b = Matrix::random(20, 20, 2);
        let expected = mm_sequential(&a, &b);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let out = mm_parallel(&het3(), &net, &a, &b);
        assert!(out.c.max_diff(&expected) < 1e-10);
    }

    #[test]
    fn single_node_has_no_overhead() {
        let a = Matrix::random(8, 8, 3);
        let b = Matrix::random(8, 8, 4);
        let out =
            mm_parallel(&ClusterSpec::homogeneous(1, 50.0), &ConstantLatency::new(1e-3), &a, &b);
        assert_eq!(out.total_overhead.as_secs(), 0.0);
        assert!(out.c.max_diff(&mm_sequential(&a, &b)) < 1e-12);
    }

    #[test]
    fn faster_cluster_finishes_sooner() {
        let a = Matrix::random(40, 40, 5);
        let b = Matrix::random(40, 40, 6);
        let net = SharedEthernet::new(1e-5, 1.25e8);
        let slow = mm_parallel(&ClusterSpec::homogeneous(2, 25.0), &net, &a, &b);
        let fast = mm_parallel(&ClusterSpec::homogeneous(2, 100.0), &net, &a, &b);
        assert!(fast.makespan < slow.makespan);
    }

    #[test]
    fn heterogeneous_distribution_balances_compute() {
        // 4:1 speed ratio — proportional blocks keep per-rank compute
        // times near equal.
        let cluster = ClusterSpec::new(
            "skew",
            vec![NodeSpec::synthetic("fast", 200.0), NodeSpec::synthetic("slow", 50.0)],
        )
        .unwrap();
        let a = Matrix::random(100, 100, 7);
        let b = Matrix::random(100, 100, 8);
        let out = mm_parallel(&cluster, &SharedEthernet::new(1e-5, 1.25e8), &a, &b);
        let t0 = out.compute_times[0].as_secs();
        let t1 = out.compute_times[1].as_secs();
        let rel = (t0 - t1).abs() / t0.max(t1);
        assert!(rel < 0.1, "compute imbalance {rel} too large ({t0} vs {t1})");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = Matrix::random(16, 16, 9);
        let b = Matrix::random(16, 16, 10);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let o1 = mm_parallel(&het3(), &net, &a, &b);
        let o2 = mm_parallel(&het3(), &net, &a, &b);
        assert_eq!(o1.c, o2.c);
        assert_eq!(o1.makespan, o2.makespan);
    }

    #[test]
    fn tiny_matrices_multiply() {
        for n in [1usize, 2, 3] {
            let a = Matrix::random(n, n, 20 + n as u64);
            let b = Matrix::random(n, n, 30 + n as u64);
            let out = mm_parallel(&het3(), &ConstantLatency::new(1e-4), &a, &b);
            assert!(out.c.max_diff(&mm_sequential(&a, &b)) < 1e-12, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        mm_parallel(&het3(), &ConstantLatency::new(0.0), &a, &b);
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn rejects_mismatched_sizes() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 3);
        mm_parallel(&het3(), &ConstantLatency::new(0.0), &a, &b);
    }
}

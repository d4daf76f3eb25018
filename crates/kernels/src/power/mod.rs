//! Power iteration — a fourth algorithm–system combination.
//!
//! The dominant-eigenpair power method with a row-distributed matrix
//! and a replicated iterate: each sweep computes a local slice of
//! `y = A·x`, all-gathers the slices, and renormalizes.
//!
//! Its communication signature — one **allgather per iteration** —
//! looks milder than GE's broadcast+barrier, but the x2 experiment
//! shows it lands in the *same ψ class* as GE: any per-iteration
//! collective whose latency grows with `p` dominates scalability the
//! same way; the collective's flavour is second-order. What separates
//! the classes is the per-iteration latency structure: p-independent
//! (stencil) ≫ one-time (MM) ≫ per-iteration O(p) (power ≈ GE).

mod parallel;
mod seq;
mod timed;

pub use parallel::{power_parallel, PowerOutcome};
pub use seq::power_sequential;
pub(crate) use timed::power_body;
pub use timed::{power_parallel_timed, power_timed_body};

/// Work model: `iters` sweeps of an `n × n` matvec (`2n²` flops) plus
/// the infinity-norm and renormalization passes (`2n` flops).
pub fn power_work(n: usize, iters: usize) -> f64 {
    iters as f64 * (matvec_flops(n, n) + normalize_flops(n))
}

/// Flops charged for a rank's `rows`-row slice of `y = A·x` at size `n`.
pub(crate) fn matvec_flops(rows: usize, n: usize) -> f64 {
    2.0 * (rows * n) as f64
}

/// Flops charged for the infinity norm and renormalization of the
/// length-`n` iterate.
pub(crate) fn normalize_flops(n: usize) -> f64 {
    2.0 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use hetsim_cluster::network::MpichEthernet;
    use hetsim_cluster::{ClusterSpec, NodeSpec};
    use hetsim_mpi::RunSpec;

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                NodeSpec::synthetic("a", 90.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    fn net() -> MpichEthernet {
        MpichEthernet::new(0.3e-3, 1e8)
    }

    /// A symmetric positive matrix with a well-separated dominant
    /// eigenvalue (diagonal boost), so the power method converges fast.
    fn test_matrix(n: usize, seed: u64) -> Matrix {
        let r = Matrix::random(n, n, seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 0.5 * (r[(i, j)] + r[(j, i)]).abs();
            }
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn work_model_counts_matvec_and_norms() {
        assert_eq!(power_work(10, 1), 220.0);
        assert_eq!(power_work(10, 3), 660.0);
        assert_eq!(power_work(0, 5), 0.0);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let a = test_matrix(18, 3);
        for iters in [1usize, 5, 20] {
            let (seq_val, seq_vec) = power_sequential(&a, iters);
            let out = power_parallel(&het3(), &net(), &a, iters);
            assert!(
                (out.eigenvalue - seq_val).abs() < 1e-12,
                "iters {iters}: {} vs {seq_val}",
                out.eigenvalue
            );
            for (p, s) in out.eigenvector.iter().zip(&seq_vec) {
                assert!((p - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn converges_to_the_dominant_eigenpair() {
        let a = test_matrix(16, 7);
        let out = power_parallel(&het3(), &net(), &a, 120);
        // Residual ‖A·v − λ·v‖∞ must be tiny relative to λ.
        let av = a.matvec(&out.eigenvector);
        let resid = av
            .iter()
            .zip(&out.eigenvector)
            .map(|(&l, &r)| (l - out.eigenvalue * r).abs())
            .fold(0.0f64, f64::max);
        assert!(resid / out.eigenvalue < 1e-6, "residual {resid} vs lambda {}", out.eigenvalue);
    }

    #[test]
    fn timed_matches_real_timings() {
        let a = test_matrix(20, 5);
        for iters in [1usize, 4] {
            let real = power_parallel(&het3(), &net(), &a, iters);
            let timed = power_parallel_timed(&het3(), &net(), 20, iters, RunSpec::default());
            assert_eq!(timed.makespan, real.makespan, "iters = {iters}");
            assert_eq!(timed.times, real.times, "iters = {iters}");
            assert_eq!(timed.compute_times, real.compute_times, "iters = {iters}");
            assert_eq!(timed.total_overhead, real.total_overhead, "iters = {iters}");
        }
    }

    #[test]
    fn single_rank_has_no_overhead() {
        let cluster = ClusterSpec::homogeneous(1, 50.0);
        let a = test_matrix(12, 9);
        let out = power_parallel(&cluster, &net(), &a, 8);
        assert_eq!(out.total_overhead.as_secs(), 0.0);
        let (seq_val, _) = power_sequential(&a, 8);
        assert!((out.eigenvalue - seq_val).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = test_matrix(14, 2);
        let o1 = power_parallel(&het3(), &net(), &a, 6);
        let o2 = power_parallel(&het3(), &net(), &a, 6);
        assert_eq!(o1.eigenvalue, o2.eigenvalue);
        assert_eq!(o1.makespan, o2.makespan);
    }

    #[test]
    fn many_shapes_agree_with_sequential() {
        for (p, n) in [(2usize, 7usize), (4, 13), (5, 21)] {
            let cluster = ClusterSpec::homogeneous(p, 50.0);
            let a = test_matrix(n, (p + n) as u64);
            let (seq_val, _) = power_sequential(&a, 9);
            let out = power_parallel(&cluster, &net(), &a, 9);
            assert!((out.eigenvalue - seq_val).abs() < 1e-12, "p = {p}, n = {n}");
        }
    }
}

//! Jacobi stencil iteration — a third algorithm–system combination.
//!
//! The paper evaluates two combinations whose communication grows with
//! the system: GE (per-iteration broadcast + barrier) and MM
//! (root-serialized distribution). A 2D Jacobi sweep is the classic
//! *third* point on that spectrum: after a one-time distribution, each
//! rank only ever exchanges halo rows with its two neighbours —
//! per-iteration communication **independent of the process count**.
//! Under the isospeed-efficiency metric this makes it the most scalable
//! of the three, approaching the Corollary-1 ideal; the `x2` experiment
//! in bench-tables quantifies that.

mod parallel;
mod seq;
mod timed;

pub use parallel::{stencil_parallel, StencilOutcome};
pub use seq::jacobi_sequential;
pub use timed::{stencil_parallel_timed, stencil_timed_body};

/// Work model: `iters` Jacobi sweeps over the interior of an `n × n`
/// grid, 4 flops per point (three adds and one multiply).
pub fn stencil_work(n: usize, iters: usize) -> f64 {
    if n < 3 {
        return 0.0;
    }
    let interior = ((n - 2) * (n - 2)) as f64;
    iters as f64 * 4.0 * interior
}

/// Flops charged for one sweep's update of `points` interior grid
/// points, 4 per point.
pub(crate) fn update_flops(points: usize) -> f64 {
    4.0 * points as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use hetsim_cluster::network::{ConstantLatency, MpichEthernet};
    use hetsim_cluster::{ClusterSpec, NodeSpec};
    use hetsim_mpi::RunSpec;

    fn grid(n: usize, seed: u64) -> Matrix {
        Matrix::random(n, n, seed)
    }

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

    #[test]
    fn work_model_counts_interior_points() {
        assert_eq!(stencil_work(10, 1), 4.0 * 64.0);
        assert_eq!(stencil_work(10, 5), 5.0 * 4.0 * 64.0);
        assert_eq!(stencil_work(2, 7), 0.0);
        assert_eq!(stencil_work(0, 7), 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let u0 = grid(20, 3);
        for iters in [1usize, 2, 5] {
            let expected = jacobi_sequential(&u0, iters);
            let out = stencil_parallel(&het3(), &net(), &u0, iters);
            assert!(
                out.grid.max_diff(&expected) < 1e-12,
                "iters = {iters}: diff {}",
                out.grid.max_diff(&expected)
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_on_many_shapes() {
        for (p, n) in [(2usize, 9usize), (4, 16), (5, 23), (8, 33)] {
            let cluster = ClusterSpec::homogeneous(p, 50.0);
            let u0 = grid(n, (p * n) as u64);
            let expected = jacobi_sequential(&u0, 3);
            let out = stencil_parallel(&cluster, &net(), &u0, 3);
            assert!(out.grid.max_diff(&expected) < 1e-12, "p = {p}, n = {n}");
        }
    }

    #[test]
    fn single_rank_has_no_overhead() {
        let cluster = ClusterSpec::homogeneous(1, 50.0);
        let u0 = grid(12, 9);
        let out = stencil_parallel(&cluster, &ConstantLatency::new(1e-3), &u0, 4);
        assert_eq!(out.total_overhead.as_secs(), 0.0);
        assert!(out.grid.max_diff(&jacobi_sequential(&u0, 4)) < 1e-12);
    }

    #[test]
    fn timed_matches_real_timings() {
        let u0 = grid(24, 5);
        for iters in [1usize, 4] {
            let real = stencil_parallel(&het3(), &net(), &u0, iters);
            let timed = stencil_parallel_timed(&het3(), &net(), 24, iters, RunSpec::default());
            assert_eq!(timed.makespan, real.makespan, "iters = {iters}");
            assert_eq!(timed.times, real.times, "iters = {iters}");
            assert_eq!(timed.compute_times, real.compute_times, "iters = {iters}");
            assert_eq!(timed.total_overhead, real.total_overhead, "iters = {iters}");
        }
    }

    #[test]
    fn per_iteration_overhead_is_p_independent_per_rank() {
        // The stencil's defining property: an interior rank exchanges
        // with exactly two neighbours whatever the ladder rung, so its
        // per-iteration overhead does not grow with p (unlike GE).
        let u0_small = grid(64, 1);
        let net = net();
        let t4 = stencil_parallel(&ClusterSpec::homogeneous(4, 50.0), &net, &u0_small, 4);
        let t8 = stencil_parallel(&ClusterSpec::homogeneous(8, 50.0), &net, &u0_small, 4);
        // Max per-rank comm time grows at most marginally with p (the
        // halo payload is identical; only the final gather grows).
        let comm4 = t4
            .times
            .iter()
            .zip(&t4.compute_times)
            .map(|(t, c)| t.as_secs() - c.as_secs())
            .fold(0.0, f64::max);
        let comm8 = t8
            .times
            .iter()
            .zip(&t8.compute_times)
            .map(|(t, c)| t.as_secs() - c.as_secs())
            .fold(0.0, f64::max);
        assert!(comm8 < comm4 * 2.0, "comm4 = {comm4}, comm8 = {comm8}");
    }

    #[test]
    fn zero_iterations_is_identity_with_distribution_cost() {
        let u0 = grid(10, 2);
        let out = stencil_parallel(&het3(), &net(), &u0, 0);
        assert!(out.grid.max_diff(&u0) < 1e-15);
        assert!(out.total_overhead.as_secs() > 0.0, "distribution still costs");
    }

    #[test]
    fn tiny_grids_are_handled() {
        for n in [1usize, 2, 3] {
            let u0 = grid(n, 7);
            let out = stencil_parallel(&het3(), &net(), &u0, 2);
            assert!(out.grid.max_diff(&jacobi_sequential(&u0, 2)) < 1e-12, "n = {n}");
        }
    }
}

//! Cross-crate checks for the stencil workload and the extension
//! baselines (memory-bounded speedup, execution-time relations).

use hetscale::hetsim_cluster::sunwulf;
use hetscale::hetsim_mpi::RunSpec;
use hetscale::kernels::matrix::Matrix;
use hetscale::kernels::stencil::{jacobi_sequential, stencil_parallel, stencil_work};
use hetscale::scalability::baselines::memory_bounded::{
    fixed_size_speedup, fixed_time_speedup, memory_bounded_speedup, GrowthProfile,
};
use hetscale::scalability::execution_time::{classify, execution_time_ratio, TimeBehaviour};
use hetscale::scalability::function::isospeed_efficiency_scalability;
use hetscale::scalability::measure::speed_efficiency;

#[test]
fn stencil_on_sunwulf_is_correct_and_efficient() {
    let net = sunwulf::sunwulf_network();
    let u0 = Matrix::random(48, 48, 11);
    let iters = 6;
    let expected = jacobi_sequential(&u0, iters);
    for p in [2usize, 4, 8] {
        let cluster = sunwulf::ge_config(p);
        let out = stencil_parallel(&cluster, &net, &u0, iters);
        assert!(out.grid.max_diff(&expected) < 1e-12, "p = {p}");
        let e = speed_efficiency(
            stencil_work(48, iters),
            out.makespan.as_secs(),
            cluster.marked_speed_flops(),
        );
        assert!(e > 0.0 && e < 1.0, "p = {p}: E = {e}");
    }
}

#[test]
fn stencil_efficiency_beats_ge_at_matched_size() {
    use hetscale::kernels::ge::ge_parallel_timed;
    use hetscale::kernels::stencil::stencil_parallel_timed;
    use hetscale::kernels::workload::ge_work;
    let net = sunwulf::sunwulf_network();
    let cluster = sunwulf::ge_config(8);
    let c = cluster.marked_speed_flops();
    let n = 256;
    let iters = n / 8;
    let e_st = speed_efficiency(
        stencil_work(n, iters),
        stencil_parallel_timed(&cluster, &net, n, iters, RunSpec::default()).makespan.as_secs(),
        c,
    );
    let e_ge = speed_efficiency(
        ge_work(n),
        ge_parallel_timed(&cluster, &net, n, RunSpec::default()).makespan.as_secs(),
        c,
    );
    assert!(e_st > e_ge, "stencil {e_st} vs GE {e_ge}");
}

#[test]
fn memory_bounded_ordering_holds_on_paper_like_parameters() {
    // GE's sequential fraction at the paper's two-node anchor:
    // α = t₀·C/W = N²·(C/C₀)/W(N) ≈ 0.016 at N = 310.
    let n: f64 = 310.0;
    let w = (2.0 / 3.0) * n.powi(3) + 1.5 * n * n;
    let alpha = n * n * (140.0 / 90.0) / w;
    assert!(alpha < 0.05, "alpha = {alpha}");
    for p in [4usize, 16, 64] {
        let a = fixed_size_speedup(alpha, p);
        let g = fixed_time_speedup(alpha, p);
        let m = memory_bounded_speedup(alpha, p, GrowthProfile::DenseMatrix.g(p));
        assert!(a < g && g < m, "p = {p}: {a} < {g} < {m} violated");
        assert!(m < p as f64);
    }
}

#[test]
fn execution_time_relations_match_measured_ladder_arithmetic() {
    // ψ from the definition and T'/T from the same numbers must satisfy
    // T'/T = 1/ψ exactly.
    let (c, w) = (1.4e8, 1.83e7);
    let (c2, w2) = (2.4e8, 1.35e8);
    let psi = isospeed_efficiency_scalability(c, w, c2, w2);
    let t_ratio_direct = (w2 / c2) / (w / c); // at equal E the E's cancel
    assert!((execution_time_ratio(psi) - t_ratio_direct).abs() < 1e-9);
    assert_eq!(classify(psi, 0.02), TimeBehaviour::Growing);
}

#[test]
fn stencil_required_size_grows_slower_than_ge() {
    // The heart of the x2 conclusion, checked without the fitting
    // machinery: fix a target efficiency, bisect the required N for both
    // kernels at p = 4 and p = 8; the stencil's growth factor must be
    // smaller.
    use hetscale::kernels::ge::ge_parallel_timed;
    use hetscale::kernels::stencil::stencil_parallel_timed;
    use hetscale::kernels::workload::ge_work;
    let net = sunwulf::sunwulf_network();
    let target = 0.3;

    let required = |p: usize, stencil: bool| -> f64 {
        let cluster = sunwulf::ge_config(p);
        let c = cluster.marked_speed_flops();
        let eff = |n: usize| -> f64 {
            if stencil {
                let iters = (n / 8).max(1);
                speed_efficiency(
                    stencil_work(n, iters),
                    stencil_parallel_timed(&cluster, &net, n, iters, RunSpec::default())
                        .makespan
                        .as_secs(),
                    c,
                )
            } else {
                speed_efficiency(
                    ge_work(n),
                    ge_parallel_timed(&cluster, &net, n, RunSpec::default()).makespan.as_secs(),
                    c,
                )
            }
        };
        // Integer bisection on a monotone-enough curve.
        let (mut lo, mut hi) = (8usize, 4096usize);
        assert!(eff(hi) > target, "target unreachable");
        while hi - lo > 2 {
            let mid = (lo + hi) / 2;
            if eff(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi as f64
    };

    let ge_growth = required(8, false) / required(4, false);
    let st_growth = required(8, true) / required(4, true);
    assert!(
        st_growth < ge_growth,
        "stencil growth {st_growth} must undercut GE growth {ge_growth}"
    );
}

//! The two headline theoretical properties, checked end-to-end on the
//! actual runtime (not just on the formulas):
//!
//! 1. **Homogeneous reduction** — on a homogeneous cluster the
//!    isospeed-efficiency scalability equals classic isospeed
//!    scalability computed from the same runs.
//! 2. **Corollary 1** — a perfectly parallel workload under a
//!    constant-cost network is perfectly scalable (ψ = 1).

use hetscale::hetsim_cluster::network::ConstantLatency;
use hetscale::hetsim_cluster::ClusterSpec;
use hetscale::hetsim_mpi::{run_spmd, RunSpec};
use hetscale::scalability::baselines::isospeed::isospeed_psi;
use hetscale::scalability::function::isospeed_efficiency_scalability;
use hetscale::scalability::metric::{
    required_n_for_efficiency, AlgorithmSystem, EfficiencyCurve, FnAlgorithm,
};

/// A perfectly parallel synthetic workload on a cluster: every rank gets
/// exactly `W/p` flops, then one barrier. Returns the measured makespan.
fn perfectly_parallel_time(cluster: &ClusterSpec, net: &ConstantLatency, work: f64) -> f64 {
    let p = cluster.size() as f64;
    let outcome = run_spmd(cluster, net, RunSpec::default(), |rank| {
        rank.compute_flops(work / p);
        rank.barrier();
    });
    outcome.times.iter().map(|t| t.as_secs()).fold(0.0, f64::max)
}

fn synthetic_system(p: usize, speed: f64, net: ConstantLatency) -> impl AlgorithmSystem {
    let cluster = ClusterSpec::homogeneous(p, speed);
    let c = cluster.marked_speed_flops();
    FnAlgorithm {
        label: format!("synthetic-{p}"),
        marked_speed_flops: c,
        work_fn: |n: usize| (n as f64).powi(3),
        time_fn: move |n: usize| perfectly_parallel_time(&cluster, &net, (n as f64).powi(3)),
    }
}

#[test]
fn corollary1_constant_overhead_gives_psi_one() {
    // Constant network cost + perfectly parallel work: the required N
    // scales ideally and ψ = 1 (within inversion tolerance).
    // A 20 ms constant cost puts the E = 0.5 knee near N ≈ 126 (p = 2)
    // and N ≈ 200 (p = 8), where integer-N rounding error is small.
    let net = ConstantLatency::new(2e-2);
    let base = synthetic_system(2, 50.0, net);
    let scaled = synthetic_system(8, 50.0, net);
    let ns: Vec<usize> = (8..=80).map(|i| i * 5).collect();
    let target = 0.5;
    // Piecewise-linear inversion of the dense sample grid: avoids the
    // polynomial's wiggle so the check isolates the metric itself.
    let n1 =
        EfficiencyCurve::measure(&base, &ns).series.invert_linear(target).unwrap().round() as usize;
    let n2 = EfficiencyCurve::measure(&scaled, &ns).series.invert_linear(target).unwrap().round()
        as usize;
    let psi = isospeed_efficiency_scalability(
        base.marked_speed_flops(),
        base.work(n1),
        scaled.marked_speed_flops(),
        scaled.work(n2),
    );
    assert!((psi - 1.0).abs() < 0.05, "Corollary 1 violated: psi = {psi}");
}

#[test]
fn homogeneous_case_reduces_to_isospeed() {
    // Same runs, two metrics: with C = p·Cᵢ the isospeed-efficiency ψ
    // must equal the classic isospeed ψ(p, p') exactly.
    let net = ConstantLatency::new(2e-2);
    let (p1, p2) = (2usize, 4usize);
    let base = synthetic_system(p1, 80.0, net);
    let scaled = synthetic_system(p2, 80.0, net);
    let ns: Vec<usize> = (8..=80).map(|i| i * 5).collect();
    let n1 = required_n_for_efficiency(&base, 0.5, &ns, 3).unwrap().round() as usize;
    let n2 = required_n_for_efficiency(&scaled, 0.5, &ns, 3).unwrap().round() as usize;
    let (w1, w2) = (base.work(n1), scaled.work(n2));
    let via_eff = isospeed_efficiency_scalability(
        base.marked_speed_flops(),
        w1,
        scaled.marked_speed_flops(),
        w2,
    );
    let via_isospeed = isospeed_psi(p1, w1, p2, w2);
    assert!(
        (via_eff - via_isospeed).abs() < 1e-12,
        "reduction must be exact: {via_eff} vs {via_isospeed}"
    );
}

#[test]
fn heterogeneous_system_beats_equal_speed_interpretation() {
    // A sanity check of the metric's *point*: treating a heterogeneous
    // system as "p nodes" (isospeed) misranks it against marked speed.
    // System A: 2 fast nodes. System B: 4 nodes with half the speed each.
    // Equal C ⇒ isospeed-efficiency treats them equally; isospeed's p
    // does not.
    let fast = ClusterSpec::homogeneous(2, 100.0);
    let slow = ClusterSpec::homogeneous(4, 50.0);
    assert_eq!(fast.marked_speed_flops(), slow.marked_speed_flops());
    // Identical work on identical C: identical ψ against any third
    // system — the C-based function cannot distinguish them, while
    // p-based isospeed would claim a 2× difference.
    let (w, w2) = (1e9, 3e9);
    let c3 = 4.0 * fast.marked_speed_flops();
    let psi_fast = isospeed_efficiency_scalability(fast.marked_speed_flops(), w, c3, w2);
    let psi_slow = isospeed_efficiency_scalability(slow.marked_speed_flops(), w, c3, w2);
    assert_eq!(psi_fast, psi_slow);
    let iso_fast = isospeed_psi(2, w, 16, w2);
    let iso_slow = isospeed_psi(4, w, 16, w2);
    assert!((iso_fast - 2.0 * iso_slow).abs() < 1e-12);
}

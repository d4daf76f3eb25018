//! [`AlgorithmSystem`] adapters binding the kernels to Sunwulf
//! configurations — the concrete algorithm–system combinations the
//! paper evaluates.
//!
//! All seven adapters run the *timing-mode* kernels or their
//! class-aggregated forms (proven timing-equivalent to the real ones by
//! the kernels crate's tests), so curve sweeps over thousands of matrix
//! ranks stay cheap while producing exactly the virtual times the
//! arithmetic-executing kernels would. [`GeSystem`] reads only the
//! makespan, so it prices through [`ge_makespan`], the class-aggregated
//! GE form on a per-rank cluster. [`GeSystem`] and [`MmSystem`] go
//! through [`crate::memo`], because the suite re-reads their ladder
//! cells; the other adapters price each cell directly.

use crate::params::MEGA_POWER_ITERS;
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_mpi::RunSpec;
use kernels::ge::ge_parallel_timed;
use kernels::mega::{ge_makespan, ge_mega, mm_mega, power_mega};
use kernels::mm::mm_parallel_timed;
use kernels::power::{power_parallel_timed, power_work};
use kernels::stencil::{stencil_parallel_timed, stencil_work};
use kernels::workload::{ge_work, mm_work};
use scalability::metric::AlgorithmSystem;

/// Sweep count used by the stencil scalability experiments: grows with
/// the grid (`⌈n/8⌉`) so total work is `Θ(N³)` like the paper's kernels
/// and the one-time distribution cost vanishes relatively.
pub fn stencil_iters(n: usize) -> usize {
    n.div_ceil(8).max(1)
}

/// Sweep count for the power-method scalability experiments (`⌈n/4⌉`,
/// same Θ(N³)-total-work rationale).
pub fn power_iters(n: usize) -> usize {
    n.div_ceil(4).max(1)
}

/// Parallel GE on one cluster configuration, priced through
/// [`ge_makespan`]: the cluster's maximal equal-speed runs become
/// classes and [`ge_mega`] prices them in Θ(N·classes) — two classes on
/// every Sunwulf GE rung — with the per-rank closed form's bits, or the
/// per-rank engine under `--no-analytic`.
pub struct GeSystem<'a, N: NetworkModel> {
    /// The configuration.
    pub cluster: &'a ClusterSpec,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> GeSystem<'a, N> {
    /// Binds GE to a configuration.
    pub fn new(cluster: &'a ClusterSpec, network: &'a N) -> Self {
        GeSystem { cluster, network }
    }
}

impl<N: NetworkModel> AlgorithmSystem for GeSystem<'_, N> {
    fn label(&self) -> String {
        format!("GE on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        ge_work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        crate::memo::cached("ge", self.cluster, self.network, n, || {
            ge_makespan(self.cluster, self.network, n)
        })
        .as_secs()
    }
}

/// HoHe parallel MM on one cluster configuration.
pub struct MmSystem<'a, N: NetworkModel> {
    /// The configuration.
    pub cluster: &'a ClusterSpec,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> MmSystem<'a, N> {
    /// Binds MM to a configuration.
    pub fn new(cluster: &'a ClusterSpec, network: &'a N) -> Self {
        MmSystem { cluster, network }
    }
}

impl<N: NetworkModel> AlgorithmSystem for MmSystem<'_, N> {
    fn label(&self) -> String {
        format!("MM on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        mm_work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        crate::memo::cached("mm", self.cluster, self.network, n, || {
            mm_parallel_timed(self.cluster, self.network, n, RunSpec::default()).makespan
        })
        .as_secs()
    }
}

/// Jacobi stencil (halo-exchange) on one cluster configuration — the
/// third algorithm–system combination, beyond the paper's two.
pub struct StencilSystem<'a, N: NetworkModel> {
    /// The configuration.
    pub cluster: &'a ClusterSpec,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> StencilSystem<'a, N> {
    /// Binds the stencil to a configuration.
    pub fn new(cluster: &'a ClusterSpec, network: &'a N) -> Self {
        StencilSystem { cluster, network }
    }
}

impl<N: NetworkModel> AlgorithmSystem for StencilSystem<'_, N> {
    fn label(&self) -> String {
        format!("Stencil on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        stencil_work(n, stencil_iters(n))
    }
    fn execute(&self, n: usize) -> f64 {
        stencil_parallel_timed(self.cluster, self.network, n, stencil_iters(n), RunSpec::default())
            .makespan
            .as_secs()
    }
}

/// Power iteration on one cluster configuration — the fourth
/// combination (per-iteration allgather).
pub struct PowerSystem<'a, N: NetworkModel> {
    /// The configuration.
    pub cluster: &'a ClusterSpec,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> PowerSystem<'a, N> {
    /// Binds the power method to a configuration.
    pub fn new(cluster: &'a ClusterSpec, network: &'a N) -> Self {
        PowerSystem { cluster, network }
    }
}

impl<N: NetworkModel> AlgorithmSystem for PowerSystem<'_, N> {
    fn label(&self) -> String {
        format!("Power on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        power_work(n, power_iters(n))
    }
    fn execute(&self, n: usize) -> f64 {
        power_parallel_timed(self.cluster, self.network, n, power_iters(n), RunSpec::default())
            .makespan
            .as_secs()
    }
}

/// HoHe MM on a class-compressed mega machine (X4). The analytic path
/// prices the cell in O(classes) through [`mm_mega`] — no rank vector,
/// no per-rank `BlockDistribution` — so 10⁷-rank cells cost as much as 10³;
/// under `--no-analytic` the cluster is materialized and priced per
/// rank (the oracle reference, affordable only at the small presets).
/// Mega cells bypass the memo cache on purpose: its fingerprint walks
/// a materialized cluster, which is exactly the O(P) pass this adapter
/// exists to avoid.
pub struct MegaMmSystem<'a, N: NetworkModel> {
    /// The class-compressed configuration.
    pub cluster: &'a ClassedCluster,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> MegaMmSystem<'a, N> {
    /// Binds MM to a classed configuration.
    pub fn new(cluster: &'a ClassedCluster, network: &'a N) -> Self {
        MegaMmSystem { cluster, network }
    }
}

impl<N: NetworkModel> AlgorithmSystem for MegaMmSystem<'_, N> {
    fn label(&self) -> String {
        format!("MM on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        mm_work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        if hetsim_mpi::analytic_enabled() {
            mm_mega(self.cluster, self.network, n)
                .expect("the mega network prices per class")
                .makespan
                .as_secs()
        } else {
            mm_parallel_timed(&self.cluster.materialize(), self.network, n, RunSpec::default())
                .makespan
                .as_secs()
        }
    }
}

/// Cyclic-deal GE on a class-compressed mega machine (X4). The
/// analytic path prices the cell in Θ(N·classes) through [`ge_mega`]
/// (GE's lockstep rounds are inherently Θ(N); only the per-round state
/// compresses to O(classes)). Under `--no-analytic` the *small*
/// presets materialize and run the per-rank engine — the oracle
/// reference; above [`MegaGeSystem::ORACLE_MAX_RANKS`] the per-rank GE
/// walk is Θ(N·P) ≈ 10¹⁰⁺ events, so those cells stay on the
/// aggregated form, which is bit-identical anyway (the byte-equality
/// gate in ci.sh exercises exactly this split).
pub struct MegaGeSystem<'a, N: NetworkModel> {
    /// The class-compressed configuration.
    pub cluster: &'a ClassedCluster,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> MegaGeSystem<'a, N> {
    /// Largest preset the `--no-analytic` oracle path materializes.
    pub const ORACLE_MAX_RANKS: usize = 1_000;

    /// Binds GE to a classed configuration.
    pub fn new(cluster: &'a ClassedCluster, network: &'a N) -> Self {
        MegaGeSystem { cluster, network }
    }
}

impl<N: NetworkModel> AlgorithmSystem for MegaGeSystem<'_, N> {
    fn label(&self) -> String {
        format!("GE on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        ge_work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        if !hetsim_mpi::analytic_enabled() && self.cluster.size() <= Self::ORACLE_MAX_RANKS {
            ge_parallel_timed(&self.cluster.materialize(), self.network, n, RunSpec::default())
                .makespan
                .as_secs()
        } else {
            ge_mega(self.cluster, self.network, n)
                .expect("the mega network prices per class")
                .makespan
                .as_secs()
        }
    }
}

/// Power iteration on a class-compressed mega machine (X4), with the
/// fixed [`MEGA_POWER_ITERS`] sweep count. Same two-path contract as
/// [`MegaMmSystem`]: O(classes) through [`power_mega`] by default, the
/// materialized per-rank oracle under `--no-analytic`.
pub struct MegaPowerSystem<'a, N: NetworkModel> {
    /// The class-compressed configuration.
    pub cluster: &'a ClassedCluster,
    /// The interconnect model.
    pub network: &'a N,
}

impl<'a, N: NetworkModel> MegaPowerSystem<'a, N> {
    /// Binds the power method to a classed configuration.
    pub fn new(cluster: &'a ClassedCluster, network: &'a N) -> Self {
        MegaPowerSystem { cluster, network }
    }

    /// Seconds the serial hub scatter alone takes at size `n` — the
    /// zero-sweep protocol, priced by whichever engine is active. The
    /// mega ceiling table divides work by this to get the BSF-style
    /// saturation bound `E_s ≤ W/(C·T_scatter)`.
    pub fn scatter_floor_secs(&self, n: usize) -> f64 {
        if hetsim_mpi::analytic_enabled() {
            power_mega(self.cluster, self.network, n, 0)
                .expect("the mega network prices per class")
                .makespan
                .as_secs()
        } else {
            power_parallel_timed(
                &self.cluster.materialize(),
                self.network,
                n,
                0,
                RunSpec::default(),
            )
            .makespan
            .as_secs()
        }
    }
}

impl<N: NetworkModel> AlgorithmSystem for MegaPowerSystem<'_, N> {
    fn label(&self) -> String {
        format!("Power on {}", self.cluster.label)
    }
    fn marked_speed_flops(&self) -> f64 {
        self.cluster.marked_speed_flops()
    }
    fn work(&self, n: usize) -> f64 {
        power_work(n, MEGA_POWER_ITERS)
    }
    fn execute(&self, n: usize) -> f64 {
        if hetsim_mpi::analytic_enabled() {
            power_mega(self.cluster, self.network, n, MEGA_POWER_ITERS)
                .expect("the mega network prices per class")
                .makespan
                .as_secs()
        } else {
            power_parallel_timed(
                &self.cluster.materialize(),
                self.network,
                n,
                MEGA_POWER_ITERS,
                RunSpec::default(),
            )
            .makespan
            .as_secs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::sunwulf;

    #[test]
    fn ge_system_measures_sane_efficiency() {
        let cluster = sunwulf::ge_config(2);
        let net = sunwulf::sunwulf_network();
        let sys = GeSystem::new(&cluster, &net);
        let m = sys.measure(300);
        let e = m.speed_efficiency();
        assert!(e > 0.05 && e < 0.95, "E_s(300) = {e}");
    }

    #[test]
    fn ge_two_node_anchor_matches_paper_ballpark() {
        // The paper's surviving anchor: on two nodes, E_s ≈ 0.3 near
        // N = 310 (measured 0.312 at N = 310).
        let cluster = sunwulf::ge_config(2);
        let net = sunwulf::sunwulf_network();
        let sys = GeSystem::new(&cluster, &net);
        let e310 = sys.measure(310).speed_efficiency();
        assert!((0.2..=0.45).contains(&e310), "E_s(310) = {e310}, expected near the paper's 0.312");
    }

    #[test]
    fn mm_system_is_more_efficient_than_ge_at_scale() {
        let net = sunwulf::sunwulf_network();
        let ge_cluster = sunwulf::ge_config(8);
        let mm_cluster = sunwulf::mm_config(8);
        let ge = GeSystem::new(&ge_cluster, &net);
        let mm = MmSystem::new(&mm_cluster, &net);
        let n = 256;
        assert!(
            mm.measure(n).speed_efficiency() > ge.measure(n).speed_efficiency(),
            "MM should out-scale GE"
        );
    }

    #[test]
    fn stencil_outscales_both_paper_kernels_at_fixed_size() {
        // Halo-only communication: at a matched problem size the stencil
        // wastes the least of its marked speed.
        let net = sunwulf::sunwulf_network();
        let cluster = sunwulf::ge_config(8);
        let st = StencilSystem::new(&cluster, &net);
        let ge = GeSystem::new(&cluster, &net);
        let n = 256;
        assert!(
            st.measure(n).speed_efficiency() > ge.measure(n).speed_efficiency(),
            "stencil should out-scale GE"
        );
    }

    #[test]
    fn stencil_iters_grow_with_n() {
        assert_eq!(stencil_iters(8), 1);
        assert_eq!(stencil_iters(64), 8);
        assert_eq!(stencil_iters(65), 9);
        assert!(stencil_iters(1) >= 1);
    }

    #[test]
    fn ge_route_matches_per_rank_on_every_surface_cell() {
        // Every X3 GE cell, as `GeSystem` prices it, against the
        // per-rank closed form: same bits at each rung up to 85 ranks.
        use crate::params::{surface_ge_sizes, surface_rungs};
        use hetpart::CyclicDistribution;
        let net = sunwulf::sunwulf_network();
        for p in surface_rungs(false) {
            let cluster = sunwulf::ge_config(p);
            for n in surface_ge_sizes(p) {
                let dist = CyclicDistribution::fine(n, &cluster.speeds_mflops());
                let per_rank = kernels::ge_closed_form(&cluster, &net, n, &dist).makespan;
                assert_eq!(
                    ge_makespan(&cluster, &net, n).as_secs().to_bits(),
                    per_rank.as_secs().to_bits(),
                    "p={p} n={n}"
                );
            }
        }
    }

    #[test]
    fn labels_identify_configurations() {
        let cluster = sunwulf::ge_config(4);
        let net = sunwulf::sunwulf_network();
        assert_eq!(GeSystem::new(&cluster, &net).label(), "GE on sunwulf-ge-4");
    }
}

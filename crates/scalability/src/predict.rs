//! Scalability prediction (§3.5 method 2, §4.5 of the paper).
//!
//! Instead of running the scaled system, analyze it: calibrate the
//! machine's communication parameters (`T_send = a + b·n`, `T_bcast` and
//! `T_barrier` vs `p` — [`hetsim_cluster::calibrate`]), write down the
//! algorithm's overhead model, solve the isospeed-efficiency condition
//! for the required problem size, and apply Theorem 1 / Corollary 2 for
//! ψ. The paper does this for GE:
//!
//! ```text
//! T_o(N) = T_distribute&collect + Σᵢ T_bcast(p, pivot rowᵢ) + N·T_barrier(p)
//! α = O(1/N) ≈ 0 for large N   ⇒   ψ ≈ T_o / T_o'   (Corollary 2)
//! ```
//!
//! Predictors implement [`AlgorithmSystem`], so the same ladder machinery
//! that produces the *measured* tables produces the *predicted* ones —
//! the comparison in Table 7 is then apples to apples.

use crate::metric::AlgorithmSystem;
use crate::theorem::psi_corollary2;
use hetsim_cluster::calibrate::MachineParams;
use hetsim_cluster::cluster::ClusterSpec;

/// Analytic model of the parallel GE of §4.1.1 on a given configuration.
#[derive(Debug, Clone)]
pub struct GePredictor {
    /// Configuration label.
    pub label: String,
    /// System marked speed `C` in flop/s.
    pub c_flops: f64,
    /// Number of processes.
    pub p: usize,
    /// Marked speed of rank 0's node (runs the sequential portion).
    pub root_speed_flops: f64,
    /// Calibrated machine communication parameters.
    pub params: MachineParams,
}

impl GePredictor {
    /// Builds the predictor for a cluster from calibrated parameters.
    pub fn new(cluster: &ClusterSpec, params: MachineParams) -> GePredictor {
        GePredictor {
            label: format!("GE-predicted on {}", cluster.label),
            c_flops: cluster.marked_speed_flops(),
            p: cluster.size(),
            root_speed_flops: cluster.nodes()[0].marked_speed_flops(),
            params,
        }
    }

    /// GE work `W(N) = (2/3)N³ + (3/2)N²` flops (shared with the
    /// measured pipeline).
    pub fn work(&self, n: usize) -> f64 {
        let nf = n as f64;
        (2.0 / 3.0) * nf * nf * nf + 1.5 * nf * nf
    }

    /// The sequential-portion time `t₀(N)`: back substitution (~N² flops)
    /// at rank 0. `α = t₀·C/W = O(1/N)`, vanishing for large `N` exactly
    /// as the paper argues.
    pub fn sequential_secs(&self, n: usize) -> f64 {
        (n * n) as f64 / self.root_speed_flops
    }

    /// The communication overhead model `T_o(N)`:
    /// distribution + collection (one message each way per peer,
    /// ~`N(N+1)/p` elements each) plus, per pivot iteration, one
    /// broadcast of the shrinking pivot row and one barrier.
    pub fn overhead_secs(&self, n: usize) -> f64 {
        if self.p <= 1 {
            return 0.0;
        }
        let nf = n as f64;
        let elems_per_peer = nf * (nf + 1.0) / self.p as f64;
        let distribute = (self.p - 1) as f64 * self.params.p2p_time(elems_per_peer);
        let collect = distribute;
        // Σᵢ bcast(p, n−i+1 elements): latency term per iteration plus
        // the payload term over the average pivot length (n+3)/2.
        let avg_pivot = (nf + 3.0) / 2.0;
        let per_iter = self.params.bcast_time(self.p, avg_pivot) + self.params.barrier_time(self.p);
        distribute + collect + nf * per_iter
    }

    /// Predicted parallel time: balanced elimination + sequential portion
    /// + overhead.
    pub fn predicted_time_secs(&self, n: usize) -> f64 {
        let balanced = (self.work(n) - (n * n) as f64).max(0.0) / self.c_flops;
        balanced + self.sequential_secs(n) + self.overhead_secs(n)
    }

    /// Predicted speed-efficiency at `n`.
    pub fn predicted_efficiency(&self, n: usize) -> f64 {
        self.work(n) / (self.predicted_time_secs(n) * self.c_flops)
    }
}

impl AlgorithmSystem for GePredictor {
    fn label(&self) -> String {
        self.label.clone()
    }
    fn marked_speed_flops(&self) -> f64 {
        self.c_flops
    }
    fn work(&self, n: usize) -> f64 {
        GePredictor::work(self, n)
    }
    fn execute(&self, n: usize) -> f64 {
        self.predicted_time_secs(n)
    }
}

/// Analytic model of the HoHe MM of §4.1.2 (an extension beyond the
/// paper, which only predicts GE): overhead is distribution of `A`
/// (proportional blocks), distribution of `B` (full matrix per peer),
/// and collection of `C` — no per-iteration communication.
#[derive(Debug, Clone)]
pub struct MmPredictor {
    /// Configuration label.
    pub label: String,
    /// System marked speed `C` in flop/s.
    pub c_flops: f64,
    /// Number of processes.
    pub p: usize,
    /// Calibrated machine communication parameters.
    pub params: MachineParams,
}

impl MmPredictor {
    /// Builds the predictor for a cluster from calibrated parameters.
    pub fn new(cluster: &ClusterSpec, params: MachineParams) -> MmPredictor {
        MmPredictor {
            label: format!("MM-predicted on {}", cluster.label),
            c_flops: cluster.marked_speed_flops(),
            p: cluster.size(),
            params,
        }
    }

    /// MM work `W(N) = 2N³ − N²` flops.
    pub fn work(&self, n: usize) -> f64 {
        let nf = n as f64;
        2.0 * nf * nf * nf - nf * nf
    }

    /// Overhead: A-blocks out, B to every peer, C-blocks back.
    pub fn overhead_secs(&self, n: usize) -> f64 {
        if self.p <= 1 {
            return 0.0;
        }
        let nf = n as f64;
        let a_block = nf * nf / self.p as f64;
        let peers = (self.p - 1) as f64;
        let distribute_a = peers * self.params.p2p_time(a_block);
        let distribute_b = self.params.bcast_time(self.p, nf * nf);
        let collect_c = peers * self.params.p2p_time(a_block);
        distribute_a + distribute_b + collect_c
    }

    /// Predicted parallel time (perfectly parallel compute + overhead).
    pub fn predicted_time_secs(&self, n: usize) -> f64 {
        self.work(n) / self.c_flops + self.overhead_secs(n)
    }
}

impl AlgorithmSystem for MmPredictor {
    fn label(&self) -> String {
        self.label.clone()
    }
    fn marked_speed_flops(&self) -> f64 {
        self.c_flops
    }
    fn work(&self, n: usize) -> f64 {
        MmPredictor::work(self, n)
    }
    fn execute(&self, n: usize) -> f64 {
        self.predicted_time_secs(n)
    }
}

/// Analytic model of the halo-exchange Jacobi stencil (an extension
/// workload): distribution and collection of the grid plus, per sweep,
/// two neighbour exchanges whose cost is independent of `p`.
#[derive(Debug, Clone)]
pub struct StencilPredictor {
    /// Configuration label.
    pub label: String,
    /// System marked speed `C` in flop/s.
    pub c_flops: f64,
    /// Number of processes.
    pub p: usize,
    /// Calibrated machine communication parameters.
    pub params: MachineParams,
    /// Sweeps per run as a function of the grid size.
    pub iters_fn: fn(usize) -> usize,
}

impl StencilPredictor {
    /// Builds the predictor for a cluster from calibrated parameters.
    pub fn new(
        cluster: &ClusterSpec,
        params: MachineParams,
        iters_fn: fn(usize) -> usize,
    ) -> StencilPredictor {
        StencilPredictor {
            label: format!("Stencil-predicted on {}", cluster.label),
            c_flops: cluster.marked_speed_flops(),
            p: cluster.size(),
            params,
            iters_fn,
        }
    }

    /// Stencil work: `iters·4·(n−2)²` flops.
    pub fn work(&self, n: usize) -> f64 {
        if n < 3 {
            return 0.0;
        }
        (self.iters_fn)(n) as f64 * 4.0 * ((n - 2) * (n - 2)) as f64
    }

    /// Overhead: grid out and back (proportional blocks, root-serialized)
    /// plus two halo-row exchanges per sweep on the critical (interior)
    /// rank.
    pub fn overhead_secs(&self, n: usize) -> f64 {
        if self.p <= 1 {
            return 0.0;
        }
        let nf = n as f64;
        let elems_per_peer = nf * nf / self.p as f64;
        let distribute = (self.p - 1) as f64 * self.params.p2p_time(elems_per_peer);
        let collect = distribute;
        // The critical (interior) rank sends one halo row per
        // neighbour — two once p ≥ 3, one at p = 2 — and its receives
        // arrive while it is still sending, so only the sends charge
        // the clock.
        let exchanges = 2.0f64.min((self.p - 1) as f64);
        let per_sweep = exchanges * self.params.p2p_time(nf);
        distribute + collect + (self.iters_fn)(n) as f64 * per_sweep
    }

    /// Predicted parallel time (perfectly parallel compute + overhead).
    pub fn predicted_time_secs(&self, n: usize) -> f64 {
        self.work(n) / self.c_flops + self.overhead_secs(n)
    }
}

impl AlgorithmSystem for StencilPredictor {
    fn label(&self) -> String {
        self.label.clone()
    }
    fn marked_speed_flops(&self) -> f64 {
        self.c_flops
    }
    fn work(&self, n: usize) -> f64 {
        StencilPredictor::work(self, n)
    }
    fn execute(&self, n: usize) -> f64 {
        self.predicted_time_secs(n)
    }
}

/// Analytic model of the power iteration (an extension workload):
/// matrix distribution plus, per sweep, a local matvec and an allgather
/// of the iterate (gather to root + broadcast of the concatenation).
#[derive(Debug, Clone)]
pub struct PowerPredictor {
    /// Configuration label.
    pub label: String,
    /// System marked speed `C` in flop/s.
    pub c_flops: f64,
    /// Number of processes.
    pub p: usize,
    /// Calibrated machine communication parameters.
    pub params: MachineParams,
    /// Sweeps per run as a function of the matrix size.
    pub iters_fn: fn(usize) -> usize,
}

impl PowerPredictor {
    /// Builds the predictor for a cluster from calibrated parameters.
    pub fn new(
        cluster: &ClusterSpec,
        params: MachineParams,
        iters_fn: fn(usize) -> usize,
    ) -> PowerPredictor {
        PowerPredictor {
            label: format!("Power-predicted on {}", cluster.label),
            c_flops: cluster.marked_speed_flops(),
            p: cluster.size(),
            params,
            iters_fn,
        }
    }

    /// Power work: `iters·(2n² + 2n)` flops.
    pub fn work(&self, n: usize) -> f64 {
        (self.iters_fn)(n) as f64 * (2.0 * (n * n) as f64 + 2.0 * n as f64)
    }

    /// Overhead: matrix distribution plus, per sweep, the two-phase
    /// allgather (root-serialized gather of the slices, then a broadcast
    /// of the `n + p`-element concatenation).
    pub fn overhead_secs(&self, n: usize) -> f64 {
        if self.p <= 1 {
            return 0.0;
        }
        let nf = n as f64;
        let pf = self.p as f64;
        let distribute = (self.p - 1) as f64 * self.params.p2p_time(nf * nf / pf);
        let gather = (self.p - 1) as f64 * self.params.p2p_time(nf / pf);
        let bcast = self.params.bcast_time(self.p, nf + pf);
        distribute + (self.iters_fn)(n) as f64 * (gather + bcast)
    }

    /// Predicted parallel time.
    pub fn predicted_time_secs(&self, n: usize) -> f64 {
        self.work(n) / self.c_flops + self.overhead_secs(n)
    }
}

impl AlgorithmSystem for PowerPredictor {
    fn label(&self) -> String {
        self.label.clone()
    }
    fn marked_speed_flops(&self) -> f64 {
        self.c_flops
    }
    fn work(&self, n: usize) -> f64 {
        PowerPredictor::work(self, n)
    }
    fn execute(&self, n: usize) -> f64 {
        self.predicted_time_secs(n)
    }
}

/// ψ between two GE predictions by Corollary 2 (α ≈ 0): the overhead
/// ratio at the respective required problem sizes — the exact
/// computation behind the paper's Table 7.
pub fn psi_predicted_corollary2(
    base: &GePredictor,
    n: usize,
    scaled: &GePredictor,
    n_prime: usize,
) -> f64 {
    psi_corollary2(base.overhead_secs(n), scaled.overhead_secs(n_prime))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::required_n_for_efficiency;
    use hetsim_cluster::calibrate::calibrate;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::sunwulf;

    fn params() -> MachineParams {
        calibrate(&SharedEthernet::new(0.3e-3, 1.25e7)).unwrap()
    }

    #[test]
    fn overhead_grows_with_p_and_n() {
        let p = params();
        let g2 = GePredictor::new(&sunwulf::ge_config(2), p);
        let g8 = GePredictor::new(&sunwulf::ge_config(8), p);
        assert!(g8.overhead_secs(300) > g2.overhead_secs(300));
        assert!(g2.overhead_secs(600) > g2.overhead_secs(300));
    }

    #[test]
    fn single_node_has_zero_overhead() {
        let mut g = GePredictor::new(&sunwulf::ge_config(2), params());
        g.p = 1;
        assert_eq!(g.overhead_secs(100), 0.0);
        let mut m = MmPredictor::new(&sunwulf::mm_config(2), params());
        m.p = 1;
        assert_eq!(m.overhead_secs(100), 0.0);
    }

    #[test]
    fn predicted_efficiency_saturates_with_n() {
        let g = GePredictor::new(&sunwulf::ge_config(2), params());
        let e100 = g.predicted_efficiency(100);
        let e400 = g.predicted_efficiency(400);
        let e800 = g.predicted_efficiency(800);
        assert!(e100 < e400 && e400 < e800, "{e100} {e400} {e800}");
        assert!(e800 < 1.0);
    }

    #[test]
    fn sequential_fraction_vanishes_for_large_n() {
        // α = t0·C/W = O(1/N), the paper's argument for Corollary 2.
        let g = GePredictor::new(&sunwulf::ge_config(4), params());
        let alpha = |n: usize| g.sequential_secs(n) * g.c_flops / g.work(n);
        assert!(alpha(1000) < alpha(100));
        assert!(alpha(1000) < 0.01);
    }

    #[test]
    fn predictor_required_n_lands_in_papers_ballpark() {
        // Two-node GE at target E_s = 0.3: the paper reads N ≈ 310 off
        // its trend line. The reconstructed constants should land within
        // a factor-of-two band, not exactly (see EXPERIMENTS.md).
        let g = GePredictor::new(&sunwulf::ge_config(2), params());
        let ns: Vec<usize> = (1..=20).map(|i| i * 60).collect();
        let n = required_n_for_efficiency(&g, 0.3, &ns, 3).unwrap();
        assert!(n > 150.0 && n < 650.0, "required N = {n}");
    }

    #[test]
    fn predicted_psi_is_in_unit_interval_for_ge_ladder() {
        let p = params();
        let configs = [2usize, 4, 8];
        let preds: Vec<GePredictor> =
            configs.iter().map(|&k| GePredictor::new(&sunwulf::ge_config(k), p)).collect();
        let ns: Vec<usize> = (1..=30).map(|i| i * 80).collect();
        let mut required = Vec::new();
        for g in &preds {
            required.push(required_n_for_efficiency(g, 0.3, &ns, 3).unwrap().round() as usize);
        }
        for w in 0..preds.len() - 1 {
            let psi =
                psi_predicted_corollary2(&preds[w], required[w], &preds[w + 1], required[w + 1]);
            assert!(psi > 0.0 && psi < 1.0, "step {w}: psi = {psi}");
        }
    }

    #[test]
    fn mm_predicts_higher_efficiency_than_ge_at_same_size() {
        // MM's overhead is O(N²) against O(N³) work; GE pays per
        // iteration. At matched N and similar C, MM should look better.
        let p = params();
        let ge = GePredictor::new(&sunwulf::ge_config(8), p);
        let mm = MmPredictor::new(&sunwulf::mm_config(8), p);
        let n = 400;
        let e_ge = ge.predicted_efficiency(n);
        let e_mm = mm.work(n) / (mm.predicted_time_secs(n) * mm.c_flops);
        assert!(e_mm > e_ge, "MM {e_mm} vs GE {e_ge}");
    }

    #[test]
    fn extension_predictors_have_sane_shapes() {
        let p = params();
        let cluster = sunwulf::ge_config(4);
        let st = StencilPredictor::new(&cluster, p, |n| n / 8);
        let pw = PowerPredictor::new(&cluster, p, |n| n / 4);
        // Efficiency rises with n for both.
        let eff =
            |t: &dyn AlgorithmSystem, n: usize| t.work(n) / (t.execute(n) * t.marked_speed_flops());
        assert!(eff(&st, 400) > eff(&st, 100));
        assert!(eff(&pw, 400) > eff(&pw, 100));
        // Stencil overhead is p-independent per sweep: an 8-node
        // predictor's per-sweep term equals the 4-node one's.
        let st8 = StencilPredictor::new(&sunwulf::ge_config(8), p, |n| n / 8);
        let sweeps = (400 / 8) as f64;
        let per_sweep_4 =
            (st.overhead_secs(400) - 2.0 * 3.0 * p.p2p_time(400.0 * 400.0 / 4.0)) / sweeps;
        let per_sweep_8 =
            (st8.overhead_secs(400) - 2.0 * 7.0 * p.p2p_time(400.0 * 400.0 / 8.0)) / sweeps;
        assert!((per_sweep_4 - per_sweep_8).abs() < 1e-12);
    }

    #[test]
    fn predictors_implement_algorithm_system() {
        let g = GePredictor::new(&sunwulf::ge_config(2), params());
        let m = g.measure(200);
        assert!(m.speed_efficiency() > 0.0 && m.speed_efficiency() < 1.0);
        assert!(g.label().contains("GE-predicted"));
    }
}

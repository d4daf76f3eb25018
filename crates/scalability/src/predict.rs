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
//! One [`Predictor`] serves every kernel: a [`Model`] supplies the
//! kernel's work `W(N)`, the flops rank 0 runs alone and `T_o(N)`, and
//! the predictor builds `T(N)` from them, from `C`, `p` and rank 0's
//! speed. It implements [`AlgorithmSystem`], so the same ladder machinery
//! that produces the *measured* tables produces the *predicted* ones —
//! the comparison in Table 7 is then apples to apples.

use crate::metric::AlgorithmSystem;
use crate::theorem::psi_corollary2;
use hetsim_cluster::calibrate::MachineParams;
use hetsim_cluster::cluster::ClusterSpec;

/// A kernel's analytic model: its work, its sequential portion and its
/// communication overhead on `p` processes.
#[derive(Debug, Clone, Copy)]
pub enum Model {
    /// The parallel GE of §4.1.1: distribution and collection, then per
    /// pivot iteration a broadcast of the shrinking pivot row and a
    /// barrier, with back substitution (~N² flops) at rank 0.
    Ge,
    /// The HoHe MM of §4.1.2 (an extension beyond the paper, which only
    /// predicts GE): `A` in proportional blocks, `B` whole to every peer
    /// and `C` collected, with no per-iteration communication.
    Mm,
    /// The halo-exchange Jacobi stencil (an extension workload):
    /// distribution and collection of the grid plus, per sweep, two
    /// neighbour exchanges whose cost is independent of `p`.
    Stencil {
        /// Sweeps per run as a function of the grid size.
        iters: fn(usize) -> usize,
    },
    /// The power iteration (an extension workload): matrix distribution
    /// plus, per sweep, a local matvec and an allgather of the iterate
    /// (gather to root + broadcast of the concatenation).
    Power {
        /// Sweeps per run as a function of the matrix size.
        iters: fn(usize) -> usize,
    },
}

impl Model {
    /// The kernel's name, as labels and tables print it.
    pub fn name(self) -> &'static str {
        match self {
            Model::Ge => "GE",
            Model::Mm => "MM",
            Model::Stencil { .. } => "Stencil",
            Model::Power { .. } => "Power",
        }
    }

    /// Work `W(N)` in flops (shared with the measured pipeline): GE
    /// `(2/3)N³ + (3/2)N²`, MM `2N³ − N²`, stencil `iters·4·(N−2)²`,
    /// power `iters·(2N² + 2N)`.
    fn work(self, n: usize) -> f64 {
        let nf = n as f64;
        match self {
            Model::Ge => (2.0 / 3.0) * nf * nf * nf + 1.5 * nf * nf,
            Model::Mm => 2.0 * nf * nf * nf - nf * nf,
            Model::Stencil { .. } if n < 3 => 0.0,
            Model::Stencil { iters } => iters(n) as f64 * 4.0 * ((n - 2) * (n - 2)) as f64,
            Model::Power { iters } => iters(n) as f64 * (2.0 * (n * n) as f64 + 2.0 * n as f64),
        }
    }

    /// The flops rank 0 runs alone: GE's back substitution (~N²); the
    /// other kernels are perfectly parallel.
    fn sequential_flops(self, n: usize) -> f64 {
        match self {
            Model::Ge => (n * n) as f64,
            _ => 0.0,
        }
    }

    /// The communication overhead model `T_o(N)` on `p` processes.
    fn overhead_secs(self, n: usize, p: usize, params: &MachineParams) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let (nf, pf, peers) = (n as f64, p as f64, (p - 1) as f64);
        match self {
            Model::Ge => {
                // One message each way per peer, ~N(N+1)/p elements each,
                // then per iteration bcast(p, N−i+1 elements): its latency
                // term plus the payload term over the average pivot length
                // (N+3)/2.
                let distribute = peers * params.p2p_time(nf * (nf + 1.0) / pf);
                let per_iter = params.bcast_time(p, (nf + 3.0) / 2.0) + params.barrier_time(p);
                distribute + distribute + nf * per_iter
            }
            Model::Mm => {
                // A-blocks out, B to every peer, C-blocks back.
                let blocks = peers * params.p2p_time(nf * nf / pf);
                blocks + params.bcast_time(p, nf * nf) + blocks
            }
            Model::Stencil { iters } => {
                // The grid out and back (proportional blocks,
                // root-serialized). The critical (interior) rank sends one
                // halo row per neighbour — two once p ≥ 3, one at p = 2 —
                // and its receives arrive while it is still sending, so
                // only the sends charge the clock.
                let distribute = peers * params.p2p_time(nf * nf / pf);
                let per_sweep = 2.0f64.min(peers) * params.p2p_time(nf);
                distribute + distribute + iters(n) as f64 * per_sweep
            }
            Model::Power { iters } => {
                // The matrix out, then per sweep the two-phase allgather:
                // a root-serialized gather of the slices and a broadcast
                // of the `N + p`-element concatenation.
                let distribute = peers * params.p2p_time(nf * nf / pf);
                let gather = peers * params.p2p_time(nf / pf);
                distribute + iters(n) as f64 * (gather + params.bcast_time(p, nf + pf))
            }
        }
    }
}

/// A kernel's analytic model on one configuration: `T(N)` from the
/// model, the system marked speed `C`, `p` and rank 0's speed.
#[derive(Debug, Clone)]
pub struct Predictor {
    /// The kernel's model.
    pub model: Model,
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

impl Predictor {
    /// Builds `model`'s predictor for a cluster from calibrated
    /// parameters.
    pub fn new(model: Model, cluster: &ClusterSpec, params: MachineParams) -> Predictor {
        Predictor {
            model,
            label: format!("{}-predicted on {}", model.name(), cluster.label),
            c_flops: cluster.marked_speed_flops(),
            p: cluster.size(),
            root_speed_flops: cluster.nodes()[0].marked_speed_flops(),
            params,
        }
    }

    /// The sequential-portion time `t₀(N)` at rank 0: for GE
    /// `α = t₀·C/W = O(1/N)`, vanishing for large `N` exactly as the
    /// paper argues; 0 for the other kernels.
    pub fn sequential_secs(&self, n: usize) -> f64 {
        self.model.sequential_flops(n) / self.root_speed_flops
    }

    /// The communication overhead `T_o(N)`.
    pub fn overhead_secs(&self, n: usize) -> f64 {
        self.model.overhead_secs(n, self.p, &self.params)
    }

    /// Predicted parallel time: the balanced rest of the work at `C`,
    /// the sequential portion at rank 0's speed, and the overhead.
    pub fn predicted_time_secs(&self, n: usize) -> f64 {
        let balanced = (self.work(n) - self.model.sequential_flops(n)).max(0.0) / self.c_flops;
        balanced + self.sequential_secs(n) + self.overhead_secs(n)
    }

    /// Predicted speed-efficiency at `n`.
    pub fn predicted_efficiency(&self, n: usize) -> f64 {
        self.work(n) / (self.predicted_time_secs(n) * self.c_flops)
    }
}

impl AlgorithmSystem for Predictor {
    fn label(&self) -> String {
        self.label.clone()
    }
    fn marked_speed_flops(&self) -> f64 {
        self.c_flops
    }
    fn work(&self, n: usize) -> f64 {
        self.model.work(n)
    }
    fn execute(&self, n: usize) -> f64 {
        self.predicted_time_secs(n)
    }
}

/// ψ between two predictions by Corollary 2 (α ≈ 0): the overhead
/// ratio at the respective required problem sizes — for GE, the exact
/// computation behind the paper's Table 7.
pub fn psi_predicted_corollary2(
    base: &Predictor,
    n: usize,
    scaled: &Predictor,
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
        let g2 = Predictor::new(Model::Ge, &sunwulf::ge_config(2), p);
        let g8 = Predictor::new(Model::Ge, &sunwulf::ge_config(8), p);
        assert!(g8.overhead_secs(300) > g2.overhead_secs(300));
        assert!(g2.overhead_secs(600) > g2.overhead_secs(300));
    }

    #[test]
    fn single_node_has_zero_overhead() {
        let mut g = Predictor::new(Model::Ge, &sunwulf::ge_config(2), params());
        g.p = 1;
        assert_eq!(g.overhead_secs(100), 0.0);
        let mut m = Predictor::new(Model::Mm, &sunwulf::mm_config(2), params());
        m.p = 1;
        assert_eq!(m.overhead_secs(100), 0.0);
    }

    #[test]
    fn predicted_efficiency_saturates_with_n() {
        let g = Predictor::new(Model::Ge, &sunwulf::ge_config(2), params());
        let e100 = g.predicted_efficiency(100);
        let e400 = g.predicted_efficiency(400);
        let e800 = g.predicted_efficiency(800);
        assert!(e100 < e400 && e400 < e800, "{e100} {e400} {e800}");
        assert!(e800 < 1.0);
    }

    #[test]
    fn sequential_fraction_vanishes_for_large_n() {
        // α = t0·C/W = O(1/N), the paper's argument for Corollary 2.
        let g = Predictor::new(Model::Ge, &sunwulf::ge_config(4), params());
        let alpha = |n: usize| g.sequential_secs(n) * g.c_flops / g.work(n);
        assert!(alpha(1000) < alpha(100));
        assert!(alpha(1000) < 0.01);
    }

    #[test]
    fn predictor_required_n_lands_in_papers_ballpark() {
        // Two-node GE at target E_s = 0.3: the paper reads N ≈ 310 off
        // its trend line. The reconstructed constants should land within
        // a factor-of-two band, not exactly (see EXPERIMENTS.md).
        let g = Predictor::new(Model::Ge, &sunwulf::ge_config(2), params());
        let ns: Vec<usize> = (1..=20).map(|i| i * 60).collect();
        let n = required_n_for_efficiency(&g, 0.3, &ns, 3).unwrap();
        assert!(n > 150.0 && n < 650.0, "required N = {n}");
    }

    #[test]
    fn predicted_psi_is_in_unit_interval_for_ge_ladder() {
        let p = params();
        let configs = [2usize, 4, 8];
        let preds: Vec<Predictor> =
            configs.iter().map(|&k| Predictor::new(Model::Ge, &sunwulf::ge_config(k), p)).collect();
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
        let ge = Predictor::new(Model::Ge, &sunwulf::ge_config(8), p);
        let mm = Predictor::new(Model::Mm, &sunwulf::mm_config(8), p);
        let n = 400;
        let e_ge = ge.predicted_efficiency(n);
        let e_mm = mm.predicted_efficiency(n);
        assert!(e_mm > e_ge, "MM {e_mm} vs GE {e_ge}");
    }

    #[test]
    fn extension_predictors_have_sane_shapes() {
        let p = params();
        let cluster = sunwulf::ge_config(4);
        let stencil = Model::Stencil { iters: |n| n / 8 };
        let st = Predictor::new(stencil, &cluster, p);
        let pw = Predictor::new(Model::Power { iters: |n| n / 4 }, &cluster, p);
        // Efficiency rises with n for both.
        let eff =
            |t: &dyn AlgorithmSystem, n: usize| t.work(n) / (t.execute(n) * t.marked_speed_flops());
        assert!(eff(&st, 400) > eff(&st, 100));
        assert!(eff(&pw, 400) > eff(&pw, 100));
        // Stencil overhead is p-independent per sweep: an 8-node
        // predictor's per-sweep term equals the 4-node one's.
        let st8 = Predictor::new(stencil, &sunwulf::ge_config(8), p);
        let sweeps = (400 / 8) as f64;
        let per_sweep_4 =
            (st.overhead_secs(400) - 2.0 * 3.0 * p.p2p_time(400.0 * 400.0 / 4.0)) / sweeps;
        let per_sweep_8 =
            (st8.overhead_secs(400) - 2.0 * 7.0 * p.p2p_time(400.0 * 400.0 / 8.0)) / sweeps;
        assert!((per_sweep_4 - per_sweep_8).abs() < 1e-12);
    }

    /// 64-bit FNV-1a over `bytes`, continuing from `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn predictor_bits_are_pinned() {
        // Every model's work, overhead, sequential and predicted time,
        // bit for bit, over two calibrations, 1-, 2- and 8-rank clusters
        // and sizes from the empty problem up: one digest, so a
        // reordered float operation in any formula shows.
        let calibrations = [params(), calibrate(&sunwulf::sunwulf_network()).unwrap()];
        let clusters = [
            ClusterSpec::homogeneous(1, 450.0),
            sunwulf::ge_config(2),
            sunwulf::ge_config(8),
            sunwulf::mm_config(8),
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for machine in calibrations {
            for cluster in &clusters {
                let predictors = [
                    Model::Ge,
                    Model::Mm,
                    Model::Stencil { iters: |n| 1 + n / 8 },
                    Model::Power { iters: |n| 1 + n / 4 },
                ]
                .map(|model| Predictor::new(model, cluster, machine));
                for n in [0, 2, 3, 64, 1024] {
                    for pred in &predictors {
                        for v in [
                            pred.work(n),
                            pred.overhead_secs(n),
                            pred.sequential_secs(n),
                            pred.predicted_time_secs(n),
                        ] {
                            digest = fnv1a(digest, &v.to_bits().to_le_bytes());
                        }
                    }
                }
                for pred in &predictors {
                    digest = fnv1a(digest, pred.label.as_bytes());
                }
            }
        }
        assert_eq!(digest, 0xdc00_f4e4_8c5d_aa14, "{digest:#018x}");
    }

    #[test]
    fn predictors_implement_algorithm_system() {
        let g = Predictor::new(Model::Ge, &sunwulf::ge_config(2), params());
        let m = g.measure(200);
        assert!(m.speed_efficiency() > 0.0 && m.speed_efficiency() < 1.0);
        assert!(g.label().contains("GE-predicted"));
    }
}

//! # scalability — isospeed-efficiency scalability of heterogeneous computing
//!
//! This crate is the reproduction's core: the metric proposed by
//! Xian-He Sun, Yong Chen and Ming Wu, *"Scalability of Heterogeneous
//! Computing"* (ICPP 2005), together with its theory, its measurement
//! and prediction methodologies, and the prior metrics it is compared
//! against.
//!
//! ## The metric in four definitions
//!
//! 1. **Marked speed of a node** `Cᵢ` — a benchmarked sustained speed,
//!    constant once measured (crate [`marked_speed`](../marked_speed)).
//! 2. **Marked speed of a system** `C = Σ Cᵢ`
//!    ([`hetsim_cluster::ClusterSpec::marked_speed_flops`]).
//! 3. **Speed-efficiency** `E_s = S / C = W / (T·C)` — achieved speed
//!    over marked speed ([`measure::speed_efficiency`]).
//! 4. **Isospeed-efficiency scalability** — an algorithm–system
//!    combination is scalable if `E_s` can be held constant as the
//!    system grows, by growing the problem. Quantitatively
//!    ([`function::isospeed_efficiency_scalability`]):
//!
//!    ```text
//!    ψ(C, C') = (C'·W) / (C·W')
//!    ```
//!
//!    where `W'` is the work that restores the original `E_s` on the
//!    scaled system `C'`. Ideally `W' = C'·W/C` and `ψ = 1`; in practice
//!    `W' > C'·W/C` and `ψ < 1`.
//!
//! In a homogeneous system (`C = p·Cᵢ`) the function degenerates to
//! Sun & Rover's isospeed scalability `ψ(p, p') = (p'·W)/(p·W')` — a
//! property the tests pin down.
//!
//! ## Theory ([`theorem`])
//!
//! **Theorem 1.** For a load-balanced algorithm with sequential-portion
//! time `t₀` and communication overhead `T_o`,
//! `ψ(C, C') = (t₀ + T_o) / (t₀' + T_o')`.
//! **Corollary 1.** Perfectly parallel + constant overhead ⇒ `ψ ≡ 1`.
//! **Corollary 2.** Perfectly parallel ⇒ `ψ = T_o / T_o'`.
//!
//! ## Methodologies
//!
//! * **Measurement** ([`metric`]): sweep problem sizes on each
//!   configuration, fit a polynomial trend line to the `(N, E_s)`
//!   samples, invert it to find the `N` achieving the target efficiency,
//!   then evaluate ψ between configurations — exactly the paper's §4.4.
//! * **Prediction** ([`predict`]): calibrate machine parameters
//!   (`T_send`, `T_bcast`, `T_barrier`), build the algorithm's overhead
//!   model, solve the isospeed-efficiency condition for the required
//!   `N'`, and apply Theorem 1 — exactly the paper's §4.5.
//!
//! ## Baselines ([`baselines`])
//!
//! The related work the paper positions against: Sun–Rover isospeed,
//! Kumar et al. isoefficiency, Jogalekar–Woodside productivity-based
//! scalability, and the Pastor–Bosque heterogeneous efficiency model.
//!
//! ## Extension ([`marked_performance`])
//!
//! The paper's future-work direction: a multi-parameter *marked
//! performance* vector replacing the single marked-speed scalar.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod baselines;
pub mod execution_time;
pub mod function;
pub mod marked_performance;
pub mod measure;
pub mod metric;
pub mod predict;
pub mod report;
pub mod theorem;

pub use function::isospeed_efficiency_scalability;
pub use measure::{achieved_speed, speed_efficiency, Measurement};
pub use metric::{
    required_n_for_efficiency, AlgorithmSystem, EfficiencyCurve, FnAlgorithm, LadderStep,
    ScalabilityLadder,
};
pub use theorem::{psi_corollary2, psi_theorem1, scaled_work_from_condition};

//! # hetscale — umbrella crate for the isospeed-efficiency reproduction
//!
//! Re-exports the workspace crates so examples and integration tests can
//! depend on a single package. See the individual crates for full
//! documentation:
//!
//! * [`scalability`] — the paper's contribution: marked speed,
//!   speed-efficiency, isospeed-efficiency scalability, prediction, and
//!   baseline metrics.
//! * [`hetsim_cluster`] — heterogeneous cluster models: nodes,
//!   networks, faults, virtual time.
//! * [`hetsim_mpi`] — SPMD message-passing runtime with virtual time.
//! * [`hetsim_obs`] — observability: deterministic metrics registry,
//!   Chrome-trace/JSONL export, critical-path and imbalance analysis.
//! * [`hetpart`] — heterogeneous data-distribution strategies and
//!   static vs dynamic self-scheduling.
//! * [`kernels`] — Gaussian elimination and matrix multiplication,
//!   sequential and parallel.
//! * [`marked_speed`] — per-node benchmarked marked-speed measurement.
//! * [`numfit`] — polynomial fitting, inversion, statistics.

pub use hetpart;
pub use hetsim_cluster;
pub use hetsim_mpi;
pub use hetsim_obs;
pub use kernels;
pub use marked_speed;
pub use numfit;
pub use scalability;

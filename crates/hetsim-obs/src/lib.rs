//! # hetsim-obs — observability for the virtual-time SPMD runtime
//!
//! The paper explains scalability through aggregate quantities (`T_c`,
//! `T_o`, ψ); this crate makes the *mechanism* behind those aggregates
//! inspectable without giving up the workspace's core invariant:
//! everything is keyed to **virtual** time, so every metric, trace file,
//! and analysis result is a pure function of marked speeds, payload
//! sizes, and the network model — bit-identical across runs and thread
//! schedules.
//!
//! Three layers:
//!
//! * [`metrics`] — [`MetricsSnapshot::from_traces`] aggregates the spans
//!   of a traced run (`RunSpec { trace: true, .. }`) into counters,
//!   gauges, and fixed-bucket duration histograms keyed by
//!   `(rank, OpKind)`.
//! * [`export`] — byte-stable trace serialization:
//!   [`chrome_trace_json`] for `chrome://tracing`/Perfetto, and
//!   [`trace_jsonl`]/[`parse_trace_jsonl`] for lossless archive and
//!   re-analysis.
//! * [`analysis`] — [`critical_path`] extraction (the dependency chain
//!   that decides the makespan), [`rank_activity`] (compute vs. engaged
//!   transfer vs. idle-wait per rank), and the [`load_imbalance`]
//!   ratio `max(T_rank) / mean(T_rank)`.
//!
//! ## Example
//!
//! ```
//! use hetsim_cluster::{ClusterSpec, SharedEthernet};
//! use hetsim_mpi::{run_spmd, RunSpec};
//! use hetsim_obs::{critical_path, MetricsSnapshot};
//!
//! let cluster = ClusterSpec::homogeneous(4, 50.0);
//! let net = SharedEthernet::new(0.3e-3, 12.5e6);
//! let spec = RunSpec { trace: true, faults: None };
//! let outcome = run_spmd(&cluster, &net, spec, |rank| {
//!     rank.compute_flops(1e6 * (rank.rank() + 1) as f64);
//!     rank.barrier();
//! });
//! let fractions = MetricsSnapshot::from_traces(&outcome.traces).fractions();
//! let total: f64 = fractions.values().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! let path = critical_path(&outcome.traces);
//! assert!((path.coverage() - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod export;
pub mod json;
pub mod metrics;
pub mod telemetry;

pub use analysis::{
    critical_path, load_imbalance, rank_activity, CriticalPath, CriticalStep, RankActivity,
};
pub use export::{chrome_trace_json, parse_trace_jsonl, trace_jsonl};
pub use json::Json;
pub use metrics::{
    bucket_index, bucket_label, KindStats, MetricsSnapshot, RankSnapshot, HISTOGRAM_BUCKETS,
};
pub use telemetry::{MemoKernelStats, PoolStats, TelemetryReport};

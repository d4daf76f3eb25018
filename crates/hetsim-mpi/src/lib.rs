//! # hetsim-mpi — SPMD message-passing runtime with virtual time
//!
//! The paper's experiments are MPICH programs running on a heterogeneous
//! cluster. This crate is the from-scratch substitute: an MPI-subset
//! runtime whose processes ("ranks") run as real OS threads exchanging
//! typed messages in-process, while *time* is simulated. Each rank owns a
//! virtual clock; computation advances it by `work / marked_speed` of the
//! node the rank is placed on, and communication advances it by the cost
//! the cluster's [`NetworkModel`] assigns. Heterogeneity therefore enters
//! exactly where the paper's formalism puts it: through per-node marked
//! speeds and through communication overhead.
//!
//! ## Virtual-time semantics
//!
//! The runtime is *conservative*: every operation's cost is a pure
//! function of the participating ranks' entry clocks, the payload size,
//! and the cost model, so measured execution times are bit-identical
//! across runs and thread schedules (OS scheduling can reorder real
//! execution but never affects virtual timestamps).
//!
//! * `compute(flops)` — clock += `flops / speed`.
//! * `send` — the sender occupies the wire: clock += `p2p_time(bytes)`;
//!   the message is stamped with its arrival time (the sender's clock
//!   after the send completes).
//! * `recv` — blocks until a matching message exists, then clock =
//!   `max(clock, arrival)`. In traces, time spent blocked before the
//!   sender even started transmitting is split off as an idle-wait span
//!   ([`OpKind::Wait`]); the clock math is unchanged.
//! * `barrier` — all ranks leave with clock `max(entry clocks) +
//!   barrier_time(p)`; time up to the rendezvous (`max(entry clocks)`)
//!   is traced as idle-wait.
//! * `broadcast` — the root leaves at `root_entry + bcast_time(p, bytes)`;
//!   every receiver leaves at `max(own entry, root departure)`.
//! * `gather`/`reduce` — the root leaves at `max(all entries) +
//!   gather_time(sizes)`; each contributor leaves at `entry +
//!   p2p_time(own bytes)` (it blocks only for its own transfer).
//! * `scatter` — mirror image of gather.
//!
//! These are the same linear per-message/per-collective cost shapes the
//! paper calibrates on Sunwulf (§4.5); see
//! [`hetsim_cluster::network`] for the concrete models.
//!
//! ## Faults
//!
//! Every run takes a [`RunSpec`]: `trace` records per-rank spans, and
//! `faults` attaches a deterministic [`hetsim_cluster::faults::FaultPlan`]
//! — degraded-speed windows stretch `compute` piecewise, and a seeded
//! lossy-link schedule charges retry/timeout/backoff time before
//! affected sends (traced as [`OpKind::Retry`]). Virtual times stay pure
//! functions of (cluster, network, plan) — an empty plan is bit-identical
//! to `RunSpec::default()`, and declared node deaths must be resolved
//! into a surviving cluster before launch
//! ([`hetsim_cluster::faults::FaultPlan::surviving_cluster`]).
//!
//! ## Example
//!
//! ```
//! use hetsim_cluster::{ClusterSpec, SharedEthernet};
//! use hetsim_mpi::{run_spmd, RunSpec};
//!
//! let cluster = ClusterSpec::homogeneous(4, 50.0);
//! let net = SharedEthernet::new(0.3e-3, 12.5e6);
//! let outcome = run_spmd(&cluster, &net, RunSpec::default(), |rank| {
//!     // Every rank performs 1 Mflop, then all synchronize.
//!     rank.compute_flops(1e6);
//!     rank.barrier();
//!     rank.clock().as_secs()
//! });
//! // All ranks leave the barrier at the same virtual time.
//! assert!(outcome.results.iter().all(|&t| t == outcome.results[0]));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod collectives;
pub mod context;
pub mod engine;
pub mod message;
pub mod runtime;
pub mod telemetry;
pub mod trace;

pub use context::Rank;
pub use engine::{
    analytic_enabled, record_spmd, run_spmd_fast, set_analytic_enabled, AggregateOutcome,
    RecordTimer, SpmdProgram, SpmdTimer,
};
pub use message::Tag;
pub use runtime::{run_spmd, RunSpec, SpmdOutcome};
pub use telemetry::{EngineTelemetry, FallbackReason};
pub use trace::{timeline_text, KindTotals, OpKind, OverheadBreakdown, RankTrace, TraceRecord};

// Re-exported for doc links and downstream convenience.
pub use hetsim_cluster::network::NetworkModel;

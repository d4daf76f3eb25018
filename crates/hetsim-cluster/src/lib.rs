//! # hetsim-cluster — heterogeneous cluster substrate
//!
//! The ICPP 2005 isospeed-efficiency paper evaluates on *Sunwulf*, a
//! physical heterogeneous cluster (one 4-CPU SunFire server, 64 SunBlade
//! nodes, 20 dual-CPU SunFire V210 nodes on 100 Mb Ethernet). This crate
//! is the substitute substrate: an explicit, deterministic model of such
//! a cluster that the message-passing runtime ([`hetsim_mpi`]) and the
//! experiment harness execute against.
//!
//! [`hetsim_mpi`]: ../hetsim_mpi/index.html
//!
//! It is a machine model with no simulator in it: it prices compute and
//! messages, and the runtime advances the clocks. It provides four
//! layers:
//!
//! * [`time`] — virtual time ([`time::SimTime`]): a totally ordered,
//!   non-negative simulated clock in seconds.
//! * [`node`] / [`cluster`] — machine specifications: per-node *marked
//!   speed* (Definition 1 of the paper), CPU counts, memory; cluster
//!   compositions including the reconstructed Sunwulf ladders used by the
//!   paper's GE and MM experiments.
//! * [`network`] — analytic communication cost models (constant-latency,
//!   switched latency+bandwidth, shared-Ethernet with serialization),
//!   behind one [`network::NetworkModel`] trait. These give deterministic
//!   costs to the SPMD runtime.
//! * [`faults`] — deterministic, seed-driven fault plans: one straggler
//!   speed multiplier per rank, lossy links with retry/timeout/backoff
//!   charges, declared deaths resolved into a surviving cluster before
//!   launch, and MTBF death streams for mid-run recovery.
//!
//! ## Determinism
//!
//! Everything here is pure arithmetic over `f64`: given the same cluster
//! and the same program, costs are bit-identical across runs and thread
//! schedules. That property is what makes the reproduced tables stable.

//! ## Example
//!
//! ```
//! use hetsim_cluster::{sunwulf, NetworkModel};
//!
//! // The paper's two-node GE configuration and its interconnect.
//! let cluster = sunwulf::ge_config(2);
//! assert_eq!(cluster.marked_speed_mflops(), 140.0);
//! let net = sunwulf::sunwulf_network();
//! assert!(net.bcast_time(2, 800) > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod calibrate;
pub mod classed;
pub mod cluster;
pub mod faults;
pub mod flrepeat;
pub mod memory;
pub mod network;
pub mod node;
pub mod sunwulf;
pub mod time;
pub mod topology;

pub use classed::{ClassedCluster, SpeedClass};
pub use cluster::ClusterSpec;
pub use faults::{FaultError, FaultPlan, RetryCharge, RetryPolicy};
pub use flrepeat::{lanes, repeat_add, LANES};
pub use network::{
    ConstantLatency, JitteredNetwork, MpichEthernet, NetworkModel, SharedEthernet, SwitchedNetwork,
};
pub use node::{NodeKind, NodeSpec};
pub use time::SimTime;
pub use topology::SegmentedNetwork;

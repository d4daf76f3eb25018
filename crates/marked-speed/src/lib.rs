//! # marked-speed — benchmarked sustained node speed (Definition 1)
//!
//! The paper defines the *marked speed* of a node as a **benchmarked**
//! sustained speed, measured once (with NPB kernels such as LU, FT and
//! BT on Sunwulf) and treated as a constant thereafter. This crate
//! reproduces that protocol with three NPB-flavoured micro-kernels
//! implemented from scratch, each with an exact flop count:
//!
//! * **LU** — dense LU factorization without pivoting (`~⅔·n³` flops),
//!   the compute profile of NPB-LU.
//! * **FT** — an iterative radix-2 complex FFT (`~5·n·log₂n` flops),
//!   the compute profile of NPB-FT.
//! * **BT** — repeated tridiagonal (Thomas) solves (`~8·n` flops per
//!   sweep), standing in for NPB-BT's banded solver character.
//!
//! Two rating paths:
//!
//! * [`host::rate_host`] runs the kernels for real and measures
//!   wall-clock Mflop/s — rating the machine the code actually runs on
//!   (how one would produce marked speeds for a genuine heterogeneous
//!   set of hosts).
//! * [`noderate::rate_node`] rates a *modeled* node and runs no kernel:
//!   each kernel is rated at the node's nominal speed × a
//!   kernel-specific efficiency (real benchmarks never hit one number
//!   exactly), and the suite average is reported as the marked speed —
//!   regenerating the paper's Table 1 for the reconstructed Sunwulf
//!   nodes.

//! ## Example
//!
//! ```
//! use hetsim_cluster::NodeSpec;
//! use marked_speed::rate_node;
//!
//! let rating = rate_node(&NodeSpec::synthetic("node", 50.0));
//! // The suite average recovers the node's nominal speed.
//! assert!((rating.marked_speed_mflops - 50.0).abs() < 1e-6);
//! assert_eq!(rating.per_kernel.len(), 3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod host;
pub mod kernels;
pub mod noderate;

pub use host::{rate_host, HostRating};
pub use kernels::{BenchKernel, KernelRun};
pub use noderate::{rate_node, NodeRating};

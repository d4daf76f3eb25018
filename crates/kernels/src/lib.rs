//! # kernels — the paper's two workloads, from scratch
//!
//! The evaluation section of the paper runs two classical dense
//! linear-algebra algorithms on the Sunwulf cluster:
//!
//! * **Gaussian elimination (GE)** — solves `Ax = b` in two stages
//!   (elimination to upper-triangular form, then back substitution).
//!   The parallel version distributes rows with a heterogeneous cyclic
//!   pattern, broadcasts the pivot row each iteration, synchronizes per
//!   iteration, and performs back substitution sequentially at rank 0 —
//!   giving it a sequential fraction and per-iteration communication.
//! * **Matrix multiplication (MM)** — `C = A·B` under the *HoHe*
//!   strategy: `A` is distributed as speed-proportional row blocks, `B`
//!   is broadcast, blocks are multiplied locally, `C` is gathered.
//!   Communication happens only at distribution and collection.
//!
//! Two further combinations extend the paper's pair across the
//! communication-structure spectrum (see the `x2` experiment):
//!
//! * **Jacobi stencil** — halo exchange only; per-iteration
//!   communication independent of the process count.
//! * **Power iteration** — one allgather per sweep; per-iteration
//!   communication that grows with the process count, but without GE's
//!   barrier.
//!
//! Both kernels exist in a sequential reference form (used for
//! correctness oracles) and a parallel SPMD form running on
//! [`hetsim_mpi`]. The parallel forms *execute the real arithmetic* and
//! charge the same operations to the virtual clock, so results are
//! verifiable and timings deterministic.
//!
//! [`workload`] holds the paper's work polynomials `W(N)` used by the
//! scalability metric (work is an algorithm property, independent of the
//! machine).

//! ## Example
//!
//! ```
//! use hetsim_cluster::{ClusterSpec, MpichEthernet};
//! use kernels::matrix::Matrix;
//! use kernels::ge::ge_parallel;
//!
//! let cluster = ClusterSpec::homogeneous(3, 50.0);
//! let net = MpichEthernet::new(0.3e-3, 1e8);
//! let a = Matrix::random_diagonally_dominant(16, 7);
//! let b = a.matvec(&vec![1.0; 16]);
//! let out = ge_parallel(&cluster, &net, &a, &b);
//! assert!(kernels::matrix::residual_inf_norm(&a, &out.x, &b) < 1e-9);
//! assert!(out.makespan.as_secs() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analytic;
pub mod ge;
pub mod matrix;
pub mod mega;
pub mod mm;
pub mod power;
pub mod recover;
pub mod stencil;
pub mod workload;

pub use analytic::{
    ge_closed_form, ge_closed_form_many, mm_closed_form, power_closed_form, stencil_closed_form,
};
pub use ge::{
    ge_parallel, ge_parallel_timed, ge_parallel_timed_recoverable, ge_sequential, GeOutcome,
    TimingOutcome,
};
pub use matrix::Matrix;
pub use mega::{ge_mega, ge_mega_with, mm_mega, power_mega, MegaOutcome};
pub use mm::{
    mm_parallel, mm_parallel_timed, mm_parallel_timed_recoverable, mm_sequential, MmOutcome,
};
pub use power::{power_parallel, power_parallel_timed, power_sequential, power_work, PowerOutcome};
pub use recover::{DeathEvent, RecoveryOutcome, RecoveryOverhead};
pub use stencil::{
    jacobi_sequential, stencil_parallel, stencil_parallel_timed, stencil_work, StencilOutcome,
};
pub use workload::{ge_work, mm_work};

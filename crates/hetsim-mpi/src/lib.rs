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
//! * `gather` — the root leaves at `max(all entries) +
//!   gather_time(sizes)`; each contributor leaves at `entry +
//!   p2p_time(own bytes)` (it blocks only for its own transfer).
//! * `allgather` — a gather to rank 0, then a broadcast of the
//!   concatenation.
//!
//! These are the same linear per-message/per-collective cost shapes the
//! paper calibrates on Sunwulf (§4.5); see
//! [`hetsim_cluster::network`] for the concrete models.
//!
//! ## Faults
//!
//! Every run takes a [`RunSpec`]: `trace` records per-rank spans, and
//! `faults` attaches a deterministic [`hetsim_cluster::faults::FaultPlan`]
//! — a straggler rank prices every `compute` at its marked speed times
//! the plan's multiplier, read once when the rank is built, and a
//! seeded lossy-link schedule charges retry/timeout/backoff time before
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex` even when an earlier holder panicked. A rank that
/// panics inside a mailbox or the collective hub (a protocol bug)
/// poisons the lock; taking it anyway keeps the other ranks from
/// panicking in turn, so the panic [`run_spmd`] propagates is the bug's.
/// The data is sound to take: every mailbox and hub update checks its
/// preconditions before it writes, so none panics halfway.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panic payload of a rank that stopped waiting because a peer
/// panicked: [`run_spmd`] propagates the peer's own panic instead.
pub(crate) struct PeerPanicked;

/// Blocks on `cond` while `condition` holds, past poisoning as [`lock`]
/// takes it. `Condvar::wait_while` will not do: it returns at the first
/// wake-up that finds the lock poisoned, without checking `condition`.
///
/// `aborted` is set, under the same lock, when a peer rank panics (see
/// [`abort`]); the wait then unwinds with a [`PeerPanicked`] payload
/// instead of blocking on a peer that will never arrive.
pub(crate) fn wait_while<'a, T>(
    cond: &Condvar,
    mut guard: MutexGuard<'a, T>,
    aborted: &AtomicBool,
    mut condition: impl FnMut(&T) -> bool,
) -> MutexGuard<'a, T> {
    while condition(&guard) {
        if aborted.load(Ordering::Relaxed) {
            drop(guard);
            std::panic::resume_unwind(Box::new(PeerPanicked));
        }
        guard = cond.wait(guard).unwrap_or_else(PoisonError::into_inner);
    }
    guard
}

/// Sets `aborted` and wakes every waiter on `cond`, holding `mutex` so
/// that no waiter checks the flag and then misses the wake-up.
pub(crate) fn abort<T>(mutex: &Mutex<T>, cond: &Condvar, aborted: &AtomicBool) {
    let _held = lock(mutex);
    // Stored and loaded only under `mutex`, which orders it: Relaxed.
    aborted.store(true, Ordering::Relaxed);
    cond.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn wait_while_rechecks_after_a_poisoned_wake_up() {
        let (state, cond, checks) = (Mutex::new(0u32), Condvar::new(), AtomicU32::new(0));
        let bug = std::panic::catch_unwind(|| {
            let _held = lock(&state);
            panic!("protocol bug while holding the lock");
        });
        assert!(bug.is_err() && state.is_poisoned());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                *wait_while(&cond, lock(&state), &AtomicBool::new(false), |&v| {
                    checks.fetch_add(1, Ordering::SeqCst);
                    v < 2
                })
            });
            // The waiter checks and starts waiting under one hold of the
            // lock, so once its count moves, taking the lock finds it waiting.
            for value in 1..=2 {
                while checks.load(Ordering::SeqCst) < value && !waiter.is_finished() {
                    std::thread::yield_now();
                }
                *lock(&state) = value;
                cond.notify_all();
            }
            assert_eq!(waiter.join().unwrap(), 2);
        });
    }
}

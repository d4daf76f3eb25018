//! Synchronization hub for collective operations.
//!
//! SPMD programs must invoke collectives in the same order on every rank
//! (as in MPI). Each collective call consumes one slot id from the rank's
//! local sequence counter; ranks rendezvous on the slot. The hub itself
//! is pure synchronization — virtual-time arithmetic stays in
//! [`crate::context`], which keeps the cost model in exactly one place.
//!
//! Collective payloads travel as `Vec<f64>` element vectors rather than
//! encoded byte buffers: the wire size is always `8 × len` bytes, so
//! the cost model needs only the element count, and skipping the
//! encode/decode round-trip removes two full copies per contribution.

use crate::{lock, wait_while};
use hetsim_cluster::time::SimTime;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Condvar, Mutex};

/// One in-flight collective. The variant doubles as a misuse check: two
/// ranks disagreeing on the sequence of collective types is a program
/// bug and panics with a diagnostic.
#[derive(Debug)]
enum Slot {
    Barrier { entries: Vec<Option<SimTime>>, result: Option<SimTime>, reads: usize },
    Gather { deposits: Vec<Option<(SimTime, Vec<f64>)>>, count: usize },
    Bcast { deposit: Option<(SimTime, Vec<f64>)>, reads: usize },
}

/// Rendezvous point shared by all ranks of one SPMD run.
pub struct CollectiveHub {
    p: usize,
    slots: Mutex<HashMap<u64, Slot>>,
    cond: Condvar,
    aborted: AtomicBool,
}

impl CollectiveHub {
    /// Creates a hub for `p` ranks.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "hub needs at least one rank");
        CollectiveHub {
            p,
            slots: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
            aborted: AtomicBool::new(false),
        }
    }

    /// Barrier rendezvous: deposits this rank's entry clock and blocks
    /// until all `p` ranks have arrived; returns the rendezvous time
    /// `max(entry clocks)`. The caller adds the barrier's network cost
    /// itself (a pure function of `p` on the shared network model), so
    /// the wait-for-stragglers span and the barrier proper stay
    /// separately attributable.
    pub fn barrier(&self, op: u64, rank: usize, entry: SimTime) -> SimTime {
        let mut slots = lock(&self.slots);
        let slot = slots.entry(op).or_insert_with(|| Slot::Barrier {
            entries: vec![None; self.p],
            result: None,
            reads: 0,
        });
        let Slot::Barrier { entries, result, .. } = slot else {
            panic!("collective sequence mismatch: op {op} is not a barrier");
        };
        assert!(entries[rank].is_none(), "rank {rank} entered barrier {op} twice");
        entries[rank] = Some(entry);
        if entries.iter().all(|e| e.is_some()) {
            let max_entry = entries.iter().map(|e| e.expect("all present")).max().unwrap();
            *result = Some(max_entry);
            self.cond.notify_all();
        }
        // Wait for the result, then count reads and clean up after the
        // last reader.
        let mut slots =
            wait_while(&self.cond, slots, &self.aborted, |slots| match slots.get(&op) {
                Some(Slot::Barrier { result, .. }) => result.is_none(),
                _ => unreachable!("barrier slot vanished before all ranks read it"),
            });
        let Some(Slot::Barrier { result: Some(out), reads, .. }) = slots.get_mut(&op) else {
            unreachable!("the wait returns on a barrier with a result")
        };
        let out = *out;
        *reads += 1;
        if *reads == self.p {
            slots.remove(&op);
        }
        out
    }

    /// Deposits one rank's gather contribution (entry clock + payload).
    pub fn gather_deposit(&self, op: u64, rank: usize, entry: SimTime, payload: Vec<f64>) {
        let mut slots = lock(&self.slots);
        let slot = slots
            .entry(op)
            .or_insert_with(|| Slot::Gather { deposits: vec![None; self.p], count: 0 });
        let Slot::Gather { deposits, count } = slot else {
            panic!("collective sequence mismatch: op {op} is not a gather");
        };
        assert!(deposits[rank].is_none(), "rank {rank} deposited twice into gather {op}");
        deposits[rank] = Some((entry, payload));
        *count += 1;
        if *count == self.p {
            self.cond.notify_all();
        }
    }

    /// Root side of a gather: blocks until all `p` deposits are present
    /// and returns them indexed by rank. Consumes the slot.
    pub fn gather_collect(&self, op: u64) -> Vec<(SimTime, Vec<f64>)> {
        let mut slots =
            wait_while(&self.cond, lock(&self.slots), &self.aborted, |slots| {
                match slots.get(&op) {
                    Some(Slot::Gather { count, .. }) => *count < self.p,
                    None => true,
                    Some(_) => panic!("collective sequence mismatch: op {op} is not a gather"),
                }
            });
        let Some(Slot::Gather { deposits, .. }) = slots.remove(&op) else {
            unreachable!("the wait returns on a full gather")
        };
        deposits.into_iter().map(|d| d.expect("count == p")).collect()
    }

    /// Root side of a broadcast: publishes the payload and the root's
    /// departure time.
    pub fn bcast_deposit(&self, op: u64, departure: SimTime, payload: Vec<f64>) {
        let mut slots = lock(&self.slots);
        let slot = slots.entry(op).or_insert_with(|| Slot::Bcast { deposit: None, reads: 0 });
        let Slot::Bcast { deposit, .. } = slot else {
            panic!("collective sequence mismatch: op {op} is not a bcast");
        };
        assert!(deposit.is_none(), "two roots deposited into bcast {op}");
        *deposit = Some((departure, payload));
        self.cond.notify_all();
        // If p == 1 nobody will read the slot; drop it now.
        if self.p == 1 {
            slots.remove(&op);
        }
    }

    /// Receiver side of a broadcast: blocks for the root's deposit and
    /// returns (root departure, payload). The last of the `p − 1`
    /// receivers frees the slot.
    pub fn bcast_wait(&self, op: u64) -> (SimTime, Vec<f64>) {
        let mut slots =
            wait_while(&self.cond, lock(&self.slots), &self.aborted, |slots| {
                match slots.get(&op) {
                    Some(Slot::Bcast { deposit, .. }) => deposit.is_none(),
                    None => true,
                    Some(_) => panic!("collective sequence mismatch: op {op} is not a bcast"),
                }
            });
        let Some(Slot::Bcast { deposit: Some((t, payload)), reads }) = slots.get_mut(&op) else {
            unreachable!("the wait returns on a deposited bcast")
        };
        let out = (*t, payload.clone());
        *reads += 1;
        if *reads == self.p - 1 {
            slots.remove(&op);
        }
        out
    }

    /// Wakes every rank blocked here, and any that blocks later, to
    /// unwind: a peer rank panicked and may never arrive.
    pub(crate) fn abort(&self) {
        crate::abort(&self.slots, &self.cond, &self.aborted);
    }

    /// Number of live slots (diagnostics; zero after a clean run).
    pub fn live_slots(&self) -> usize {
        lock(&self.slots).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn barrier_returns_max_entry() {
        let hub = Arc::new(CollectiveHub::new(3));
        let entries = [1.0, 5.0, 3.0];
        let handles: Vec<_> = entries
            .iter()
            .enumerate()
            .map(|(r, &e)| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || hub.barrier(0, r, t(e)))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), t(5.0));
        }
        assert_eq!(hub.live_slots(), 0);
    }

    #[test]
    fn consecutive_barriers_use_distinct_ops() {
        let hub = Arc::new(CollectiveHub::new(2));
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    let a = hub.barrier(0, r, t(r as f64));
                    let b = hub.barrier(1, r, a + t(0.1));
                    (a, b)
                })
            })
            .collect();
        for h in handles {
            let (a, b) = h.join().unwrap();
            assert_eq!(a, t(1.0));
            assert!((b.as_secs() - 1.1).abs() < 1e-12, "b = {b:?}");
        }
        assert_eq!(hub.live_slots(), 0);
    }

    #[test]
    fn gather_collects_all_deposits_by_rank() {
        let hub = Arc::new(CollectiveHub::new(3));
        for r in 1..3usize {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                hub.gather_deposit(7, r, t(r as f64), vec![r as f64]);
            });
        }
        hub.gather_deposit(7, 0, t(0.0), vec![0.0]);
        let deposits = hub.gather_collect(7);
        assert_eq!(deposits.len(), 3);
        for (r, (entry, payload)) in deposits.iter().enumerate() {
            assert_eq!(*entry, t(r as f64));
            assert_eq!(payload, &vec![r as f64]);
        }
        assert_eq!(hub.live_slots(), 0);
    }

    #[test]
    fn bcast_delivers_payload_to_all_receivers() {
        let hub = Arc::new(CollectiveHub::new(4));
        let handles: Vec<_> = (1..4)
            .map(|_| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || hub.bcast_wait(3))
            })
            .collect();
        hub.bcast_deposit(3, t(2.0), vec![42.0]);
        for h in handles {
            let (dep, payload) = h.join().unwrap();
            assert_eq!(dep, t(2.0));
            assert_eq!(payload, vec![42.0]);
        }
        assert_eq!(hub.live_slots(), 0);
    }

    #[test]
    fn bcast_single_rank_leaves_no_slot() {
        let hub = CollectiveHub::new(1);
        hub.bcast_deposit(0, t(1.0), vec![1.0]);
        assert_eq!(hub.live_slots(), 0);
    }

    #[test]
    fn single_rank_barrier_completes_immediately() {
        let hub = CollectiveHub::new(1);
        let out = hub.barrier(0, 0, t(3.0));
        assert_eq!(out, t(3.0));
        assert_eq!(hub.live_slots(), 0);
    }

    #[test]
    fn a_panicked_holder_leaves_the_hub_working() {
        let hub = CollectiveHub::new(2);
        // A protocol bug (a barrier on the slot the program broadcast
        // on) panics while holding the hub's lock.
        hub.bcast_deposit(0, t(0.0), vec![1.0]);
        let bug = std::panic::catch_unwind(|| hub.barrier(0, 0, t(0.0)));
        assert!(bug.is_err() && hub.slots.is_poisoned());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| hub.barrier(1, 1, t(1.0)));
            // The waiter opens the slot and starts waiting under one hold
            // of the lock, so once the slot shows, the waiter is waiting.
            while !lock(&hub.slots).contains_key(&1) && !waiter.is_finished() {
                std::thread::yield_now();
            }
            assert_eq!(hub.barrier(1, 0, t(2.0)), t(2.0));
            assert_eq!(waiter.join().unwrap(), t(2.0));
        });
    }

    #[test]
    #[should_panic(expected = "deposited twice")]
    fn double_gather_deposit_panics() {
        let hub = CollectiveHub::new(2);
        hub.gather_deposit(0, 1, t(0.0), vec![1.0]);
        hub.gather_deposit(0, 1, t(0.0), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "not a barrier")]
    fn type_mismatch_panics() {
        let hub = CollectiveHub::new(2);
        hub.bcast_deposit(0, t(0.0), vec![1.0]);
        let _ = hub.barrier(0, 0, t(0.0));
    }
}

//! Deterministic discrete-event simulation core.
//!
//! A minimal but complete DES kernel: a priority queue of timestamped
//! events with deterministic FIFO tie-breaking (events scheduled earlier
//! fire first at equal timestamps), a monotone virtual clock, and a
//! handler-driven run loop. Its one production user is the dynamic
//! self-scheduler of [`crate::selfsched`] (A5).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event carrying a user payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behaviour inside BinaryHeap (max-heap):
        // earlier time = greater priority; ties broken by insertion order.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Handle passed to the event handler for scheduling follow-up events.
pub struct Scheduler<E> {
    pending: Vec<(SimTime, E)>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    /// Schedules `payload` to fire `delay` after the current event.
    ///
    /// # Panics
    /// Panics if `delay` is negative (causality violation).
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        assert!(delay.as_secs() >= 0.0, "cannot schedule into the past");
        self.pending.push((self.now + delay, payload));
    }

    /// Schedules `payload` at an absolute time ≥ now.
    ///
    /// # Panics
    /// Panics if `at` precedes the current simulation time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.pending.push((at, payload));
    }

    /// Current simulation time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// Discrete-event simulator over payload type `E`.
///
/// Events fire in timestamp order; equal timestamps fire in scheduling
/// order, which makes every run bit-deterministic.
pub struct Simulator<E> {
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Simulator { queue: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }

    /// Seeds an initial event at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(Scheduled { time: at, seq: self.next_seq, payload });
        self.next_seq += 1;
    }

    /// Current simulation time: the timestamp of the last event processed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs until the queue drains or `max_events` have fired, whichever
    /// comes first. The handler may schedule follow-up events through the
    /// provided [`Scheduler`]. Returns the number of events processed by
    /// this call.
    pub fn run<F>(&mut self, max_events: u64, mut handler: F) -> u64
    where
        F: FnMut(SimTime, E, &mut Scheduler<E>),
    {
        let mut fired = 0;
        while fired < max_events {
            let Some(ev) = self.queue.pop() else { break };
            debug_assert!(ev.time >= self.now, "event queue went backwards");
            self.now = ev.time;
            let mut sched = Scheduler { pending: Vec::new(), now: self.now };
            handler(self.now, ev.payload, &mut sched);
            for (at, payload) in sched.pending {
                self.queue.push(Scheduled { time: at, seq: self.next_seq, payload });
                self.next_seq += 1;
            }
            fired += 1;
        }
        fired
    }

    /// Runs to quiescence (no pending events). Returns events processed.
    pub fn run_to_completion<F>(&mut self, handler: F) -> u64
    where
        F: FnMut(SimTime, E, &mut Scheduler<E>),
    {
        self.run(u64::MAX, handler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(3.0), "c");
        sim.schedule(SimTime::from_secs(1.0), "a");
        sim.schedule(SimTime::from_secs(2.0), "b");
        let mut order = Vec::new();
        sim.run_to_completion(|_, e, _| order.push(e));
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Simulator::new();
        for i in 0..10 {
            sim.schedule(SimTime::from_secs(1.0), i);
        }
        let mut order = Vec::new();
        sim.run_to_completion(|_, e, _| order.push(e));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(0.5), ());
        sim.schedule(SimTime::from_secs(1.5), ());
        let mut stamps = Vec::new();
        sim.run_to_completion(|t, _, _| stamps.push(t));
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sim.now(), SimTime::from_secs(1.5));
    }

    #[test]
    fn handler_can_schedule_follow_ups() {
        // A chain: each event schedules the next until a countdown hits 0.
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 5u32);
        let mut seen = Vec::new();
        let fired = sim.run_to_completion(|_, n, sched| {
            seen.push(n);
            if n > 0 {
                sched.schedule_in(SimTime::from_secs(1.0), n - 1);
            }
        });
        assert_eq!(seen, vec![5, 4, 3, 2, 1, 0]);
        assert_eq!(sim.now(), SimTime::from_secs(5.0));
        assert_eq!(fired, 6);
    }

    #[test]
    fn schedule_at_absolute_time() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, "start");
        let mut log = Vec::new();
        sim.run_to_completion(|t, e, sched| {
            log.push((t, e));
            if e == "start" {
                sched.schedule_at(SimTime::from_secs(10.0), "later");
            }
        });
        assert_eq!(log[1], (SimTime::from_secs(10.0), "later"));
    }

    #[test]
    fn max_events_bounds_execution() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 0u64);
        // Infinite self-perpetuating chain, bounded by max_events.
        let fired = sim.run(100, |_, n, sched| {
            sched.schedule_in(SimTime::from_secs(1.0), n + 1);
        });
        assert_eq!(fired, 100);
        assert_eq!(sim.now(), SimTime::from_secs(99.0));
        // The chain's next event is still queued: one more step fires it.
        assert_eq!(sim.run(1, |_, _, _| {}), 1);
        assert_eq!(sim.now(), SimTime::from_secs(100.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_secs(5.0), ());
        sim.run_to_completion(|_, _, sched| {
            sched.schedule_at(SimTime::from_secs(1.0), ());
        });
    }

    #[test]
    fn determinism_across_runs() {
        let run_once = || {
            let mut sim = Simulator::new();
            for i in 0..50u64 {
                sim.schedule(SimTime::from_secs((i % 7) as f64), i);
            }
            let mut order = Vec::new();
            sim.run_to_completion(|_, e, _| order.push(e));
            order
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn empty_simulator_runs_zero_events() {
        let mut sim: Simulator<()> = Simulator::new();
        assert_eq!(sim.run_to_completion(|_, _, _| {}), 0);
        assert_eq!(sim.now(), SimTime::ZERO);
    }
}

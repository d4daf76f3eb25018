//! Dynamic self-scheduling — the classic alternative to the paper's
//! static speed-proportional distribution.
//!
//! The paper's methodology rests on marked speeds being "used as a
//! constant parameter": data is distributed proportionally *once*, so
//! the balance is only as good as the speed estimates. A master–worker
//! self-scheduler needs no estimates: workers pull the next chunk when
//! they finish the previous one, paying a per-grant latency instead.
//! This module simulates both deterministically and lets the
//! `ablate-sched` study quantify the crossover: with accurate marked
//! speeds static wins (no grant traffic); as a node's true speed drifts
//! from its rating, dynamic scheduling overtakes it.

use crate::proportion::proportional_counts;
use hetsim_cluster::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one scheduling simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Time the last chunk completes.
    pub makespan: SimTime,
    /// Chunks executed per worker.
    pub chunks_per_worker: Vec<usize>,
    /// Work (flops) executed per worker.
    pub work_per_worker: Vec<f64>,
}

/// Static schedule: chunk `i` goes to the worker owning it under a
/// proportional split by *estimated* speeds ([`proportional_counts`]);
/// execution runs at *true* speeds. Workers start all their chunks
/// back-to-back at `t = 0`.
///
/// # Panics
/// Panics on empty inputs, non-positive true speeds, negative chunk
/// work, or estimates [`proportional_counts`] rejects.
pub fn static_schedule(
    estimated_speeds_flops: &[f64],
    true_speeds_flops: &[f64],
    chunk_flops: &[f64],
) -> ScheduleOutcome {
    assert_eq!(
        estimated_speeds_flops.len(),
        true_speeds_flops.len(),
        "one true speed per estimate"
    );
    assert!(!estimated_speeds_flops.is_empty(), "need at least one worker");
    assert!(true_speeds_flops.iter().all(|&s| s > 0.0), "true speeds must be positive");
    assert!(chunk_flops.iter().all(|&w| w >= 0.0), "chunk work must be ≥ 0");

    let p = estimated_speeds_flops.len();
    let counts = proportional_counts(chunk_flops.len(), estimated_speeds_flops);
    let mut chunks_per_worker = vec![0usize; p];
    let mut work_per_worker = vec![0.0f64; p];
    let mut cursor = 0usize;
    for (w, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            chunks_per_worker[w] += 1;
            work_per_worker[w] += chunk_flops[cursor];
            cursor += 1;
        }
    }
    debug_assert_eq!(cursor, chunk_flops.len());
    let makespan =
        work_per_worker.iter().zip(true_speeds_flops).map(|(&w, &s)| w / s).fold(0.0f64, f64::max);
    ScheduleOutcome { makespan: SimTime::from_secs(makespan), chunks_per_worker, work_per_worker }
}

/// Dynamic self-scheduling: a master hands out chunks in order; each
/// grant costs `grant_latency` (request + reply on the wire), then the
/// worker computes the chunk at its *true* speed and comes back.
/// Deterministic: simultaneous requests are served in queue order
/// (worker index at t = 0, completion order afterwards).
///
/// # Panics
/// Panics on empty workers, non-positive speeds or latency < 0.
pub fn dynamic_schedule(
    true_speeds_flops: &[f64],
    chunk_flops: &[f64],
    grant_latency: SimTime,
) -> ScheduleOutcome {
    assert!(!true_speeds_flops.is_empty(), "need at least one worker");
    assert!(true_speeds_flops.iter().all(|&s| s > 0.0), "true speeds must be positive");
    assert!(grant_latency.as_secs() >= 0.0, "grant latency must be ≥ 0");

    let p = true_speeds_flops.len();
    // (ready time, queue order, worker): the order counter breaks ties
    // first-come first-served, so the worker index is never compared.
    let mut ready: BinaryHeap<Reverse<(SimTime, usize, usize)>> =
        (0..p).map(|w| Reverse((SimTime::ZERO, w, w))).collect();
    let mut chunks_per_worker = vec![0usize; p];
    let mut work_per_worker = vec![0.0f64; p];
    let mut makespan = SimTime::ZERO;
    for (order, &work) in (p..).zip(chunk_flops) {
        let Reverse((now, _, w)) = ready.pop().expect("every worker is queued between grants");
        chunks_per_worker[w] += 1;
        work_per_worker[w] += work;
        let compute = SimTime::from_secs(work / true_speeds_flops[w]);
        let done = now + grant_latency + compute;
        makespan = makespan.max(done);
        ready.push(Reverse((done, order, w)));
    }
    ScheduleOutcome { makespan, chunks_per_worker, work_per_worker }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_chunks(n: usize, flops: f64) -> Vec<f64> {
        vec![flops; n]
    }

    #[test]
    fn static_with_accurate_estimates_is_balanced() {
        let speeds = [9e7, 5e7, 11e7];
        let out = static_schedule(&speeds, &speeds, &uniform_chunks(250, 1e6));
        // All workers finish within one chunk-time of each other.
        let times: Vec<f64> =
            out.work_per_worker.iter().zip(&speeds).map(|(&w, &s)| w / s).collect();
        let spread = times.iter().fold(0.0f64, |m, &t| m.max(t))
            - times.iter().fold(f64::INFINITY, |m, &t| m.min(t));
        assert!(spread < 1e6 / 5e7, "spread {spread}");
    }

    #[test]
    fn static_with_a_stale_estimate_is_dragged_by_the_slow_node() {
        let estimated = [1e8, 1e8];
        // Node 1 actually runs at a quarter of its rating.
        let true_speeds = [1e8, 2.5e7];
        let out = static_schedule(&estimated, &true_speeds, &uniform_chunks(100, 1e6));
        // Node 1 got half the work but runs 4x slower: ~2 s vs 0.5 s.
        assert!((out.makespan.as_secs() - 2.0).abs() < 0.05, "{:?}", out.makespan);
    }

    #[test]
    fn dynamic_adapts_to_stale_estimates() {
        let true_speeds = [1e8, 2.5e7];
        let out = dynamic_schedule(&true_speeds, &uniform_chunks(100, 1e6), SimTime::ZERO);
        // Work splits ~4:1 by true speed; makespan near the ideal
        // 100e6 / 1.25e8 = 0.8 s.
        assert!((out.makespan.as_secs() - 0.8).abs() < 0.05, "makespan {:?}", out.makespan);
        assert!(out.chunks_per_worker[0] > 3 * out.chunks_per_worker[1]);
    }

    #[test]
    fn dynamic_beats_static_under_misestimation() {
        let estimated = [1e8, 1e8, 1e8, 1e8];
        let mut true_speeds = estimated;
        true_speeds[3] = 2e7; // one node degraded 5x
        let chunks = uniform_chunks(400, 1e6);
        let s = static_schedule(&estimated, &true_speeds, &chunks);
        let d = dynamic_schedule(&true_speeds, &chunks, SimTime::from_micros(100.0));
        assert!(
            d.makespan.as_secs() < 0.5 * s.makespan.as_secs(),
            "dynamic {:?} vs static {:?}",
            d.makespan,
            s.makespan
        );
    }

    #[test]
    fn static_beats_dynamic_when_estimates_are_accurate_and_grants_cost() {
        let speeds = [1e8, 1e8];
        let chunks = uniform_chunks(1000, 1e5); // small chunks: grant-heavy
        let s = static_schedule(&speeds, &speeds, &chunks);
        let d = dynamic_schedule(&speeds, &chunks, SimTime::from_millis(1.0));
        assert!(
            s.makespan < d.makespan,
            "static {:?} must beat dynamic {:?} (grant latency dominates)",
            s.makespan,
            d.makespan
        );
    }

    #[test]
    fn all_chunks_are_executed_exactly_once() {
        let speeds = [7e7, 3e7, 5e7];
        let chunks: Vec<f64> = (1..=57).map(|i| 1e5 * i as f64).collect();
        for out in [
            static_schedule(&speeds, &speeds, &chunks),
            dynamic_schedule(&speeds, &chunks, SimTime::from_micros(50.0)),
        ] {
            assert_eq!(out.chunks_per_worker.iter().sum::<usize>(), 57);
            let total: f64 = out.work_per_worker.iter().sum();
            let expected: f64 = chunks.iter().sum();
            assert!((total - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn simultaneous_requests_are_served_first_come_first_served() {
        // Both workers ask again at t = 2, but worker 1 queued first (its
        // first chunk ends there; worker 0's second chunk does too), so it
        // gets the last chunk. A worker-index tie-break would give it to
        // worker 0 and end at t = 3.
        let out = dynamic_schedule(&[1.0, 2.0], &[1.0, 4.0, 1.0, 1.0], SimTime::ZERO);
        assert_eq!(out.chunks_per_worker, vec![2, 2]);
        assert_eq!(out.makespan, SimTime::from_secs(2.5));
    }

    #[test]
    fn dynamic_is_deterministic() {
        let speeds = [9e7, 5e7, 11e7, 4.5e7];
        let chunks: Vec<f64> = (0..200).map(|i| 1e5 * (1 + i % 7) as f64).collect();
        let a = dynamic_schedule(&speeds, &chunks, SimTime::from_micros(80.0));
        let b = dynamic_schedule(&speeds, &chunks, SimTime::from_micros(80.0));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_chunks_finish_instantly() {
        let speeds = [1e8];
        let out = dynamic_schedule(&speeds, &[], SimTime::from_millis(1.0));
        assert_eq!(out.makespan, SimTime::ZERO);
        assert_eq!(out.chunks_per_worker, vec![0]);
    }

    #[test]
    fn single_worker_executes_sequentially() {
        let out = dynamic_schedule(&[1e8], &uniform_chunks(10, 1e7), SimTime::ZERO);
        assert!((out.makespan.as_secs() - 1.0).abs() < 1e-12);
        assert_eq!(out.chunks_per_worker, vec![10]);
    }

    #[test]
    #[should_panic(expected = "true speeds must be positive")]
    fn zero_speed_rejected() {
        dynamic_schedule(&[0.0], &[1.0], SimTime::ZERO);
    }
}

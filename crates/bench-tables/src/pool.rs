//! Bounded scoped worker pool with deterministic output assembly.
//!
//! The experiment ladders decompose into independent `(experiment,
//! configuration)` cells — one efficiency curve per cluster rung, one
//! frozen-noise campaign per `(σ, seed)` pair. Each cell is a pure
//! function of its inputs (the timing engines are deterministic), so
//! the only thing parallelism could perturb is *assembly order*. This
//! pool removes that hazard by construction: workers pull cell indices
//! from a shared counter and deposit results into the slot owned by
//! that index, so the returned `Vec` is always in cell order and the
//! rendered tables are byte-identical for every worker count.
//!
//! The worker count is fixed once per process — `--jobs N` on the
//! `bench-tables` binary, defaulting to the machine's available
//! parallelism. `--jobs 1` short-circuits to a plain sequential loop
//! and serves as the reference the determinism tests compare against.
//!
//! Built on `std::thread::scope`; a panicking cell propagates when the
//! scope joins, exactly like the sequential loop.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

static JOBS: OnceLock<usize> = OnceLock::new();

// Deterministic pool counters: pure functions of the dispatched batches
// (never of which worker ran what), so they are byte-stable across runs
// and worker counts (DESIGN.md §11).
static BATCHES: AtomicU64 = AtomicU64::new(0);
static CELLS: AtomicU64 = AtomicU64::new(0);
static QUEUE_HIGH_WATER: AtomicU64 = AtomicU64::new(0);
// Per-worker cell counts — scheduling-dependent, profile export only.
static WORKER_CELLS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

/// Deterministic worker-pool counters (see [`snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolCounts {
    /// Non-empty batches dispatched through the pool.
    pub batches: u64,
    /// Cells across those batches.
    pub cells: u64,
    /// Largest single batch — the queue's high-water mark.
    pub queue_high_water: u64,
}

/// Snapshot of the deterministic pool counters.
pub fn snapshot() -> PoolCounts {
    PoolCounts {
        batches: BATCHES.load(Ordering::Relaxed),
        cells: CELLS.load(Ordering::Relaxed),
        queue_high_water: QUEUE_HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// Cells executed per worker slot. **Not deterministic** — which worker
/// pulls which cell depends on OS scheduling; profile export only.
pub fn worker_cells() -> Vec<u64> {
    WORKER_CELLS.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

fn add_worker_cells(worker: usize, cells: u64) {
    let mut counts = WORKER_CELLS.lock().unwrap_or_else(PoisonError::into_inner);
    if counts.len() <= worker {
        counts.resize(worker + 1, 0);
    }
    counts[worker] += cells;
}

/// The worker count was already fixed — [`set_jobs`] was called twice
/// (or after the pool's first use defaulted it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobsAlreadySet;

impl std::fmt::Display for JobsAlreadySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker count already fixed for this process")
    }
}

impl std::error::Error for JobsAlreadySet {}

/// Fixes the worker count for the rest of the process. Call at most
/// once, before any parallel work; zero is clamped to one.
///
/// # Errors
/// Returns [`JobsAlreadySet`] when the worker count was already fixed
/// (a second call, or a call after the pool defaulted it on first use).
pub fn set_jobs(n: usize) -> Result<(), JobsAlreadySet> {
    JOBS.set(n.max(1)).map_err(|_| JobsAlreadySet)
}

/// The worker count: the value fixed by [`set_jobs`], or the machine's
/// available parallelism when none was set.
pub fn jobs() -> usize {
    *JOBS.get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
}

/// Runs `f(index, &items[index])` for every cell on up to [`jobs`]
/// workers and returns the results **in cell order**, regardless of
/// which worker finished which cell when.
pub fn run_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed_on(jobs(), items, f)
}

/// [`run_indexed`] with an explicit worker count (the determinism tests
/// compare worker counts directly, without touching the process-wide
/// setting).
pub fn run_indexed_on<T, R, F>(max_workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if !items.is_empty() {
        BATCHES.fetch_add(1, Ordering::Relaxed);
        CELLS.fetch_add(items.len() as u64, Ordering::Relaxed);
        QUEUE_HIGH_WATER.fetch_max(items.len() as u64, Ordering::Relaxed);
    }
    let workers = max_workers.min(items.len());
    if workers <= 1 {
        add_worker_cells(0, items.len() as u64);
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let (next, slots, f) = (&next, &slots, &f);
        for worker in 0..workers {
            scope.spawn(move || {
                let mut mine = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *slots[i].lock().expect("cell slot poisoned") = Some(r);
                    mine += 1;
                }
                add_worker_cells(worker, mine);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("cell slot poisoned").expect("every cell ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_indexed(&items, |i, &item| {
            assert_eq!(i, item);
            item * item
        });
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<usize> = Vec::new();
        assert!(run_indexed(&items, |_, &i| i).is_empty());
    }

    #[test]
    fn single_cell_runs_inline() {
        let items = [7usize];
        assert_eq!(run_indexed(&items, |_, &i| i + 1), vec![8]);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let items: Vec<usize> = (0..64).collect();
        let reference = run_indexed_on(1, &items, |_, &i| (i * 31) % 17);
        for workers in [2, 4, 8, 64] {
            assert_eq!(
                run_indexed_on(workers, &items, |_, &i| (i * 31) % 17),
                reference,
                "assembly diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn second_set_jobs_reports_instead_of_panicking() {
        // The process-wide slot may or may not be taken already
        // (depending on test order), so drive both outcomes through the
        // first call's result: whichever way it lands, the *second*
        // call must return the error — never panic.
        let _ = set_jobs(3);
        let err = set_jobs(5).expect_err("second set_jobs must be rejected");
        assert_eq!(err.to_string(), "worker count already fixed for this process");
    }

    #[test]
    fn counters_track_batches_cells_and_high_water() {
        // Counters are process-global and other tests run concurrently,
        // so assert monotone deltas, not absolutes.
        let before = snapshot();
        let items: Vec<usize> = (0..40).collect();
        run_indexed_on(4, &items, |_, &i| i);
        run_indexed_on(1, &items[..3], |_, &i| i);
        let after = snapshot();
        assert!(after.batches >= before.batches + 2);
        assert!(after.cells >= before.cells + 43);
        assert!(after.queue_high_water >= 40);
        let attributed: u64 = worker_cells().iter().sum();
        assert!(attributed >= 43, "every cell lands on some worker slot");
    }

    #[test]
    fn parallel_path_covers_every_cell_once() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..50).collect();
        let out = run_indexed_on(8, &items, |i, &item| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(i, item);
            item
        });
        assert_eq!(calls.load(Ordering::SeqCst), 50);
        assert_eq!(out, items);
    }
}

//! Wall-clock rating of the machine the code runs on.
//!
//! This is how marked speeds are produced for *real* heterogeneous
//! hosts: run each kernel long enough to be measurable, divide flops by
//! elapsed time, average across the suite (the paper takes "the average
//! speed on each node as its marked speed").

use crate::kernels::{run_kernel, BenchKernel};
use std::time::Instant;

/// One kernel's wall-clock measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRating {
    /// The kernel measured.
    pub kernel: BenchKernel,
    /// Problem size used.
    pub size: usize,
    /// Repetitions timed.
    pub reps: usize,
    /// Measured sustained speed in Mflop/s.
    pub mflops: f64,
}

/// Suite result for this host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRating {
    /// Per-kernel measurements.
    pub per_kernel: Vec<KernelRating>,
    /// Suite average — the host's marked speed in Mflop/s.
    pub marked_speed_mflops: f64,
}

/// Default per-kernel sizes: large enough to measure, small enough to
/// finish in well under a second each on any modern machine.
pub fn default_size(kernel: BenchKernel) -> usize {
    match kernel {
        BenchKernel::Lu => 192,
        BenchKernel::Ft => 1 << 14,
        BenchKernel::Bt => 1 << 16,
    }
}

/// Times one kernel: `reps` runs, total flops over total seconds.
///
/// # Panics
/// Panics when `reps` is 0.
pub fn measure_kernel(kernel: BenchKernel, size: usize, reps: usize) -> KernelRating {
    assert!(reps > 0, "need at least one repetition");
    let mut sink = 0.0f64;
    let mut flops = 0.0f64;
    let start = Instant::now();
    for _ in 0..reps {
        let run = run_kernel(kernel, size);
        sink += run.checksum;
        flops += run.flops;
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    // Consume the checksum so the work cannot be optimized away.
    assert!(sink.is_finite(), "kernel produced a non-finite checksum");
    KernelRating { kernel, size, reps, mflops: flops / elapsed / 1e6 }
}

/// Rates this host with the full suite at default sizes.
pub fn rate_host(reps: usize) -> HostRating {
    let per_kernel: Vec<KernelRating> =
        BenchKernel::ALL.iter().map(|&k| measure_kernel(k, default_size(k), reps)).collect();
    let marked_speed_mflops =
        per_kernel.iter().map(|r| r.mflops).sum::<f64>() / per_kernel.len() as f64;
    HostRating { per_kernel, marked_speed_mflops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_reports_positive_speed() {
        let r = measure_kernel(BenchKernel::Bt, 1 << 12, 2);
        assert!(r.mflops > 0.0);
        assert_eq!(r.reps, 2);
    }

    #[test]
    fn suite_average_is_mean_of_kernels() {
        // Use tiny sizes so the test stays fast; only the averaging
        // arithmetic is under test.
        let per_kernel = vec![
            measure_kernel(BenchKernel::Lu, 24, 1),
            measure_kernel(BenchKernel::Ft, 64, 1),
            measure_kernel(BenchKernel::Bt, 256, 1),
        ];
        let avg = per_kernel.iter().map(|r| r.mflops).sum::<f64>() / 3.0;
        let rating = HostRating { per_kernel, marked_speed_mflops: avg };
        assert!(rating.marked_speed_mflops > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_rejected() {
        measure_kernel(BenchKernel::Lu, 8, 0);
    }

    #[test]
    fn default_sizes_are_sane() {
        assert!(default_size(BenchKernel::Ft).is_power_of_two());
        for k in BenchKernel::ALL {
            assert!(default_size(k) >= 2);
        }
    }
}

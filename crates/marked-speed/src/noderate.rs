//! Rating of *modeled* nodes — regenerates the paper's Table 1.
//!
//! On the simulated substrate a node is a speed model, so no kernel
//! runs: a kernel's rating is the node's nominal speed times the share
//! of it that kernel sustains. Real benchmarks never sustain one
//! flat number: cache behaviour makes LU-like kernels run a little above
//! a node's nominal rating and FFT-like kernels a little below. Those
//! kernel efficiency factors are fixed, hardware-independent properties
//! of the suite here, so the suite average recovers the node's nominal
//! speed up to the suite's average efficiency — mirroring how the paper
//! turns a suite of measurements into one constant per node.

use crate::kernels::BenchKernel;
use hetsim_cluster::node::NodeSpec;

/// Fraction of a node's nominal speed each kernel sustains. The factors
/// average to exactly 1.0 so a suite rating recovers the nominal speed.
pub fn kernel_efficiency(kernel: BenchKernel) -> f64 {
    match kernel {
        BenchKernel::Lu => 1.06, // dense, cache-friendly: above nominal
        BenchKernel::Ft => 0.91, // strided butterflies: below nominal
        BenchKernel::Bt => 1.03, // streaming solves: near nominal
    }
}

/// One kernel's rating on a node model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimKernelRating {
    /// Which kernel is rated.
    pub kernel: BenchKernel,
    /// Sustained speed in Mflop/s: nominal × [`kernel_efficiency`].
    pub mflops: f64,
}

/// A node's Table-1 row: per-kernel speeds and the suite average.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRating {
    /// Node name (e.g. "hpc-40").
    pub node: String,
    /// Per-kernel ratings, in [`BenchKernel::ALL`] order.
    pub per_kernel: Vec<SimKernelRating>,
    /// Suite average — the node's marked speed in Mflop/s.
    pub marked_speed_mflops: f64,
}

/// Rates a node model with the full suite: each kernel at the node's
/// nominal speed × [`kernel_efficiency`], the marked speed their
/// average.
pub fn rate_node(node: &NodeSpec) -> NodeRating {
    let per_kernel: Vec<SimKernelRating> = BenchKernel::ALL
        .iter()
        .map(|&k| SimKernelRating {
            kernel: k,
            mflops: node.marked_speed_mflops * kernel_efficiency(k),
        })
        .collect();
    let marked_speed_mflops =
        per_kernel.iter().map(|r| r.mflops).sum::<f64>() / per_kernel.len() as f64;
    NodeRating { node: node.name.clone(), per_kernel, marked_speed_mflops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::node::NodeSpec;

    #[test]
    fn efficiencies_average_to_one() {
        let avg: f64 = BenchKernel::ALL.iter().map(|&k| kernel_efficiency(k)).sum::<f64>() / 3.0;
        assert!((avg - 1.0).abs() < 1e-12, "avg = {avg}");
    }

    #[test]
    fn suite_average_recovers_nominal_speed() {
        let node = NodeSpec::synthetic("n", 50.0);
        let rating = rate_node(&node);
        assert!(
            (rating.marked_speed_mflops - 50.0).abs() < 1e-9,
            "rated {} vs nominal 50",
            rating.marked_speed_mflops
        );
    }

    #[test]
    fn per_kernel_speeds_spread_around_nominal() {
        let node = NodeSpec::synthetic("n", 100.0);
        let rating = rate_node(&node);
        let lu = rating.per_kernel.iter().find(|r| r.kernel == BenchKernel::Lu).unwrap();
        let ft = rating.per_kernel.iter().find(|r| r.kernel == BenchKernel::Ft).unwrap();
        assert!(lu.mflops > 100.0, "LU should rate above nominal");
        assert!(ft.mflops < 100.0, "FT should rate below nominal");
    }

    #[test]
    fn faster_node_rates_proportionally_faster() {
        let slow = rate_node(&NodeSpec::synthetic("s", 50.0));
        let fast = rate_node(&NodeSpec::synthetic("f", 200.0));
        let ratio = fast.marked_speed_mflops / slow.marked_speed_mflops;
        assert!((ratio - 4.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn sunwulf_ratings_are_nominal_times_efficiency_bit_for_bit() {
        use hetsim_cluster::sunwulf::{server_node, sunblade_node, v210_node};
        for node in [server_node(1), sunblade_node(1), v210_node(65, 1)] {
            let got: Vec<(BenchKernel, f64)> =
                rate_node(&node).per_kernel.iter().map(|r| (r.kernel, r.mflops)).collect();
            let nominal =
                BenchKernel::ALL.map(|k| (k, node.marked_speed_mflops * kernel_efficiency(k)));
            // `==` on these finite, non-zero speeds is bit equality.
            assert_eq!(got, nominal, "{}", node.name);
        }
    }

    #[test]
    fn rating_is_deterministic() {
        let node = NodeSpec::synthetic("n", 73.5);
        assert_eq!(rate_node(&node), rate_node(&node));
    }
}

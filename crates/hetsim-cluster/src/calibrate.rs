//! Machine-parameter calibration, mirroring the paper's §4.5.
//!
//! Before predicting scalability, the paper measures the target machine's
//! communication parameters: point-to-point time as a function of message
//! size (`T_send = a + b·N`), broadcast and barrier times as functions of
//! the process count. This module performs the same micro-benchmarks
//! against a [`NetworkModel`] and fits the same functional forms, so the
//! prediction pipeline consumes *calibrated* parameters rather than
//! reaching into the model's internals — exactly as one would on real
//! hardware.

use crate::network::NetworkModel;
use numfit::stats::{linear_regression, LinearFit};
use numfit::Result;

/// Functional basis a collective's cost is regressed against.
///
/// Tree-based collectives (switched fabrics) grow like `log₂ p` — the
/// form the paper fits on Sunwulf's MPICH (`T ≈ a·log p + b`). On a
/// shared medium, collectives serialize and grow like `p − 1`. The
/// calibrator fits both and keeps whichever explains the measurements
/// better, so predictions stay accurate at small `p` on either fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveBasis {
    /// `x(p) = log₂ p` (tree collectives).
    Log2P,
    /// `x(p) = p − 1` (serialized collectives).
    PMinusOne,
}

impl CollectiveBasis {
    /// The regressor value for `p` processes.
    pub fn x(self, p: usize) -> f64 {
        match self {
            CollectiveBasis::Log2P => (p as f64).log2(),
            CollectiveBasis::PMinusOne => (p - 1) as f64,
        }
    }
}

/// A collective's calibrated cost curve: linear in the chosen basis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveFit {
    /// The basis that won the fit-quality comparison.
    pub basis: CollectiveBasis,
    /// Linear fit of cost against the basis regressor.
    pub fit: LinearFit,
}

impl CollectiveFit {
    /// Predicted cost at `p` processes (0 for `p ≤ 1`).
    pub fn predict(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.fit.predict(self.basis.x(p)).max(0.0)
    }
}

/// Fits both bases and keeps the one with the smaller residual.
fn fit_collective(ps: &[usize], ys: &[f64]) -> Result<CollectiveFit> {
    let mut best: Option<(f64, CollectiveFit)> = None;
    for basis in [CollectiveBasis::Log2P, CollectiveBasis::PMinusOne] {
        let xs: Vec<f64> = ps.iter().map(|&p| basis.x(p)).collect();
        let fit = linear_regression(&xs, ys)?;
        let sse: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let e = y - fit.predict(x);
                e * e
            })
            .sum();
        if best.is_none() || sse < best.as_ref().expect("just checked").0 {
            best = Some((sse, CollectiveFit { basis, fit }));
        }
    }
    Ok(best.expect("two candidate bases").1)
}

/// Calibrated machine communication parameters (all times in seconds).
///
/// `p2p` maps *element count* (8-byte f64 words) to one message time:
/// `T = intercept + slope·n_elems`. `bcast` and `barrier` map the
/// process count (through the winning [`CollectiveBasis`]) to the
/// collective time — the paper's `T_bcast`, `T_barrier` calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Point-to-point time vs. f64-element count: `T = a + b·n`.
    pub p2p: LinearFit,
    /// Small-payload broadcast time vs. process count.
    pub bcast: CollectiveFit,
    /// Barrier time vs. process count.
    pub barrier: CollectiveFit,
    /// Broadcast per-element marginal cost (seconds per f64 element),
    /// measured at the largest calibrated process count.
    pub bcast_per_elem: f64,
    /// Largest process count used during calibration.
    pub max_p: usize,
}

impl MachineParams {
    /// Predicted point-to-point time for a message of `n` f64 elements.
    pub fn p2p_time(&self, n: f64) -> f64 {
        self.p2p.predict(n).max(0.0)
    }

    /// Predicted broadcast time of `n` f64 elements among `p` processes.
    pub fn bcast_time(&self, p: usize, n: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        // Latency term from the collective fit plus the per-element
        // payload term scaled (in the same basis) relative to the
        // calibration point.
        let scale = self.bcast.basis.x(p).max(0.0) / self.bcast.basis.x(self.max_p).max(1e-12);
        (self.bcast.predict(p) + self.bcast_per_elem * scale * n).max(0.0)
    }

    /// Predicted barrier time among `p` processes.
    pub fn barrier_time(&self, p: usize) -> f64 {
        self.barrier.predict(p)
    }
}

/// Message sizes (f64 elements) exercised by the p2p calibration sweep.
pub const P2P_CAL_SIZES: [u64; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// Process counts exercised by the collective calibration sweep.
pub const COLLECTIVE_CAL_PS: [usize; 5] = [2, 4, 8, 16, 32];

/// Runs the calibration micro-benchmarks against `net` and fits the
/// paper's functional forms.
pub fn calibrate(net: &dyn NetworkModel) -> Result<MachineParams> {
    // T_send vs element count.
    let xs: Vec<f64> = P2P_CAL_SIZES.iter().map(|&n| n as f64).collect();
    let ys: Vec<f64> = P2P_CAL_SIZES.iter().map(|&n| net.p2p_time(n * 8)).collect();
    let p2p = linear_regression(&xs, &ys)?;

    // Small-payload (one cache line) bcast and barrier vs process count,
    // fitted in whichever basis (log₂ p or p − 1) explains them better.
    let bcast_ys: Vec<f64> = COLLECTIVE_CAL_PS.iter().map(|&p| net.bcast_time(p, 64)).collect();
    let barrier_ys: Vec<f64> = COLLECTIVE_CAL_PS.iter().map(|&p| net.barrier_time(p)).collect();
    let bcast = fit_collective(&COLLECTIVE_CAL_PS, &bcast_ys)?;
    let barrier = fit_collective(&COLLECTIVE_CAL_PS, &barrier_ys)?;

    // Marginal payload cost of a broadcast at the largest p: difference
    // quotient between a large and a small payload.
    let max_p = *COLLECTIVE_CAL_PS.last().expect("non-empty");
    let big = 65536u64;
    let small = 64u64;
    let bcast_per_elem =
        (net.bcast_time(max_p, big * 8) - net.bcast_time(max_p, small * 8)) / (big - small) as f64;

    Ok(MachineParams { p2p, bcast, barrier, bcast_per_elem, max_p })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ConstantLatency, SharedEthernet, SwitchedNetwork};

    #[test]
    fn p2p_calibration_recovers_alpha_beta() {
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let params = calibrate(&net).unwrap();
        // intercept = alpha, slope = 8 bytes / beta.
        assert!((params.p2p.intercept - 0.3e-3).abs() < 1e-9);
        assert!((params.p2p.slope - 8.0 / 1.25e7).abs() < 1e-12);
        assert!(params.p2p.r > 0.999);
    }

    #[test]
    fn predicted_p2p_matches_model_between_calibration_points() {
        let net = SharedEthernet::new(0.2e-3, 1e7);
        let params = calibrate(&net).unwrap();
        for n in [100u64, 500, 3000, 20000] {
            let pred = params.p2p_time(n as f64);
            let actual = net.p2p_time(n * 8);
            assert!((pred - actual).abs() / actual < 1e-6, "n={n}: pred {pred} vs {actual}");
        }
    }

    #[test]
    fn bcast_calibration_tracks_shared_ethernet_shape() {
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let params = calibrate(&net).unwrap();
        // Shared Ethernet bcast is linear in p, so the log-p fit is only
        // an approximation — but must be monotone increasing and must
        // reproduce the calibrated endpoints within the fit's own error.
        assert!(params.bcast.fit.slope > 0.0);
        let t32 = params.bcast_time(32, 8.0);
        let t2 = params.bcast_time(2, 8.0);
        assert!(t32 > 5.0 * t2, "bcast time must grow strongly with p");
    }

    #[test]
    fn bcast_payload_term_scales_with_p() {
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let params = calibrate(&net).unwrap();
        let n = 10_000.0;
        let t32 = params.bcast_time(32, n);
        let actual32 = net.bcast_time(32, 80_000);
        assert!((t32 - actual32).abs() / actual32 < 0.2, "pred {t32} vs actual {actual32}");
    }

    #[test]
    fn barrier_calibration_on_switched_network_is_exact() {
        // Switched barrier is 2·α·log₂p — exactly linear in log p.
        let net = SwitchedNetwork::new(1e-4, 1e8);
        let params = calibrate(&net).unwrap();
        for p in [2usize, 4, 8, 16, 32] {
            let pred = params.barrier_time(p);
            let actual = net.barrier_time(p);
            assert!((pred - actual).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn constant_latency_network_calibrates_flat_collectives() {
        let net = ConstantLatency::new(1e-3);
        let params = calibrate(&net).unwrap();
        // Collective times do not grow with p.
        assert!(params.bcast.fit.slope.abs() < 1e-12);
        assert!(params.barrier.fit.slope.abs() < 1e-12);
        assert!((params.barrier_time(32) - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn single_process_collectives_cost_nothing() {
        let net = SharedEthernet::new(1e-3, 1e7);
        let params = calibrate(&net).unwrap();
        assert_eq!(params.bcast_time(1, 1000.0), 0.0);
        assert_eq!(params.barrier_time(1), 0.0);
    }

    #[test]
    fn predictions_never_negative() {
        let net = ConstantLatency::new(0.0);
        let params = calibrate(&net).unwrap();
        assert!(params.p2p_time(0.0) >= 0.0);
        assert!(params.bcast_time(2, 0.0) >= 0.0);
        assert!(params.barrier_time(2) >= 0.0);
    }
}

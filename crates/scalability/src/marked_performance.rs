//! Multi-parameter *marked performance* — the paper's future-work
//! extension, implemented.
//!
//! The conclusion of the paper proposes extending the single-scalar
//! marked speed to a *marked performance* vector "that has several
//! parameters to describe the full capability of a computing system".
//! This module realizes that: a node is rated on three axes (compute,
//! memory bandwidth, network bandwidth), an application declares its
//! demand mix, and the **effective marked speed** of a node for that
//! application is the harmonic (bottleneck-respecting) combination of
//! the axes. Everything downstream — speed-efficiency, ψ — then works
//! unchanged with the effective speed in place of the scalar.

/// A node's multi-axis rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkedPerformance {
    /// Sustained compute speed, Mflop/s.
    pub compute_mflops: f64,
    /// Sustained memory bandwidth, MB/s.
    pub memory_mbs: f64,
    /// Sustained network bandwidth, MB/s.
    pub network_mbs: f64,
}

impl MarkedPerformance {
    /// Validates and constructs the rating.
    ///
    /// # Errors
    /// All three axes must be positive and finite.
    pub fn new(compute_mflops: f64, memory_mbs: f64, network_mbs: f64) -> Result<Self, String> {
        for (name, v) in
            [("compute", compute_mflops), ("memory", memory_mbs), ("network", network_mbs)]
        {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} rating must be positive and finite, got {v}"));
            }
        }
        Ok(MarkedPerformance { compute_mflops, memory_mbs, network_mbs })
    }
}

/// An application's demand mix: how many bytes of memory traffic and
/// network traffic accompany each flop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// Memory bytes touched per flop (e.g. ~12 for stream-like code,
    /// <1 for blocked dense kernels).
    pub mem_bytes_per_flop: f64,
    /// Network bytes moved per flop (0 for embarrassingly parallel).
    pub net_bytes_per_flop: f64,
}

impl ResourceProfile {
    /// A compute-bound profile (blocked dense linear algebra).
    pub fn compute_bound() -> Self {
        ResourceProfile { mem_bytes_per_flop: 0.5, net_bytes_per_flop: 0.001 }
    }

    /// A memory-bound profile (stream / stencil codes).
    pub fn memory_bound() -> Self {
        ResourceProfile { mem_bytes_per_flop: 12.0, net_bytes_per_flop: 0.01 }
    }

    /// A communication-heavy profile (fine-grained exchanges).
    pub fn network_bound() -> Self {
        ResourceProfile { mem_bytes_per_flop: 4.0, net_bytes_per_flop: 1.0 }
    }
}

/// Effective marked speed (Mflop/s) of a node for an application: time
/// per flop is the *sum* of the per-axis times (work–span style serial
/// composition), so
///
/// ```text
/// 1/C_eff = 1/C_comp + m/B_mem + n/B_net
/// ```
///
/// with `m`, `n` the profile's bytes-per-flop. This reduces to the
/// scalar marked speed when the profile demands nothing beyond compute.
///
/// # Panics
/// Panics on negative profile entries.
pub fn effective_marked_speed(perf: &MarkedPerformance, profile: &ResourceProfile) -> f64 {
    assert!(
        profile.mem_bytes_per_flop >= 0.0 && profile.net_bytes_per_flop >= 0.0,
        "profile demands must be ≥ 0"
    );
    let per_flop_secs = 1.0 / (perf.compute_mflops * 1e6)
        + profile.mem_bytes_per_flop / (perf.memory_mbs * 1e6)
        + profile.net_bytes_per_flop / (perf.network_mbs * 1e6);
    1.0 / per_flop_secs / 1e6
}

/// Effective system marked speed: the sum of effective node speeds,
/// mirroring Definition 2 axis-wise.
pub fn effective_system_speed(nodes: &[MarkedPerformance], profile: &ResourceProfile) -> f64 {
    nodes.iter().map(|n| effective_marked_speed(n, profile)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced_node() -> MarkedPerformance {
        MarkedPerformance::new(100.0, 1000.0, 100.0).unwrap()
    }

    #[test]
    fn pure_compute_profile_recovers_compute_rating() {
        let p = ResourceProfile { mem_bytes_per_flop: 0.0, net_bytes_per_flop: 0.0 };
        let eff = effective_marked_speed(&balanced_node(), &p);
        assert!((eff - 100.0).abs() < 1e-9);
    }

    #[test]
    fn memory_demand_lowers_effective_speed() {
        let eff_cb = effective_marked_speed(&balanced_node(), &ResourceProfile::compute_bound());
        let eff_mb = effective_marked_speed(&balanced_node(), &ResourceProfile::memory_bound());
        assert!(eff_mb < eff_cb);
        assert!(eff_cb < 100.0, "any demand strictly lowers the rating");
    }

    #[test]
    fn bottleneck_axis_dominates() {
        // A node with huge compute but weak memory is no better than its
        // memory axis allows for a memory-bound profile.
        let lopsided = MarkedPerformance::new(10_000.0, 100.0, 100.0).unwrap();
        let profile = ResourceProfile::memory_bound();
        let eff = effective_marked_speed(&lopsided, &profile);
        // Memory limit: B/m = 100 MB/s / 12 B per flop ≈ 8.3 Mflop/s.
        assert!(eff < 100.0 / profile.mem_bytes_per_flop * 1.1, "eff = {eff}");
    }

    #[test]
    fn ranking_can_flip_with_the_profile() {
        // The whole point of the extension: which node is "faster"
        // depends on the application's demand mix.
        let cruncher = MarkedPerformance::new(500.0, 400.0, 50.0).unwrap();
        let streamer = MarkedPerformance::new(150.0, 4000.0, 50.0).unwrap();
        let cb = ResourceProfile::compute_bound();
        let mb = ResourceProfile::memory_bound();
        assert!(effective_marked_speed(&cruncher, &cb) > effective_marked_speed(&streamer, &cb));
        assert!(effective_marked_speed(&cruncher, &mb) < effective_marked_speed(&streamer, &mb));
    }

    #[test]
    fn system_speed_sums_nodes() {
        let nodes = vec![balanced_node(), balanced_node()];
        let p = ResourceProfile::compute_bound();
        let one = effective_marked_speed(&nodes[0], &p);
        assert!((effective_system_speed(&nodes, &p) - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn effective_speed_feeds_the_standard_metric() {
        // ψ computed over effective speeds — the extension composes with
        // the base metric unchanged.
        let p = ResourceProfile::network_bound();
        let small = vec![balanced_node(); 2];
        let big = vec![balanced_node(); 4];
        let c = effective_system_speed(&small, &p) * 1e6;
        let c2 = effective_system_speed(&big, &p) * 1e6;
        let psi = crate::function::isospeed_efficiency_scalability(c, 1e8, c2, 2.5e8);
        assert!(psi > 0.0 && psi < 1.0);
    }

    #[test]
    fn invalid_ratings_rejected() {
        assert!(MarkedPerformance::new(0.0, 1.0, 1.0).is_err());
        assert!(MarkedPerformance::new(1.0, -1.0, 1.0).is_err());
        assert!(MarkedPerformance::new(1.0, 1.0, f64::NAN).is_err());
    }
}

//! Analytic communication cost models.
//!
//! The SPMD runtime charges every communication operation a deterministic
//! virtual-time cost obtained from a [`NetworkModel`]. Three fidelities
//! are provided; the `ablate-net` study in the experiment harness
//! quantifies how the choice affects predicted scalability.
//!
//! * [`ConstantLatency`] — every operation costs a fixed latency,
//!   independent of message size and process count. This is the regime of
//!   the paper's **Corollary 1** (constant overhead ⇒ perfectly scalable),
//!   so it is used by the property tests that pin ψ ≡ 1.
//! * [`SwitchedNetwork`] — a full-bisection switch: point-to-point cost
//!   `α + bytes/β`, tree-based collectives costing `⌈log₂ p⌉` rounds.
//! * [`SharedEthernet`] — the Sunwulf regime: a single shared medium on
//!   which concurrent transfers serialize, so collectives cost the *sum*
//!   of their constituent transfers (`p − 1` of them), not `log₂ p`
//!   rounds. This is what makes larger Sunwulf configurations pay
//!   sharply for communication and drives the paper's ψ < 1 results.

/// Cost model for the cluster interconnect. All times in seconds; all
/// message sizes in bytes. `p` is the number of participating processes
/// (including the root); models must accept `p = 1` (cost 0 collective).
pub trait NetworkModel: Send + Sync {
    /// One point-to-point message of `bytes` from one node to another.
    fn p2p_time(&self, bytes: u64) -> f64;

    /// Endpoint-aware point-to-point cost. Flat networks ignore the
    /// endpoints; topology-aware models (e.g.
    /// [`crate::topology::SegmentedNetwork`]) price intra- and
    /// inter-segment links differently.
    fn p2p_time_between(&self, _from: usize, _to: usize, bytes: u64) -> f64 {
        self.p2p_time(bytes)
    }

    /// Broadcast of `bytes` from a root to the other `p − 1` processes.
    fn bcast_time(&self, p: usize, bytes: u64) -> f64;

    /// Barrier among `p` processes.
    fn barrier_time(&self, p: usize) -> f64;

    /// Gather to a root: process `i` contributes `sizes[i]` bytes
    /// (`sizes[root]` is transferred locally and free).
    fn gather_time(&self, sizes: &[u64], root: usize) -> f64;

    /// Scatter from a root: process `i` receives `sizes[i]` bytes.
    /// Defaults to the gather cost (symmetric on all provided models).
    fn scatter_time(&self, sizes: &[u64], root: usize) -> f64 {
        self.gather_time(sizes, root)
    }

    /// Class-collapsed point-to-point cost: `Some(t)` iff the model
    /// prices a `bytes`-sized message between *every* endpoint pair at
    /// exactly `t` — bit-identical to
    /// [`NetworkModel::p2p_time_between`] for all `from`/`to` pairs.
    /// Endpoint-aware models return `None` (the default), telling
    /// class-aggregated pricing (DESIGN.md §13) to fall back to the
    /// per-rank path with a typed reason.
    fn p2p_time_class(&self, _bytes: u64) -> Option<f64> {
        None
    }

    /// Class-collapsed gather cost. `runs` run-length-encodes the
    /// contribution list in rank order (`(bytes, count)` per run);
    /// `root_run` is the run containing the root, whose own
    /// contribution is local and free. `Some(t)` must be bit-identical
    /// to [`NetworkModel::gather_time`] on the expanded sizes with the
    /// root at any position inside its run. Models whose gather cost
    /// cannot be reproduced in O(runs) — or whose size sums would
    /// overflow the per-rank `u64` arithmetic — return `None` (the
    /// default).
    fn gather_time_classed(&self, _runs: &[(u64, u64)], _root_run: usize) -> Option<f64> {
        None
    }

    /// Structural identity of the model, for memoization keys: two
    /// models with equal fingerprints must assign identical costs to
    /// every operation. The encoding is a tag word followed by the
    /// model's parameter bits (`f64::to_bits`), so distinct model types
    /// never collide. Returns `None` (the default) when the model has
    /// no stable structural identity — callers must then treat its
    /// results as uncacheable.
    fn fingerprint(&self) -> Option<Vec<u64>> {
        None
    }
}

impl<T: NetworkModel + ?Sized> NetworkModel for &T {
    fn p2p_time(&self, bytes: u64) -> f64 {
        (**self).p2p_time(bytes)
    }
    fn p2p_time_between(&self, from: usize, to: usize, bytes: u64) -> f64 {
        (**self).p2p_time_between(from, to, bytes)
    }
    fn bcast_time(&self, p: usize, bytes: u64) -> f64 {
        (**self).bcast_time(p, bytes)
    }
    fn barrier_time(&self, p: usize) -> f64 {
        (**self).barrier_time(p)
    }
    fn gather_time(&self, sizes: &[u64], root: usize) -> f64 {
        (**self).gather_time(sizes, root)
    }
    fn scatter_time(&self, sizes: &[u64], root: usize) -> f64 {
        (**self).scatter_time(sizes, root)
    }
    fn p2p_time_class(&self, bytes: u64) -> Option<f64> {
        (**self).p2p_time_class(bytes)
    }
    fn gather_time_classed(&self, runs: &[(u64, u64)], root_run: usize) -> Option<f64> {
        (**self).gather_time_classed(runs, root_run)
    }
    fn fingerprint(&self) -> Option<Vec<u64>> {
        (**self).fingerprint()
    }
}

/// Expanded rank count of a run-length-encoded contribution list.
fn classed_len(runs: &[(u64, u64)]) -> u128 {
    runs.iter().map(|&(_, c)| c as u128).sum()
}

/// Σ bytes over the expanded runs minus the root's own contribution —
/// exactly the integer total the per-rank gather costs sum. `None`
/// when the total would overflow the per-rank `u64` arithmetic.
fn classed_total_excl_root(runs: &[(u64, u64)], root_run: usize) -> Option<u64> {
    let mut total: u128 = 0;
    for (i, &(bytes, count)) in runs.iter().enumerate() {
        total += bytes as u128 * (count as u128 - u128::from(i == root_run));
    }
    u64::try_from(total).ok()
}

fn ceil_log2(p: usize) -> f64 {
    if p <= 1 {
        0.0
    } else {
        (usize::BITS - (p - 1).leading_zeros()) as f64
    }
}

/// Fixed-cost network: every operation takes `latency` seconds.
///
/// Unphysical, but exactly the "communication overhead is constant for
/// any problem size and system size" premise of Corollary 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantLatency {
    /// Cost of any operation, in seconds.
    pub latency: f64,
}

impl ConstantLatency {
    /// Creates the model. Panics on negative or non-finite latency.
    pub fn new(latency: f64) -> Self {
        assert!(latency.is_finite() && latency >= 0.0, "latency must be ≥ 0");
        ConstantLatency { latency }
    }
}

impl NetworkModel for ConstantLatency {
    fn p2p_time(&self, _bytes: u64) -> f64 {
        self.latency
    }
    fn bcast_time(&self, p: usize, _bytes: u64) -> f64 {
        if p <= 1 {
            0.0
        } else {
            self.latency
        }
    }
    fn barrier_time(&self, p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            self.latency
        }
    }
    fn gather_time(&self, sizes: &[u64], _root: usize) -> f64 {
        if sizes.len() <= 1 {
            0.0
        } else {
            self.latency
        }
    }
    fn p2p_time_class(&self, bytes: u64) -> Option<f64> {
        Some(self.p2p_time(bytes))
    }
    fn gather_time_classed(&self, runs: &[(u64, u64)], _root_run: usize) -> Option<f64> {
        Some(if classed_len(runs) <= 1 { 0.0 } else { self.latency })
    }
    fn fingerprint(&self) -> Option<Vec<u64>> {
        Some(vec![1, self.latency.to_bits()])
    }
}

/// Full-bisection switched network with per-message latency `alpha` and
/// bandwidth `beta` bytes/s; collectives use binomial trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchedNetwork {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Link bandwidth in bytes per second.
    pub beta: f64,
}

impl SwitchedNetwork {
    /// Creates the model. Panics on non-positive bandwidth or negative
    /// latency.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "latency must be ≥ 0");
        assert!(beta.is_finite() && beta > 0.0, "bandwidth must be > 0");
        SwitchedNetwork { alpha, beta }
    }

    fn transfer(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 / self.beta
    }
}

impl NetworkModel for SwitchedNetwork {
    fn p2p_time(&self, bytes: u64) -> f64 {
        self.transfer(bytes)
    }
    fn bcast_time(&self, p: usize, bytes: u64) -> f64 {
        ceil_log2(p) * self.transfer(bytes)
    }
    fn barrier_time(&self, p: usize) -> f64 {
        // Dissemination barrier: log₂ p rounds of zero-byte messages,
        // counted both ways.
        2.0 * ceil_log2(p) * self.alpha
    }
    fn gather_time(&self, sizes: &[u64], root: usize) -> f64 {
        // Root's inbound link is the bottleneck: latency pipelines over a
        // tree, payload serializes on the root link.
        let total: u64 =
            sizes.iter().enumerate().filter(|(i, _)| *i != root).map(|(_, &s)| s).sum();
        if sizes.len() <= 1 {
            return 0.0;
        }
        ceil_log2(sizes.len()) * self.alpha + total as f64 / self.beta
    }
    fn p2p_time_class(&self, bytes: u64) -> Option<f64> {
        Some(self.p2p_time(bytes))
    }
    fn gather_time_classed(&self, runs: &[(u64, u64)], root_run: usize) -> Option<f64> {
        let len = classed_len(runs);
        if len <= 1 {
            return Some(0.0);
        }
        let total = classed_total_excl_root(runs, root_run)?;
        Some(ceil_log2(usize::try_from(len).ok()?) * self.alpha + total as f64 / self.beta)
    }
    fn fingerprint(&self) -> Option<Vec<u64>> {
        Some(vec![2, self.alpha.to_bits(), self.beta.to_bits()])
    }
}

/// Shared-medium Ethernet: one transfer at a time on the wire.
///
/// Every collective decomposes into point-to-point transfers that
/// serialize, so a broadcast among `p` processes costs `p − 1` full
/// transfers. This linear-in-`p` collective cost is characteristic of
/// MPICH over 100 Mb hub/shared Ethernet circa 2005 and is the dominant
/// overhead term in the paper's GE experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedEthernet {
    /// Per-message software + wire latency in seconds.
    pub alpha: f64,
    /// Medium bandwidth in bytes per second (shared by all transfers).
    pub beta: f64,
}

impl SharedEthernet {
    /// Creates the model. Panics on non-positive bandwidth or negative
    /// latency.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "latency must be ≥ 0");
        assert!(beta.is_finite() && beta > 0.0, "bandwidth must be > 0");
        SharedEthernet { alpha, beta }
    }

    fn transfer(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 / self.beta
    }
}

impl NetworkModel for SharedEthernet {
    fn p2p_time(&self, bytes: u64) -> f64 {
        self.transfer(bytes)
    }
    fn bcast_time(&self, p: usize, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p - 1) as f64 * self.transfer(bytes)
    }
    fn barrier_time(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        // Linear gather + linear release of zero-byte messages.
        2.0 * (p - 1) as f64 * self.alpha
    }
    fn gather_time(&self, sizes: &[u64], root: usize) -> f64 {
        sizes.iter().enumerate().filter(|(i, _)| *i != root).map(|(_, &s)| self.transfer(s)).sum()
    }
    fn p2p_time_class(&self, bytes: u64) -> Option<f64> {
        Some(self.p2p_time(bytes))
    }
    fn gather_time_classed(&self, runs: &[(u64, u64)], root_run: usize) -> Option<f64> {
        // The per-rank cost is a sequential IEEE fold of one transfer
        // per contributor in rank order; every member of a run costs
        // the same, so each run collapses exactly. Which member of the
        // root run is skipped cannot matter: the folded sequence is
        // identical.
        let mut t = 0.0;
        for (i, &(bytes, count)) in runs.iter().enumerate() {
            t = crate::flrepeat::repeat_add(
                t,
                self.transfer(bytes),
                count - u64::from(i == root_run),
            );
        }
        Some(t)
    }
    fn fingerprint(&self) -> Option<Vec<u64>> {
        Some(vec![3, self.alpha.to_bits(), self.beta.to_bits()])
    }
}

/// MPICH-1 over switched fast Ethernet — the Sunwulf regime.
///
/// Point-to-point messages cost `α + bytes/β`. Broadcast uses a binomial
/// tree with pipelining for payload: `⌈log₂p⌉·α + (2(p−1)/p)·bytes/β`
/// (the van-de-Geijn large-message bound, reducing to `α + bytes/β` at
/// `p = 2`). Barrier is the *linear* gather-and-release MPICH-1 actually
/// shipped: `2(p−1)·α`. Gather serializes at the root's inbound link:
/// `(p−1)·α + total_bytes/β`.
///
/// `β` should be the *effective* MPICH throughput for the message sizes
/// in play, which on a full-duplex switched fabric with eager-protocol
/// overlap sits well above the naive wire rate — the paper's calibrated
/// per-element `T_send` slope is the right source (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpichEthernet {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Effective throughput in bytes per second.
    pub beta: f64,
}

impl MpichEthernet {
    /// Creates the model. Panics on non-positive bandwidth or negative
    /// latency.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "latency must be ≥ 0");
        assert!(beta.is_finite() && beta > 0.0, "bandwidth must be > 0");
        MpichEthernet { alpha, beta }
    }
}

impl NetworkModel for MpichEthernet {
    fn p2p_time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 / self.beta
    }
    fn bcast_time(&self, p: usize, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let pipeline_factor = 2.0 * (p - 1) as f64 / p as f64;
        ceil_log2(p) * self.alpha + pipeline_factor * bytes as f64 / self.beta
    }
    fn barrier_time(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        2.0 * (p - 1) as f64 * self.alpha
    }
    fn gather_time(&self, sizes: &[u64], root: usize) -> f64 {
        if sizes.len() <= 1 {
            return 0.0;
        }
        let total: u64 =
            sizes.iter().enumerate().filter(|(i, _)| *i != root).map(|(_, &s)| s).sum();
        (sizes.len() - 1) as f64 * self.alpha + total as f64 / self.beta
    }
    fn p2p_time_class(&self, bytes: u64) -> Option<f64> {
        Some(self.p2p_time(bytes))
    }
    fn gather_time_classed(&self, runs: &[(u64, u64)], root_run: usize) -> Option<f64> {
        let len = classed_len(runs);
        if len <= 1 {
            return Some(0.0);
        }
        let total = classed_total_excl_root(runs, root_run)?;
        Some((usize::try_from(len).ok()? - 1) as f64 * self.alpha + total as f64 / self.beta)
    }
    fn fingerprint(&self) -> Option<Vec<u64>> {
        Some(vec![4, self.alpha.to_bits(), self.beta.to_bits()])
    }
}

/// Deterministic "frozen noise" wrapper: every cost of the inner model
/// is multiplied by a factor in `[1 − σ, 1 + σ]` derived by hashing the
/// operation's inputs with a seed.
///
/// Real clusters never produce the same timing twice; the paper's
/// methodology answers that with polynomial *trend lines* over sampled
/// curves rather than single readings. This wrapper reintroduces
/// measurement roughness while preserving the runtime's determinism
/// guarantee: identical calls still cost identically (the noise is
/// frozen per input), but neighbouring problem sizes see independent
/// perturbations — exactly the roughness a fitted trend line must
/// smooth. The `ablate-noise` study quantifies how well it does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitteredNetwork<M> {
    /// The noise-free cost model.
    pub inner: M,
    /// Relative noise amplitude σ (0 = passthrough, 0.15 = ±15%).
    pub sigma: f64,
    /// Seed decorrelating independent "measurement campaigns".
    pub seed: u64,
}

impl<M: NetworkModel> JitteredNetwork<M> {
    /// Wraps a model. Panics unless `0 ≤ sigma < 1`.
    pub fn new(inner: M, sigma: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&sigma), "sigma must be in [0, 1)");
        JitteredNetwork { inner, sigma, seed }
    }

    fn factor(&self, op: u64, a: u64, b: u64) -> f64 {
        // splitmix64 over the packed inputs.
        let mut z = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(op.wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(a.rotate_left(17))
            .wrapping_add(b.rotate_left(41));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        1.0 + self.sigma * (2.0 * unit - 1.0)
    }
}

impl<M: NetworkModel> NetworkModel for JitteredNetwork<M> {
    fn p2p_time(&self, bytes: u64) -> f64 {
        self.inner.p2p_time(bytes) * self.factor(1, bytes, 0)
    }
    fn p2p_time_between(&self, from: usize, to: usize, bytes: u64) -> f64 {
        self.inner.p2p_time_between(from, to, bytes)
            * self.factor(2, bytes, ((from as u64) << 32) | to as u64)
    }
    fn bcast_time(&self, p: usize, bytes: u64) -> f64 {
        self.inner.bcast_time(p, bytes) * self.factor(3, bytes, p as u64)
    }
    fn barrier_time(&self, p: usize) -> f64 {
        self.inner.barrier_time(p) * self.factor(4, p as u64, 0)
    }
    fn gather_time(&self, sizes: &[u64], root: usize) -> f64 {
        let total: u64 = sizes.iter().sum();
        self.inner.gather_time(sizes, root) * self.factor(5, total, root as u64)
    }
    fn fingerprint(&self) -> Option<Vec<u64>> {
        let mut fp = vec![5, self.sigma.to_bits(), self.seed];
        fp.extend(self.inner.fingerprint()?);
        Some(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0.0);
        assert_eq!(ceil_log2(2), 1.0);
        assert_eq!(ceil_log2(3), 2.0);
        assert_eq!(ceil_log2(4), 2.0);
        assert_eq!(ceil_log2(5), 3.0);
        assert_eq!(ceil_log2(32), 5.0);
    }

    #[test]
    fn constant_latency_ignores_size_and_p() {
        let m = ConstantLatency::new(1e-3);
        assert_eq!(m.p2p_time(0), 1e-3);
        assert_eq!(m.p2p_time(1 << 30), 1e-3);
        assert_eq!(m.bcast_time(2, 8), m.bcast_time(1024, 1 << 20));
        assert_eq!(m.barrier_time(2), m.barrier_time(1024));
    }

    #[test]
    fn constant_latency_single_process_collectives_are_free() {
        let m = ConstantLatency::new(1e-3);
        assert_eq!(m.bcast_time(1, 100), 0.0);
        assert_eq!(m.barrier_time(1), 0.0);
        assert_eq!(m.gather_time(&[100], 0), 0.0);
    }

    #[test]
    fn switched_p2p_is_alpha_beta() {
        let m = SwitchedNetwork::new(1e-4, 1e8);
        let t = m.p2p_time(1_000_000);
        assert!((t - (1e-4 + 0.01)).abs() < 1e-12);
    }

    #[test]
    fn switched_bcast_grows_logarithmically() {
        let m = SwitchedNetwork::new(1e-4, 1e8);
        let t2 = m.bcast_time(2, 1000);
        let t16 = m.bcast_time(16, 1000);
        assert!((t16 / t2 - 4.0).abs() < 1e-9, "log₂16 / log₂2 = 4");
    }

    #[test]
    fn ethernet_bcast_grows_linearly() {
        let (alpha, beta) = (1e-4, 1.25e7);
        let m = SharedEthernet::new(alpha, beta);
        let t2 = m.bcast_time(2, 1000);
        let t16 = m.bcast_time(16, 1000);
        assert!((t16 / t2 - 15.0).abs() < 1e-9, "(16−1)/(2−1) = 15");
        // On one shared medium the root's p − 1 copies, all ready at
        // once, go out back to back: the broadcast ends when the last
        // one does.
        for p in [1, 2, 4, 8, 16, 32] {
            for bytes in [0u64, 800, 8000, 80_000] {
                let mut wire_free = 0.0;
                for _ in 1..p {
                    wire_free += alpha + bytes as f64 / beta;
                }
                let t = m.bcast_time(p, bytes);
                assert!((t - wire_free).abs() < 1e-12, "p={p} bytes={bytes}: {t} vs {wire_free}");
            }
        }
    }

    #[test]
    fn ethernet_collectives_dominate_switched_for_large_p() {
        let eth = SharedEthernet::new(1e-4, 1.25e7);
        let sw = SwitchedNetwork::new(1e-4, 1.25e7);
        for p in [4, 8, 16, 32] {
            assert!(
                eth.bcast_time(p, 4096) > sw.bcast_time(p, 4096),
                "shared medium must cost more at p = {p}"
            );
        }
    }

    #[test]
    fn gather_excludes_root_contribution() {
        let m = SharedEthernet::new(1e-3, 1e6);
        let sizes = [500u64, 500, 500];
        let t_root0 = m.gather_time(&sizes, 0);
        // Two remote transfers of 500 B each.
        assert!((t_root0 - 2.0 * (1e-3 + 500.0 / 1e6)).abs() < 1e-12);
    }

    #[test]
    fn gather_asymmetric_sizes() {
        let m = SharedEthernet::new(0.0, 1e6);
        let sizes = [0u64, 1_000_000, 2_000_000];
        assert!((m.gather_time(&sizes, 0) - 3.0).abs() < 1e-12);
        assert!((m.gather_time(&sizes, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scatter_defaults_to_gather_cost() {
        let m = SwitchedNetwork::new(1e-4, 1e7);
        let sizes = [100u64, 200, 300, 400];
        assert_eq!(m.scatter_time(&sizes, 0), m.gather_time(&sizes, 0));
    }

    #[test]
    fn barrier_scaling_shapes() {
        let eth = SharedEthernet::new(1e-3, 1e7);
        let sw = SwitchedNetwork::new(1e-3, 1e7);
        // Ethernet barrier linear in p, switched logarithmic.
        assert!((eth.barrier_time(9) / eth.barrier_time(2) - 8.0).abs() < 1e-9);
        assert!((sw.barrier_time(16) / sw.barrier_time(2) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be > 0")]
    fn zero_bandwidth_rejected() {
        SharedEthernet::new(1e-3, 0.0);
    }

    #[test]
    #[should_panic(expected = "latency must be ≥ 0")]
    fn negative_latency_rejected() {
        SwitchedNetwork::new(-1.0, 1e7);
    }

    #[test]
    fn mpich_bcast_reduces_to_p2p_at_two_ranks() {
        let m = MpichEthernet::new(3e-4, 1e8);
        assert!((m.bcast_time(2, 1000) - m.p2p_time(1000)).abs() < 1e-15);
    }

    #[test]
    fn mpich_bcast_payload_is_pipelined_not_multiplied() {
        // Latency grows like log p but payload stays ~2·bytes/β.
        let m = MpichEthernet::new(3e-4, 1e8);
        let big = 1_000_000u64;
        let t8 = m.bcast_time(8, big);
        let t32 = m.bcast_time(32, big);
        let payload_bound = 2.0 * big as f64 / 1e8;
        assert!(t8 < 3.0 * 3e-4 + payload_bound + 1e-12);
        // Between p = 8 and p = 32 only 2 latency rounds plus a ~11%
        // pipeline-factor change may be added — nothing like the 2.6×
        // a per-round-payload tree would cost.
        assert!(
            t32 - t8 < 2.0 * 3e-4 + 0.2 * big as f64 / 1e8,
            "payload must not multiply with p: t8 = {t8}, t32 = {t32}"
        );
    }

    #[test]
    fn mpich_barrier_is_linear_in_p() {
        let m = MpichEthernet::new(3e-4, 1e8);
        assert!((m.barrier_time(9) / m.barrier_time(2) - 8.0).abs() < 1e-9);
        assert_eq!(m.barrier_time(1), 0.0);
    }

    #[test]
    fn mpich_gather_serializes_latency_at_root() {
        let m = MpichEthernet::new(1e-3, 1e6);
        let sizes = [100u64, 100, 100, 100];
        let t = m.gather_time(&sizes, 0);
        assert!((t - (3.0 * 1e-3 + 300.0 / 1e6)).abs() < 1e-12);
    }

    #[test]
    fn jitter_is_frozen_and_bounded() {
        let net = JitteredNetwork::new(MpichEthernet::new(3e-4, 1e8), 0.15, 42);
        let base = MpichEthernet::new(3e-4, 1e8);
        for bytes in [64u64, 800, 8000, 80_000] {
            let a = net.p2p_time(bytes);
            let b = net.p2p_time(bytes);
            assert_eq!(a, b, "identical calls must cost identically");
            let rel = (a / base.p2p_time(bytes) - 1.0).abs();
            assert!(rel <= 0.15 + 1e-12, "jitter out of band: {rel}");
        }
    }

    #[test]
    fn jitter_varies_across_inputs_and_seeds() {
        let n1 = JitteredNetwork::new(MpichEthernet::new(3e-4, 1e8), 0.15, 1);
        let n2 = JitteredNetwork::new(MpichEthernet::new(3e-4, 1e8), 0.15, 2);
        assert_ne!(n1.p2p_time(1000), n1.p2p_time(1001));
        assert_ne!(n1.p2p_time(1000), n2.p2p_time(1000));
        assert_ne!(n1.bcast_time(4, 1000), n1.bcast_time(8, 1000));
    }

    #[test]
    fn zero_sigma_is_passthrough() {
        let inner = MpichEthernet::new(3e-4, 1e8);
        let net = JitteredNetwork::new(inner, 0.0, 7);
        assert_eq!(net.p2p_time(4096), inner.p2p_time(4096));
        assert_eq!(net.barrier_time(8), inner.barrier_time(8));
    }

    #[test]
    #[should_panic(expected = "sigma must be in [0, 1)")]
    fn sigma_of_one_rejected() {
        JitteredNetwork::new(MpichEthernet::new(3e-4, 1e8), 1.0, 0);
    }

    /// Expands a run-length-encoded contribution list and returns the
    /// expanded sizes plus the rank index of the `offset`-th member of
    /// `root_run`.
    fn expand(runs: &[(u64, u64)], root_run: usize, offset: u64) -> (Vec<u64>, usize) {
        let mut sizes = Vec::new();
        let mut root = 0;
        for (i, &(bytes, count)) in runs.iter().enumerate() {
            if i == root_run {
                root = sizes.len() + offset as usize;
            }
            sizes.extend(std::iter::repeat_n(bytes, count as usize));
        }
        (sizes, root)
    }

    #[test]
    fn classed_gather_matches_expanded_bit_for_bit() {
        let runs: Vec<(u64, u64)> = vec![(4096, 1), (800, 37), (1600, 5), (800, 2)];
        let models: Vec<Box<dyn NetworkModel>> = vec![
            Box::new(ConstantLatency::new(1e-3)),
            Box::new(SwitchedNetwork::new(1e-4, 1e7)),
            Box::new(SharedEthernet::new(1e-4, 1.25e7)),
            Box::new(MpichEthernet::new(0.30e-3, 1.0e8)),
        ];
        for (model, m) in models.iter().enumerate() {
            for root_run in 0..runs.len() {
                let classed = m.gather_time_classed(&runs, root_run).expect("flat model prices");
                // The root's position inside its run must not matter.
                for offset in [0, runs[root_run].1 - 1] {
                    let (sizes, root) = expand(&runs, root_run, offset);
                    let expanded = m.gather_time(&sizes, root);
                    assert_eq!(classed.to_bits(), expanded.to_bits(), "model {model} root {root}");
                }
            }
        }
    }

    #[test]
    fn classed_gather_handles_degenerate_lists() {
        let m = MpichEthernet::new(0.30e-3, 1.0e8);
        assert_eq!(m.gather_time_classed(&[(800, 1)], 0), Some(0.0));
        assert_eq!(SharedEthernet::new(1e-4, 1e7).gather_time_classed(&[(800, 1)], 0), Some(0.0));
        // Overflowing the per-rank u64 total refuses rather than lies.
        assert_eq!(m.gather_time_classed(&[(u64::MAX, 3)], 0), None);
    }

    #[test]
    fn classed_p2p_matches_endpoint_blind_cost() {
        let flat: Vec<Box<dyn NetworkModel>> = vec![
            Box::new(ConstantLatency::new(1e-3)),
            Box::new(SwitchedNetwork::new(1e-4, 1e7)),
            Box::new(SharedEthernet::new(1e-4, 1.25e7)),
            Box::new(MpichEthernet::new(0.30e-3, 1.0e8)),
        ];
        for m in &flat {
            for bytes in [0u64, 8, 800, 1 << 20] {
                let classed = m.p2p_time_class(bytes).expect("flat model is endpoint-blind");
                assert_eq!(classed.to_bits(), m.p2p_time_between(3, 11, bytes).to_bits());
            }
        }
        // Endpoint-dependent pricing must refuse the classed shortcut.
        let jittered = JitteredNetwork::new(MpichEthernet::new(0.30e-3, 1.0e8), 0.15, 42);
        assert_eq!(jittered.p2p_time_class(800), None);
        assert_eq!(jittered.gather_time_classed(&[(800, 4)], 0), None);
    }

    #[test]
    fn trait_objects_are_usable() {
        let models: Vec<Box<dyn NetworkModel>> = vec![
            Box::new(ConstantLatency::new(1e-3)),
            Box::new(SwitchedNetwork::new(1e-4, 1e7)),
            Box::new(SharedEthernet::new(1e-4, 1e7)),
            Box::new(MpichEthernet::new(1e-4, 1e7)),
        ];
        for m in &models {
            assert!(m.p2p_time(100) >= 0.0);
            assert!(m.bcast_time(8, 100) >= 0.0);
        }
    }
}

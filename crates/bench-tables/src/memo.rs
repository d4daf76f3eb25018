//! Cross-cell memoization of the GE and MM ladder cells.
//!
//! The paper's §4.4 method reads several tables off the same measured
//! curves, so the suite prices many `(kernel, cluster, network, N)`
//! cells more than once: the GE ladder rung reappears in the figure-1
//! plot, the §4.4 inversion probes revisit ladder sizes, and the
//! isospeed/isoefficiency baselines re-measure the curves the tables
//! already produced. Only the GE and MM cells
//! ([`crate::systems::GeSystem`], [`crate::systems::MmSystem`]) are
//! read again: the stencil, power and recovery cells are each priced
//! once per run, so they price directly and never touch the map. Every
//! cell is a pure function of its structural inputs (the timing
//! engines are deterministic), so a process-wide cache returns the
//! previously computed makespan — bit-identical by construction, which
//! is why memoization cannot perturb any table. Every caller reads only
//! the makespan, so that is all a cell stores.
//!
//! The key is the kernel label, the cluster's per-rank speed bits
//! ([`ClusterSpec::fingerprint`]), the network model's tagged parameter
//! bits ([`NetworkModel::fingerprint`]) and `n`. A model without a
//! stable structural identity (`fingerprint() == None`) bypasses the
//! cache entirely.
//!
//! The cache sits *behind* the worker pool: workers race only on the
//! map lock, never on cell results, and assembly order stays cell
//! order — `--jobs` byte-identity is untouched. Each cell is an
//! `Arc<OnceLock<_>>` slot handed out under the map lock, so every cell
//! computes **exactly once** even when two workers touch it
//! concurrently (the second blocks on `get_or_init` instead of
//! recomputing), which makes the per-kernel touch/entry counters in
//! [`snapshot`] pure functions of the touch multiset — byte-stable
//! across runs and `--jobs` values (DESIGN.md §11).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;

/// Structural identity of one timed-kernel cell.
#[derive(Hash, PartialEq, Eq)]
struct MemoKey {
    kernel: &'static str,
    cluster: Vec<u64>,
    network: Vec<u64>,
    n: usize,
}

/// One cell: the result slot plus how many lookups landed on it.
struct Slot {
    cell: Arc<OnceLock<SimTime>>,
    touches: u64,
}

static CACHE: OnceLock<Mutex<HashMap<MemoKey, Slot>>> = OnceLock::new();
static BYPASSES: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Per-kernel memo-cache counters (see [`snapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoCounts {
    /// Lookups against fingerprintable networks.
    pub touches: u64,
    /// Distinct cells those lookups created (first touches).
    pub entries: u64,
    /// Lookups skipped because the network has no fingerprint.
    pub bypasses: u64,
}

impl MemoCounts {
    /// Touches served from an existing cell: every touch after a cell's
    /// first.
    pub(crate) fn hits(&self) -> u64 {
        self.touches - self.entries
    }
}

/// Returns the memoized makespan for the cell, computing (and caching)
/// it on first touch. The key is `kernel`, the cluster's speed bits,
/// the network's fingerprint and `n`, so `compute` must return the
/// makespan of the fault-free timed-kernel run those four pin.
pub fn cached<N: NetworkModel>(
    kernel: &'static str,
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    compute: impl FnOnce() -> SimTime,
) -> SimTime {
    let Some(net_fp) = network.fingerprint() else {
        *BYPASSES.lock().unwrap_or_else(PoisonError::into_inner).entry(kernel).or_insert(0) += 1;
        return compute();
    };
    let key = MemoKey { kernel, cluster: cluster.fingerprint(), network: net_fp, n };
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let cell = {
        let mut map = cache.lock().unwrap_or_else(PoisonError::into_inner);
        let slot =
            map.entry(key).or_insert_with(|| Slot { cell: Arc::new(OnceLock::new()), touches: 0 });
        slot.touches += 1;
        Arc::clone(&slot.cell)
    };
    *cell.get_or_init(compute)
}

/// Per-kernel counters: touches, entries (distinct cells), bypasses.
/// Hits are the difference — every touch after a cell's first is served
/// from the cache by construction.
pub fn snapshot() -> BTreeMap<&'static str, MemoCounts> {
    let mut out: BTreeMap<&'static str, MemoCounts> = BTreeMap::new();
    if let Some(cache) = CACHE.get() {
        for (key, slot) in cache.lock().unwrap_or_else(PoisonError::into_inner).iter() {
            let counts = out.entry(key.kernel).or_default();
            counts.touches += slot.touches;
            counts.entries += 1;
        }
    }
    for (&kernel, &bypasses) in BYPASSES.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        out.entry(kernel).or_default().bypasses += bypasses;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::network::{JitteredNetwork, MpichEthernet};
    use hetsim_cluster::node::NodeSpec;
    use hetsim_cluster::sunwulf;
    use hetsim_mpi::RunSpec;
    use kernels::ge::ge_parallel_timed;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn second_touch_skips_compute_and_matches() {
        let cluster = sunwulf::ge_config(3);
        // A parameter point no other test uses, so the first touch
        // really computes.
        let net = MpichEthernet::new(0.31e-3, 1.01e8);
        let calls = AtomicUsize::new(0);
        let run = || {
            cached("ge", &cluster, &net, 97, || {
                calls.fetch_add(1, Ordering::Relaxed);
                ge_parallel_timed(&cluster, &net, 97, RunSpec::default()).makespan
            })
        };
        let first = run();
        let second = run();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "second touch must hit the cache");
        assert_eq!(first, second);
        assert_eq!(first, ge_parallel_timed(&cluster, &net, 97, RunSpec::default()).makespan);
    }

    #[test]
    fn distinct_networks_do_not_collide() {
        let cluster = sunwulf::ge_config(2);
        let a = JitteredNetwork::new(sunwulf::sunwulf_network(), 0.05, 1);
        let b = JitteredNetwork::new(sunwulf::sunwulf_network(), 0.05, 2);
        let ra = cached("ge", &cluster, &a, 83, || {
            ge_parallel_timed(&cluster, &a, 83, RunSpec::default()).makespan
        });
        let rb = cached("ge", &cluster, &b, 83, || {
            ge_parallel_timed(&cluster, &b, 83, RunSpec::default()).makespan
        });
        assert_ne!(ra, rb, "different seeds must key different cells");
        assert_eq!(rb, ge_parallel_timed(&cluster, &b, 83, RunSpec::default()).makespan);
    }

    #[test]
    fn distinct_clusters_do_not_collide() {
        // Two clusters one marked speed apart, under one kernel label no
        // other test uses, one network and one `n`: only the cluster part
        // of the key tells them apart.
        let a = ClusterSpec::homogeneous(3, 50.0);
        let b = a.with_upgraded_node(2, NodeSpec::synthetic("slow", 49.0));
        let net = MpichEthernet::new(0.33e-3, 1.03e8);
        let priced = |c: &ClusterSpec| ge_parallel_timed(c, &net, 71, RunSpec::default()).makespan;
        let ra = cached("memo-cluster-test", &a, &net, 71, || priced(&a));
        let rb = cached("memo-cluster-test", &b, &net, 71, || priced(&b));
        let counts = snapshot()["memo-cluster-test"];
        assert_eq!((counts.touches, counts.entries), (2, 2), "one entry per cluster");
        assert_eq!(ra, priced(&a));
        assert_eq!(rb, priced(&b));
        assert_ne!(ra, rb, "the clusters must price apart for the test to tell them apart");
    }

    #[test]
    fn fingerprintless_networks_bypass_the_cache() {
        struct Opaque;
        impl NetworkModel for Opaque {
            fn p2p_time(&self, _bytes: u64) -> f64 {
                1e-4
            }
            fn bcast_time(&self, _p: usize, _bytes: u64) -> f64 {
                1e-4
            }
            fn barrier_time(&self, _p: usize) -> f64 {
                1e-4
            }
            fn gather_time(&self, _sizes: &[u64], _root: usize) -> f64 {
                1e-4
            }
        }
        let cluster = sunwulf::ge_config(2);
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            cached("memo-bypass-test", &cluster, &Opaque, 61, || {
                calls.fetch_add(1, Ordering::Relaxed);
                ge_parallel_timed(&cluster, &Opaque, 61, RunSpec::default()).makespan
            });
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2, "no fingerprint — every touch computes");
        let counts = snapshot()["memo-bypass-test"];
        assert_eq!(counts.bypasses, 2);
        assert_eq!(counts.touches, 0, "bypasses are not cache touches");
    }

    #[test]
    fn snapshot_pins_touches_and_entries_for_overlapping_ladders() {
        // Two "ladders" under a kernel label no other test uses, sharing
        // the rung n=40: four touches land on three distinct cells, so
        // exactly one touch is a hit.
        let cluster = sunwulf::ge_config(2);
        let net = MpichEthernet::new(0.29e-3, 1.07e8);
        for ladder in [[40usize, 56], [40, 72]] {
            for n in ladder {
                cached("memo-stats-test", &cluster, &net, n, || {
                    ge_parallel_timed(&cluster, &net, n, RunSpec::default()).makespan
                });
            }
        }
        let counts = snapshot()["memo-stats-test"];
        assert_eq!(counts.touches, 4);
        assert_eq!(counts.entries, 3);
        assert_eq!(counts.touches - counts.entries, 1, "the shared rung hits once");
        assert_eq!(counts.bypasses, 0);
    }
}

//! Memory-feasibility checks for the paper's workloads.
//!
//! The simulator will happily run any problem size; the *physical*
//! Sunwulf would not — a 128 MB SunBlade caps what it can hold. These
//! checks make that constraint explicit, for two uses: flagging ladder
//! rungs whose required problem size outgrows the real machine (a
//! caveat the experiment tables carry), and grounding the paper's §2
//! critique of isoefficiency (the sequential baseline of a large
//! problem cannot even be *stored* on one node).
//!
//! Per-node footprints assume speed-proportional distribution (share
//! `Cᵢ/C` of the rows) and 8-byte elements: for GE, the node's share of
//! the augmented matrix, `shareᵢ·N·(N+1)·8`.

use crate::cluster::ClusterSpec;

/// Fraction of a node's physical memory usable for matrix data (the
/// rest goes to OS, MPI buffers, and code — generous for 2005 systems).
pub const USABLE_FRACTION: f64 = 0.75;

/// Bytes node `i` needs to hold its GE share at rank `n`.
pub fn ge_bytes_per_node(cluster: &ClusterSpec, n: usize) -> Vec<f64> {
    let total = n as f64 * (n as f64 + 1.0) * 8.0;
    cluster.speed_fractions().iter().map(|f| f * total).collect()
}

fn fits(cluster: &ClusterSpec, bytes: &[f64]) -> bool {
    cluster
        .nodes()
        .iter()
        .zip(bytes)
        .all(|(node, &need)| need <= node.memory_mb as f64 * 1024.0 * 1024.0 * USABLE_FRACTION)
}

/// True when every node can hold its GE share at rank `n`.
pub fn ge_feasible(cluster: &ClusterSpec, n: usize) -> bool {
    fits(cluster, &ge_bytes_per_node(cluster, n))
}

/// Largest rank for which `feasible(cluster, n)` holds, up to a search
/// cap of 10⁶ (returns 0 when even `n = 1` does not fit).
pub fn max_feasible(
    cluster: &ClusterSpec,
    feasible: impl Fn(&ClusterSpec, usize) -> bool,
) -> usize {
    if !feasible(cluster, 1) {
        return 0;
    }
    let mut lo = 1usize;
    let mut hi = 1usize;
    while hi < 1_000_000 && feasible(cluster, hi) {
        lo = hi;
        hi *= 2;
    }
    if hi >= 1_000_000 {
        return lo;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(cluster, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sunwulf;

    #[test]
    fn small_problems_fit_everywhere() {
        let c = sunwulf::ge_config(8);
        assert!(ge_feasible(&c, 300));
    }

    #[test]
    fn proportional_share_drives_the_ge_footprint() {
        let c = sunwulf::ge_config(2);
        let bytes = ge_bytes_per_node(&c, 1000);
        // Server (90 Mflop/s of 140) holds ~64% of the matrix.
        let frac = bytes[0] / (bytes[0] + bytes[1]);
        assert!((frac - 90.0 / 140.0).abs() < 1e-9);
    }

    #[test]
    fn papers_required_ranks_were_physically_feasible() {
        // Sanity: the reproduction's T3 required ranks (≈ 300..4700 on
        // the GE ladder) fit the reconstructed machines, so the paper's
        // experiment was physically runnable — while the isoefficiency
        // baseline (the whole problem on ONE SunBlade) stops at a much
        // smaller rank.
        let ladder8 = sunwulf::ge_config(8);
        assert!(ge_feasible(&ladder8, 1241));
        let one_blade = ClusterSpecFor::single(sunwulf::sunblade_node(1));
        let max_seq = max_feasible(&one_blade, ge_feasible);
        assert!(max_seq < 4000, "one SunBlade caps out at rank {max_seq}");
    }

    /// Helper: single-node cluster.
    struct ClusterSpecFor;
    impl ClusterSpecFor {
        fn single(node: crate::node::NodeSpec) -> ClusterSpec {
            ClusterSpec::new("single", vec![node]).expect("non-empty")
        }
    }

    #[test]
    fn infeasible_at_rank_one_returns_zero() {
        let mut node = sunwulf::sunblade_node(1);
        node.memory_mb = 0;
        let c = ClusterSpec::new("tiny", vec![node]).unwrap();
        assert_eq!(max_feasible(&c, ge_feasible), 0);
    }
}

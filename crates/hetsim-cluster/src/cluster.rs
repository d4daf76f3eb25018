//! Cluster specifications: ordered collections of nodes.
//!
//! A [`ClusterSpec`] is the machine half of an *algorithm–system
//! combination*. Its key derived quantity is the system **marked speed**
//! `C = Σᵢ Cᵢ` (Definition 2 of the paper); the isospeed-efficiency
//! scalability function compares systems by `C`, not by node count.

use crate::node::{NodeKind, NodeSpec};
use std::fmt;

/// An ordered set of nodes forming one computing system.
///
/// Rank `i` of an SPMD program runs on `nodes()[i]`; the ordering is part
/// of the specification (the paper places the server node at rank 0,
/// where process 0 distributes and collects data).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
    /// Human-readable label, e.g. `"sunwulf-ge-4"`.
    pub label: String,
}

impl ClusterSpec {
    /// Builds a cluster from nodes. Errors on an empty node list.
    pub fn new(label: impl Into<String>, nodes: Vec<NodeSpec>) -> Result<ClusterSpec, String> {
        if nodes.is_empty() {
            return Err("a cluster needs at least one node".to_string());
        }
        Ok(ClusterSpec { nodes, label: label.into() })
    }

    /// A homogeneous cluster of `p` identical synthetic nodes, used to
    /// check that isospeed-efficiency reduces to classic isospeed.
    pub fn homogeneous(p: usize, marked_speed_mflops: f64) -> ClusterSpec {
        assert!(p > 0, "need at least one node");
        let nodes =
            (0..p).map(|i| NodeSpec::synthetic(format!("homo-{i}"), marked_speed_mflops)).collect();
        ClusterSpec { nodes, label: format!("homogeneous-{p}x{marked_speed_mflops}") }
    }

    /// The nodes, in rank order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of nodes (= number of SPMD processes under the paper's HoHe
    /// strategy: one process per processor).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// System marked speed `C = Σ Cᵢ` in Mflop/s (Definition 2).
    pub fn marked_speed_mflops(&self) -> f64 {
        self.nodes.iter().map(|n| n.marked_speed_mflops).sum()
    }

    /// System marked speed in flop/s.
    pub fn marked_speed_flops(&self) -> f64 {
        self.marked_speed_mflops() * 1e6
    }

    /// Structural identity for memoization keys: the per-rank marked
    /// speed bits, in rank order. Two clusters with equal fingerprints
    /// produce identical virtual timings for any kernel, because the
    /// runtime reads nothing else from a node — labels and node kinds
    /// are reporting metadata and deliberately excluded.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.marked_speed_mflops.to_bits()).collect()
    }

    /// Relative speed fractions `Cᵢ / C`, which drive proportional data
    /// distribution. Sums to 1 up to rounding.
    pub fn speed_fractions(&self) -> Vec<f64> {
        let total = self.marked_speed_mflops();
        self.nodes.iter().map(|n| n.marked_speed_mflops / total).collect()
    }

    /// True when all nodes have identical marked speed (the homogeneous
    /// special case in which isospeed-efficiency degenerates to isospeed).
    pub fn is_homogeneous(&self) -> bool {
        let first = self.nodes[0].marked_speed_mflops;
        self.nodes.iter().all(|n| n.marked_speed_mflops == first)
    }

    /// Count of nodes of a given hardware kind.
    pub fn count_kind(&self, kind: NodeKind) -> usize {
        self.nodes.iter().filter(|n| n.kind == kind).count()
    }

    /// Returns a new cluster with one extra node appended — the paper's
    /// "increasing nodes" way of growing system size.
    pub fn with_node(&self, node: NodeSpec) -> ClusterSpec {
        let mut nodes = self.nodes.clone();
        nodes.push(node);
        ClusterSpec { nodes, label: format!("{}+1", self.label) }
    }

    /// Returns a new cluster where node `index` is replaced — the paper's
    /// "upgrading to more powerful nodes" way of growing system size.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn with_upgraded_node(&self, index: usize, node: NodeSpec) -> ClusterSpec {
        let mut nodes = self.nodes.clone();
        nodes[index] = node;
        ClusterSpec { nodes, label: format!("{}-upgraded", self.label) }
    }
}

impl fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} nodes, C = {:.2} Mflop/s",
            self.label,
            self.size(),
            self.marked_speed_mflops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn het_cluster() -> ClusterSpec {
        ClusterSpec::new(
            "test",
            vec![
                NodeSpec::synthetic("a", 90.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn marked_speed_is_sum_of_nodes() {
        // Mirrors the paper's worked example: system marked speed is the
        // sum of the participating nodes' marked speeds.
        assert_eq!(het_cluster().marked_speed_mflops(), 250.0);
        assert_eq!(het_cluster().marked_speed_flops(), 2.5e8);
    }

    #[test]
    fn empty_cluster_rejected() {
        assert!(ClusterSpec::new("empty", vec![]).is_err());
    }

    #[test]
    fn speed_fractions_sum_to_one() {
        let f = het_cluster().speed_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 90.0 / 250.0).abs() < 1e-12);
    }

    #[test]
    fn homogeneous_detection() {
        assert!(ClusterSpec::homogeneous(4, 50.0).is_homogeneous());
        assert!(!het_cluster().is_homogeneous());
    }

    #[test]
    fn homogeneous_marked_speed_is_p_times_ci() {
        // In the homogeneous case C = p·Cᵢ, recovering the isospeed view.
        let c = ClusterSpec::homogeneous(8, 50.0);
        assert_eq!(c.marked_speed_mflops(), 400.0);
        assert_eq!(c.size(), 8);
    }

    #[test]
    fn with_node_grows_system() {
        let base = het_cluster();
        let grown = base.with_node(NodeSpec::synthetic("d", 50.0));
        assert_eq!(grown.size(), 4);
        assert_eq!(grown.marked_speed_mflops(), 300.0);
        // Original untouched.
        assert_eq!(base.size(), 3);
    }

    #[test]
    fn with_upgraded_node_changes_speed_in_place() {
        let upgraded = het_cluster().with_upgraded_node(1, NodeSpec::synthetic("b2", 200.0));
        assert_eq!(upgraded.size(), 3);
        assert_eq!(upgraded.marked_speed_mflops(), 400.0);
    }

    #[test]
    fn count_kind_counts() {
        let c = het_cluster();
        assert_eq!(c.count_kind(NodeKind::Synthetic), 3);
        assert_eq!(c.count_kind(NodeKind::SunBlade), 0);
    }
}

//! Compute-node specifications.
//!
//! A node is characterized for scalability purposes by its *marked speed*
//! (Definition 1 of the paper): a benchmarked sustained speed, treated as
//! a constant once measured. Nodes also carry CPU count and memory so
//! configuration ladders can mirror the paper's ("server node with two
//! CPUs", "SunFire V210 with 1 CPU", …).

use std::fmt;

/// The hardware families present in the reconstructed Sunwulf cluster,
/// plus a generic kind for synthetic experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// SunFire server node: four 480 MHz CPUs, 4 GB memory.
    SunFireServer,
    /// SunBlade compute node: one 500 MHz CPU, 128 MB memory.
    SunBlade,
    /// SunFire V210 compute node: two 1 GHz CPUs, 2 GB memory.
    SunFireV210,
    /// A synthetic node used in generated experiments.
    Synthetic,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::SunFireServer => "SunFire-server",
            NodeKind::SunBlade => "SunBlade",
            NodeKind::SunFireV210 => "SunFire-V210",
            NodeKind::Synthetic => "synthetic",
        };
        f.write_str(s)
    }
}

/// Specification of one compute node participating in a run.
///
/// `marked_speed_mflops` is the speed of the node *as configured for the
/// run* — a server node restricted to 2 of its 4 CPUs contributes the
/// 2-CPU marked speed, mirroring how the paper composes system marked
/// speeds from per-node measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable identifier, e.g. `"hpc-40"`.
    pub name: String,
    /// Hardware family.
    pub kind: NodeKind,
    /// Benchmarked sustained speed in Mflop/s (Definition 1). Must be
    /// strictly positive.
    pub marked_speed_mflops: f64,
    /// CPUs enabled for the run.
    pub cpus: u32,
    /// Physical memory in MB (bounds the largest problem a node can hold).
    pub memory_mb: u64,
}

impl NodeSpec {
    /// Creates a validated node spec.
    ///
    /// # Errors
    /// Returns a message when the marked speed is non-positive or not
    /// finite, or when `cpus` is zero.
    pub fn new(
        name: impl Into<String>,
        kind: NodeKind,
        marked_speed_mflops: f64,
        cpus: u32,
        memory_mb: u64,
    ) -> Result<NodeSpec, String> {
        if !marked_speed_mflops.is_finite() || marked_speed_mflops <= 0.0 {
            return Err(format!(
                "marked speed must be a positive finite Mflop/s value, got {marked_speed_mflops}"
            ));
        }
        if cpus == 0 {
            return Err("a node must have at least one CPU enabled".to_string());
        }
        Ok(NodeSpec { name: name.into(), kind, marked_speed_mflops, cpus, memory_mb })
    }

    /// Marked speed in flop/s (SI), the unit used by the cost models.
    pub fn marked_speed_flops(&self) -> f64 {
        self.marked_speed_mflops * 1e6
    }

    /// A synthetic node with the given speed, for generated experiments.
    pub fn synthetic(name: impl Into<String>, marked_speed_mflops: f64) -> NodeSpec {
        NodeSpec::new(name, NodeKind::Synthetic, marked_speed_mflops, 1, 1024)
            .expect("synthetic node speed must be positive")
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} CPU, {:.2} Mflop/s)",
            self.name, self.kind, self.cpus, self.marked_speed_mflops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_node_constructs() {
        let n = NodeSpec::new("hpc-1", NodeKind::SunBlade, 50.0, 1, 128).unwrap();
        assert_eq!(n.marked_speed_flops(), 5.0e7);
        assert_eq!(n.cpus, 1);
    }

    #[test]
    fn rejects_nonpositive_speed() {
        assert!(NodeSpec::new("x", NodeKind::Synthetic, 0.0, 1, 1).is_err());
        assert!(NodeSpec::new("x", NodeKind::Synthetic, -5.0, 1, 1).is_err());
        assert!(NodeSpec::new("x", NodeKind::Synthetic, f64::NAN, 1, 1).is_err());
        assert!(NodeSpec::new("x", NodeKind::Synthetic, f64::INFINITY, 1, 1).is_err());
    }

    #[test]
    fn rejects_zero_cpus() {
        assert!(NodeSpec::new("x", NodeKind::Synthetic, 10.0, 0, 1).is_err());
    }

    #[test]
    fn display_mentions_name_and_speed() {
        let n = NodeSpec::new("hpc-65", NodeKind::SunFireV210, 110.0, 1, 2048).unwrap();
        let s = format!("{n}");
        assert!(s.contains("hpc-65"));
        assert!(s.contains("110.00"));
    }
}

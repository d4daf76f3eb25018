//! Segmented (multi-switch) network topology.
//!
//! Real installations of Sunwulf's era rarely hung 85 nodes off one
//! switch: nodes were grouped into segments joined by uplinks, making
//! communication cost depend on *where* a rank sits. This module adds
//! that dimension: a [`SegmentedNetwork`] prices intra-segment traffic
//! with one flat model and anything crossing segments with another
//! (typically slower) one. Point-to-point costs are fully
//! endpoint-aware; collectives — whose trait signature is
//! endpoint-blind — are priced conservatively with the uplink model
//! whenever the participating rank range spans more than one segment.
//!
//! The placement ablation (`ablate-place`) uses this to show that the
//! isospeed-efficiency metric correctly charges a *system* for bad node
//! placement: same nodes, same marked speed `C`, different ψ.

use crate::network::NetworkModel;

/// A two-tier network: `local` within a segment, `uplink` across.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedNetwork<L, U> {
    /// Segment id of each rank (length = cluster size).
    segment_of: Vec<usize>,
    /// Cost model for intra-segment traffic.
    pub local: L,
    /// Cost model for inter-segment traffic.
    pub uplink: U,
}

impl<L: NetworkModel, U: NetworkModel> SegmentedNetwork<L, U> {
    /// Creates a segmented network from a rank→segment map.
    ///
    /// # Panics
    /// Panics when `segment_of` is empty.
    pub fn new(segment_of: Vec<usize>, local: L, uplink: U) -> Self {
        assert!(!segment_of.is_empty(), "need at least one rank");
        SegmentedNetwork { segment_of, local, uplink }
    }

    /// True when ranks `0..p` all sit in one segment.
    fn first_p_local(&self, p: usize) -> bool {
        let p = p.min(self.segment_of.len());
        self.segment_of[..p].windows(2).all(|w| w[0] == w[1])
    }
}

impl<L: NetworkModel, U: NetworkModel> NetworkModel for SegmentedNetwork<L, U> {
    fn p2p_time(&self, bytes: u64) -> f64 {
        // Endpoint-blind fallback: price conservatively as an uplink hop.
        self.uplink.p2p_time(bytes)
    }

    fn p2p_time_between(&self, from: usize, to: usize, bytes: u64) -> f64 {
        if self.segment_of[from] == self.segment_of[to] {
            self.local.p2p_time(bytes)
        } else {
            self.uplink.p2p_time(bytes)
        }
    }

    fn bcast_time(&self, p: usize, bytes: u64) -> f64 {
        if self.first_p_local(p) {
            self.local.bcast_time(p, bytes)
        } else {
            self.uplink.bcast_time(p, bytes)
        }
    }

    fn barrier_time(&self, p: usize) -> f64 {
        if self.first_p_local(p) {
            self.local.barrier_time(p)
        } else {
            self.uplink.barrier_time(p)
        }
    }

    fn gather_time(&self, sizes: &[u64], root: usize) -> f64 {
        if self.first_p_local(sizes.len()) {
            self.local.gather_time(sizes, root)
        } else {
            self.uplink.gather_time(sizes, root)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MpichEthernet;

    fn seg2() -> SegmentedNetwork<MpichEthernet, MpichEthernet> {
        // Fast local links, slow uplink.
        SegmentedNetwork::new(
            vec![0, 0, 1, 1],
            MpichEthernet::new(1e-4, 1e8),
            MpichEthernet::new(1e-3, 1.25e7),
        )
    }

    #[test]
    fn intra_segment_uses_local_price() {
        let net = seg2();
        let local = net.p2p_time_between(0, 1, 1000);
        let cross = net.p2p_time_between(1, 2, 1000);
        assert!((local - (1e-4 + 1e-5)).abs() < 1e-12);
        assert!(cross > 5.0 * local, "uplink must dominate: {cross} vs {local}");
    }

    #[test]
    fn endpoint_blind_p2p_is_conservative() {
        let net = seg2();
        assert_eq!(net.p2p_time(1000), net.uplink.p2p_time(1000));
    }

    #[test]
    fn collectives_switch_on_span() {
        let net = seg2();
        // First two ranks live in segment 0: local pricing.
        assert_eq!(net.barrier_time(2), net.local.barrier_time(2));
        // All four span both segments: uplink pricing.
        assert_eq!(net.barrier_time(4), net.uplink.barrier_time(4));
        assert!(net.bcast_time(4, 800) > net.bcast_time(2, 800));
    }

    #[test]
    fn single_segment_degenerates_to_local() {
        let net = SegmentedNetwork::new(
            vec![0; 4],
            MpichEthernet::new(1e-4, 1e8),
            MpichEthernet::new(1e-3, 1e7),
        );
        assert_eq!(net.p2p_time_between(0, 3, 512), net.local.p2p_time(512));
        assert_eq!(net.barrier_time(4), net.local.barrier_time(4));
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn empty_map_rejected() {
        SegmentedNetwork::new(vec![], MpichEthernet::new(1e-4, 1e8), MpichEthernet::new(1e-3, 1e7));
    }

    #[test]
    fn cross_segment_sends_cost_more_than_local() {
        let net = seg2();
        assert!(net.p2p_time_between(0, 2, 64) > net.p2p_time_between(0, 1, 64));
    }
}

//! Contiguous row-block distributions.
//!
//! The HoHe matrix-multiplication kernel distributes matrix `A` as one
//! contiguous block of rows per rank, block `i` holding about `N·Cᵢ/C`
//! rows. A homogeneous variant (equal blocks, speed-blind) serves as the
//! ablation baseline quantifying what proportional distribution buys on
//! a heterogeneous system.

use crate::proportion::proportional_counts;
use crate::Distribution;

/// A half-open row range `[start, end)` owned by one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First row of the block.
    pub start: usize,
    /// One past the last row of the block.
    pub end: usize,
}

impl RowRange {
    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the block is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when `row` falls inside the block.
    pub fn contains(&self, row: usize) -> bool {
        (self.start..self.end).contains(&row)
    }
}

/// Contiguous block distribution: rank `i` owns `ranges()[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDistribution {
    n: usize,
    ranges: Vec<RowRange>,
}

impl BlockDistribution {
    /// Blocks proportional to `speeds` (the heterogeneous HoHe layout).
    ///
    /// # Panics
    /// Propagates the panics of [`proportional_counts`] on invalid speeds.
    pub fn proportional(n: usize, speeds: &[f64]) -> BlockDistribution {
        let counts = proportional_counts(n, speeds);
        Self::from_counts(n, &counts)
    }

    /// Equal blocks regardless of speed (the homogeneous baseline; the
    /// first `n mod p` ranks get one extra row).
    pub fn homogeneous(n: usize, p: usize) -> BlockDistribution {
        assert!(p > 0, "need at least one rank");
        let counts: Vec<usize> = (0..p).map(|i| n / p + usize::from(i < n % p)).collect();
        Self::from_counts(n, &counts)
    }

    /// Builds blocks from explicit per-rank row counts.
    ///
    /// # Panics
    /// Panics when the counts do not sum to `n`.
    pub fn from_counts(n: usize, counts: &[usize]) -> BlockDistribution {
        assert_eq!(counts.iter().sum::<usize>(), n, "counts must sum to n");
        let mut ranges = Vec::with_capacity(counts.len());
        let mut start = 0;
        for &c in counts {
            ranges.push(RowRange { start, end: start + c });
            start += c;
        }
        BlockDistribution { n, ranges }
    }

    /// The per-rank blocks, in rank order.
    pub fn ranges(&self) -> &[RowRange] {
        &self.ranges
    }

    /// The block owned by `rank`.
    pub fn range_of(&self, rank: usize) -> RowRange {
        self.ranges[rank]
    }
}

impl Distribution for BlockDistribution {
    fn n(&self) -> usize {
        self.n
    }

    fn p(&self) -> usize {
        self.ranges.len()
    }

    fn owner(&self, row: usize) -> usize {
        assert!(row < self.n, "row {row} out of range (n = {})", self.n);
        // Binary search over block starts; empty blocks make the simple
        // partition-point answer land one past the owner, so walk back
        // over empties.
        let idx = self.ranges.partition_point(|r| r.end <= row);
        debug_assert!(self.ranges[idx].contains(row));
        idx
    }

    fn rows_of(&self, rank: usize) -> Vec<usize> {
        let r = self.ranges[rank];
        (r.start..r.end).collect()
    }

    fn counts(&self) -> Vec<usize> {
        self.ranges.iter().map(|r| r.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::check_conformance;

    #[test]
    fn proportional_blocks_follow_speeds() {
        let d = BlockDistribution::proportional(100, &[90.0, 50.0, 110.0]);
        let counts = d.counts();
        assert_eq!(counts, vec![36, 20, 44]);
        check_conformance(&d);
    }

    #[test]
    fn homogeneous_blocks_are_even() {
        let d = BlockDistribution::homogeneous(10, 3);
        assert_eq!(d.counts(), vec![4, 3, 3]);
        check_conformance(&d);
    }

    #[test]
    fn homogeneous_ignores_heterogeneity() {
        let het = BlockDistribution::proportional(100, &[10.0, 90.0]);
        let hom = BlockDistribution::homogeneous(100, 2);
        assert_ne!(het.counts(), hom.counts());
        assert_eq!(hom.counts(), vec![50, 50]);
    }

    #[test]
    fn owner_matches_ranges() {
        let d = BlockDistribution::proportional(50, &[1.0, 2.0, 2.0]);
        for rank in 0..3 {
            let r = d.range_of(rank);
            for row in r.start..r.end {
                assert_eq!(d.owner(row), rank);
            }
        }
    }

    #[test]
    fn empty_block_for_zero_speed_rank() {
        let d = BlockDistribution::proportional(10, &[1.0, 0.0, 1.0]);
        assert!(d.range_of(1).is_empty());
        assert_eq!(d.rows_of(1), Vec::<usize>::new());
        check_conformance(&d);
    }

    #[test]
    fn owner_skips_empty_blocks() {
        // Rank 1 has zero rows; rows after its (empty) block must resolve
        // to rank 2.
        let d = BlockDistribution::from_counts(4, &[2, 0, 2]);
        assert_eq!(d.owner(1), 0);
        assert_eq!(d.owner(2), 2);
        assert_eq!(d.owner(3), 2);
        check_conformance(&d);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_rejects_out_of_range_row() {
        BlockDistribution::homogeneous(10, 2).owner(10);
    }

    #[test]
    #[should_panic(expected = "counts must sum to n")]
    fn bad_counts_rejected() {
        BlockDistribution::from_counts(10, &[3, 3]);
    }

    #[test]
    fn single_rank_owns_everything() {
        let d = BlockDistribution::homogeneous(7, 1);
        assert_eq!(d.counts(), vec![7]);
        assert_eq!(d.owner(6), 0);
        check_conformance(&d);
    }

    #[test]
    fn zero_rows_distribution_is_valid() {
        let d = BlockDistribution::homogeneous(0, 3);
        assert_eq!(d.counts(), vec![0, 0, 0]);
        check_conformance(&d);
    }

    #[test]
    fn row_range_utilities() {
        let r = RowRange { start: 3, end: 7 };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(3) && r.contains(6));
        assert!(!r.contains(7) && !r.contains(2));
    }

    #[test]
    fn conformance_on_many_shapes() {
        for (n, speeds) in [
            (1usize, vec![5.0]),
            (17, vec![1.0, 1.0]),
            (313, vec![90.0, 50.0, 50.0, 50.0]),
            (100, vec![45.0, 50.0, 110.0, 110.0, 110.0]),
        ] {
            check_conformance(&BlockDistribution::proportional(n, &speeds));
        }
    }
}

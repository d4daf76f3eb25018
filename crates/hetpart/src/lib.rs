//! # hetpart — heterogeneous data distribution
//!
//! On a heterogeneous system, balanced load means *work proportional to
//! marked speed*, not equal work. Both of the paper's kernels rely on
//! this (ref \[6\], Kalinov & Lastovetsky):
//!
//! * Gaussian elimination uses a **row-based heterogeneous cyclic
//!   distribution** — rows are dealt out in rounds, each node receiving a
//!   share of every round proportional to its marked speed, so the
//!   shrinking active submatrix stays balanced as elimination proceeds.
//! * Matrix multiplication uses a **row-based heterogeneous block
//!   distribution** under the *HoHe* strategy — homogeneous processes
//!   (one per processor), heterogeneous contiguous blocks sized `N·Cᵢ/C`.
//!
//! This crate implements both, plus the naive homogeneous block
//! distribution used as the ablation baseline, behind one
//! [`Distribution`] trait. Integer apportionment uses the
//! largest-remainder method ([`proportion`]), which preserves the row sum
//! exactly. [`selfsched`] sets that static split against its dynamic
//! alternative, master–worker self-scheduling at true speeds (the A5
//! ablation), and [`rebalance`] re-splits the rows over the survivors
//! of declared node deaths.

//! ## Example
//!
//! ```
//! use hetpart::{BlockDistribution, CyclicDistribution, Distribution};
//!
//! // Three nodes rated 90 / 50 / 110 Mflop/s share 100 rows.
//! let speeds = [90.0, 50.0, 110.0];
//! let blocks = BlockDistribution::proportional(100, &speeds);
//! assert_eq!(blocks.counts(), vec![36, 20, 44]);
//!
//! // The cyclic deal keeps every suffix proportional too.
//! let cyclic = CyclicDistribution::fine(100, &speeds);
//! assert_eq!(cyclic.counts().iter().sum::<usize>(), 100);
//! assert!(cyclic.owner(0) < 3);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod block;
pub mod cyclic;
pub mod proportion;
pub mod rebalance;
pub mod selfsched;

pub use block::{BlockDistribution, RowRange};
pub use cyclic::{ClassedCyclicDeal, CyclicDistribution};
pub use proportion::{proportional_counts, proportional_counts_classed};
pub use rebalance::{repartition_after_deaths, Repartition};

/// A mapping of `n` matrix rows onto `p` ranks.
///
/// Implementations guarantee: every row has exactly one owner, rank row
/// lists are sorted ascending, and `counts()[r] == rows_of(r).len()`.
pub trait Distribution {
    /// Total number of rows distributed.
    fn n(&self) -> usize;

    /// Number of ranks.
    fn p(&self) -> usize;

    /// The rank owning `row`.
    ///
    /// # Panics
    /// Panics if `row >= n()`.
    fn owner(&self, row: usize) -> usize;

    /// All rows owned by `rank`, ascending.
    fn rows_of(&self, rank: usize) -> Vec<usize>;

    /// Rows-per-rank histogram.
    fn counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.p()];
        for row in 0..self.n() {
            c[self.owner(row)] += 1;
        }
        c
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    use super::*;

    /// Shared conformance check used by both distribution types' tests.
    pub(crate) fn check_conformance<D: Distribution>(d: &D) {
        let n = d.n();
        let p = d.p();
        // Every row owned exactly once and owner agrees with rows_of.
        let mut seen = vec![false; n];
        for rank in 0..p {
            let rows = d.rows_of(rank);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows_of must be sorted");
            for &row in &rows {
                assert!(row < n);
                assert!(!seen[row], "row {row} assigned twice");
                seen[row] = true;
                assert_eq!(d.owner(row), rank, "owner disagrees for row {row}");
            }
        }
        assert!(seen.iter().all(|&s| s), "some row unassigned");
        // Counts consistent.
        let counts = d.counts();
        assert_eq!(counts.iter().sum::<usize>(), n);
        for (rank, &count) in counts.iter().enumerate() {
            assert_eq!(count, d.rows_of(rank).len());
        }
    }
}

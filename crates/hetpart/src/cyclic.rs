//! Row-based heterogeneous cyclic distribution (after Kalinov–Lastovetsky).
//!
//! Gaussian elimination shrinks its active submatrix from the top down,
//! so a contiguous block layout would idle the ranks owning early rows.
//! A cyclic layout instead *deals* rows out one at a time so that any
//! suffix of the rows (an active submatrix) remains distributed
//! approximately proportionally to the node speeds.
//!
//! The dealing order is the greedy largest-deficit sequence: before each
//! row, the rank whose assigned share lags furthest behind its ideal
//! cumulative share `k·Cᵢ/C` receives the next row. This keeps every
//! rank's assignment within about one row of ideal on **every prefix**
//! (and hence every suffix) — a strictly stronger balance guarantee than
//! fixed per-round shares, whose rounding bias compounds with `n`.
//! (For many unequal weights the worst-case prefix deviation can exceed
//! one unit by a hair; the property tests bound it by two.)

use crate::Distribution;
use hetsim_cluster::{lanes, repeat_add, LANES};

/// Heterogeneous cyclic distribution of rows over ranks, dealt one row
/// at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclicDistribution {
    n: usize,
    p: usize,
    /// Owner of each row, precomputed (`n` entries).
    owners: Vec<u32>,
}

impl CyclicDistribution {
    /// Builds the distribution for `n` rows over ranks with the given
    /// marked speeds, dealing single rows — the finest interleave, used
    /// by the GE kernel.
    ///
    /// # Panics
    /// Panics when `speeds` is empty, or any speed is non-finite,
    /// negative, or all are zero.
    pub fn fine(n: usize, speeds: &[f64]) -> CyclicDistribution {
        assert!(!speeds.is_empty(), "need at least one rank");
        assert!(
            speeds.iter().all(|s| s.is_finite() && *s >= 0.0),
            "speeds must be finite and non-negative"
        );
        let total: f64 = speeds.iter().sum();
        assert!(total > 0.0, "at least one speed must be positive");

        let p = speeds.len();
        let fractions: Vec<f64> = speeds.iter().map(|s| s / total).collect();
        let mut assigned = vec![0u64; p];
        let mut owners = Vec::with_capacity(n);
        for next_total in 1..=n as u64 {
            // Largest deficit: ideal share of the next state minus what
            // the rank already holds; ties to the lower index.
            let mut best = usize::MAX;
            let mut best_deficit = f64::NEG_INFINITY;
            for i in 0..p {
                if fractions[i] == 0.0 {
                    continue;
                }
                let deficit = next_total as f64 * fractions[i] - assigned[i] as f64;
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = i;
                }
            }
            debug_assert!(best != usize::MAX);
            owners.push(best as u32);
            assigned[best] += 1;
        }
        CyclicDistribution { n, p, owners }
    }
}

/// The greedy largest-deficit deal replayed over *speed classes* in
/// O(classes) state — the ownership query behind class-aggregated GE
/// (DESIGN.md §13).
///
/// When the speed vector is a run-length sequence of equal-speed
/// classes (ranks of a class contiguous, as `ClassedCluster`
/// materializes them), the per-rank deal collapses: all members of a
/// class share one fraction bit pattern, so within a class the next
/// winner is always the lowest-index member holding the minimum count —
/// i.e. the deal serves each class round-robin from member 0. The whole
/// per-rank state therefore reduces to, per class, the rows dealt so
/// far (`dealt`), the count held by the class's current front member
/// (`front = ⌊dealt/members⌋`), and that member's index within the
/// class (`wrap = dealt mod members`).
///
/// Every float operation mirrors [`CyclicDistribution::fine`] exactly:
/// the speed total is the same sequential fold (batched per run through
/// [`repeat_add`]), fractions are the same `s / total`, and each deficit
/// is the same `t·f − count` — so the winner sequence is bit-for-bit
/// the per-rank one (pinned by the tests below and the kernel-level
/// equivalence suite).
///
/// The scan runs two classes at a time: fractions and front counts sit
/// in [`LANES`]-wide lanes, the largest deficit is taken lane by lane,
/// and the winner is the first class whose deficit equals it — the
/// class the per-rank strict-`>` scan returns. A front count is exact
/// in `f64` (it never exceeds the step count). A class whose fraction
/// is `0.0` (a zero speed, or a positive one that underflows against
/// the total) and every padding slot hold `front = +∞`, so their
/// deficit is `−∞` and never wins, as the per-rank scan skips them.
/// A lane is written only when a front advances, once per `members`
/// wins of its class.
#[derive(Debug, Clone)]
pub struct ClassedCyclicDeal {
    fractions: Vec<[f64; LANES]>,
    front: Vec<[f64; LANES]>,
    members: Vec<u64>,
    dealt: Vec<u64>,
    wrap: Vec<u64>,
    step: u64,
}

impl ClassedCyclicDeal {
    /// Builds the deal state for rank-order speed runs `(speed, members)`.
    ///
    /// Errors when `classes` is empty, any run is empty, any speed is
    /// non-finite or negative, all are zero, or their total overflows —
    /// the inputs on which [`CyclicDistribution::fine`] panics on the
    /// expanded speed vector.
    pub fn new(classes: &[(f64, u64)]) -> Result<ClassedCyclicDeal, String> {
        if classes.is_empty() {
            return Err("need at least one class".to_string());
        }
        if classes.iter().any(|&(_, m)| m == 0) {
            return Err("every class needs at least one member".to_string());
        }
        if !classes.iter().all(|&(s, _)| s.is_finite() && s >= 0.0) {
            return Err("speeds must be finite and non-negative".to_string());
        }
        // The same left fold as `speeds.iter().sum()` over the expanded
        // vector: within a run every step adds the same value, so the
        // run collapses to one exact repeat_add hop.
        let mut total = 0.0f64;
        for &(s, m) in classes {
            total = repeat_add(total, s, m);
        }
        if total == 0.0 {
            return Err("at least one speed must be positive".to_string());
        }
        if !total.is_finite() {
            return Err("the speed total must be finite".to_string());
        }
        // A finite total leaves the fastest class a fraction of about
        // 1/P or more, so some deficit is finite and wins every deal.
        let fractions: Vec<f64> = classes.iter().map(|&(s, _)| s / total).collect();
        let front = fractions.iter().map(|&f| if f == 0.0 { f64::INFINITY } else { 0.0 });
        Ok(ClassedCyclicDeal {
            front: lanes(front, f64::INFINITY),
            fractions: lanes(fractions, 0.0),
            members: classes.iter().map(|&(_, m)| m).collect(),
            dealt: vec![0; classes.len()],
            wrap: vec![0; classes.len()],
            step: 0,
        })
    }

    /// Deals the next row and returns the winning class index.
    ///
    /// The row lands on the class's member at its round-robin cursor
    /// (`wrap`, before the deal): each class is served from member 0.
    pub fn deal(&mut self) -> usize {
        let t = (self.step + 1) as f64;
        // This is the hot path of the aggregated GE form, run once per
        // matrix row: the lane loop packs into one register.
        let mut top = [f64::NEG_INFINITY; LANES];
        for (f, front) in self.fractions.iter().zip(&self.front) {
            for ((top, &f), &front) in top.iter_mut().zip(f).zip(front) {
                let deficit = t * f - front;
                *top = if deficit > *top { deficit } else { *top };
            }
        }
        let top = top.into_iter().fold(f64::NEG_INFINITY, |a, d| if d > a { d } else { a });
        let best = self
            .fractions
            .as_flattened()
            .iter()
            .zip(self.front.as_flattened())
            .position(|(&f, &front)| t * f - front == top)
            .expect("the largest deficit is some class's");
        self.dealt[best] += 1;
        self.wrap[best] += 1;
        if self.wrap[best] == self.members[best] {
            self.wrap[best] = 0;
            self.front.as_flattened_mut()[best] += 1.0;
        }
        self.step += 1;
        best
    }

    /// Per-class row totals after dealing `n` rows — the classed
    /// equivalent of aggregating [`CyclicDistribution::fine`] counts,
    /// in O(runs) memory. Errors as [`ClassedCyclicDeal::new`] does.
    pub fn counts(n: usize, classes: &[(f64, u64)]) -> Result<Vec<u64>, String> {
        let mut deal = ClassedCyclicDeal::new(classes)?;
        for _ in 0..n {
            deal.deal();
        }
        Ok(deal.dealt)
    }
}

impl Distribution for CyclicDistribution {
    fn n(&self) -> usize {
        self.n
    }

    fn p(&self) -> usize {
        self.p
    }

    fn owner(&self, row: usize) -> usize {
        assert!(row < self.n, "row {row} out of range (n = {})", self.n);
        self.owners[row] as usize
    }

    fn rows_of(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.p, "rank {rank} out of range (p = {})", self.p);
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, &o)| o as usize == rank)
            .map(|(row, _)| row)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::check_conformance;

    #[test]
    fn counts_follow_speeds() {
        let d = CyclicDistribution::fine(100, &[90.0, 50.0, 110.0]);
        let counts = d.counts();
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // Within one row of the ideal 36 / 20 / 44 split.
        assert!((counts[0] as i64 - 36).unsigned_abs() <= 1);
        assert!((counts[1] as i64 - 20).unsigned_abs() <= 1);
        assert!((counts[2] as i64 - 44).unsigned_abs() <= 1);
        check_conformance(&d);
    }

    #[test]
    fn equal_speeds_deal_round_robin() {
        let d = CyclicDistribution::fine(12, &[1.0, 1.0]);
        assert_eq!(d.rows_of(0), vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(d.rows_of(1), vec![1, 3, 5, 7, 9, 11]);
        check_conformance(&d);
    }

    #[test]
    fn every_prefix_is_balanced() {
        // The greedy-deficit guarantee: every prefix of the dealt rows
        // is within one row of proportional for every rank.
        let speeds = [90.0, 50.0, 110.0, 50.0];
        let total: f64 = speeds.iter().sum();
        let d = CyclicDistribution::fine(400, &speeds);
        let mut counts = vec![0usize; speeds.len()];
        for row in 0..400 {
            counts[d.owner(row)] += 1;
            let k = (row + 1) as f64;
            for (i, &c) in counts.iter().enumerate() {
                let ideal = k * speeds[i] / total;
                assert!(
                    (c as f64 - ideal).abs() <= 1.0 + 1e-9,
                    "prefix {k}, rank {i}: {c} vs ideal {ideal:.2}"
                );
            }
        }
    }

    #[test]
    fn suffix_stays_approximately_proportional() {
        // The property that motivates cyclic layout for GE: any suffix of
        // rows (active submatrix) is distributed ≈ proportionally.
        let speeds = [90.0, 50.0, 110.0, 50.0];
        let n = 400;
        let d = CyclicDistribution::fine(n, &speeds);
        let total: f64 = speeds.iter().sum();
        for start in [0usize, 100, 200, 300, 390] {
            let remaining = n - start;
            for (rank, &speed) in speeds.iter().enumerate() {
                let owned = d.rows_of(rank).iter().filter(|&&r| r >= start).count();
                let ideal = remaining as f64 * speed / total;
                assert!(
                    (owned as f64 - ideal).abs() <= 2.0 + 1e-9,
                    "suffix {start}, rank {rank}: owned {owned}, ideal {ideal:.1}"
                );
            }
        }
    }

    #[test]
    fn extreme_heterogeneity_still_serves_slow_rank() {
        let d = CyclicDistribution::fine(1001, &[1000.0, 1.0]);
        let slow_rows = d.rows_of(1);
        assert_eq!(slow_rows.len(), 1);
        check_conformance(&d);
    }

    #[test]
    fn zero_speed_rank_gets_nothing() {
        let d = CyclicDistribution::fine(50, &[1.0, 0.0, 1.0]);
        assert!(d.rows_of(1).is_empty());
        check_conformance(&d);
    }

    #[test]
    #[should_panic(expected = "at least one speed must be positive")]
    fn all_zero_speeds_rejected() {
        CyclicDistribution::fine(10, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        CyclicDistribution::fine(10, &[1.0, 1.0]).owner(10);
    }

    #[test]
    fn determinism() {
        let speeds = [90.0, 50.0, 110.0];
        let a = CyclicDistribution::fine(313, &speeds);
        let b = CyclicDistribution::fine(313, &speeds);
        assert_eq!(a, b);
    }

    /// Expands class runs to the per-rank speed vector.
    fn expand(classes: &[(f64, u64)]) -> Vec<f64> {
        classes.iter().flat_map(|&(s, m)| std::iter::repeat_n(s, m as usize)).collect()
    }

    /// Checks the classed deal reproduces the per-rank deal on `n` rows:
    /// the winner-class sequence, the within-class round-robin member,
    /// and the final counts must all match exactly.
    fn check_classed_mirrors_fine(n: usize, classes: &[(f64, u64)]) {
        let speeds = expand(classes);
        let fine = CyclicDistribution::fine(n, &speeds);
        let base: Vec<usize> = classes
            .iter()
            .scan(0usize, |acc, &(_, m)| {
                let b = *acc;
                *acc += m as usize;
                Some(b)
            })
            .collect();
        let mut deal = ClassedCyclicDeal::new(classes).expect("a valid class list");
        for row in 0..n {
            let owner = fine.owner(row);
            let class = base.iter().rposition(|&b| b <= owner).unwrap();
            let member = deal.wrap[class];
            assert_eq!(deal.deal(), class, "row {row}: class ({classes:?})");
            assert_eq!(base[class] + member as usize, owner, "row {row}: member ({classes:?})");
        }
        let per_class: Vec<u64> = base
            .iter()
            .zip(classes)
            .map(|(&b, &(_, m))| (b..b + m as usize).map(|r| fine.counts()[r] as u64).sum())
            .collect();
        assert_eq!(deal.dealt, per_class, "counts ({classes:?})");
        assert_eq!(deal.dealt.iter().sum::<u64>(), n as u64);
        assert_eq!(ClassedCyclicDeal::counts(n, classes), Ok(per_class));
    }

    #[test]
    fn classed_deal_mirrors_fine_on_many_shapes() {
        for (n, classes) in [
            (0usize, vec![(50.0, 3u64)]),
            (1, vec![(50.0, 1)]),
            (17, vec![(90.0, 2), (50.0, 1), (110.0, 3)]),
            (129, vec![(108.0, 1), (72.0, 3), (45.0, 4)]),
            (313, vec![(1000.0, 1), (1.0, 5)]),
            (100, vec![(1.0, 2), (0.0, 3), (1.0, 2)]),
            // Equal speeds across distinct classes: the cross-class tie
            // must break to the lower class, exactly as the rank scan.
            (97, vec![(64.0, 2), (64.0, 3), (32.0, 1)]),
            (64, vec![(45.0, 8)]),
        ] {
            check_classed_mirrors_fine(n, &classes);
        }
    }

    #[test]
    fn classed_total_matches_sequential_sum() {
        // The fraction denominators must share bits with the per-rank
        // fold; a same-speed singleton pair exercises the run batching.
        // `45.0 + 8e-15` rounds to the next representable above 45.0 —
        // an awkward mantissa no decimal literal spells cleanly.
        let awkward = 45.0f64 + 8e-15;
        let classes = [(awkward, 1_000_000u64), (104.3, 1), (104.3, 1)];
        let speeds = expand(&classes);
        let seq: f64 = speeds.iter().sum();
        let mut total = 0.0f64;
        for &(s, m) in &classes {
            total = hetsim_cluster::repeat_add(total, s, m);
        }
        assert_eq!(total.to_bits(), seq.to_bits());
    }

    /// The error `ClassedCyclicDeal::new` and `counts` return, if any.
    fn rejection(classes: &[(f64, u64)]) -> Option<String> {
        let err = ClassedCyclicDeal::new(classes).err();
        assert_eq!(ClassedCyclicDeal::counts(5, classes).err(), err);
        err
    }

    #[test]
    fn classed_all_zero_speeds_rejected() {
        let zero = rejection(&[(0.0, 2), (0.0, 1)]);
        assert_eq!(zero.as_deref(), Some("at least one speed must be positive"));
        // Non-finite and negative speeds are rejected before the total.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = rejection(&[(50.0, 2), (bad, 1)]);
            assert_eq!(err.as_deref(), Some("speeds must be finite and non-negative"), "{bad}");
        }
        // Finite speeds whose total overflows would leave every
        // fraction zero: no class could win a row.
        let overflow = rejection(&[(f64::MAX, 2)]);
        assert_eq!(overflow.as_deref(), Some("the speed total must be finite"));
    }

    #[test]
    fn classed_empty_run_rejected() {
        for classes in [&[(50.0, 0)][..], &[(50.0, 3), (50.0, 0)]] {
            let err = rejection(classes);
            assert_eq!(err.as_deref(), Some("every class needs at least one member"));
        }
        assert_eq!(rejection(&[]).as_deref(), Some("need at least one class"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn classed_deal_matches_per_rank_on_random_runs(
            n in 0usize..600,
            picks in proptest::collection::vec((0usize..8, 1u64..9), 1..12),
        ) {
            // A small speed palette (with repeats, a zero, and speeds
            // one ulp either side of 50) makes cross-class deficit ties,
            // near-ties, and skipped classes common.
            let up = f64::from_bits(50f64.to_bits() + 1);
            let down = f64::from_bits(50f64.to_bits() - 1);
            let palette = [50.0, 90.0, 150.0, 50.0, 0.0, 1.0, up, down];
            let classes: Vec<(f64, u64)> =
                picks.iter().map(|&(i, m)| (palette[i], m)).collect();
            if classes.iter().any(|&(s, _)| s > 0.0) {
                check_classed_mirrors_fine(n, &classes);
            }
        }
    }

    #[test]
    fn conformance_on_many_shapes() {
        for (n, speeds) in [
            (1usize, vec![5.0]),
            (313, vec![90.0, 50.0]),
            (100, vec![45.0, 50.0, 110.0, 110.0]),
            (97, vec![1.0, 2.0, 3.0, 4.0, 5.0]),
            (0, vec![1.0, 2.0]),
        ] {
            check_conformance(&CyclicDistribution::fine(n, &speeds));
        }
    }
}

//! Integer apportionment by the largest-remainder (Hamilton) method.
//!
//! Distributing `n` indivisible rows proportionally to real-valued speeds
//! requires rounding that (a) preserves the total exactly and (b) never
//! deviates from the ideal share by a full unit. Largest-remainder gives
//! both, and is deterministic given a fixed tie order (lower index wins).

/// Splits `n` units among weights, proportionally, summing exactly to `n`.
///
/// Zero weights receive zero units. Ties in fractional remainders go to
/// the lower index, making the result fully deterministic.
///
/// # Panics
/// Panics when `weights` is empty, contains a negative or non-finite
/// value, or sums to zero while `n > 0`.
pub fn proportional_counts(n: usize, weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "need at least one weight");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let total: f64 = weights.iter().sum();
    if n == 0 {
        return vec![0; weights.len()];
    }
    assert!(total > 0.0, "cannot apportion {n} units over all-zero weights");

    let ideal: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut leftover = n - assigned;

    // Hand the leftover units to the largest fractional remainders.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = ideal[a] - ideal[a].floor();
        let fb = ideal[b] - ideal[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        // Never give a unit to a zero-weight participant.
        if weights[i] > 0.0 {
            counts[i] += 1;
            leftover -= 1;
        }
    }
    assert_eq!(counts.iter().sum::<usize>(), n, "apportionment must be exact");
    counts
}

/// Class-collapsed [`proportional_counts`]: apportions `n` units over
/// a run-length-encoded weight list (`(weight, members)` per run, in
/// rank order) in O(classes log classes), returning `(units, members)`
/// runs in rank order that expand to exactly what
/// [`proportional_counts`] produces on the expanded weights.
///
/// The mirror is bit-exact, not approximate: the weight total is the
/// same rank-order IEEE fold (collapsed per run by
/// [`hetsim_cluster::flrepeat::repeat_add`]), every member of a class
/// shares one ideal share and one fractional remainder, and the
/// largest-remainder order — remainder descending, index ascending —
/// visits contiguous classes block by block, handing leftover units to
/// the first members of each class. Class-aggregated kernels rely on
/// this to compute 10⁷-rank row distributions without materializing
/// them (DESIGN.md §13).
///
/// # Panics
/// As [`proportional_counts`], plus when a run is empty.
pub fn proportional_counts_classed(n: usize, weight_runs: &[(f64, usize)]) -> Vec<(usize, usize)> {
    assert!(!weight_runs.is_empty(), "need at least one weight");
    assert!(
        weight_runs.iter().all(|&(w, m)| w.is_finite() && w >= 0.0 && m > 0),
        "weights must be finite and non-negative, runs non-empty"
    );
    let mut total = 0.0;
    for &(w, m) in weight_runs {
        total = hetsim_cluster::flrepeat::repeat_add(total, w, m as u64);
    }
    if n == 0 {
        return weight_runs.iter().map(|&(_, m)| (0, m)).collect();
    }
    assert!(total > 0.0, "cannot apportion {n} units over all-zero weights");

    let ideal: Vec<f64> = weight_runs.iter().map(|&(w, _)| n as f64 * w / total).collect();
    let base: Vec<usize> = ideal.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = base.iter().zip(weight_runs).map(|(&b, &(_, m))| b * m).sum();
    let mut leftover = n - assigned;

    // Largest remainder, classes visited whole: equal remainders within
    // a class tie-break by index, and classes are contiguous runs, so
    // the per-member order is exactly "class blocks sorted by
    // (remainder desc, first index asc), first members first".
    let mut order: Vec<usize> = (0..weight_runs.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = ideal[a] - ideal[a].floor();
        let fb = ideal[b] - ideal[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let mut plus = vec![0usize; weight_runs.len()];
    for &i in &order {
        if leftover == 0 {
            break;
        }
        if weight_runs[i].0 > 0.0 {
            plus[i] = leftover.min(weight_runs[i].1);
            leftover -= plus[i];
        }
    }

    let mut runs = Vec::with_capacity(2 * weight_runs.len());
    for (i, &(_, m)) in weight_runs.iter().enumerate() {
        if plus[i] > 0 {
            runs.push((base[i] + 1, plus[i]));
        }
        if m > plus[i] {
            runs.push((base[i], m - plus[i]));
        }
    }
    debug_assert_eq!(runs.iter().map(|&(u, m)| u * m).sum::<usize>(), n);
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division_has_no_remainder() {
        assert_eq!(proportional_counts(10, &[1.0, 1.0]), vec![5, 5]);
        assert_eq!(proportional_counts(12, &[1.0, 2.0, 3.0]), vec![2, 4, 6]);
    }

    #[test]
    fn sum_is_always_exact() {
        for n in [0usize, 1, 7, 100, 313] {
            for w in [
                vec![1.0, 2.0, 3.0],
                vec![0.3, 0.3, 0.4],
                vec![90.0, 50.0],
                vec![45.0, 50.0, 110.0, 110.0],
            ] {
                let c = proportional_counts(n, &w);
                assert_eq!(c.iter().sum::<usize>(), n, "n={n}, w={w:?}");
            }
        }
    }

    #[test]
    fn deviation_below_one_unit() {
        let w = [45.0, 50.0, 110.0];
        let total: f64 = w.iter().sum();
        for n in [10usize, 31, 97, 310] {
            let c = proportional_counts(n, &w);
            for (i, &ci) in c.iter().enumerate() {
                let ideal = n as f64 * w[i] / total;
                assert!((ci as f64 - ideal).abs() < 1.0, "n={n} i={i}: got {ci}, ideal {ideal}");
            }
        }
    }

    #[test]
    fn faster_nodes_get_more_rows() {
        // The paper's two-node GE case: server (2 CPU, 90) + SunBlade (50).
        let c = proportional_counts(310, &[90.0, 50.0]);
        assert!(c[0] > c[1]);
        assert_eq!(c.iter().sum::<usize>(), 310);
        // A very slow node gets no rows at all under pure apportionment.
        assert_eq!(proportional_counts(5, &[1000.0, 1.0]), vec![5, 0]);
    }

    #[test]
    fn zero_weight_gets_nothing() {
        let c = proportional_counts(10, &[1.0, 0.0, 1.0]);
        assert_eq!(c[1], 0);
        assert_eq!(c.iter().sum::<usize>(), 10);
    }

    #[test]
    fn zero_units_is_fine() {
        assert_eq!(proportional_counts(0, &[1.0, 2.0]), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "all-zero weights")]
    fn all_zero_weights_panics() {
        proportional_counts(5, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panics() {
        proportional_counts(5, &[]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        proportional_counts(5, &[1.0, -1.0]);
    }

    #[test]
    fn ties_break_deterministically_low_index_first() {
        // Two equal weights, odd total: the extra unit goes to index 0.
        assert_eq!(proportional_counts(3, &[1.0, 1.0]), vec![2, 1]);
        assert_eq!(proportional_counts(5, &[1.0, 1.0, 1.0]), vec![2, 2, 1]);
    }

    /// Expands `(weight, members)` runs to the per-rank weight vector.
    fn expand_weights(runs: &[(f64, usize)]) -> Vec<f64> {
        runs.iter().flat_map(|&(w, m)| std::iter::repeat_n(w, m)).collect()
    }

    /// Expands `(units, members)` runs to the per-rank count vector.
    fn expand_counts(runs: &[(usize, usize)]) -> Vec<usize> {
        runs.iter().flat_map(|&(u, m)| std::iter::repeat_n(u, m)).collect()
    }

    #[test]
    fn classed_matches_per_rank_exactly() {
        for n in [0usize, 1, 7, 100, 313, 4096] {
            for runs in [
                vec![(90.0, 1), (50.0, 64)],
                vec![(90.0, 3), (50.0, 64), (150.0, 20)],
                vec![(1.0, 5), (1.0, 5)], // equal remainders across classes
                vec![(0.3, 7), (0.4, 1)], // inexact total fold
                vec![(1.0, 4), (0.0, 3), (2.0, 4)], // zero-weight class
            ] {
                let classed = proportional_counts_classed(n, &runs);
                let per_rank = proportional_counts(n, &expand_weights(&runs));
                assert_eq!(expand_counts(&classed), per_rank, "n={n}, runs={runs:?}");
            }
        }
    }

    #[test]
    fn classed_is_compact() {
        // Each class contributes at most two runs, regardless of size.
        let runs = vec![(90.0, 1_000_000), (50.0, 2_000_000), (70.0, 3_000_000)];
        let classed = proportional_counts_classed(317, &runs);
        assert!(classed.len() <= 6, "{classed:?}");
        assert_eq!(classed.iter().map(|&(u, m)| u * m).sum::<usize>(), 317);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn classed_matches_per_rank_on_random_runs(
            n in 0usize..5_000,
            picks in proptest::collection::vec((0usize..6, 1usize..40), 1..6),
        ) {
            // Draw weights from a small palette so equal-remainder ties
            // across distinct classes actually occur.
            let palette = [50.0, 90.0, 150.0, 50.0, 0.3, 1.0];
            let runs: Vec<(f64, usize)> =
                picks.iter().map(|&(i, m)| (palette[i], m)).collect();
            let classed = proportional_counts_classed(n, &runs);
            let per_rank = proportional_counts(n, &expand_weights(&runs));
            proptest::prop_assert_eq!(expand_counts(&classed), per_rank);
        }
    }
}

//! Class-compressed cluster specifications.
//!
//! A [`ClusterSpec`] stores one [`crate::node::NodeSpec`] per rank —
//! fine for Sunwulf's 85 nodes, fatal for the 10⁵–10⁷-rank machines
//! the mega-scale sweep prices. A [`ClassedCluster`] stores the same
//! machine as an ordered run-length encoding: a short list of
//! [`SpeedClass`]es, each a marked speed with a multiplicity. Ranks
//! are laid out class by class, in class order, so rank order is fully
//! determined and every derived quantity of the materialized cluster
//! can be reproduced bit for bit from the compressed form:
//!
//! * the marked speed `C = Σᵢ Cᵢ` is an IEEE fold in rank order —
//!   [`crate::flrepeat::repeat_add`] collapses each equal-speed run
//!   exactly;
//! * the memo fingerprint is per-class `(speed bits, count)` pairs
//!   instead of per-rank speed bits;
//! * [`ClassedCluster::materialize`] expands to a plain [`ClusterSpec`]
//!   for the oracle engines at sizes where O(P) is affordable, and the
//!   equality tests pin that both views agree.
//!
//! [`ClassedCluster::heet`] generates bounded-class-count machines at
//! arbitrary P parameterized the way the HEET heterogeneity literature
//! frames a platform: total size, number of speed tiers, and the
//! fastest/slowest spread. Class 0 is the fastest tier and holds rank
//! 0, mirroring the paper's placement of the server node at the rank
//! that distributes and collects data.

use crate::cluster::ClusterSpec;
use crate::flrepeat::repeat_add;
use crate::node::NodeSpec;
use std::fmt;

/// One run of identically-marked ranks: `count` nodes of
/// `speed_mflops` each, contiguous in rank order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedClass {
    /// Marked speed of every member, in Mflop/s (Definition 1).
    pub speed_mflops: f64,
    /// Number of ranks in the run. Always at least 1.
    pub count: usize,
}

/// An ordered, run-length-encoded computing system: the machine half
/// of an algorithm–system combination, in O(classes) storage.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassedCluster {
    classes: Vec<SpeedClass>,
    /// Human-readable label, e.g. `"heet-1e5x8"`.
    pub label: String,
}

impl ClassedCluster {
    /// Builds a classed cluster. Errors on an empty class list, an
    /// empty class, or a non-positive / non-finite speed.
    pub fn new(
        label: impl Into<String>,
        classes: Vec<SpeedClass>,
    ) -> Result<ClassedCluster, String> {
        if classes.is_empty() {
            return Err("a classed cluster needs at least one class".to_string());
        }
        for c in &classes {
            if !c.speed_mflops.is_finite() || c.speed_mflops <= 0.0 {
                return Err(format!(
                    "class marked speed must be positive and finite, got {}",
                    c.speed_mflops
                ));
            }
            if c.count == 0 {
                return Err("a speed class needs at least one member".to_string());
            }
        }
        Ok(ClassedCluster { classes, label: label.into() })
    }

    /// A HEET-parameterized machine: `p` ranks in at most
    /// `max_classes` speed tiers, marked speeds descending linearly
    /// from `base_mflops · spread` (class 0, rank 0) to `base_mflops`,
    /// with class populations growing toward the slow tail (class `j`
    /// carries weight `j + 1`) — few fast nodes, many slow ones.
    ///
    /// Deterministic: a pure function of its arguments, built from
    /// exact-rounding IEEE arithmetic only (no `powf`). Every class is
    /// non-empty and the class count never exceeds
    /// `min(max_classes, p)`.
    pub fn heet(p: usize, max_classes: usize, base_mflops: f64, spread: f64) -> ClassedCluster {
        let k = heet_class_count(p, max_classes, base_mflops, spread);
        // Linear speed ladder, fastest first. k = 1 degenerates to a
        // homogeneous machine at base speed.
        let speed = |j: usize| -> f64 {
            if k == 1 {
                base_mflops
            } else {
                let frac = (k - 1 - j) as f64 / (k - 1) as f64;
                base_mflops * (1.0 + frac * (spread - 1.0))
            }
        };
        let classes = heet_classes(p, k, speed);
        ClassedCluster { classes, label: format!("heet-{p}x{k}") }
    }

    /// The heavy-tailed sibling of [`ClassedCluster::heet`]: same total
    /// size, class count, spread, and tail-heavy populations, but the
    /// marked speeds decay *harmonically* (Zipf-like) instead of
    /// linearly — `base · spread / (1 + (spread − 1) · j/(k − 1))` —
    /// so a small elite of fast tiers towers over a long near-`base`
    /// tail. Class 0 still holds rank 0 at `base · spread`; the last
    /// class still sits exactly at `base`.
    ///
    /// Deterministic and `powf`-free, like the linear ladder.
    pub fn heet_zipf(
        p: usize,
        max_classes: usize,
        base_mflops: f64,
        spread: f64,
    ) -> ClassedCluster {
        let k = heet_class_count(p, max_classes, base_mflops, spread);
        let speed = |j: usize| -> f64 {
            if k == 1 {
                base_mflops
            } else {
                let depth = j as f64 / (k - 1) as f64;
                base_mflops * spread / (1.0 + (spread - 1.0) * depth)
            }
        };
        let classes = heet_classes(p, k, speed);
        ClassedCluster { classes, label: format!("heet-zipf-{p}x{k}") }
    }

    /// The speed classes, in rank order.
    pub fn classes(&self) -> &[SpeedClass] {
        &self.classes
    }

    /// Number of distinct speed classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// System marked speed `C = Σ Cᵢ` in Mflop/s — bit-identical to
    /// [`ClusterSpec::marked_speed_mflops`] of the materialized
    /// cluster (the rank-order IEEE fold, collapsed per run).
    pub fn marked_speed_mflops(&self) -> f64 {
        let mut total = 0.0;
        for c in &self.classes {
            total = repeat_add(total, c.speed_mflops, c.count as u64);
        }
        total
    }

    /// System marked speed in flop/s.
    pub fn marked_speed_flops(&self) -> f64 {
        self.marked_speed_mflops() * 1e6
    }

    /// Structural identity for memoization keys: `(speed bits, count)`
    /// per class, flattened — O(classes), unlike
    /// [`ClusterSpec::fingerprint`]'s per-rank encoding.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.classes.iter().flat_map(|c| [c.speed_mflops.to_bits(), c.count as u64]).collect()
    }

    /// Expands to a plain per-rank [`ClusterSpec`] (synthetic nodes,
    /// class-major rank order). O(P) — for the oracle engines and the
    /// equality tests, not for the mega-scale pricing path.
    pub fn materialize(&self) -> ClusterSpec {
        let nodes: Vec<NodeSpec> = self
            .classes
            .iter()
            .enumerate()
            .flat_map(|(j, c)| {
                (0..c.count).map(move |i| NodeSpec::synthetic(format!("c{j}n{i}"), c.speed_mflops))
            })
            .collect();
        ClusterSpec::new(self.label.clone(), nodes).expect("classed cluster is never empty")
    }
}

/// Validates the shared HEET generator arguments and returns the
/// effective class count `min(max_classes, p)`.
fn heet_class_count(p: usize, max_classes: usize, base_mflops: f64, spread: f64) -> usize {
    assert!(p > 0, "need at least one rank");
    assert!(max_classes > 0, "need at least one class");
    assert!(base_mflops > 0.0 && base_mflops.is_finite(), "base speed must be positive");
    assert!(spread >= 1.0 && spread.is_finite(), "spread is fastest/slowest, at least 1");
    max_classes.min(p)
}

/// Tail-heavy class populations shared by every HEET speed ladder: one
/// guaranteed member per class, the rest by largest remainder over
/// weights `j + 1` (ties toward the fast classes, matching index
/// order), with `speed(j)` supplying the per-class marked speed.
fn heet_classes(p: usize, k: usize, speed: impl Fn(usize) -> f64) -> Vec<SpeedClass> {
    let spare = p - k;
    let total_weight: usize = (1..=k).sum();
    let mut counts: Vec<usize> = (0..k).map(|j| spare * (j + 1) / total_weight).collect();
    let mut leftover = spare - counts.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&j| {
        // Remainder of spare·(j+1)/total_weight, largest first; index
        // ascending breaks ties.
        (std::cmp::Reverse(spare * (j + 1) % total_weight), j)
    });
    for &j in &order {
        if leftover == 0 {
            break;
        }
        counts[j] += 1;
        leftover -= 1;
    }
    (0..k).map(|j| SpeedClass { speed_mflops: speed(j), count: counts[j] + 1 }).collect()
}

impl fmt::Display for ClassedCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ranks in {} classes, C = {:.2} Mflop/s",
            self.label,
            self.size(),
            self.class_count(),
            self.marked_speed_mflops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_degenerate_classes() {
        assert!(ClassedCluster::new("x", vec![]).is_err());
        assert!(
            ClassedCluster::new("x", vec![SpeedClass { speed_mflops: 50.0, count: 0 }]).is_err()
        );
        assert!(ClassedCluster::new("x", vec![SpeedClass { speed_mflops: 0.0, count: 1 }]).is_err());
        assert!(ClassedCluster::new("x", vec![SpeedClass { speed_mflops: f64::NAN, count: 1 }])
            .is_err());
    }

    #[test]
    fn marked_speed_matches_materialized_cluster() {
        let c = ClassedCluster::new(
            "mix",
            vec![
                SpeedClass { speed_mflops: 110.0, count: 3 },
                SpeedClass { speed_mflops: 45.0, count: 1 },
                SpeedClass { speed_mflops: 50.0, count: 64 },
            ],
        )
        .unwrap();
        assert_eq!(
            c.marked_speed_mflops().to_bits(),
            c.materialize().marked_speed_mflops().to_bits()
        );
        assert_eq!(c.size(), 68);
    }

    #[test]
    fn heet_is_deterministic_and_fastest_first() {
        let a = ClassedCluster::heet(1000, 8, 50.0, 4.0);
        let b = ClassedCluster::heet(1000, 8, 50.0, 4.0);
        assert_eq!(a, b);
        assert_eq!(a.size(), 1000);
        assert_eq!(a.class_count(), 8);
        let speeds: Vec<f64> = a.classes().iter().map(|c| c.speed_mflops).collect();
        assert!(speeds.windows(2).all(|w| w[0] > w[1]), "speeds descend: {speeds:?}");
        assert_eq!(speeds[0], 200.0);
        assert_eq!(speeds[7], 50.0);
        // Tail-heavy population: the slowest class is the largest.
        let counts: Vec<usize> = a.classes().iter().map(|c| c.count).collect();
        assert_eq!(counts.iter().max(), counts.last());
    }

    #[test]
    fn heet_degenerates_gracefully() {
        let solo = ClassedCluster::heet(1, 8, 50.0, 4.0);
        assert_eq!(solo.size(), 1);
        assert_eq!(solo.class_count(), 1);
        let homo = ClassedCluster::heet(64, 1, 50.0, 4.0);
        assert_eq!(homo.class_count(), 1);
        assert_eq!(homo.classes()[0].speed_mflops, 50.0);
    }

    #[test]
    fn zipf_shares_envelope_with_linear_but_decays_faster() {
        let lin = ClassedCluster::heet(30_000, 8, 45.0, 2.4);
        let zipf = ClassedCluster::heet_zipf(30_000, 8, 45.0, 2.4);
        // Same size, class count, populations, and speed envelope.
        assert_eq!(zipf.size(), lin.size());
        assert_eq!(zipf.class_count(), lin.class_count());
        let counts =
            |c: &ClassedCluster| -> Vec<usize> { c.classes().iter().map(|s| s.count).collect() };
        assert_eq!(counts(&zipf), counts(&lin));
        assert_eq!(zipf.classes()[0].speed_mflops, lin.classes()[0].speed_mflops);
        assert_eq!(zipf.classes()[7].speed_mflops, lin.classes()[7].speed_mflops);
        // Harmonic decay: every interior tier is slower than linear,
        // so the machine's marked speed drops.
        for j in 1..7 {
            assert!(
                zipf.classes()[j].speed_mflops < lin.classes()[j].speed_mflops,
                "tier {j} should sag below the linear ladder"
            );
        }
        assert!(zipf.marked_speed_mflops() < lin.marked_speed_mflops());
        assert_eq!(zipf.label, "heet-zipf-30000x8");
    }

    #[test]
    fn zipf_degenerates_like_the_linear_ladder() {
        let solo = ClassedCluster::heet_zipf(1, 8, 50.0, 4.0);
        assert_eq!(solo.size(), 1);
        assert_eq!(solo.classes()[0].speed_mflops, 50.0);
        let homo = ClassedCluster::heet_zipf(64, 1, 50.0, 4.0);
        assert_eq!(homo.class_count(), 1);
        assert_eq!(homo.classes()[0].speed_mflops, 50.0);
        // spread = 1 collapses both ladders to the same homogeneous machine.
        let flat_lin = ClassedCluster::heet(100, 6, 50.0, 1.0);
        let flat_zipf = ClassedCluster::heet_zipf(100, 6, 50.0, 1.0);
        let speeds = |c: &ClassedCluster| -> Vec<u64> {
            c.classes().iter().map(|s| s.speed_mflops.to_bits()).collect()
        };
        assert_eq!(speeds(&flat_lin), speeds(&flat_zipf));
    }

    #[test]
    fn fingerprint_is_compact_and_speed_sensitive() {
        let a = ClassedCluster::heet(100_000, 6, 50.0, 4.0);
        assert_eq!(a.fingerprint().len(), 2 * a.class_count());
        let b = ClassedCluster::heet(100_000, 6, 50.0, 5.0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The declared generator contract: exact size, bounded class
        /// count, non-empty classes, positive descending speeds.
        #[test]
        fn heet_hits_declared_class_count_bounds(
            p in 1usize..2_000_000,
            k in 1usize..64,
            base in 1.0f64..200.0,
            spread in 1.0f64..64.0,
        ) {
            for c in [ClassedCluster::heet(p, k, base, spread),
                      ClassedCluster::heet_zipf(p, k, base, spread)] {
                prop_assert_eq!(c.size(), p);
                prop_assert!(c.class_count() <= k.min(p));
                prop_assert_eq!(c.class_count(), k.min(p));
                prop_assert!(c.classes().iter().all(|s| s.count >= 1 && s.speed_mflops > 0.0));
            }
        }

        /// Compressed and materialized views agree bit for bit on the
        /// system marked speed (the quantity ψ divides by).
        #[test]
        fn classed_marked_speed_matches_materialized(
            p in 1usize..3_000,
            k in 1usize..16,
            base in 1.0f64..200.0,
            spread in 1.0f64..64.0,
        ) {
            let c = ClassedCluster::heet(p, k, base, spread);
            let m = c.materialize();
            prop_assert_eq!(m.size(), p);
            prop_assert_eq!(
                c.marked_speed_mflops().to_bits(),
                m.marked_speed_mflops().to_bits()
            );
        }
    }
}

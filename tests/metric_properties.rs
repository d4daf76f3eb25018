//! Property-based tests (proptest) on the metric's invariants, the
//! distribution layer, and the runtime's determinism.

use hetscale::hetpart::{proportional_counts, BlockDistribution, CyclicDistribution, Distribution};
use hetscale::hetsim_cluster::network::ConstantLatency;
use hetscale::hetsim_cluster::ClusterSpec;
use hetscale::hetsim_mpi::{run_spmd, RunSpec};
use hetscale::scalability::function::{ideal_scaled_work, isospeed_efficiency_scalability};
use hetscale::scalability::theorem::{psi_theorem1, scaled_work_from_condition};
use proptest::prelude::*;

fn speed_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..500.0, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn psi_is_one_iff_work_scales_ideally(
        c in 1e6f64..1e10,
        w in 1e3f64..1e12,
        growth in 1.01f64..50.0,
    ) {
        let c2 = c * growth;
        let ideal = ideal_scaled_work(c, w, c2);
        let psi = isospeed_efficiency_scalability(c, w, c2, ideal);
        prop_assert!((psi - 1.0).abs() < 1e-9);
        // Any extra work pushes ψ strictly below 1.
        let psi_worse = isospeed_efficiency_scalability(c, w, c2, ideal * 1.5);
        prop_assert!(psi_worse < 1.0);
    }

    #[test]
    fn psi_composes_multiplicatively(
        c1 in 1e6f64..1e9,
        w1 in 1e3f64..1e9,
        g1 in 1.1f64..10.0,
        g2 in 1.1f64..10.0,
        e1 in 1.0f64..5.0,
        e2 in 1.0f64..5.0,
    ) {
        let (c2, c3) = (c1 * g1, c1 * g1 * g2);
        let w2 = ideal_scaled_work(c1, w1, c2) * e1;
        let w3 = ideal_scaled_work(c2, w2, c3) * e2;
        let step1 = isospeed_efficiency_scalability(c1, w1, c2, w2);
        let step2 = isospeed_efficiency_scalability(c2, w2, c3, w3);
        let direct = isospeed_efficiency_scalability(c1, w1, c3, w3);
        prop_assert!((step1 * step2 - direct).abs() / direct < 1e-9);
    }

    #[test]
    fn theorem1_consistent_with_definition(
        w in 1e3f64..1e12,
        c in 1e6f64..1e10,
        growth in 1.01f64..20.0,
        t0 in 0.0f64..10.0,
        to in 1e-6f64..10.0,
        t0p in 0.0f64..10.0,
        top in 1e-6f64..10.0,
    ) {
        let c2 = c * growth;
        let w2 = scaled_work_from_condition(w, c, c2, t0, to, t0p, top);
        let psi_def = isospeed_efficiency_scalability(c, w, c2, w2);
        let psi_thm = psi_theorem1(t0, to, t0p, top);
        prop_assert!((psi_def - psi_thm).abs() / psi_thm < 1e-9);
    }

    #[test]
    fn homogeneous_reduction_is_exact(
        ci in 1.0f64..1e3,
        p in 1usize..64,
        growth in 2usize..8,
        w in 1e3f64..1e9,
        excess in 1.0f64..10.0,
    ) {
        let p2 = p * growth;
        let c = p as f64 * ci;
        let c2 = p2 as f64 * ci;
        let w2 = ideal_scaled_work(c, w, c2) * excess;
        let het = isospeed_efficiency_scalability(c, w, c2, w2);
        let hom = (p2 as f64 * w) / (p as f64 * w2);
        prop_assert!((het - hom).abs() < 1e-12 * hom.abs().max(1.0));
    }

    #[test]
    fn apportionment_is_exact_and_tight(
        n in 0usize..5000,
        weights in speed_vec(),
    ) {
        let counts = proportional_counts(n, &weights);
        prop_assert_eq!(counts.iter().sum::<usize>(), n);
        let total: f64 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let ideal = n as f64 * weights[i] / total;
            prop_assert!((c as f64 - ideal).abs() < 1.0 + 1e-9);
        }
    }

    #[test]
    fn block_distribution_conserves_rows(
        n in 0usize..2000,
        weights in speed_vec(),
    ) {
        let d = BlockDistribution::proportional(n, &weights);
        prop_assert_eq!(d.counts().iter().sum::<usize>(), n);
        for row in 0..n {
            let owner = d.owner(row);
            prop_assert!(owner < weights.len());
        }
    }

    #[test]
    fn cyclic_distribution_prefixes_stay_balanced(
        n in 1usize..800,
        weights in speed_vec(),
    ) {
        let d = CyclicDistribution::fine(n, &weights);
        let total: f64 = weights.iter().sum();
        let mut counts = vec![0usize; weights.len()];
        for row in 0..n {
            counts[d.owner(row)] += 1;
            let k = (row + 1) as f64;
            for (i, &c) in counts.iter().enumerate() {
                let ideal = k * weights[i] / total;
                // The greedy largest-deficit deal keeps every prefix
                // within ~1 unit of proportional; the provable bound for
                // many unequal weights is slightly above 1, so assert 2.
                prop_assert!(
                    (c as f64 - ideal).abs() < 2.0,
                    "prefix {} rank {}: {} vs {}", k, i, c, ideal
                );
            }
        }
    }

    #[test]
    fn random_combinations_have_sane_psi(
        c in 5e7f64..5e8,
        growth in 1.2f64..8.0,
        // Time model: T = W/C + a·n + b·n² (latency + bandwidth overhead),
        // with the scaled system's overhead coefficients at least as large.
        a in 1e-6f64..1e-2,
        b in 1e-10f64..1e-6,
        a_factor in 1.0f64..8.0,
        b_factor in 1.0f64..8.0,
    ) {
        use hetscale::scalability::metric::{
            required_n_for_efficiency, AlgorithmSystem, FnAlgorithm,
        };
        let c2 = c * growth;
        let mk = |cc: f64, aa: f64, bb: f64, label: &str| FnAlgorithm {
            label: label.to_string(),
            marked_speed_flops: cc,
            work_fn: |n: usize| (n as f64).powi(3),
            time_fn: move |n: usize| {
                let nf = n as f64;
                nf * nf * nf / cc + aa * nf + bb * nf * nf
            },
        };
        let base = mk(c, a, b, "base");
        let scaled = mk(c2, a * a_factor, b * b_factor, "scaled");
        let ns: Vec<usize> = (1..=40).map(|i| i * 150).collect();
        let target = 0.4;
        let n1 = required_n_for_efficiency(&base, target, &ns, 3);
        let n2 = required_n_for_efficiency(&scaled, target, &ns, 3);
        // The sweep may not bracket the target for extreme draws — that
        // is a legitimate outcome, not a failure.
        if let (Ok(n1), Ok(n2)) = (n1, n2) {
            let (n1, n2) = (n1.round().max(1.0) as usize, n2.round().max(1.0) as usize);
            let psi = isospeed_efficiency_scalability(
                c,
                base.work(n1),
                c2,
                scaled.work(n2),
            );
            // Overheads only grew: the combination cannot be
            // super-scalable, and ψ stays meaningfully positive.
            prop_assert!(psi > 0.0, "psi = {}", psi);
            prop_assert!(psi < 1.15, "psi = {} (inversion tolerance band)", psi);
            // Bigger system at equal-or-worse overhead needs at least
            // proportionally more work.
            prop_assert!(
                scaled.work(n2) > base.work(n1),
                "scaled work must exceed base work"
            );
        }
    }

    #[test]
    fn runtime_times_scale_inversely_with_speed(
        speed in 1.0f64..1e4,
        factor in 2.0f64..10.0,
        mflop in 1.0f64..1e3,
    ) {
        let slow = ClusterSpec::homogeneous(1, speed);
        let fast = ClusterSpec::homogeneous(1, speed * factor);
        let net = ConstantLatency::new(0.0);
        let work = mflop * 1e6;
        let clock = |cluster: &ClusterSpec| {
            run_spmd(cluster, &net, RunSpec::default(), |r| {
                r.compute_flops(work);
                r.clock().as_secs()
            })
            .results[0]
        };
        let t_slow = clock(&slow);
        let t_fast = clock(&fast);
        prop_assert!((t_slow / t_fast - factor).abs() / factor < 1e-9);
    }
}

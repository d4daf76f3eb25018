//! Failure-injection and degenerate-configuration tests: stragglers,
//! near-zero-speed nodes, upgrades, and misuse detection across crates.
//!
//! The second half exercises the first-class [`FaultPlan`] API — the
//! original ad-hoc degradations above predate it and stay as
//! hand-constructed cross-checks.

use bench_tables::experiments::faults::Severity;
use bench_tables::ExperimentParams;
use hetscale::hetpart::repartition_after_deaths;
use hetscale::hetsim_cluster::faults::FaultPlan;
use hetscale::hetsim_cluster::sunwulf;
use hetscale::hetsim_cluster::{ClusterSpec, NodeSpec};
use hetscale::hetsim_mpi::RunSpec;
use hetscale::kernels::ge::ge_parallel_timed;
use hetscale::kernels::mm::mm_parallel_timed;
use hetscale::kernels::workload::ge_work;
use hetscale::scalability::measure::speed_efficiency;
use proptest::prelude::*;

#[test]
fn straggler_node_drags_efficiency() {
    // One node 10× slower than the rest: even with a proportional
    // distribution, the system's marked speed barely falls while its
    // latency-bound overhead stays — efficiency at fixed N drops
    // relative to the balanced cluster of the same C.
    let net = sunwulf::sunwulf_network();
    let n = 256;

    let balanced = ClusterSpec::homogeneous(4, 55.0);
    let straggling = ClusterSpec::new(
        "straggler",
        vec![
            NodeSpec::synthetic("a", 70.0),
            NodeSpec::synthetic("b", 70.0),
            NodeSpec::synthetic("c", 70.0),
            NodeSpec::synthetic("slow", 10.0),
        ],
    )
    .unwrap();
    assert_eq!(balanced.marked_speed_mflops(), straggling.marked_speed_mflops());

    let t_bal = ge_parallel_timed(&balanced, &net, n, RunSpec::default()).makespan.as_secs();
    let t_str = ge_parallel_timed(&straggling, &net, n, RunSpec::default()).makespan.as_secs();
    let c = balanced.marked_speed_flops();
    let e_bal = speed_efficiency(ge_work(n), t_bal, c);
    let e_str = speed_efficiency(ge_work(n), t_str, c);
    // Proportional distribution absorbs most of the imbalance, so the
    // drop is modest but must not be an improvement.
    assert!(e_str <= e_bal * 1.01, "straggler {e_str} vs balanced {e_bal}");
}

#[test]
fn upgrading_a_node_increases_system_size_and_helps() {
    // Definition 4's third way of growing a system: upgrade a node.
    let net = sunwulf::sunwulf_network();
    let n = 192;
    let base = sunwulf::mm_config(4);
    let upgraded = base.with_upgraded_node(1, sunwulf::v210_node(70, 2));
    assert!(upgraded.marked_speed_mflops() > base.marked_speed_mflops());
    let t_base = mm_parallel_timed(&base, &net, n, RunSpec::default()).makespan.as_secs();
    let t_up = mm_parallel_timed(&upgraded, &net, n, RunSpec::default()).makespan.as_secs();
    assert!(t_up < t_base, "upgrade must shorten the run: {t_up} vs {t_base}");
}

#[test]
fn near_zero_speed_node_does_not_deadlock() {
    // A (nearly) dead node still participates in all collectives; the
    // run completes, just slowly.
    let net = sunwulf::sunwulf_network();
    let cluster = ClusterSpec::new(
        "neardead",
        vec![NodeSpec::synthetic("ok", 100.0), NodeSpec::synthetic("dying", 1e-3)],
    )
    .unwrap();
    let out = ge_parallel_timed(&cluster, &net, 32, RunSpec::default());
    assert!(out.makespan.as_secs().is_finite());
}

#[test]
fn single_node_cluster_runs_whole_pipeline() {
    let net = sunwulf::sunwulf_network();
    let cluster = ClusterSpec::homogeneous(1, 50.0);
    let out = ge_parallel_timed(&cluster, &net, 64, RunSpec::default());
    assert_eq!(out.total_overhead.as_secs(), 0.0);
    let e = speed_efficiency(ge_work(64), out.makespan.as_secs(), cluster.marked_speed_flops());
    // One node, no communication: speed-efficiency is essentially 1
    // (only the W(N)-vs-charged-flops mismatch keeps it off exactly 1).
    assert!(e > 0.9, "single-node efficiency = {e}");
}

#[test]
fn trivial_problem_sizes_do_not_break_distributions() {
    let net = sunwulf::sunwulf_network();
    for p in [2usize, 4, 8] {
        let cluster = sunwulf::ge_config(p);
        for n in [1usize, 2, 3] {
            let out = ge_parallel_timed(&cluster, &net, n, RunSpec::default());
            assert!(out.makespan.as_secs() >= 0.0, "p = {p}, n = {n}");
        }
    }
}

#[test]
fn zero_size_mm_is_degenerate_but_sound() {
    let net = sunwulf::sunwulf_network();
    let cluster = sunwulf::mm_config(2);
    let out = mm_parallel_timed(&cluster, &net, 0, RunSpec::default());
    assert!(out.makespan.as_secs().is_finite());
}

// ---------------------------------------------------------------------------
// FaultPlan API: the straggler above, expressed as a declared plan.
// ---------------------------------------------------------------------------

#[test]
fn fault_plan_straggler_matches_handbuilt_cluster() {
    // A straggler declared through the plan must time identically to
    // the same slowdown baked into the cluster spec by hand: speed
    // multiplier 0.5 on rank 3 ≡ rank 3 at half its marked speed
    // (modulo the distribution, which keys off marked speeds — so pin
    // it by comparing against the plan-free run instead).
    let net = sunwulf::sunwulf_network();
    let cluster = ClusterSpec::homogeneous(4, 55.0);
    let plan = FaultPlan::new(1).with_straggler(3, 0.5);
    let clean = ge_parallel_timed(&cluster, &net, 192, RunSpec::default());
    let faulted =
        ge_parallel_timed(&cluster, &net, 192, RunSpec { trace: false, faults: Some(&plan) });
    assert!(faulted.makespan > clean.makespan, "straggler must slow the run");
    // Compute time inflates only on the straggling rank.
    for r in 0..3 {
        assert_eq!(faulted.compute_times[r], clean.compute_times[r], "rank {r} untouched");
    }
    assert!(faulted.compute_times[3] > clean.compute_times[3]);
}

#[test]
fn declared_death_repartitions_and_completes() {
    // Death resolved before launch: survivors get the dead rank's rows
    // and the reduced cluster runs to completion.
    let net = sunwulf::sunwulf_network();
    let cluster = sunwulf::ge_config(4);
    let plan = FaultPlan::new(9).with_death(2).with_link_drops(10);
    let survivors = plan.surviving_cluster(&cluster).expect("three nodes survive");
    assert_eq!(survivors.size(), 3);
    let speeds: Vec<f64> = cluster.nodes().iter().map(|n| n.marked_speed_mflops).collect();
    let moved = repartition_after_deaths(256, &speeds, &[2], 8 * 257);
    assert!(moved.moved_rows > 0, "the dead rank's rows must move");
    let out = ge_parallel_timed(
        &survivors,
        &net,
        256,
        RunSpec { trace: false, faults: Some(&plan.for_survivors(4)) },
    );
    assert!(out.makespan.as_secs().is_finite());
    assert_eq!(out.times.len(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_same_plan_is_bit_identical(
        seed in 0u64..1_000_000,
        drops in 0u16..300,
        multiplier in 0.25f64..1.0,
    ) {
        let net = sunwulf::sunwulf_network();
        let cluster = sunwulf::ge_config(4);
        let plan = FaultPlan::new(seed).with_straggler(1, multiplier).with_link_drops(drops);
        let spec = RunSpec { trace: false, faults: Some(&plan) };
        let a = ge_parallel_timed(&cluster, &net, 96, spec);
        let b = ge_parallel_timed(&cluster, &net, 96, spec);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fault_free_plan_is_bit_equal_to_baseline_for_any_seed(seed in proptest::num::u64::ANY) {
        // The fault sweep prices its `none` row and its `death` row (on
        // the survivors) as fault-free runs, so the engine's empty-plan
        // path is pinned here at the sweep's shapes too: its 8-rank
        // configurations and the 7 survivors of its death plan, at two
        // quick sizes.
        let net = sunwulf::sunwulf_network();
        let plan = FaultPlan::new(seed);
        prop_assert!(plan.is_empty());
        let faulted = RunSpec { trace: false, faults: Some(&plan) };
        let quick = ExperimentParams::quick();
        let two = |sizes: &[usize]| vec![sizes[0], sizes[sizes.len() / 2]];
        let survivors = |cluster: ClusterSpec| {
            Severity::Death.plan(8).surviving_cluster(&cluster).expect("one rank of 8 dies")
        };
        let ge_runs = [
            (sunwulf::ge_config(4), vec![96]),
            (sunwulf::ge_config(8), two(&quick.ge_sizes)),
            (survivors(sunwulf::ge_config(8)), two(&quick.ge_sizes)),
        ];
        for (cluster, sizes) in &ge_runs {
            for &n in sizes {
                prop_assert_eq!(
                    ge_parallel_timed(cluster, &net, n, RunSpec::default()),
                    ge_parallel_timed(cluster, &net, n, faulted),
                    "GE on {} ({} ranks), n = {}", cluster.label, cluster.size(), n
                );
            }
        }
        let mm_runs = [
            (sunwulf::mm_config(4), vec![64]),
            (sunwulf::mm_config(8), two(&quick.mm_sizes)),
            (survivors(sunwulf::mm_config(8)), two(&quick.mm_sizes)),
        ];
        for (cluster, sizes) in &mm_runs {
            for &n in sizes {
                prop_assert_eq!(
                    mm_parallel_timed(cluster, &net, n, RunSpec::default()),
                    mm_parallel_timed(cluster, &net, n, faulted),
                    "MM on {} ({} ranks), n = {}", cluster.label, cluster.size(), n
                );
            }
        }
    }
}

//! Property-based equivalence of the two timing engines: for arbitrary
//! SPMD programs on randomized clusters, network models, and fault
//! plans, the payload-free fast engine must reproduce the threaded
//! runtime's per-rank clocks, compute/comm/wait split, and fault retry
//! charges exactly — the bit-identity contract of DESIGN.md §9, tested
//! beyond the hand-picked kernel cases.

use hetscale::hetpart::{BlockDistribution, CyclicDistribution};
use hetscale::hetsim_cluster::faults::FaultPlan;
use hetscale::hetsim_cluster::network::{
    ConstantLatency, MpichEthernet, NetworkModel, SharedEthernet,
};
use hetscale::hetsim_cluster::{ClassedCluster, ClusterSpec, NodeSpec, SpeedClass};
use hetscale::hetsim_mpi::{
    record_spmd, run_spmd, run_spmd_fast, FallbackReason, OpKind, RunSpec, SpmdOutcome, SpmdTimer,
    Tag,
};
use hetscale::kernels::ge::ge_timed_body;
use hetscale::kernels::mega::{ge_mega, mm_mega, power_mega};
use hetscale::kernels::mm::mm_timed_body;
use hetscale::kernels::power::power_timed_body;
use hetscale::kernels::stencil::stencil_timed_body;
use proptest::prelude::*;

fn het_cluster(p: usize, seed: u64) -> ClusterSpec {
    let nodes = (0..p)
        .map(|i| {
            let speed = 30.0 + ((seed.wrapping_mul(31).wrapping_add(i as u64 * 17)) % 90) as f64;
            NodeSpec::synthetic(format!("n{i}"), speed)
        })
        .collect();
    ClusterSpec::new(format!("prop-{p}-{seed}"), nodes).expect("non-empty")
}

/// A cluster where **no** two ranks share a rank class: speeds are
/// strictly distinct by construction, so the fast engine's class
/// deduplication degenerates to one recording per rank and must still
/// match the oracle exactly.
fn all_distinct_cluster(p: usize, seed: u64) -> ClusterSpec {
    let nodes = (0..p)
        .map(|i| {
            let jitter = ((seed.wrapping_mul(37).wrapping_add(i as u64)) % 8) as f64 * 0.0625;
            NodeSpec::synthetic(format!("d{i}"), 30.0 + i as f64 * 11.0 + jitter)
        })
        .collect();
    ClusterSpec::new(format!("distinct-{p}-{seed}"), nodes).expect("non-empty")
}

/// A cluster where **every** rank shares one class (identical speeds):
/// the deduplicated recording path collapses maximally.
fn homogeneous_cluster(p: usize) -> ClusterSpec {
    let nodes = (0..p).map(|i| NodeSpec::synthetic(format!("h{i}"), 55.0)).collect();
    ClusterSpec::new(format!("homog-{p}"), nodes).expect("non-empty")
}

/// `k` classes whose speeds come from a palette with repeated and
/// ulp-adjacent entries, two bits of `seed` each: neighbours may share
/// a speed (so mega skeleton subclasses dedup into one recorded class)
/// or sit one ulp apart. `ClassedCluster::heet` never repeats a speed.
fn palette_cluster(p: usize, k: usize, seed: u64) -> ClassedCluster {
    let palette =
        [50.0, f64::from_bits(50f64.to_bits() + 1), f64::from_bits(50f64.to_bits() - 1), 80.0];
    let k = k.min(p);
    let class = |j: usize| SpeedClass {
        speed_mflops: palette[(seed >> (2 * j) & 3) as usize],
        count: p / k + usize::from(j < p % k),
    };
    ClassedCluster::new("palette", (0..k).map(class).collect()).expect("valid palette")
}

/// A parameterized SPMD program exercising every operation kind:
/// rank-skewed compute, a ring exchange, root fan-out, and the full
/// collective set, repeated `rounds` times so messages pile up in the
/// mailboxes and waits chain across rounds.
fn mixed_body<T: SpmdTimer>(t: &mut T, rounds: usize, n: usize) {
    let me = t.rank();
    let p = t.size();
    for round in 0..rounds {
        t.compute_flops((1 + me) as f64 * (7 + round) as f64 * 1e4);
        if p > 1 {
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            t.send_count(next, Tag(round as u32), n + me);
            t.recv_count(prev, Tag(round as u32), n + prev);
        }
        t.barrier();
        t.broadcast_count(round % p, n + round);
        t.gather_count(0, 1 + (me + round) % 5);
        // An allgather, as `Rank::allgather_f64s` runs it: a gather to
        // rank 0, then one length header per rank and every element.
        t.gather_count(0, 1 + n % 4);
        t.broadcast_count(0, p * (2 + n % 4));
        t.compute_flops((p - me) as f64 * 3e3);
    }
}

fn assert_times_match<A, B>(fast: &SpmdOutcome<A>, threaded: &SpmdOutcome<B>) {
    assert_eq!(fast.times, threaded.times, "per-rank clocks diverged");
    assert_eq!(fast.compute_times, threaded.compute_times, "compute split diverged");
    assert_eq!(fast.comm_times, threaded.comm_times, "comm split diverged");
    assert_eq!(fast.wait_times, threaded.wait_times, "wait split diverged");
}

/// The per-rank lockstep evaluator against the threaded oracle on
/// [`mixed_body`], whenever the analyzer accepts its recording:
/// `run_spmd_fast` replays on the scheduler, so the evaluator needs a
/// check of its own.
fn assert_analytic_matches_oracle(
    cluster: &ClusterSpec,
    net: &dyn NetworkModel,
    (rounds, n): (usize, usize),
    threaded: &SpmdOutcome<()>,
) {
    let program = record_spmd(cluster, |t| mixed_body(t, rounds, n));
    if let Some(analytic) = program.simulate_analytic(cluster, &net) {
        assert_times_match(&analytic, threaded);
    }
}

fn retry_counts(traces: &[hetscale::hetsim_mpi::RankTrace]) -> Vec<usize> {
    traces.iter().map(|t| t.records.iter().filter(|r| r.kind == OpKind::Retry).count()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_agree_on_random_programs_and_networks(
        p in 1usize..6,
        speeds_seed in 1u64..10_000,
        rounds in 1usize..4,
        n in 1usize..64,
        net_choice in 0usize..3,
    ) {
        let cluster = het_cluster(p, speeds_seed);
        let mpich = MpichEthernet::new(2e-4, 9e7);
        let shared = SharedEthernet::new(1.5e-4, 1.1e8);
        let latency = ConstantLatency::new(3e-4);
        let net: &dyn NetworkModel = match net_choice {
            0 => &mpich,
            1 => &shared,
            _ => &latency,
        };
        let fast = run_spmd_fast(&cluster, &net, RunSpec::default(), |t| mixed_body(t, rounds, n));
        let threaded = run_spmd(&cluster, &net, RunSpec::default(), |r| mixed_body(r, rounds, n));
        assert_times_match(&fast, &threaded);
        prop_assert_eq!(fast.makespan(), threaded.makespan());
        prop_assert_eq!(fast.total_overhead(), threaded.total_overhead());
        prop_assert_eq!(fast.total_wait(), threaded.total_wait());
        assert_analytic_matches_oracle(&cluster, net, (rounds, n), &threaded);
    }

    #[test]
    fn engines_agree_under_random_fault_plans(
        p in 2usize..6,
        speeds_seed in 1u64..10_000,
        rounds in 1usize..3,
        n in 1usize..48,
        fault_seed in 0u64..1_000_000,
        straggler in 0usize..6,
        slowdown in 0.25f64..0.95,
        drops in 0u16..600,
    ) {
        let cluster = het_cluster(p, speeds_seed);
        let net = MpichEthernet::new(2e-4, 9e7);
        let plan = FaultPlan::new(fault_seed)
            .with_straggler(straggler % p, slowdown)
            .with_link_drops(drops);
        let spec = RunSpec { trace: true, faults: Some(&plan) };
        let fast = run_spmd_fast(&cluster, &net, spec, |t| mixed_body(t, rounds, n));
        let threaded = run_spmd(&cluster, &net, spec, |r| mixed_body(r, rounds, n));
        assert_times_match(&fast, &threaded);
        prop_assert_eq!(&fast.traces, &threaded.traces, "traces diverged");
        // Retry charges specifically: same drop schedule must be hit on
        // both engines, message for message.
        prop_assert_eq!(retry_counts(&fast.traces), retry_counts(&threaded.traces));
    }

    /// Class-dedup and ready-queue scheduling against the oracle across
    /// the class-structure extremes: clusters where no two ranks share a
    /// class (dedup degenerates to per-rank recordings), fully
    /// homogeneous clusters (dedup collapses to one class), and mixed
    /// ones — each crossed with the network models and fault plans.
    #[test]
    fn dedup_and_ready_queue_match_oracle_across_class_structures(
        p in 2usize..6,
        speeds_seed in 1u64..10_000,
        rounds in 1usize..3,
        n in 1usize..48,
        net_choice in 0usize..3,
        cluster_kind in 0usize..3,
        faulted_bit in 0usize..2,
        fault_seed in 0u64..1_000_000,
        slowdown in 0.25f64..0.95,
        drops in 0u16..400,
    ) {
        let cluster = match cluster_kind {
            0 => all_distinct_cluster(p, speeds_seed),
            1 => homogeneous_cluster(p),
            _ => het_cluster(p, speeds_seed),
        };
        let mpich = MpichEthernet::new(2e-4, 9e7);
        let shared = SharedEthernet::new(1.5e-4, 1.1e8);
        let latency = ConstantLatency::new(3e-4);
        let net: &dyn NetworkModel = match net_choice {
            0 => &mpich,
            1 => &shared,
            _ => &latency,
        };
        let faulted = faulted_bit == 1;
        if faulted {
            let plan = FaultPlan::new(fault_seed)
                .with_straggler(fault_seed as usize % p, slowdown)
                .with_link_drops(drops);
            let spec = RunSpec { trace: true, faults: Some(&plan) };
            let fast = run_spmd_fast(&cluster, &net, spec, |t| mixed_body(t, rounds, n));
            let threaded = run_spmd(&cluster, &net, spec, |r| mixed_body(r, rounds, n));
            assert_times_match(&fast, &threaded);
            prop_assert_eq!(&fast.traces, &threaded.traces, "traces diverged");
            prop_assert_eq!(retry_counts(&fast.traces), retry_counts(&threaded.traces));
        } else {
            let spec = RunSpec::default();
            let fast = run_spmd_fast(&cluster, &net, spec, |t| mixed_body(t, rounds, n));
            let threaded = run_spmd(&cluster, &net, spec, |r| mixed_body(r, rounds, n));
            assert_times_match(&fast, &threaded);
            prop_assert_eq!(fast.makespan(), threaded.makespan());
            prop_assert_eq!(fast.total_overhead(), threaded.total_overhead());
            prop_assert_eq!(fast.total_wait(), threaded.total_wait());
            assert_analytic_matches_oracle(&cluster, net, (rounds, n), &threaded);
        }
    }

    /// The lockstep analyzer against both reference paths, for all four
    /// kernel protocol bodies × the class-structure extremes × the
    /// network models: every kernel recording must be *accepted* by the
    /// analyzer, and its analytic evaluation must be bit-identical to
    /// the event-driven ready-queue scheduler and the threaded oracle.
    #[test]
    fn analytic_matches_both_engines_for_all_four_kernels(
        p in 1usize..6,
        speeds_seed in 1u64..10_000,
        n in 1usize..48,
        iters in 1usize..4,
        kernel in 0usize..4,
        net_choice in 0usize..3,
        cluster_kind in 0usize..3,
    ) {
        let cluster = match cluster_kind {
            0 => all_distinct_cluster(p, speeds_seed),
            1 => homogeneous_cluster(p),
            _ => het_cluster(p, speeds_seed),
        };
        let speeds: Vec<f64> =
            cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let mpich = MpichEthernet::new(2e-4, 9e7);
        let shared = SharedEthernet::new(1.5e-4, 1.1e8);
        let latency = ConstantLatency::new(3e-4);
        let net: &dyn NetworkModel = match net_choice {
            0 => &mpich,
            1 => &shared,
            _ => &latency,
        };
        let cyclic = CyclicDistribution::fine(n, &speeds);
        let block = BlockDistribution::proportional(n, &speeds);
        let program = match kernel {
            0 => record_spmd(&cluster, |t| ge_timed_body(t, &cyclic, n)),
            1 => record_spmd(&cluster, |t| mm_timed_body(t, &block, n)),
            2 => record_spmd(&cluster, |t| stencil_timed_body(t, &block, n, iters)),
            _ => record_spmd(&cluster, |t| power_timed_body(t, &block, n, iters)),
        };
        let analytic = program
            .simulate_analytic(&cluster, &net)
            .expect("every kernel recording is lockstep");
        let event_driven = program.simulate_event_driven(&cluster, &net);
        assert_times_match(&analytic, &event_driven);
        prop_assert_eq!(analytic.makespan(), event_driven.makespan());
        prop_assert_eq!(analytic.total_overhead(), event_driven.total_overhead());
        prop_assert_eq!(analytic.total_wait(), event_driven.total_wait());
        let threaded = match kernel {
            0 => run_spmd(&cluster, &net, RunSpec::default(), |r| ge_timed_body(r, &cyclic, n)),
            1 => run_spmd(&cluster, &net, RunSpec::default(), |r| mm_timed_body(r, &block, n)),
            2 => run_spmd(&cluster, &net, RunSpec::default(), |r| {
                stencil_timed_body(r, &block, n, iters)
            }),
            _ => run_spmd(&cluster, &net, RunSpec::default(), |r| {
                power_timed_body(r, &block, n, iters)
            }),
        };
        assert_times_match(&analytic, &threaded);
    }

    /// Reject-and-fallback: a program whose send crosses a barrier (the
    /// receive happens on the far side) is *not* lockstep — the
    /// analyzer must refuse it, and the fast engine's scheduler replay
    /// must still match the threaded oracle exactly.
    #[test]
    fn non_lockstep_programs_reject_and_fall_back(
        p in 2usize..6,
        speeds_seed in 1u64..10_000,
        n in 1usize..48,
        cluster_kind in 0usize..3,
    ) {
        let cluster = match cluster_kind {
            0 => all_distinct_cluster(p, speeds_seed),
            1 => homogeneous_cluster(p),
            _ => het_cluster(p, speeds_seed),
        };
        let net = MpichEthernet::new(2e-4, 9e7);
        // Rank 0 sends *before* the barrier; rank 1 receives *after*
        // it. The message is in flight across a collective boundary, so
        // no lockstep phase factorization exists.
        fn crossing_body<T: SpmdTimer>(t: &mut T, n: usize) {
            let me = t.rank();
            t.compute_flops((1 + me) as f64 * 5e3);
            if me == 0 {
                t.send_count(1, Tag::DATA, n);
            }
            t.barrier();
            if me == 1 {
                t.recv_count(0, Tag::DATA, n);
            }
            t.compute_flops(2e3);
        }
        let program = record_spmd(&cluster, |t| crossing_body(t, n));
        prop_assert_eq!(program.fallback_reason(), Some(FallbackReason::SendAcrossSync));
        prop_assert!(program.simulate_analytic(&cluster, &net).is_none());
        // The fast engine replays on the ready queue and must match
        // both references.
        let auto = run_spmd_fast(&cluster, &net, RunSpec::default(), |t| crossing_body(t, n));
        let event_driven = program.simulate_event_driven(&cluster, &net);
        assert_times_match(&auto, &event_driven);
        let threaded = run_spmd(&cluster, &net, RunSpec::default(), |r| crossing_body(r, n));
        assert_times_match(&auto, &threaded);
    }

    /// Three-way: the O(classes) aggregated evaluators against the
    /// per-rank event-driven engine against the threaded oracle, for
    /// all three mega kernel protocols × the class-structure extremes of
    /// the HEET generator (one class, one class *per rank*, mixed
    /// tiers) plus repeated and ulp-adjacent class speeds × the classed
    /// network models. Makespans must be bit-identical on all three
    /// paths — the contract that lets the mega sweep drop the rank walk
    /// entirely (DESIGN.md §13).
    #[test]
    fn aggregated_matches_event_driven_and_threaded_oracle(
        p in 1usize..16,
        k in 1usize..9,
        base in 20.0f64..120.0,
        spread in 1.0f64..4.0,
        n in 1usize..48,
        iters in 0usize..4,
        kernel in 0usize..3,
        net_choice in 0usize..3,
        cluster_kind in 0usize..4,
        palette in 0u64..65_536,
    ) {
        let cluster = match cluster_kind {
            // Dedup collapses to a single class tail.
            0 => ClassedCluster::heet(p, 1, base, 1.0),
            // Every rank its own class: aggregation degenerates to
            // per-rank state and must still match.
            1 => ClassedCluster::heet(p, p, base, 1.0 + spread),
            // Repeated and ulp-adjacent class speeds.
            3 => palette_cluster(p, k, palette),
            _ => ClassedCluster::heet(p, k, base, spread),
        };
        let spec = cluster.materialize();
        let speeds: Vec<f64> =
            spec.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let block = BlockDistribution::proportional(n, &speeds);
        let mpich = MpichEthernet::new(2e-4, 9e7);
        let shared = SharedEthernet::new(1.5e-4, 1.1e8);
        let latency = ConstantLatency::new(3e-4);
        let net: &dyn NetworkModel = match net_choice {
            0 => &mpich,
            1 => &shared,
            _ => &latency,
        };
        let cyclic = CyclicDistribution::fine(n, &speeds);
        let (aggregated, program, threaded) = if kernel == 0 {
            (
                mm_mega(&cluster, &net, n).expect("classed network"),
                record_spmd(&spec, |t| mm_timed_body(t, &block, n)),
                run_spmd(&spec, &net, RunSpec::default(), |r| mm_timed_body(r, &block, n)),
            )
        } else if kernel == 1 {
            // The round-batched GE form replays the same fine cyclic
            // deal the timed body partitions with.
            (
                ge_mega(&cluster, &net, n).expect("classed network"),
                record_spmd(&spec, |t| ge_timed_body(t, &cyclic, n)),
                run_spmd(&spec, &net, RunSpec::default(), |r| ge_timed_body(r, &cyclic, n)),
            )
        } else {
            // `iters` may be 0: the scatter-only protocol the mega
            // ceiling table prices as its serial-scatter bound.
            (
                power_mega(&cluster, &net, n, iters).expect("classed network"),
                record_spmd(&spec, |t| power_timed_body(t, &block, n, iters)),
                run_spmd(&spec, &net, RunSpec::default(), |r| {
                    power_timed_body(r, &block, n, iters)
                }),
            )
        };
        let event_driven = program.simulate_event_driven(&spec, &net);
        assert_times_match(&event_driven, &threaded);
        prop_assert_eq!(aggregated.ranks as usize, p);
        prop_assert!(aggregated.classes <= 2 * cluster.class_count() + 1);
        prop_assert_eq!(aggregated.makespan, event_driven.makespan());
        prop_assert_eq!(aggregated.makespan, threaded.makespan());
    }
}

/// The analyzer's rejection must not only happen — it must be the
/// *expected* typed reason, surfaced through the program's public
/// [`fallback_reason`](hetscale::hetsim_mpi::SpmdProgram::fallback_reason)
/// accessor, and its `Display` must say what went wrong in words the
/// `--stats-out` warning line can carry verbatim.
#[test]
fn send_across_barrier_reports_the_expected_fallback_reason() {
    let cluster = het_cluster(3, 7);
    fn crossing_body<T: SpmdTimer>(t: &mut T) {
        let me = t.rank();
        t.compute_flops((1 + me) as f64 * 5e3);
        if me == 0 {
            t.send_count(1, Tag::DATA, 16);
        }
        t.barrier();
        if me == 1 {
            t.recv_count(0, Tag::DATA, 16);
        }
    }
    let program = record_spmd(&cluster, crossing_body);
    assert_eq!(program.fallback_reason(), Some(FallbackReason::SendAcrossSync));
    let text = FallbackReason::SendAcrossSync.to_string();
    assert_eq!(
        text,
        "a message is sent before a synchronization point and received after it \
         (send-across-sync)"
    );
    // A lockstep program reports no reason at all.
    let lockstep = record_spmd(&cluster, |t| {
        t.compute_flops(1e3);
        t.barrier();
    });
    assert_eq!(lockstep.fallback_reason(), None);
}

//! Trace invariants across the stack: traced runs must account for
//! every virtual second, agree with the untraced accounting, and change
//! nothing about the timing itself.

use hetscale::hetsim_cluster::faults::{FaultPlan, RecoveryPolicy};
use hetscale::hetsim_cluster::sunwulf;
use hetscale::hetsim_cluster::time::SimTime;
use hetscale::hetsim_cluster::ClusterSpec;
use hetscale::hetsim_mpi::trace::{KindTotals, OpKind, OverheadBreakdown, RankTrace};
use hetscale::hetsim_mpi::{run_spmd, RunSpec, Tag};
use hetscale::kernels::ge::ge_parallel_timed;
use hetscale::kernels::mm::mm_parallel_timed;
use hetscale::kernels::power::power_parallel_timed;
use hetscale::kernels::recover::{estimated_run_secs, timed_recoverable, RecoverableKernel};
use hetscale::kernels::stencil::stencil_parallel_timed;
use hetscale::kernels::{ge_work, TimingOutcome};
use std::collections::{BTreeMap, BTreeSet};

const TRACED: RunSpec<'static> = RunSpec { trace: true, faults: None };

/// One timed kernel at a fixed configuration, priced under a spec.
type TimedRun<'a> = &'a dyn Fn(RunSpec<'_>) -> TimingOutcome;

/// The tier rule, checked on every timed kernel: the default spec takes
/// the closed form, tracing and an (empty) fault plan take the fast
/// engine, and all three give bit-identical clocks. Only the traced run
/// carries traces.
#[test]
fn traced_and_untraced_runs_have_identical_timing() {
    let p = 4;
    let ge = sunwulf::ge_config(p);
    let mm = sunwulf::mm_config(p);
    let net = sunwulf::sunwulf_network();
    let kernels: [(&str, TimedRun); 4] = [
        ("ge", &|spec: RunSpec<'_>| ge_parallel_timed(&ge, &net, 96, spec)),
        ("mm", &|spec: RunSpec<'_>| mm_parallel_timed(&mm, &net, 64, spec)),
        ("power", &|spec: RunSpec<'_>| power_parallel_timed(&ge, &net, 64, 5, spec)),
        ("stencil", &|spec: RunSpec<'_>| stencil_parallel_timed(&ge, &net, 64, 5, spec)),
    ];
    let empty_plan = FaultPlan::new(0x5eed);
    for (name, run) in kernels {
        let plain = run(RunSpec::default());
        let traced = run(TRACED);
        let faulted = run(RunSpec { trace: false, faults: Some(&empty_plan) });
        for (mode, other) in [("traced", &traced), ("faulted", &faulted)] {
            assert_eq!(plain.makespan, other.makespan, "{name}, {mode}: makespan");
            assert_eq!(plain.times, other.times, "{name}, {mode}: times");
            assert_eq!(plain.compute_times, other.compute_times, "{name}, {mode}: compute");
        }
        assert!(plain.traces.is_empty(), "{name}: untraced run carries traces");
        assert!(faulted.traces.is_empty(), "{name}: untraced faulted run carries traces");
        assert_eq!(traced.traces.len(), p, "{name}: one trace per rank");
        assert!(traced.traces.iter().all(|t| !t.records.is_empty()), "{name}: empty trace");
    }
}

#[test]
fn trace_spans_are_contiguous_and_exhaustive() {
    // Every rank's records tile [0, final clock] without gaps or
    // overlaps: the runtime accounts for every virtual second.
    let cluster = sunwulf::ge_config(3);
    let net = sunwulf::sunwulf_network();
    let traces = ge_parallel_timed(&cluster, &net, 40, TRACED).traces;
    for (rank, trace) in traces.iter().enumerate() {
        let mut cursor = 0.0f64;
        for r in &trace.records {
            assert!(
                (r.start.as_secs() - cursor).abs() < 1e-12,
                "rank {rank}: gap/overlap at {cursor} (record starts {})",
                r.start.as_secs()
            );
            assert!(r.end >= r.start, "negative span");
            cursor = r.end.as_secs();
        }
    }
}

#[test]
fn trace_sums_match_runtime_accounting() {
    let cluster = sunwulf::ge_config(4);
    let net = sunwulf::sunwulf_network();
    let outcome = run_spmd(&cluster, &net, TRACED, |rank| {
        rank.compute_flops(2e6);
        if rank.rank() == 0 {
            rank.broadcast_f64s(0, Some(&[1.0; 64]));
        } else {
            rank.broadcast_f64s(0, None);
        }
        rank.barrier();
        (rank.compute_time(), rank.comm_time())
    });
    for (rank, trace) in outcome.traces.iter().enumerate() {
        let (compute, comm) = outcome.results[rank];
        let by_kind = trace.by_kind();
        let traced_compute = by_kind.get(&OpKind::Compute).map(|t| t.as_secs()).unwrap_or(0.0);
        assert!(
            (traced_compute - compute.as_secs()).abs() < 1e-12,
            "rank {rank}: compute {traced_compute} vs {}",
            compute.as_secs()
        );
        assert!(
            (trace.overhead().as_secs() - comm.as_secs()).abs() < 1e-12,
            "rank {rank}: overhead {} vs {}",
            trace.overhead().as_secs(),
            comm.as_secs()
        );
    }
}

#[test]
fn untraced_runs_collect_no_records() {
    let cluster = ClusterSpec::homogeneous(2, 50.0);
    let net = sunwulf::sunwulf_network();
    let outcome = run_spmd(&cluster, &net, RunSpec::default(), |rank| {
        rank.compute_flops(1e6);
        if rank.rank() == 0 {
            rank.send_f64s(1, Tag::DATA, &[1.0]);
        } else {
            let _ = rank.recv_f64s(0, Tag::DATA);
        }
    });
    assert!(outcome.traces.iter().all(|t| t.records.is_empty()));
}

#[test]
fn ge_trace_shows_the_expected_operation_mix() {
    let cluster = sunwulf::ge_config(4);
    let net = sunwulf::sunwulf_network();
    let traces = ge_parallel_timed(&cluster, &net, 64, TRACED).traces;
    // Rank 1 (a worker) must show compute, bcast, barrier, recv (its
    // block) and gather (its contribution).
    let kinds = traces[1].by_kind();
    for kind in [OpKind::Compute, OpKind::Bcast, OpKind::Barrier, OpKind::Recv, OpKind::Gather] {
        assert!(
            kinds.get(&kind).map(|t| t.as_secs() > 0.0).unwrap_or(false),
            "rank 1 missing {kind} time: {kinds:?}"
        );
    }
    // Rank 0 distributes: sends must appear.
    assert!(traces[0].by_kind().contains_key(&OpKind::Send));
}

#[test]
fn timeline_renders_for_a_real_kernel() {
    let cluster = sunwulf::ge_config(3);
    let net = sunwulf::sunwulf_network();
    let traces = ge_parallel_timed(&cluster, &net, 48, TRACED).traces;
    let text = hetscale::hetsim_mpi::timeline_text(&traces, 80);
    assert_eq!(text.matches("rank").count(), 3);
    assert!(text.contains('.'), "compute must appear in the timeline");
    assert!(text.contains('b') || text.contains('B'), "collectives must appear");
}

/// The overhead decomposition written out longhand: per rank, each
/// present kind's spans summed in program order, then added rank by
/// rank in kind order.
fn longhand_breakdown(traces: &[RankTrace]) -> OverheadBreakdown {
    let mut per_kind = BTreeMap::new();
    let mut total = 0.0;
    for trace in traces {
        for kind in OpKind::ALL {
            let mut spans = trace.records.iter().filter(|r| r.kind == kind).peekable();
            if spans.peek().is_none() {
                continue;
            }
            let secs = spans.fold(SimTime::ZERO, |acc, r| acc + (r.end - r.start)).as_secs();
            *per_kind.entry(kind).or_insert(0.0) += secs;
            total += secs;
        }
    }
    OverheadBreakdown { per_kind, total }
}

/// The fold a closed form feeds ([`OverheadBreakdown::from_rank_totals`]
/// over per-rank [`KindTotals`]) and the traced one
/// ([`OverheadBreakdown::from_traces`]) give the longhand decomposition
/// on traced GE, MM, power, stencil, faulted and recovery runs, which
/// between them record every kind the engine records.
#[test]
fn shared_fold_matches_the_traced_decomposition_for_every_kind() {
    let net = sunwulf::sunwulf_network();
    let ge = sunwulf::ge_config(4);
    let mm = sunwulf::mm_config(4);
    let lossy = FaultPlan::new(11).with_straggler(2, 0.5).with_link_drops(120);
    let mut runs: Vec<(&str, Vec<RankTrace>)> = vec![
        ("ge", ge_parallel_timed(&ge, &net, 96, TRACED).traces),
        ("mm", mm_parallel_timed(&mm, &net, 64, TRACED).traces),
        ("power", power_parallel_timed(&ge, &net, 64, 5, TRACED).traces),
        ("stencil", stencil_parallel_timed(&ge, &net, 64, 5, TRACED).traces),
        (
            "faulted ge",
            ge_parallel_timed(&ge, &net, 96, RunSpec { trace: true, faults: Some(&lossy) }).traces,
        ),
    ];
    let n = 96;
    let est = estimated_run_secs(&ge, ge_work(n));
    let deadly = (0..64)
        .map(|seed| FaultPlan::new(seed).with_mtbf(est * 0.5))
        .find(|plan| {
            let policy = RecoveryPolicy::ShrinkRebalance;
            let run = timed_recoverable(RecoverableKernel::Ge, &ge, &net, plan, policy, n, false);
            run.death.is_some()
        })
        .expect("some seed fires a death inside the run");
    for (name, policy) in [
        ("checkpoint-restart", RecoveryPolicy::CheckpointRestart { interval_secs: est / 8.0 }),
        ("shrink-rebalance", RecoveryPolicy::ShrinkRebalance),
    ] {
        let run = timed_recoverable(RecoverableKernel::Ge, &ge, &net, &deadly, policy, n, true);
        runs.push((name, run.timing.traces));
    }
    let mut seen = BTreeSet::new();
    for (name, traces) in &runs {
        let longhand = longhand_breakdown(traces);
        assert_eq!(OverheadBreakdown::from_traces(traces), longhand, "{name}");
        let charged: Vec<KindTotals> = traces
            .iter()
            .map(|trace| {
                let mut totals = KindTotals::default();
                for r in &trace.records {
                    totals.add(r.kind, r.start, r.end);
                }
                totals
            })
            .collect();
        let folded = OverheadBreakdown::from_rank_totals(charged.iter().map(KindTotals::iter));
        assert_eq!(folded, longhand, "{name}");
        seen.extend(longhand.per_kind.keys().copied());
    }
    // No runtime records Scatter spans: the kernels distribute with
    // point-to-point sends. The kind stays so that every metrics export
    // keeps listing each kind's fraction.
    let engine_kinds: BTreeSet<OpKind> =
        OpKind::ALL.into_iter().filter(|&k| k != OpKind::Scatter).collect();
    assert_eq!(seen, engine_kinds);
}

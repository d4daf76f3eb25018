//! Phase-resolved cost of the fast timing engine, against the
//! thread-per-rank oracle runtime. The fast path is two phases —
//! record (run the body once per rank, deduplicate into rank classes)
//! and simulate (replay the op lists on the indexed ready-queue
//! scheduler) — and the bench groups mirror that split:
//!
//! * `record_phase` — [`record_spmd`] alone;
//! * `simulate_phase` — replaying a pre-recorded [`SpmdProgram`] on the
//!   ready-queue scheduler ([`SpmdProgram::simulate_event_driven`]);
//! * `end_to_end` — record + simulate ([`run_spmd_fast`]) next to the
//!   threaded oracle and the production timed kernels.
//!
//! Each group carries a scaled-Sunwulf case (`ge_config(64)` — 8× the
//! paper's 8-node rung, heterogeneous speeds so class dedup is partial)
//! alongside the homogeneous baseline.
//!
//! Both engines produce bit-identical `SpmdOutcome`s (enforced by the
//! `fast_matches_threaded` and `engine_equivalence` tests); this bench
//! records what that equivalence costs per phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsim_cluster::network::MpichEthernet;
use hetsim_cluster::{sunwulf, ClusterSpec};
use hetsim_mpi::{record_spmd, run_spmd, run_spmd_fast, RunSpec, SpmdTimer, Tag};
use kernels::ge::ge_parallel_timed;
use kernels::mm::mm_parallel_timed;
use std::hint::black_box;

fn net() -> MpichEthernet {
    MpichEthernet::new(0.3e-3, 1e8)
}

/// The bench clusters: a homogeneous baseline (dedup collapses to one
/// class) and the scaled Sunwulf GE rung at 64 nodes (8× the paper's
/// 8-node rung; two speed classes, so dedup is partial and the
/// ready-queue sees genuinely heterogeneous clocks).
fn clusters() -> Vec<(&'static str, ClusterSpec)> {
    vec![("homog_8", ClusterSpec::homogeneous(8, 50.0)), ("sunwulf_8x", sunwulf::ge_config(64))]
}

/// A collective-heavy synthetic program, generic over the timer so the
/// exact same body runs on both engines.
fn mixed_body<T: SpmdTimer>(t: &mut T, rounds: usize) {
    let me = t.rank();
    let p = t.size();
    for round in 0..rounds {
        t.compute_flops(1e5 * (me + 1) as f64);
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        t.send_count(next, Tag(round as u32), 256);
        t.recv_count(prev, Tag(round as u32), 256);
        t.barrier();
        t.broadcast_count(0, 512);
        t.gather_count(0, 64 + me);
        t.allgather_count(32);
    }
}

fn bench_record_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_phase");
    for (label, cluster) in clusters() {
        group.bench_with_input(BenchmarkId::new("mixed_x16", label), &cluster, |b, cluster| {
            b.iter(|| {
                let program = record_spmd(cluster, |t| mixed_body(t, 16));
                black_box(program.distinct_classes())
            })
        });
    }
    group.finish();
}

fn bench_simulate_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_phase");
    for (label, cluster) in clusters() {
        let program = record_spmd(&cluster, |t| mixed_body(t, 16));
        group.bench_with_input(BenchmarkId::new("mixed_x16", label), &cluster, |b, cluster| {
            b.iter(|| black_box(program.simulate_event_driven(cluster, &net()).makespan()))
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    for (label, cluster) in clusters() {
        group.bench_with_input(
            BenchmarkId::new("fast_mixed_x16", label),
            &cluster,
            |b, cluster| {
                b.iter(|| {
                    black_box(
                        run_spmd_fast(cluster, &net(), RunSpec::default(), |t| mixed_body(t, 16))
                            .makespan(),
                    )
                })
            },
        );
    }
    // The oracle only at the homogeneous baseline: thread-per-rank at 64
    // ranks is exactly the cost the fast path exists to avoid.
    let homog = ClusterSpec::homogeneous(8, 50.0);
    group.bench_with_input(BenchmarkId::new("threaded_mixed_x16", "homog_8"), &homog, |b, cl| {
        b.iter(|| {
            black_box(run_spmd(cl, &net(), RunSpec::default(), |r| mixed_body(r, 16)).makespan())
        })
    });
    // Production timed kernels (GE routes through its closed-form
    // evaluator, MM through record + simulate) at bench sizes.
    for n in [128usize, 256] {
        group.bench_with_input(BenchmarkId::new("ge_timed", n), &n, |b, &n| {
            b.iter(|| black_box(ge_parallel_timed(&homog, &net(), n, RunSpec::default()).makespan))
        });
        group.bench_with_input(BenchmarkId::new("mm_timed", n), &n, |b, &n| {
            b.iter(|| black_box(mm_parallel_timed(&homog, &net(), n, RunSpec::default()).makespan))
        });
    }
    group.finish();
}

criterion_group! {
    name = engine_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_record_phase, bench_simulate_phase, bench_end_to_end
}
criterion_main!(engine_benches);

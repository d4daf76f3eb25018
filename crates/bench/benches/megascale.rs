//! Per-rank versus class-aggregated pricing at mega scale — the cost
//! claim behind the X4 sweep (DESIGN.md §13).
//!
//! For HEET machines of 10³, 10⁴, and 10⁵ ranks (the same
//! `mega_presets` shape the `mega` experiment id sweeps), each kernel
//! cell is priced up to three ways:
//!
//! * `aggregated` — [`mm_mega`] / [`ge_mega`] / [`power_mega`] on the
//!   compressed [`ClassedCluster`]: O(classes) state, no rank vector;
//! * `per_rank` — the per-rank closed forms on the pre-materialized
//!   [`ClusterSpec`], the O(P) walk the aggregated path replaces.
//!   Materialization and the O(P) distributions are built *outside*
//!   the timer, so the measured gap is a lower bound on the real
//!   sweep's saving. GE's form is Θ(N·P), so its reference stops at
//!   10⁴ ranks;
//! * `event_driven` — GE only, the pre-recorded program replayed on
//!   the event queue: Θ(N·P) queue operations, affordable at 10³.
//!
//! The paths are bit-identical in output (`mega_matches_per_rank_*`
//! in `kernels::mega`); this bench pins that the aggregated cost is
//! flat in P for MM/power and Θ(N·classes) for GE while the per-rank
//! cost grows with P. Numbers are recorded in `BENCH_MEGASCALE.json`
//! at the repo root.

use bench_tables::params::{
    mega_ge_sizes, mega_mm_sizes, MEGA_BASE_MFLOPS, MEGA_MAX_CLASSES, MEGA_POWER_ITERS, MEGA_SPREAD,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetpart::{BlockDistribution, CyclicDistribution};
use hetsim_cluster::sunwulf::sunwulf_network;
use hetsim_cluster::ClassedCluster;
use hetsim_mpi::record_spmd;
use kernels::ge::ge_timed_body;
use kernels::mega::{ge_mega, mm_mega, power_mega};
use kernels::{ge_closed_form, mm_closed_form, power_closed_form};
use std::hint::black_box;

/// The presets the per-rank reference can still afford. (The `mega`
/// sweep itself continues to 10⁶ and 10⁷ ranks on the aggregated path
/// alone.)
const PRESETS: [usize; 3] = [1_000, 10_000, 100_000];

fn bench_megascale(c: &mut Criterion) {
    let net = sunwulf_network();
    let mut group = c.benchmark_group("megascale");
    for p in PRESETS {
        let cluster = ClassedCluster::heet(p, MEGA_MAX_CLASSES, MEGA_BASE_MFLOPS, MEGA_SPREAD);
        // The grid anchor — the size whose crossing the sweep inverts.
        let n = mega_mm_sizes(p)[4];
        let spec = cluster.materialize();
        let speeds = spec.speeds_mflops();
        let dist = BlockDistribution::proportional(n, &speeds);

        group.bench_with_input(BenchmarkId::new("mm_aggregated", p), &p, |b, _| {
            b.iter(|| black_box(mm_mega(&cluster, &net, n).unwrap().makespan))
        });
        group.bench_with_input(BenchmarkId::new("mm_per_rank", p), &p, |b, _| {
            b.iter(|| black_box(mm_closed_form(&spec, &net, n, &dist).makespan))
        });
        group.bench_with_input(BenchmarkId::new("power_aggregated", p), &p, |b, _| {
            b.iter(|| black_box(power_mega(&cluster, &net, n, MEGA_POWER_ITERS).unwrap().makespan))
        });
        group.bench_with_input(BenchmarkId::new("power_per_rank", p), &p, |b, _| {
            b.iter(|| {
                black_box(power_closed_form(&spec, &net, n, MEGA_POWER_ITERS, &dist).makespan)
            })
        });

        // GE walks Θ(N) lockstep rounds, so even aggregated a cell
        // costs Θ(N · classes) — and the per-rank closed form pays
        // Θ(N · P). At the grid anchor N = 2P that is 2P² rank-rounds:
        // affordable to 10⁴ ranks, a multi-minute cell at 10⁵, so the
        // per-rank reference stops at 10⁴ (the aggregated path runs
        // everywhere). Every aggregated iteration after the first reads
        // the machine's deal from this thread's winner table, so it
        // times the round pricing without the deal, as a sweep's later
        // sizes on one machine run.
        let ge_n = mega_ge_sizes(p)[0];
        let cyclic = CyclicDistribution::fine(ge_n, &speeds);
        group.bench_with_input(BenchmarkId::new("ge_aggregated", p), &p, |b, _| {
            b.iter(|| black_box(ge_mega(&cluster, &net, ge_n).unwrap().makespan))
        });
        if p <= 10_000 {
            group.bench_with_input(BenchmarkId::new("ge_per_rank", p), &p, |b, _| {
                b.iter(|| black_box(ge_closed_form(&spec, &net, ge_n, &cyclic).makespan))
            });
        }
        // The event-driven engine replays every broadcast + barrier as
        // per-rank events — Θ(N · P) queue operations; affordable only
        // on the 10³-rank preset. The recording is built outside the
        // timer, mirroring the pre-materialized spec above.
        if p <= 1_000 {
            let program = record_spmd(&spec, |t| ge_timed_body(t, &cyclic, ge_n));
            group.bench_with_input(BenchmarkId::new("ge_event_driven", p), &p, |b, _| {
                b.iter(|| black_box(program.simulate_event_driven(&spec, &net).makespan()))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = megascale_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_megascale
}
criterion_main!(megascale_benches);

//! Lockstep closed forms against the event-driven scheduler — the
//! per-kernel cost of the two bit-identical evaluation paths.
//!
//! Each of the four kernel protocol bodies is recorded once, then
//! priced both ways on the same [`SpmdProgram`]:
//!
//! * `analytic` — the per-rank lockstep evaluator over the phase plan
//!   ([`simulate_analytic`]);
//! * `event_driven` — the ready-queue scheduler
//!   ([`simulate_event_driven`]), the replay every recorded cell takes.
//!
//! The `sunwulf_8x` group repeats the pair on the scaled Sunwulf rung
//! the `surface` sweep prices hardest (`ge_config(64)`, 8× the paper's
//! 8-node system, heterogeneous speeds), and `ge_batched` measures the
//! campaign-batched GE evaluator ([`ge_closed_form_many`]) that the
//! frozen-noise ablation leans on — one shared elimination pass priced
//! under 12 jittered networks at once, versus 12 standalone calls.
//!
//! Both rungs also run `closed_form_vs_recorded`: do the hand-derived
//! forms pay for themselves?
//!
//! Numbers from this bench (plus suite wall-clocks) are recorded in
//! `BENCH_ANALYTIC.json` at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetpart::{BlockDistribution, CyclicDistribution};
use hetsim_cluster::network::{JitteredNetwork, MpichEthernet};
use hetsim_cluster::{sunwulf, ClusterSpec};
use hetsim_mpi::{record_spmd, run_spmd_fast, RecordTimer, RunSpec};
use kernels::ge::{ge_parallel_timed_many, ge_timed_body};
use kernels::mm::mm_timed_body;
use kernels::power::power_timed_body;
use kernels::stencil::stencil_timed_body;
use kernels::{mm_closed_form, power_closed_form, stencil_closed_form, TimingOutcome};
use std::hint::black_box;

fn net() -> MpichEthernet {
    MpichEthernet::new(0.3e-3, 1e8)
}

/// Record all four kernel bodies on `cluster` at size `n` and bench the
/// analytic and event-driven evaluations of each recording. Then, in
/// the `closed_form_vs_recorded` group, price MM, power and stencil by
/// their `*_closed_form` and by [`run_spmd_fast`] (record + event-driven
/// replay: the path a cell takes without its hand form).
fn bench_pairs(c: &mut Criterion, group_name: &str, cluster: &ClusterSpec, n: usize) {
    let sp = cluster.speeds_mflops();
    let cyclic = CyclicDistribution::fine(n, &sp);
    let block = BlockDistribution::proportional(n, &sp);
    let (iters, power_iters) = (n.div_ceil(8), n.div_ceil(4));
    let programs = [
        ("ge", record_spmd(cluster, |t| ge_timed_body(t, &cyclic, n))),
        ("mm", record_spmd(cluster, |t| mm_timed_body(t, &block, n))),
        ("stencil", record_spmd(cluster, |t| stencil_timed_body(t, &block, n, iters))),
        ("power", record_spmd(cluster, |t| power_timed_body(t, &block, n, power_iters))),
    ];
    let mut group = c.benchmark_group(group_name);
    for (kernel, program) in &programs {
        assert_eq!(program.fallback_reason(), None, "{kernel} recording must be lockstep");
        group.bench_with_input(BenchmarkId::new("analytic", kernel), program, |b, program| {
            b.iter(|| black_box(program.simulate_analytic(cluster, &net()).unwrap().makespan()))
        });
        group.bench_with_input(BenchmarkId::new("event_driven", kernel), program, |b, program| {
            b.iter(|| black_box(program.simulate_event_driven(cluster, &net()).makespan()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("closed_form_vs_recorded");
    let mut pair =
        |kernel: &str, closed_form: &dyn Fn() -> TimingOutcome, body: &dyn Fn(&mut RecordTimer)| {
            let id = format!("{kernel}/{}", cluster.size());
            group.bench_function(BenchmarkId::new("closed_form", &id), |b| {
                b.iter(|| black_box(closed_form().makespan))
            });
            group.bench_function(BenchmarkId::new("recorded", &id), |b| {
                b.iter(|| black_box(run_spmd_fast(cluster, &net(), RunSpec::default(), body)))
            });
        };
    pair("mm", &|| mm_closed_form(cluster, &net(), n, &block), &|t| mm_timed_body(t, &block, n));
    pair("power", &|| power_closed_form(cluster, &net(), n, power_iters, &block), &|t| {
        power_timed_body(t, &block, n, power_iters)
    });
    pair("stencil", &|| stencil_closed_form(cluster, &net(), n, iters, &block), &|t| {
        stencil_timed_body(t, &block, n, iters)
    });
    group.finish();
}

/// The four kernels on the paper's 8-node GE configuration.
fn bench_kernels_sunwulf(c: &mut Criterion) {
    bench_pairs(c, "analytic_vs_event_driven", &sunwulf::ge_config(8), 256);
}

/// The same pairs on the scaled 64-node rung the `surface` sweep walks.
fn bench_kernels_sunwulf_8x(c: &mut Criterion) {
    bench_pairs(c, "analytic_vs_event_driven_sunwulf_8x", &sunwulf::ge_config(64), 256);
}

/// The campaign-batched GE evaluator: 12 jittered networks priced in
/// one `ge_parallel_timed_many` call (shared elimination state) versus
/// twelve batch-of-1 calls.
fn bench_ge_batched(c: &mut Criterion) {
    let cluster = sunwulf::ge_config(2);
    let n = 420;
    let nets: Vec<JitteredNetwork<MpichEthernet>> = (0..12)
        .map(|seed| JitteredNetwork::new(sunwulf::sunwulf_network(), 0.05, seed + 1))
        .collect();
    let mut group = c.benchmark_group("ge_batched");
    group.bench_function("batched_12", |b| {
        b.iter(|| black_box(ge_parallel_timed_many(&cluster, &nets, n).len()))
    });
    group.bench_function("one_by_one_12", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for net in &nets {
                total += ge_parallel_timed_many(&cluster, std::slice::from_ref(net), n).len();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group! {
    name = analytic_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels_sunwulf, bench_kernels_sunwulf_8x, bench_ge_batched
}
criterion_main!(analytic_benches);

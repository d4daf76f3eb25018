//! Benches for the extension workloads (stencil, power iteration) and
//! the static/dynamic scheduling simulations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetpart::selfsched::{dynamic_schedule, static_schedule};
use hetsim_cluster::network::MpichEthernet;
use hetsim_cluster::{ClusterSpec, SimTime};
use hetsim_mpi::RunSpec;
use kernels::matrix::Matrix;
use kernels::power::{power_parallel, power_parallel_timed};
use kernels::stencil::{stencil_parallel, stencil_parallel_timed};
use std::hint::black_box;

fn net() -> MpichEthernet {
    MpichEthernet::new(0.3e-3, 1e8)
}

fn bench_stencil(c: &mut Criterion) {
    let n = 64;
    let iters = 8;
    let u0 = Matrix::random(n, n, 1);
    let mut group = c.benchmark_group("stencil");
    for p in [2usize, 4, 8] {
        let cluster = ClusterSpec::homogeneous(p, 50.0);
        group.bench_with_input(BenchmarkId::new("parallel_real", p), &p, |b, _| {
            b.iter(|| black_box(stencil_parallel(&cluster, &net(), &u0, iters)))
        });
        group.bench_with_input(BenchmarkId::new("parallel_timed", p), &p, |b, _| {
            b.iter(|| {
                black_box(stencil_parallel_timed(&cluster, &net(), n, iters, RunSpec::default()))
            })
        });
    }
    group.finish();
}

fn bench_power(c: &mut Criterion) {
    let n = 48;
    let iters = 8;
    let a = Matrix::random_diagonally_dominant(n, 2);
    let mut group = c.benchmark_group("power");
    for p in [2usize, 4, 8] {
        let cluster = ClusterSpec::homogeneous(p, 50.0);
        group.bench_with_input(BenchmarkId::new("parallel_real", p), &p, |b, _| {
            b.iter(|| black_box(power_parallel(&cluster, &net(), &a, iters)))
        });
        group.bench_with_input(BenchmarkId::new("parallel_timed", p), &p, |b, _| {
            b.iter(|| {
                black_box(power_parallel_timed(&cluster, &net(), n, iters, RunSpec::default()))
            })
        });
    }
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    let speeds: Vec<f64> = (0..8).map(|i| 5e7 + 1e7 * (i % 3) as f64).collect();
    let chunks = vec![1e6f64; 1024];
    let mut group = c.benchmark_group("selfsched");
    group.bench_function("static_1024_chunks", |b| {
        b.iter(|| black_box(static_schedule(&speeds, &speeds, &chunks)))
    });
    group.bench_function("dynamic_1024_chunks", |b| {
        b.iter(|| black_box(dynamic_schedule(&speeds, &chunks, SimTime::from_micros(100.0))))
    });
    group.finish();
}

criterion_group! {
    name = scheduling_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stencil, bench_power, bench_schedulers
}
criterion_main!(scheduling_benches);

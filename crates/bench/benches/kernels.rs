//! Kernel benches: sequential references, parallel (real arithmetic)
//! versions, and timing-mode skeletons, on homogeneous and heterogeneous
//! clusters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetscale_bench::{BENCH_GE_N, BENCH_MM_N};
use hetsim_cluster::network::MpichEthernet;
use hetsim_cluster::{ClusterSpec, NodeSpec};
use hetsim_mpi::RunSpec;
use kernels::ge::{ge_parallel, ge_parallel_timed, ge_sequential};
use kernels::matrix::Matrix;
use kernels::mm::{mm_parallel, mm_parallel_timed, mm_sequential};
use std::hint::black_box;

fn net() -> MpichEthernet {
    MpichEthernet::new(0.3e-3, 1e8)
}

fn het_cluster(p: usize) -> ClusterSpec {
    let nodes = (0..p)
        .map(|i| NodeSpec::synthetic(format!("n{i}"), 50.0 + 30.0 * (i % 3) as f64))
        .collect();
    ClusterSpec::new(format!("het-{p}"), nodes).expect("non-empty")
}

fn bench_ge(c: &mut Criterion) {
    let n = BENCH_GE_N;
    let a = Matrix::random_diagonally_dominant(n, 7);
    let x_true: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.01).collect();
    let b = a.matvec(&x_true);

    let mut group = c.benchmark_group("ge");
    group.bench_function("sequential", |bench| bench.iter(|| black_box(ge_sequential(&a, &b))));
    for p in [2usize, 4, 8] {
        let cluster = het_cluster(p);
        group.bench_with_input(BenchmarkId::new("parallel_real", p), &p, |bench, _| {
            bench.iter(|| black_box(ge_parallel(&cluster, &net(), &a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("parallel_timed", p), &p, |bench, _| {
            bench.iter(|| black_box(ge_parallel_timed(&cluster, &net(), n, RunSpec::default())))
        });
    }
    group.finish();
}

fn bench_mm(c: &mut Criterion) {
    let n = BENCH_MM_N;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);

    let mut group = c.benchmark_group("mm");
    group.bench_function("sequential", |bench| bench.iter(|| black_box(mm_sequential(&a, &b))));
    for p in [2usize, 4, 8] {
        let cluster = het_cluster(p);
        group.bench_with_input(BenchmarkId::new("parallel_real", p), &p, |bench, _| {
            bench.iter(|| black_box(mm_parallel(&cluster, &net(), &a, &b)))
        });
        group.bench_with_input(BenchmarkId::new("parallel_timed", p), &p, |bench, _| {
            bench.iter(|| black_box(mm_parallel_timed(&cluster, &net(), n, RunSpec::default())))
        });
    }
    group.finish();
}

fn bench_marked_speed_kernels(c: &mut Criterion) {
    use marked_speed::kernels::{run_kernel, BenchKernel};
    let mut group = c.benchmark_group("marked_speed");
    group.bench_function("lu_64", |b| b.iter(|| black_box(run_kernel(BenchKernel::Lu, 64))));
    group.bench_function("ft_1024", |b| b.iter(|| black_box(run_kernel(BenchKernel::Ft, 1024))));
    group.bench_function("bt_4096", |b| b.iter(|| black_box(run_kernel(BenchKernel::Bt, 4096))));
    group.finish();
}

criterion_group! {
    name = kernel_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ge, bench_mm, bench_marked_speed_kernels
}
criterion_main!(kernel_benches);

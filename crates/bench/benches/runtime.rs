//! Runtime micro-benchmarks: hetsim-mpi point-to-point and collective
//! throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsim_cluster::network::MpichEthernet;
use hetsim_cluster::ClusterSpec;
use hetsim_mpi::{run_spmd, RunSpec, Tag};
use std::hint::black_box;

fn net() -> MpichEthernet {
    MpichEthernet::new(0.3e-3, 1e8)
}

fn bench_p2p_pingpong(c: &mut Criterion) {
    let cluster = ClusterSpec::homogeneous(2, 50.0);
    let mut group = c.benchmark_group("runtime_p2p");
    for elems in [16usize, 1024, 16384] {
        group.bench_with_input(BenchmarkId::new("pingpong", elems), &elems, |b, &elems| {
            let payload = vec![1.0f64; elems];
            b.iter(|| {
                run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
                    for i in 0..8u32 {
                        if rank.rank() == 0 {
                            rank.send_f64s(1, Tag(i), &payload);
                            let _ = rank.recv_f64s(1, Tag(i));
                        } else {
                            let got = rank.recv_f64s(0, Tag(i));
                            rank.send_f64s(0, Tag(i), &got);
                        }
                    }
                    black_box(rank.clock())
                })
            })
        });
    }
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_collectives");
    for p in [4usize, 16] {
        let cluster = ClusterSpec::homogeneous(p, 50.0);
        group.bench_with_input(BenchmarkId::new("barrier_x32", p), &p, |b, _| {
            b.iter(|| {
                run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
                    for _ in 0..32 {
                        rank.barrier();
                    }
                    black_box(rank.clock())
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("bcast_1k_x32", p), &p, |b, _| {
            let payload = vec![1.0f64; 1024];
            b.iter(|| {
                run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
                    for _ in 0..32 {
                        if rank.rank() == 0 {
                            rank.broadcast_f64s(0, Some(&payload));
                        } else {
                            rank.broadcast_f64s(0, None);
                        }
                    }
                    black_box(rank.clock())
                })
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = runtime_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_p2p_pingpong, bench_collectives
}
criterion_main!(runtime_benches);

//! Property-based tests of the SPMD runtime's collectives: correctness
//! over arbitrary payload shapes and rank counts, determinism, and
//! virtual-time sanity.

use hetscale::hetsim_cluster::network::MpichEthernet;
use hetscale::hetsim_cluster::ClusterSpec;
use hetscale::hetsim_mpi::{run_spmd, RunSpec, Tag};
use proptest::prelude::*;

fn net() -> MpichEthernet {
    MpichEthernet::new(0.2e-3, 1e8)
}

fn payloads(p: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 0..24), p..=p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_delivers_identical_data(
        p in 2usize..7,
        data in prop::collection::vec(-1e6f64..1e6, 0..32),
        speeds_seed in 1u64..100,
    ) {
        let cluster = het_cluster(p, speeds_seed);
        let outcome = run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
            if rank.rank() == 0 {
                rank.broadcast_f64s(0, Some(&data))
            } else {
                rank.broadcast_f64s(0, None)
            }
        });
        for got in &outcome.results {
            prop_assert_eq!(got, &data);
        }
    }

    #[test]
    fn gather_reassembles_rank_indexed(
        p in 2usize..7,
        parts_seed in payloads(6),
        speeds_seed in 1u64..100,
    ) {
        let cluster = het_cluster(p, speeds_seed);
        let parts = &parts_seed[..p];
        let outcome = run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
            rank.gather_f64s(0, &parts[rank.rank()])
        });
        let gathered = outcome.results[0].as_ref().expect("root result");
        for (peer, v) in gathered.iter().enumerate() {
            prop_assert_eq!(v, &parts[peer]);
        }
    }

    #[test]
    fn allgather_equals_gather_plus_broadcast_semantics(
        p in 2usize..7,
        parts_seed in payloads(6),
        speeds_seed in 1u64..100,
    ) {
        let cluster = het_cluster(p, speeds_seed);
        let parts = &parts_seed[..p];
        let outcome = run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
            rank.allgather_f64s(&parts[rank.rank()])
        });
        for got in &outcome.results {
            prop_assert_eq!(got.len(), p);
            for (peer, v) in got.iter().enumerate() {
                prop_assert_eq!(v, &parts[peer]);
            }
        }
    }

    #[test]
    fn pingpong_conserves_payload_and_orders_time(
        rounds in 1usize..8,
        len in 0usize..32,
        speeds_seed in 1u64..100,
    ) {
        let cluster = het_cluster(2, speeds_seed);
        let outcome = run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
            let mut data: Vec<f64> = (0..len).map(|i| i as f64).collect();
            for r in 0..rounds as u32 {
                if rank.rank() == 0 {
                    rank.send_f64s(1, Tag(r), &data);
                    data = rank.recv_f64s(1, Tag(r));
                } else {
                    let got = rank.recv_f64s(0, Tag(r));
                    rank.send_f64s(0, Tag(r), &got);
                }
            }
            (data, rank.clock())
        });
        let (data0, t0) = &outcome.results[0];
        prop_assert_eq!(data0.len(), len);
        // 2·rounds transfers on the critical path, each ≥ α.
        prop_assert!(t0.as_secs() >= 2.0 * rounds as f64 * 0.2e-3 - 1e-12);
    }

    #[test]
    fn collective_heavy_program_is_deterministic(
        p in 2usize..6,
        ops in prop::collection::vec(0u8..4, 1..12),
        speeds_seed in 1u64..100,
    ) {
        let cluster = het_cluster(p, speeds_seed);
        let run = || {
            run_spmd(&cluster, &net(), RunSpec::default(), |rank| {
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        0 => rank.barrier(),
                        1 => {
                            let data = vec![i as f64; 4];
                            if rank.rank() == 0 {
                                rank.broadcast_f64s(0, Some(&data));
                            } else {
                                rank.broadcast_f64s(0, None);
                            }
                        }
                        2 => {
                            let _ = rank.gather_f64s(0, &[rank.rank() as f64]);
                        }
                        _ => rank.compute_flops(1e5 * (1 + rank.rank()) as f64),
                    }
                }
                rank.clock()
            })
            .results
        };
        prop_assert_eq!(run(), run());
    }
}

fn het_cluster(p: usize, seed: u64) -> ClusterSpec {
    let nodes = (0..p)
        .map(|i| {
            let speed = 30.0 + ((seed.wrapping_mul(31).wrapping_add(i as u64 * 17)) % 90) as f64;
            hetscale::hetsim_cluster::NodeSpec::synthetic(format!("n{i}"), speed)
        })
        .collect();
    ClusterSpec::new(format!("prop-{p}-{seed}"), nodes).expect("non-empty")
}

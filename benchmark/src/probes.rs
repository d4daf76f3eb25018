//! Fixed direct-call probes: single layers timed on the workload's own
//! inputs, after the workload itself ran. Each probe belongs to the
//! workloads whose inputs it uses; on the others its metrics read 0.

use crate::median;
use bench_tables::params::{
    mega_ge_sizes, mega_mm_sizes, mega_power_sizes, mega_presets, surface_ge_sizes,
    surface_mm_sizes, surface_rungs, ExperimentParams, MegaPreset, MEGA_BASE_MFLOPS,
    MEGA_MAX_CLASSES, MEGA_SPREAD,
};
use bench_tables::systems::{GeSystem, MegaGeSystem, MegaMmSystem, MegaPowerSystem};
use hetpart::{BlockDistribution, CyclicDistribution};
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::JitteredNetwork;
use hetsim_cluster::sunwulf;
use hetsim_mpi::record_spmd;
use kernels::analytic::{ge_closed_form, ge_closed_form_many, mm_closed_form};
use kernels::ge::ge_timed_body;
use kernels::mega::ge_mega;
use scalability::metric::{AlgorithmSystem, EfficiencyCurve};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per probe; the median is reported.
const REPS: usize = 5;

/// The probes' results, in the ledger's units.
#[derive(Debug, Default)]
pub(crate) struct Probes {
    pub record_us: f64,
    pub analytic_eval_us: f64,
    pub event_eval_us: f64,
    pub ge_ns_per_rank_round: f64,
    pub mm_us: f64,
    pub ge_many_us: f64,
    pub mega_ge_ns_per_round: f64,
    pub ge_top_cell_s: f64,
    pub cells_sum_s: f64,
    pub mm_cells_ms: f64,
    pub power_cells_ms: f64,
    pub heet_build_us: f64,
    pub invert_us: f64,
    pub critical_share: f64,
}

/// Runs the probes that belong to `workload`.
pub(crate) fn run(workload: &str, p: &ExperimentParams, quick: bool) -> Probes {
    let mut probes = Probes::default();
    match workload {
        "ladders" => {
            engine(p, &mut probes);
            ge_many(&mut probes);
            probes.invert_us = invert_us(&ge_ladder_curves(p), p.fit_degree);
        }
        "surface" => closed_form(quick, &mut probes),
        "faults_recover" => engine(p, &mut probes),
        "mega" => mega(p, quick, &mut probes),
        _ => {}
    }
    probes
}

/// Median seconds per call of `f`. Fast calls are repeated within each
/// timed repetition until it lasts about 5 ms.
fn per_call_secs(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let once = started.elapsed().as_secs_f64();
    let calls = ((0.005 / once.max(1e-9)).ceil() as usize).clamp(1, 100_000);
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&times)
}

fn mflops(cluster: &ClusterSpec) -> Vec<f64> {
    cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect()
}

/// Record, lockstep-analytic evaluation (plan analysis included) and
/// event-driven evaluation of the GE skeleton, on the GE ladder's top
/// rung at its largest size.
fn engine(p: &ExperimentParams, probes: &mut Probes) {
    let cluster = sunwulf::ge_config(*p.ge_ladder.last().expect("non-empty ladder"));
    let net = sunwulf::sunwulf_network();
    let n = *p.ge_sizes.last().expect("non-empty size sweep");
    let dist = CyclicDistribution::fine(n, &mflops(&cluster));
    let (mut record, mut analytic, mut event) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let program = record_spmd(&cluster, |r| ge_timed_body(r, &dist, n));
        let t1 = Instant::now();
        black_box(program.simulate_analytic(&cluster, &net).expect("the GE skeleton is lockstep"));
        let t2 = Instant::now();
        black_box(program.simulate_event_driven(&cluster, &net));
        let t3 = Instant::now();
        record.push((t1 - t0).as_secs_f64());
        analytic.push((t2 - t1).as_secs_f64());
        event.push((t3 - t2).as_secs_f64());
    }
    probes.record_us = median(&record) * 1e6;
    probes.analytic_eval_us = median(&analytic) * 1e6;
    probes.event_eval_us = median(&event) * 1e6;
}

/// The noise ablation's batched GE form: 12 jittered campaigns, 2 nodes,
/// N = 420.
fn ge_many(probes: &mut Probes) {
    let cluster = sunwulf::ge_config(2);
    let n = 420;
    let nets: Vec<_> =
        (1..=12).map(|seed| JitteredNetwork::new(sunwulf::sunwulf_network(), 0.05, seed)).collect();
    let dist = CyclicDistribution::fine(n, &mflops(&cluster));
    probes.ge_many_us = per_call_secs(|| {
        black_box(ge_closed_form_many(&cluster, &nets, n, &dist));
    }) * 1e6;
}

/// The per-rank closed forms over the top surface rung's size grids.
fn closed_form(quick: bool, probes: &mut Probes) {
    let p = *surface_rungs(quick).last().expect("non-empty rungs");
    let net = sunwulf::sunwulf_network();
    let ge_cluster = sunwulf::ge_config(p);
    let ge_cases: Vec<(usize, CyclicDistribution)> = surface_ge_sizes(p)
        .into_iter()
        .map(|n| (n, CyclicDistribution::fine(n, &mflops(&ge_cluster))))
        .collect();
    let secs = per_call_secs(|| {
        for (n, dist) in &ge_cases {
            black_box(ge_closed_form(&ge_cluster, &net, *n, dist));
        }
    });
    let rank_rounds: usize = ge_cases.iter().map(|(n, _)| n * p).sum();
    probes.ge_ns_per_rank_round = secs * 1e9 / rank_rounds as f64;

    let mm_cluster = sunwulf::mm_config(p);
    let mm_cases: Vec<(usize, BlockDistribution)> = surface_mm_sizes(p)
        .into_iter()
        .map(|n| (n, BlockDistribution::proportional(n, &mflops(&mm_cluster))))
        .collect();
    probes.mm_us = per_call_secs(|| {
        for (n, dist) in &mm_cases {
            black_box(mm_closed_form(&mm_cluster, &net, *n, dist));
        }
    }) * 1e6;
}

/// The GE ladder's curves, re-read through the memo the workload filled.
fn ge_ladder_curves(p: &ExperimentParams) -> Vec<(EfficiencyCurve, f64)> {
    let net = sunwulf::sunwulf_network();
    p.ge_ladder
        .iter()
        .map(|&rung| {
            let cluster = sunwulf::ge_config(rung);
            (EfficiencyCurve::measure(&GeSystem::new(&cluster, &net), &p.ge_sizes), p.ge_target)
        })
        .collect()
}

/// Required-N inversion, both read-offs, on each `(curve, target)`.
fn invert_us(curves: &[(EfficiencyCurve, f64)], degree: usize) -> f64 {
    per_call_secs(|| {
        for (curve, target) in curves {
            let _ = black_box(curve.required_n(*target, degree));
            let _ = black_box(curve.required_n_extrapolated(*target, degree));
        }
    }) * 1e6
}

/// The HEET machine of one mega preset, as the `mega` sweep builds it.
fn mega_cluster(preset: MegaPreset) -> ClassedCluster {
    if preset.zipf {
        ClassedCluster::heet_zipf(preset.ranks, MEGA_MAX_CLASSES, MEGA_BASE_MFLOPS, MEGA_SPREAD)
    } else {
        ClassedCluster::heet(preset.ranks, MEGA_MAX_CLASSES, MEGA_BASE_MFLOPS, MEGA_SPREAD)
    }
}

/// The class-aggregated tier: machine construction, `ge_mega` per round
/// on the 10⁵ preset, and every `(kernel, preset)` cell of the sweep
/// measured one after another, so the slowest cell can be set against
/// the pool's J-way share of the total, for J = min(nproc, 4) workers
/// (the benchmark's own launches run one worker; README.md, "Noise").
fn mega(p: &ExperimentParams, quick: bool, probes: &mut Probes) {
    let net = sunwulf::sunwulf_network();
    let presets = mega_presets(quick);
    let top = *presets.last().expect("non-empty presets");
    probes.heet_build_us = per_call_secs(|| {
        black_box(mega_cluster(top));
    }) * 1e6;

    let ranks = 100_000;
    let cluster = ClassedCluster::heet(ranks, MEGA_MAX_CLASSES, MEGA_BASE_MFLOPS, MEGA_SPREAD);
    let sizes = mega_ge_sizes(ranks);
    let secs = per_call_secs(|| {
        for &n in &sizes {
            black_box(ge_mega(&cluster, &net, n).expect("the mega network prices per class"));
        }
    });
    probes.mega_ge_ns_per_round = secs * 1e9 / sizes.iter().sum::<usize>() as f64;

    let mut curves = Vec::new();
    for kernel in ["mm", "ge", "power"] {
        for &preset in &presets {
            let started = Instant::now();
            let cluster = mega_cluster(preset);
            let r = preset.ranks;
            match kernel {
                "mm" => {
                    let sys = MegaMmSystem::new(&cluster, &net);
                    let curve = EfficiencyCurve::measure(&sys, &mega_mm_sizes(r));
                    let _ = black_box(curve.required_n(p.mm_target, p.fit_degree));
                    curves.push((curve, p.mm_target));
                }
                "ge" => {
                    let sys = MegaGeSystem::new(&cluster, &net);
                    let curve = EfficiencyCurve::measure(&sys, &mega_ge_sizes(r));
                    let _ = black_box(curve.required_n_extrapolated(p.ge_target, p.fit_degree));
                    curves.push((curve, p.ge_target));
                }
                _ => {
                    let sys = MegaPowerSystem::new(&cluster, &net);
                    let sizes = mega_power_sizes(r);
                    let top_n = *sizes.last().expect("non-empty grid");
                    black_box(sys.measure(sizes[0]));
                    black_box(sys.measure(top_n));
                    black_box(sys.scatter_floor_secs(top_n));
                }
            }
            let secs = started.elapsed().as_secs_f64();
            probes.cells_sum_s += secs;
            match kernel {
                "mm" => probes.mm_cells_ms += secs * 1e3,
                "power" => probes.power_cells_ms += secs * 1e3,
                _ if preset == top => probes.ge_top_cell_s = secs,
                _ => {}
            }
        }
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    probes.critical_share = probes.ge_top_cell_s / (probes.cells_sum_s / workers as f64);
    probes.invert_us = invert_us(&curves, p.fit_degree);
}

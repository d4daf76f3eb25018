//! Observability must be a pure read of the simulation: tracing a run
//! changes no virtual time, repeated runs export byte-identical files,
//! and the Chrome exporter's output is pinned to a golden fixture so
//! accidental format drift is caught.

use hetscale::hetsim_cluster::sunwulf;
use hetscale::hetsim_cluster::time::SimTime;
use hetscale::hetsim_mpi::trace::{OpKind, RankTrace, TraceRecord};
use hetscale::hetsim_mpi::{run_spmd, Rank, RunSpec, Tag};
use hetscale::hetsim_obs::{
    chrome_trace_json, critical_path, parse_trace_jsonl, trace_jsonl, MetricsSnapshot,
};
use hetscale::kernels::ge::ge_parallel_timed;

const TRACED: RunSpec<'static> = RunSpec { trace: true, faults: None };

/// A small SPMD program exercising every operation family: p2p pipeline,
/// broadcast, compute, barrier, gather.
fn mixed_body(rank: &mut Rank) {
    let me = rank.rank();
    let p = rank.size();
    if me == 0 {
        rank.send_f64s(1 % p, Tag::DATA, &vec![0.0; 512]);
    } else if me == 1 {
        let _ = rank.recv_f64s(0, Tag::DATA);
    }
    rank.broadcast_f64s(0, if me == 0 { Some(&[0.0; 64]) } else { None });
    rank.compute_flops(1e6 * (me + 1) as f64);
    rank.barrier();
    let gathered = rank.gather_f64s(0, &[0.0; 16]);
    if me == 0 {
        let _ = gathered.expect("rank 0 is the gather root");
    }
}

#[test]
fn observing_a_run_does_not_change_its_timing() {
    let cluster = sunwulf::ge_config(4);
    let net = sunwulf::sunwulf_network();
    let plain = run_spmd(&cluster, &net, RunSpec::default(), mixed_body);
    let observed = run_spmd(&cluster, &net, TRACED, mixed_body);
    // Bit-identical virtual times: observation is a pure read.
    assert_eq!(plain.times, observed.times);
    assert_eq!(plain.compute_times, observed.compute_times);
    assert_eq!(plain.comm_times, observed.comm_times);
    assert_eq!(plain.makespan(), observed.makespan());
    // And the metrics snapshot accounts for every traced span.
    let snap = MetricsSnapshot::from_traces(&observed.traces);
    let traced_total: f64 = observed.traces.iter().map(|t| t.total().as_secs()).sum();
    let metrics_total: f64 = snap.seconds_by_kind().values().sum();
    assert!((traced_total - metrics_total).abs() < 1e-12);
}

#[test]
fn repeated_observed_runs_export_identical_bytes() {
    let cluster = sunwulf::ge_config(4);
    let net = sunwulf::sunwulf_network();
    let run = || {
        let outcome = run_spmd(&cluster, &net, TRACED, mixed_body);
        (
            chrome_trace_json(&outcome.traces),
            trace_jsonl(&outcome.traces),
            MetricsSnapshot::from_traces(&outcome.traces).to_json().to_string(),
        )
    };
    let (chrome_a, jsonl_a, metrics_a) = run();
    let (chrome_b, jsonl_b, metrics_b) = run();
    assert_eq!(chrome_a, chrome_b);
    assert_eq!(jsonl_a, jsonl_b);
    assert_eq!(metrics_a, metrics_b);
}

#[test]
fn kernel_traces_roundtrip_and_analyze_deterministically() {
    let cluster = sunwulf::ge_config(4);
    let net = sunwulf::sunwulf_network();
    let traces = ge_parallel_timed(&cluster, &net, 64, TRACED).traces;
    // JSONL round-trip is bit-exact on a real kernel trace.
    let parsed = parse_trace_jsonl(&trace_jsonl(&traces)).unwrap();
    assert_eq!(parsed, traces);
    // The critical path tiles the makespan and is itself reproducible.
    let a = critical_path(&traces);
    let b = critical_path(&parsed);
    assert_eq!(a.steps, b.steps);
    assert!((a.coverage() - 1.0).abs() < 1e-9, "coverage = {}", a.coverage());
}

/// The fixture trace: tiny, hand-built, covering peer attribution,
/// zero-byte spans, and an awkward (non-terminating in binary) float.
fn golden_traces() -> Vec<RankTrace> {
    let rec = |kind, start: f64, end: f64, bytes, peer| TraceRecord {
        kind,
        start: SimTime::from_secs(start),
        end: SimTime::from_secs(end),
        bytes,
        peer,
    };
    vec![
        RankTrace {
            records: vec![
                rec(OpKind::Compute, 0.0, 0.1, 0, None),
                rec(OpKind::Send, 0.1, 0.30000000000000004, 4096, Some(1)),
            ],
        },
        RankTrace {
            records: vec![
                rec(OpKind::Wait, 0.0, 0.1, 0, Some(0)),
                rec(OpKind::Recv, 0.1, 0.30000000000000004, 4096, Some(0)),
                rec(OpKind::Barrier, 0.30000000000000004, 0.35, 0, None),
            ],
        },
    ]
}

#[test]
fn chrome_trace_matches_golden_fixture() {
    let rendered = chrome_trace_json(&golden_traces());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/chrome_trace_golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture present");
    assert_eq!(
        rendered, golden,
        "Chrome-trace output drifted from tests/fixtures/chrome_trace_golden.json; \
         if the change is intentional, rerun with UPDATE_GOLDEN=1 and review the diff"
    );
}

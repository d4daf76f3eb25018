//! Observability outputs for the experiment suite.
//!
//! Backs the `--trace-out DIR` and `--metrics-out FILE` flags of the
//! `bench-tables` binary: runs each kernel once on a Sunwulf rung with
//! per-operation tracing, then exports
//!
//! - `DIR/<run>.trace.json` — Chrome trace-viewer format (open at
//!   `chrome://tracing` or <https://ui.perfetto.dev>), one timeline row
//!   per rank;
//! - `DIR/<run>.jsonl` — the compact record-per-line form that
//!   [`hetsim_obs::parse_trace_jsonl`] round-trips bit-exactly;
//! - `FILE` — one JSON document combining, per run, the metrics
//!   snapshot (per-kind time fractions summing to 1), the per-rank
//!   compute/transfer/wait split, load-imbalance ratios, and the
//!   critical-path summary.
//!
//! Everything here is a pure function of virtual time, so both outputs
//! are byte-identical across repeated invocations — the same guarantee
//! the simulator makes for the timings themselves.

use hetsim_cluster::sunwulf;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::RunSpec;
use hetsim_obs::{
    chrome_trace_json, critical_path, load_imbalance, rank_activity, trace_jsonl, Json,
    MetricsSnapshot,
};
use kernels::ge::ge_parallel_timed;
use kernels::mm::mm_parallel_timed;
use kernels::power::power_parallel_timed;
use kernels::stencil::stencil_parallel_timed;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One traced benchmark run, named after the output files it produces.
pub struct ObservedRun {
    /// File-name slug (`ge-p8-n192`, ...).
    pub name: String,
    /// Per-rank operation traces of the run.
    pub traces: Vec<RankTrace>,
}

/// Runs the four kernels once each on a Sunwulf configuration with
/// tracing enabled. Quick mode uses the smoke-test rung and the
/// decomposition experiment's problem sizes; full mode the top rung.
pub fn observed_runs(quick: bool) -> Vec<ObservedRun> {
    let net = sunwulf::sunwulf_network();
    let p = if quick { 8 } else { 32 };
    let ge_n = if quick { 192 } else { 384 };
    let mm_n = if quick { 128 } else { 256 };
    let grid_n = if quick { 128 } else { 256 };
    let ge_cluster = sunwulf::ge_config(p);
    let mm_cluster = sunwulf::mm_config(p);
    let traced = RunSpec { trace: true, faults: None };
    vec![
        ObservedRun {
            name: format!("ge-p{p}-n{ge_n}"),
            traces: ge_parallel_timed(&ge_cluster, &net, ge_n, traced).traces,
        },
        ObservedRun {
            name: format!("mm-p{p}-n{mm_n}"),
            traces: mm_parallel_timed(&mm_cluster, &net, mm_n, traced).traces,
        },
        ObservedRun {
            name: format!("stencil-p{p}-n{grid_n}"),
            traces: stencil_parallel_timed(
                &ge_cluster,
                &net,
                grid_n,
                crate::systems::stencil_iters(grid_n),
                traced,
            )
            .traces,
        },
        ObservedRun {
            name: format!("power-p{p}-n{grid_n}"),
            traces: power_parallel_timed(
                &ge_cluster,
                &net,
                grid_n,
                crate::systems::power_iters(grid_n),
                traced,
            )
            .traces,
        },
    ]
}

/// Traced GE and MM runs under the fault sweep's straggler+drops plan,
/// appended to [`observed_runs`] when the `faults` experiment is
/// requested. The `-faulted` suffix keeps the slugs (and therefore the
/// output files) disjoint from the clean runs; the plan is seeded, so
/// these exports share the byte-stability guarantee.
pub fn observed_runs_faulted(quick: bool) -> Vec<ObservedRun> {
    use crate::experiments::faults::Severity;
    let net = sunwulf::sunwulf_network();
    let p = if quick { 8 } else { 16 };
    let ge_n = if quick { 192 } else { 384 };
    let mm_n = if quick { 128 } else { 256 };
    let plan = Severity::StragglerDrops.plan(p);
    let ge_cluster = sunwulf::ge_config(p);
    let mm_cluster = sunwulf::mm_config(p);
    let traced = RunSpec { trace: true, faults: Some(&plan) };
    vec![
        ObservedRun {
            name: format!("ge-p{p}-n{ge_n}-faulted"),
            traces: ge_parallel_timed(&ge_cluster, &net, ge_n, traced).traces,
        },
        ObservedRun {
            name: format!("mm-p{p}-n{mm_n}-faulted"),
            traces: mm_parallel_timed(&mm_cluster, &net, mm_n, traced).traces,
        },
    ]
}

/// Traced recoverable GE and MM runs — GE under checkpoint/restart at
/// the Daly interval, MM under shrink-rebalance with an early death —
/// appended to [`observed_runs`] when the `recover` experiment is
/// requested. The recovery charges appear as typed spans (`Checkpoint`,
/// `Detect`, `LostWork`, `Rebalance`); plans are seeded, so the exports
/// share the byte-stability guarantee.
pub fn observed_runs_recovered(quick: bool) -> Vec<ObservedRun> {
    use crate::experiments::recover::{ge_observed_inputs, mm_observed_inputs};
    use kernels::ge::ge_parallel_timed_recoverable;
    use kernels::mm::mm_parallel_timed_recoverable;
    let net = sunwulf::sunwulf_network();
    let (ge_cluster, ge_plan, ge_policy, ge_n) = ge_observed_inputs(quick);
    let (mm_cluster, mm_plan, mm_policy, mm_n) = mm_observed_inputs(quick);
    let ge_p = ge_cluster.size();
    let mm_p = mm_cluster.size();
    vec![
        ObservedRun {
            name: format!("ge-p{ge_p}-n{ge_n}-recover-ckpt"),
            traces: ge_parallel_timed_recoverable(
                &ge_cluster,
                &net,
                &ge_plan,
                ge_policy,
                ge_n,
                true,
            )
            .timing
            .traces,
        },
        ObservedRun {
            name: format!("mm-p{mm_p}-n{mm_n}-recover-shrink"),
            traces: mm_parallel_timed_recoverable(
                &mm_cluster,
                &net,
                &mm_plan,
                mm_policy,
                mm_n,
                true,
            )
            .timing
            .traces,
        },
    ]
}

/// Writes the two trace files per run into `dir` (created if missing)
/// and returns the paths written.
pub fn write_trace_dir(dir: &Path, runs: &[ObservedRun]) -> io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for run in runs {
        let chrome = dir.join(format!("{}.trace.json", run.name));
        std::fs::write(&chrome, chrome_trace_json(&run.traces))?;
        written.push(chrome.display().to_string());
        let jsonl = dir.join(format!("{}.jsonl", run.name));
        std::fs::write(&jsonl, trace_jsonl(&run.traces))?;
        written.push(jsonl.display().to_string());
    }
    Ok(written)
}

/// Builds the combined metrics document for a set of observed runs.
///
/// Shape: `{"schema": ..., "runs": {name: {"metrics": <registry
/// snapshot>, "activity": [...], "imbalance": {...}, "critical_path":
/// {...}}}}`. The metrics snapshot's `fractions` cover every
/// [`hetsim_mpi::trace::OpKind`] and sum to 1.
pub fn metrics_json(runs: &[ObservedRun]) -> Json {
    let mut by_name = BTreeMap::new();
    for run in runs {
        let mut obj = BTreeMap::new();
        obj.insert("metrics".to_string(), MetricsSnapshot::from_traces(&run.traces).to_json());
        let activity = rank_activity(&run.traces);
        obj.insert(
            "activity".to_string(),
            Json::Arr(
                activity
                    .iter()
                    .map(|a| {
                        let mut row = BTreeMap::new();
                        row.insert("rank".to_string(), Json::int(a.rank as u64));
                        row.insert("compute".to_string(), Json::Num(a.compute.as_secs()));
                        row.insert("transfer".to_string(), Json::Num(a.transfer.as_secs()));
                        row.insert("wait".to_string(), Json::Num(a.wait.as_secs()));
                        Json::Obj(row)
                    })
                    .collect(),
            ),
        );
        let compute: Vec<SimTime> = activity.iter().map(|a| a.compute).collect();
        let busy: Vec<SimTime> = activity.iter().map(|a| a.compute + a.transfer).collect();
        let mut imb = BTreeMap::new();
        imb.insert("compute".to_string(), Json::Num(load_imbalance(&compute)));
        imb.insert("busy".to_string(), Json::Num(load_imbalance(&busy)));
        obj.insert("imbalance".to_string(), Json::Obj(imb));
        obj.insert("critical_path".to_string(), critical_path(&run.traces).to_json());
        by_name.insert(run.name.clone(), Json::Obj(obj));
    }
    let mut root = BTreeMap::new();
    root.insert("schema".to_string(), Json::str("hetscale-metrics/1"));
    root.insert("runs".to_string(), Json::Obj(by_name));
    Json::Obj(root)
}

/// Writes the combined metrics document to `path` (parent directories
/// created if missing).
pub fn write_metrics(path: &Path, runs: &[ObservedRun]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{}\n", metrics_json(runs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_mpi::trace::OpKind;

    fn small_run() -> ObservedRun {
        let cluster = sunwulf::ge_config(4);
        let net = sunwulf::sunwulf_network();
        ObservedRun {
            name: "ge-p4-n96".to_string(),
            traces: ge_parallel_timed(&cluster, &net, 96, RunSpec { trace: true, faults: None })
                .traces,
        }
    }

    #[test]
    fn metrics_document_has_expected_shape() {
        let doc = metrics_json(&[small_run()]);
        let root = doc.as_obj().unwrap();
        assert_eq!(root["schema"].as_str(), Some("hetscale-metrics/1"));
        let run = root["runs"].as_obj().unwrap()["ge-p4-n96"].as_obj().unwrap();
        for key in ["metrics", "activity", "imbalance", "critical_path"] {
            assert!(run.contains_key(key), "missing {key}");
        }
        assert_eq!(run["activity"].as_arr().unwrap().len(), 4);
        assert!(run["imbalance"].as_obj().unwrap()["compute"].as_num().unwrap() >= 1.0);
    }

    #[test]
    fn metrics_fractions_cover_all_kinds_and_sum_to_one() {
        let doc = metrics_json(&[small_run()]);
        let run = doc.as_obj().unwrap()["runs"].as_obj().unwrap()["ge-p4-n96"].as_obj().unwrap();
        let fractions = run["metrics"].as_obj().unwrap()["fractions"].as_obj().unwrap();
        assert_eq!(fractions.len(), OpKind::ALL.len());
        let sum: f64 = fractions.values().map(|v| v.as_num().unwrap()).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    #[test]
    fn metrics_document_is_byte_stable() {
        let a = metrics_json(&[small_run()]).to_string();
        let b = metrics_json(&[small_run()]).to_string();
        assert_eq!(a, b);
        // And parses back as valid JSON.
        Json::parse(&a).unwrap();
    }

    #[test]
    fn faulted_runs_carry_retry_spans_and_stay_byte_stable() {
        let runs = observed_runs_faulted(true);
        assert_eq!(runs.len(), 2);
        for run in &runs {
            assert!(run.name.ends_with("-faulted"), "slug {} misses suffix", run.name);
        }
        let retries: usize = runs
            .iter()
            .flat_map(|r| r.traces.iter())
            .flat_map(|t| t.records.iter())
            .filter(|rec| rec.kind == OpKind::Retry)
            .count();
        assert!(retries > 0, "straggler+drops plan must charge retry spans");
        let a = metrics_json(&runs).to_string();
        let b = metrics_json(&observed_runs_faulted(true)).to_string();
        assert_eq!(a, b, "faulted metrics export must be byte-stable");
    }

    #[test]
    fn observed_run_names_are_distinct_slugs() {
        let runs = observed_runs(true);
        let names: Vec<&str> = runs.iter().map(|r| r.name.as_str()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate run names: {names:?}");
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
        }
    }
}

//! Drives the harness library on one launch of each workload's
//! `--quick` variant, so the whole suite takes seconds.

use hetscale_benchmark::compare::{compare, judge, Verdict};
use hetscale_benchmark::report::{SetResult, WorkloadResult};
use hetscale_benchmark::spec::spec;
use hetscale_benchmark::{trace, workload, Harness, Metric, Run, Sample, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Builds the release `bench-tables` and `benchmark-calibrate` into this
/// test's target directory (a no-op when they are current) and returns
/// the directory holding them.
fn bin_dir() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        // Test executables live in <target>/<profile>/deps/.
        let exe = std::env::current_exe().expect("test executable path");
        let target = exe.ancestors().nth(3).expect("target directory").to_path_buf();
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        for (manifest, target_args) in [
            (here.join("../Cargo.toml"), ["-p", "bench-tables"]),
            (here.join("Cargo.toml"), ["--bin", "benchmark-calibrate"]),
        ] {
            let status = Command::new(&cargo)
                .args(["build", "--release", "--offline", "--quiet"])
                .args(target_args)
                .arg("--manifest-path")
                .arg(manifest)
                .env("CARGO_TARGET_DIR", &target)
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building {target_args:?} failed");
        }
        target.join("release")
    })
}

fn quick_harness() -> Harness {
    Harness::new(bin_dir(), true).expect("bench-tables was just built")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn a_quick_set_emits_every_declared_metric_and_compares_unchanged_with_itself() {
    let h = quick_harness();
    let setup = h.setup_samples(1).expect("--list launch");
    let mut results: Vec<WorkloadResult> = Vec::new();
    for w in &WORKLOADS {
        let mut run = Run::prepare(&h, w, DEFAULT_SEED).expect("reference run");
        run.launch().expect("timed launch");
        let mut result = run.result(&setup);
        let traced = trace::traced_run(&h, w, DEFAULT_SEED)
            .unwrap_or_else(|e| panic!("traced run of {}: {e}", w.name));
        result.absorb_trace(traced);
        assert_eq!(result.failed, 0, "{} failed an operation", w.name);
        results.push(result);
    }

    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(spec().workloads, names, "BENCHMARK.json names the harness's workloads");
    for r in &results {
        for declared in spec().end_to_end.iter().chain(&spec().per_layer) {
            assert!(valid_name(&declared.name), "metric name {:?}", declared.name);
            let m = r
                .metric(&declared.name)
                .unwrap_or_else(|| panic!("{} did not emit {}", r.name, declared.name));
            assert_eq!(m.unit, declared.unit, "{}: unit of {}", r.name, m.name);
            assert!(m.value.is_finite(), "{}: {} = {}", r.name, m.name, m.value);
        }
        for traced in [false, true] {
            let line = hetsim_obs::Json::parse(&r.summary_line(traced)).expect("summary is JSON");
            let keys: Vec<&String> = line.as_obj().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }

    let set = SetResult { meta: Default::default(), workloads: results };
    let file = h.work_dir().join("quick-set.json");
    set.write(&file).expect("result file written");
    let read = SetResult::read(&file).expect("result file read back");
    assert_eq!(read.workloads.len(), set.workloads.len());
    for written in &set.workloads {
        let back = read.workload(&written.name).expect("workload survives the file");
        for m in written.end_to_end.iter().chain(&written.per_layer) {
            assert_eq!(
                back.metric(&m.name),
                Some(m),
                "{}: {} survives the file",
                back.name,
                m.name
            );
        }
    }
    let c = compare(&read, &read);
    assert_eq!(c.verdicts.len(), WORKLOADS.len() * spec().end_to_end.len());
    for (w, metric, verdict) in &c.verdicts {
        assert_eq!(*verdict, Verdict::Unchanged, "{w} {metric}:\n{}", c.text);
    }
    assert!(c.count_diffs.is_empty() && !c.regressed(), "{}", c.text);
}

#[test]
fn a_flipped_reference_byte_counts_as_a_failure() {
    let h = quick_harness();
    let ladders = workload("ladders").expect("declared workload");
    let mut run = Run::prepare(&h, ladders, DEFAULT_SEED).expect("reference run");
    run.launch().expect("timed launch");
    assert_eq!(run.failed, 0, "the unmodified reference matches");
    run.reference.as_mut().expect("prepared").stdout[0] ^= 1;
    run.launch().expect("timed launch");
    let setup = Sample { wall_s: 1e-3, cpu_s: 1e-3, rss_mb: 1.0, calibration_s: 1e-3 };
    let result = run.result(&[setup]);
    assert_eq!((result.failed, result.attempted), (1, 2));
    assert!(result.failed as f64 / result.attempted as f64 > 0.0);
}

#[test]
fn verdicts_follow_the_bound_and_the_pair_rule() {
    let declared = spec().end_to_end.iter().find(|m| m.name == "wall_norm_s").expect("declared");
    let metric = |samples: Vec<f64>| Metric {
        name: "wall_norm_s".to_string(),
        unit: "s".to_string(),
        value: hetscale_benchmark::median(&samples),
        samples,
    };
    let steady = metric(vec![1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]);
    let slower = metric(steady.samples.iter().map(|s| s * 1.3).collect());
    let faster = metric(steady.samples.iter().map(|s| s * 0.8).collect());
    let noisy = metric(vec![0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]);
    assert_eq!(judge(&steady, &slower, declared).verdict, Verdict::Worse);
    assert_eq!(judge(&steady, &faster, declared).verdict, Verdict::Better);
    assert_eq!(judge(&steady, &steady, declared).verdict, Verdict::Unchanged);
    assert_eq!(judge(&noisy, &noisy, declared).verdict, Verdict::Unresolved);
}

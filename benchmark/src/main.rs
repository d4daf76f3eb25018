//! `benchmark` — the repository benchmark's command line. Run it
//! through `benchmark/run.sh`, which builds `bench-tables` and this
//! harness in release mode first.
//!
//! ```text
//! benchmark [--seed N] [--out FILE]
//!     One set: every workload end to end, launches interleaved
//!     round-robin, then one traced run per workload. Prints every
//!     metric by name and unit; --out writes the result file.
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//!     One workload: timed launches for S seconds (--trace 0, the
//!     default) or its traced run (--trace 1). The last stdout line is a
//!     JSON summary of the end-to-end or the per-layer metrics.
//! benchmark compare A.json B.json
//!     B (a change) against A (its parent), per workload and metric.
//! ```
//!
//! Exit status: 0 when every operation succeeded (for `compare`: no
//! regression), 1 otherwise, 2 on a usage error or a missing binary.

use hetscale_benchmark::compare::compare;
use hetscale_benchmark::launch::Pinned;
use hetscale_benchmark::report::{machine_meta, SetResult, WorkloadResult};
use hetscale_benchmark::spec::spec;
use hetscale_benchmark::{
    median, quantile, trace, workload, Harness, Run, SetupSampler, Workload, DEFAULT_SEED,
    WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: benchmark [--seed N] [--out FILE]\n\
    \x20      benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \x20      benchmark compare A.json B.json\n\
    workloads: ladders surface faults_recover mega";

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec().run_seconds,
        trace: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(workload(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|_| "--seed needs an unsigned integer")?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.trace && opts.workload.is_none() {
        return Err("--trace needs --workload (a set always traces every workload)".to_string());
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        _ => measure(&args),
    };
    std::process::exit(code);
}

fn compare_files(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("error: compare needs two result files\n{USAGE}");
        return 2;
    };
    match (SetResult::read(Path::new(a)), SetResult::read(Path::new(b))) {
        (Ok(a), Ok(b)) => {
            let c = compare(&a, &b);
            print!("{}", c.text);
            i32::from(c.regressed())
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn measure(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let exe = std::env::current_exe().expect("the running executable has a path");
    let harness =
        match Harness::new(exe.parent().expect("an executable lives in a directory"), false) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
    let outcome = match opts.workload {
        Some(w) => single(&harness, w, &opts),
        None => set(&harness, &exe, &opts),
    };
    match outcome {
        Ok(results) => {
            if let Some(path) = &opts.out {
                let set = SetResult {
                    meta: machine_meta(harness.jobs(), opts.seed),
                    workloads: results.clone(),
                };
                if let Err(e) = set.write(path) {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
            if results.iter().all(|r| r.failed == 0) {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// One workload for `--seconds` (or its traced run); prints the summary
/// line.
fn single(
    h: &Harness,
    w: &'static Workload,
    opts: &Options,
) -> Result<Vec<WorkloadResult>, String> {
    let result = if opts.trace {
        trace::traced_run(h, w, opts.seed)?
    } else {
        let io = |e: std::io::Error| format!("{}: {e}", w.name);
        let window = Duration::from_secs_f64(opts.seconds);
        let _pinned = Pinned::to_one_cpu().map_err(io)?;
        let mut setup = SetupSampler::start(h, window).map_err(io)?;
        let mut run = Run::prepare(h, w, opts.seed).map_err(io)?;
        // A closed loop: each launch starts when the previous one exits,
        // as long as one more launch as long as the last still fits.
        let deadline = Instant::now() + window;
        loop {
            run.launch().map_err(io)?;
            setup.tick(h).map_err(io)?;
            let last = Duration::from_secs_f64(run.samples.last().expect("just launched").wall_s);
            if Instant::now() + last > deadline {
                break;
            }
        }
        run.result(&setup.finish(h).map_err(io)?)
    };
    println!("{}", result.summary_line(opts.trace));
    Ok(vec![result])
}

/// One set: all workloads end to end, interleaved, then traced.
fn set(h: &Harness, exe: &Path, opts: &Options) -> Result<Vec<WorkloadResult>, String> {
    let io = |e: std::io::Error| e.to_string();
    let pinned = Pinned::to_one_cpu().map_err(io)?;
    // A set's timed launches take about half a minute.
    let mut setup = SetupSampler::start(h, Duration::from_secs(30)).map_err(io)?;
    let mut runs = WORKLOADS
        .iter()
        .map(|w| Run::prepare(h, w, opts.seed))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    // Round-robin, so a noisy minute lands on every workload, not one.
    loop {
        let mut launched = false;
        for run in runs.iter_mut().filter(|r| r.samples.len() < r.workload.set_runs) {
            run.launch().map_err(io)?;
            launched = true;
        }
        if !launched {
            break;
        }
        setup.tick(h).map_err(io)?;
    }
    let setup = setup.finish(h).map_err(io)?;
    drop(pinned);
    let mut results: Vec<WorkloadResult> = runs.iter().map(|r| r.result(&setup)).collect();
    // Each traced run in a fresh process, so its counters and memo are
    // the workload's own.
    for result in &mut results {
        let file = h.work_dir().join(format!("{}.traced.json", result.name));
        let status = Command::new(exe)
            .args(["--workload", &result.name, "--seed", &opts.seed.to_string(), "--trace", "1"])
            .arg("--out")
            .arg(&file)
            .stdout(Stdio::null())
            .status()
            .map_err(io)?;
        if !status.success() {
            return Err(format!(
                "the traced run of {} failed (see above); set aborted",
                result.name
            ));
        }
        let mut traced = SetResult::read(&file)?;
        result.absorb_trace(traced.workloads.remove(0));
    }
    print_set(&results);
    Ok(results)
}

/// The sample count, median and the highest percentile with at least
/// ten samples beyond it, when there are samples.
fn spread(samples: &[f64]) -> String {
    if samples.is_empty() {
        return String::new();
    }
    let n = samples.len();
    let tail = [99, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) >= 10 * 100)
        .map(|p| format!(", p{p} {:.6}", quantile(samples, p as f64 / 100.0)))
        .unwrap_or_default();
    format!("  (n={n}, median {:.6}{tail})", median(samples))
}

/// Every measured metric of every workload, by name with unit: the
/// end-to-end ones (the bounded ones first, then the raw medians and the
/// calibration), then the ledger.
fn print_set(results: &[WorkloadResult]) {
    println!("{:<15} {:<34} {:>18}  unit", "workload", "metric", "value");
    for r in results {
        for name in
            r.end_to_end.iter().map(|m| &m.name).chain(spec().per_layer.iter().map(|d| &d.name))
        {
            if let Some(m) = r.metric(name) {
                let value = if m.unit == "count" || m.unit == "bytes" {
                    format!("{}", m.value)
                } else {
                    format!("{:.6}", m.value)
                };
                println!(
                    "{:<15} {:<34} {value:>18}  {}{}",
                    r.name,
                    m.name,
                    m.unit,
                    spread(&m.samples)
                );
            }
        }
        println!(
            "{:<15} {:<34} {:>18}",
            r.name,
            "failed/attempted",
            format!("{}/{}", r.failed, r.attempted)
        );
    }
}

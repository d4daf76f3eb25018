//! # hetscale-benchmark — the repository benchmark
//!
//! This repository's product is the `bench-tables` binary, which
//! regenerates the paper's ψ tables on five pricing tiers. The benchmark
//! measures that binary the way a reader runs it, and splits its time
//! by layer:
//!
//! * **End-to-end runs** ([`Run`]): the release `bench-tables` binary is
//!   launched on the four [`WORKLOADS`], one child at a time, each with
//!   `--jobs 1` and on one processor ([`launch::Pinned`]). Every launch
//!   records wall time, CPU time and peak RSS, between two
//!   [`Calibration`]s that say how fast the host runs a fresh process on
//!   that processor at that moment, and every output
//!   byte (stdout and exported files) is compared against a reference:
//!   the same binary's `--no-analytic` output, or for `mega` its first
//!   timed run.
//! * **Traced run** ([`trace::traced_run`]): one fresh process per
//!   workload calls the same `bench_tables::experiments` functions the
//!   binary calls, in the binary's order, with a span and a counter
//!   snapshot around each call. It checks that it rendered the binary's
//!   stdout byte for byte, then runs fixed probes of single layers. The
//!   result is the per-layer ledger.
//!
//! Metric names, units and bounds are declared once, in
//! `BENCHMARK.json` ([`spec`]). `README.md` beside this crate says which
//! end-to-end metric each layer metric should move, on which workload.

pub mod compare;
pub mod launch;
mod probes;
pub mod report;
pub mod spec;
pub mod trace;

use launch::Output;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Default workload seed, `0x5eed0000` — also `bench-tables`' default
/// `--seed`, so the default set reproduces the binary's default bytes.
pub const DEFAULT_SEED: u64 = 0x5eed_0000;

/// Set-up samples per set or run; their median is `setup_s`. Each sample
/// is the fastest of [`SETUP_BATCH`] consecutive `bench-tables --list`
/// launches, normalised by the calibration taken just before them
/// ([`Sample::normalised`]), and [`SetupSampler`] spreads the samples
/// over the measured window, so that neither one busy moment nor one
/// busy stretch of the host reads as a slower start-up (README.md,
/// "Noise").
pub const SETUP_SAMPLES: usize = 10;

/// `bench-tables --list` launches behind one set-up sample.
pub const SETUP_BATCH: usize = 5;

/// Worker threads per child (`--jobs`). One, so that a launch's time
/// does not depend on whether another process holds a second processor
/// (README.md, "Noise").
pub const JOBS: usize = 1;

/// Seconds one [`Calibration::measure`] reads on the reference machine
/// (a 2-vCPU Xeon KVM guest) when its host is quiet. Normalised times
/// are scaled to it.
pub const CALIBRATION_REF_S: f64 = 0.00055;

/// `benchmark-calibrate` launches behind one calibration; the fastest
/// counts (one launch alone can be held up by the scheduler).
const CALIBRATION_LAUNCHES: usize = 5;

/// How fast the host runs a fresh process at the moment: the
/// launch-to-exit time of `benchmark-calibrate`, a process that starts
/// and exits. Other tenants of a shared host slow fresh processes, the
/// launches of `bench-tables` included, by up to half, changing within
/// a second; a calibration taken just before and just after a launch
/// moves with it, so their ratio stays put (README.md, "Noise").
pub struct Calibration {
    bin: PathBuf,
}

impl Calibration {
    /// Seconds of the fastest of [`CALIBRATION_LAUNCHES`] launches.
    ///
    /// # Errors
    /// When a launch cannot be made or exits unsuccessfully.
    pub fn measure(&self) -> io::Result<f64> {
        let mut fastest = f64::INFINITY;
        for _ in 0..CALIBRATION_LAUNCHES {
            let started = Instant::now();
            let status = Command::new(&self.bin)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()?;
            fastest = fastest.min(started.elapsed().as_secs_f64());
            if !status.success() {
                return Err(io::Error::other("benchmark-calibrate exited unsuccessfully"));
            }
        }
        Ok(fastest)
    }
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name, as `BENCHMARK.json` and `--workload` spell it.
    pub name: &'static str,
    /// Timed launches in one set.
    pub set_runs: usize,
    /// Launches add `--quick`: the full `faults_recover` and `mega`
    /// launches take 2.4 s and 7 s, and the calibrations just before and
    /// just after a launch that long do not follow the slowdowns inside
    /// it (README.md, "Noise").
    pub quick: bool,
}

/// The four workloads; why each was chosen is in `BENCHMARK.json` and
/// `README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload { name: "ladders", set_runs: 100, quick: false },
    Workload { name: "surface", set_runs: 40, quick: false },
    Workload { name: "faults_recover", set_runs: 40, quick: true },
    Workload { name: "mega", set_runs: 40, quick: true },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `bench-tables` binary under test, the calibration beside it, and
/// a scratch directory, removed when the harness is dropped.
pub struct Harness {
    bin: PathBuf,
    quick: bool,
    work: PathBuf,
    calibration: Calibration,
}

impl Harness {
    /// Binds to `bin_dir/bench-tables` and `bin_dir/benchmark-calibrate`.
    /// With `quick`, every launch adds `--quick` (the test suite's small
    /// variant of each workload).
    ///
    /// # Errors
    /// When a binary is missing (the message says how to build it) or
    /// the scratch directory cannot be created.
    pub fn new(bin_dir: &Path, quick: bool) -> Result<Harness, String> {
        let bin = bin_dir.join("bench-tables");
        let calibrate = bin_dir.join("benchmark-calibrate");
        for (path, build) in [
            (&bin, "`cargo build --release -p bench-tables` at the repository root"),
            (&calibrate, "`cargo build --release` in benchmark/"),
        ] {
            if !path.is_file() {
                return Err(format!(
                    "{} not found; build it with {build} (benchmark/run.sh builds both)",
                    path.display()
                ));
            }
        }
        static HARNESSES: AtomicUsize = AtomicUsize::new(0);
        let n = HARNESSES.fetch_add(1, Ordering::Relaxed);
        let work = bin_dir.join(format!("benchmark-work-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Harness { bin, quick, work, calibration: Calibration { bin: calibrate } })
    }

    /// Worker threads each child may run (`--jobs`).
    pub fn jobs(&self) -> usize {
        JOBS
    }

    /// Whether launches of `w` add `--quick`.
    pub fn quick(&self, w: &Workload) -> bool {
        self.quick || w.quick
    }

    /// Scratch directory for exports and stderr captures.
    pub fn work_dir(&self) -> &Path {
        &self.work
    }

    /// `--jobs 1`, then `--quick` when `quick`, then `rest`.
    fn argv(&self, quick: bool, rest: &[&str]) -> Vec<String> {
        let mut args = vec!["--jobs".to_string(), JOBS.to_string()];
        if quick {
            args.push("--quick".to_string());
        }
        args.extend(rest.iter().map(|s| s.to_string()));
        args
    }

    /// `n` set-up samples, each the fastest of [`SETUP_BATCH`]
    /// `bench-tables --list` launches with a calibration taken just
    /// before them: the exec, dynamic loading and argument parsing every
    /// invocation pays once. (Taking the fastest also drops a first
    /// launch that finds the binary out of the page cache.)
    ///
    /// # Errors
    /// When a launch cannot be made or exits unsuccessfully.
    pub fn setup_samples(&self, n: usize) -> io::Result<Vec<Sample>> {
        let stderr = self.work.join("list.stderr");
        (0..n)
            .map(|_| {
                let calibration_s = self.calibration.measure()?;
                let batch = (0..SETUP_BATCH)
                    .map(|_| {
                        let l = launch::launch(&self.bin, &["--list".to_string()], None, &stderr)?;
                        if !l.success {
                            return Err(io::Error::other(
                                "bench-tables --list exited unsuccessfully",
                            ));
                        }
                        Ok(l)
                    })
                    .collect::<io::Result<Vec<_>>>()?;
                let l = batch
                    .into_iter()
                    .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                    .expect("SETUP_BATCH > 0");
                Ok(Sample { wall_s: l.wall_s, cpu_s: l.cpu_s, rss_mb: l.rss_mb, calibration_s })
            })
            .collect()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = launch::remove_tree(&self.work);
    }
}

/// Takes the [`SETUP_SAMPLES`] set-up samples of a run: the first at
/// once, the rest whenever a tenth of the expected window has passed
/// since the last one ([`SetupSampler::tick`], called between timed
/// launches), and any still missing at the end.
pub struct SetupSampler {
    every: Duration,
    due: Instant,
    samples: Vec<Sample>,
}

impl SetupSampler {
    /// Takes the first sample, for a run expected to last `window`.
    ///
    /// # Errors
    /// As [`Harness::setup_samples`].
    pub fn start(h: &Harness, window: Duration) -> io::Result<SetupSampler> {
        let samples = h.setup_samples(1)?;
        let every = window / SETUP_SAMPLES as u32;
        Ok(SetupSampler { every, due: Instant::now() + every, samples })
    }

    /// Takes the next sample if it is due.
    ///
    /// # Errors
    /// As [`Harness::setup_samples`].
    pub fn tick(&mut self, h: &Harness) -> io::Result<()> {
        if self.samples.len() < SETUP_SAMPLES && Instant::now() >= self.due {
            self.samples.extend(h.setup_samples(1)?);
            self.due += self.every;
        }
        Ok(())
    }

    /// Takes the samples still missing and returns all of them.
    ///
    /// # Errors
    /// As [`Harness::setup_samples`].
    pub fn finish(mut self, h: &Harness) -> io::Result<Vec<Sample>> {
        let missing = SETUP_SAMPLES - self.samples.len();
        self.samples.extend(h.setup_samples(missing)?);
        Ok(self.samples)
    }
}

/// One timed launch's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Launch-to-exit wall time, seconds.
    pub wall_s: f64,
    /// Child user + system CPU time, seconds.
    pub cpu_s: f64,
    /// Child peak RSS, MiB.
    pub rss_mb: f64,
    /// The [`Calibration`] beside the launch, seconds: the mean of those
    /// taken just before and just after it (for a set-up sample, one
    /// just before its batch).
    pub calibration_s: f64,
}

impl Sample {
    /// `secs` (this launch's wall or CPU time) scaled to the reference
    /// machine's quiet speed: `secs × CALIBRATION_REF_S / calibration_s`.
    pub fn normalised(&self, secs: f64) -> f64 {
        secs * CALIBRATION_REF_S / self.calibration_s
    }
}

/// One measured metric: its value and, for end-to-end metrics, the raw
/// per-launch samples it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
    /// The value.
    pub value: f64,
    /// Raw samples behind the value (empty for per-layer metrics).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric without samples.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit: unit.to_string(), value, samples: Vec::new() }
    }
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics; `q = 1` is the maximum).
///
/// # Panics
/// When `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One workload's end-to-end measurement: the launch arguments, the
/// reference output, and the samples and failure counts so far.
pub struct Run<'h> {
    harness: &'h Harness,
    /// The workload.
    pub workload: &'static Workload,
    args: Vec<String>,
    export: Option<PathBuf>,
    stderr: PathBuf,
    /// The bytes every launch must reproduce: the `--no-analytic` output
    /// after [`Run::prepare`], else the first successful launch's.
    pub reference: Option<Output>,
    /// One entry per timed launch.
    pub samples: Vec<Sample>,
    /// Operations attempted: timed launches.
    pub attempted: u64,
    /// Operations that exited unsuccessfully or differed from their
    /// reference.
    pub failed: u64,
}

impl<'h> Run<'h> {
    /// The run of `workload` with no launches made yet. Only
    /// `faults_recover` reads `seed`; the other workloads are seed-free.
    ///
    /// # Errors
    /// When the scratch directory cannot be created.
    pub fn new(
        harness: &'h Harness,
        workload: &'static Workload,
        seed: u64,
    ) -> io::Result<Run<'h>> {
        let dir = harness.work.join(workload.name);
        std::fs::create_dir_all(&dir)?;
        let export = dir.join("out");
        let argv = |rest: &[&str]| harness.argv(harness.quick(workload), rest);
        let (args, export) = match workload.name {
            "ladders" => (argv(&[]), None),
            "surface" => (argv(&["surface"]), None),
            "mega" => (argv(&["mega"]), None),
            "faults_recover" => {
                let traces = export.join("traces");
                let metrics = export.join("metrics.json");
                let seed = seed.to_string();
                let rest = ["--seed", &seed, "--faults", "recover", "--trace-out"];
                let mut args = argv(&rest);
                args.push(traces.display().to_string());
                args.push("--metrics-out".to_string());
                args.push(metrics.display().to_string());
                (args, Some(export))
            }
            other => unreachable!("unknown workload {other}"),
        };
        Ok(Run {
            harness,
            workload,
            args,
            export,
            stderr: dir.join("stderr.txt"),
            reference: None,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// [`Run::new`], then the untimed reference: the workload's
    /// `--no-analytic` output, which prices every rank on its own.
    ///
    /// # Errors
    /// When a launch cannot be made, or the reference run fails.
    pub fn prepare(
        harness: &'h Harness,
        workload: &'static Workload,
        seed: u64,
    ) -> io::Result<Run<'h>> {
        let mut run = Run::new(harness, workload, seed)?;
        let mut args = run.args.clone();
        args.push("--no-analytic".to_string());
        let l = run.launch_with(&args)?;
        if !l.success {
            return Err(io::Error::other(format!(
                "{} reference run (--no-analytic) failed; its stderr is in {}",
                workload.name,
                run.stderr.display()
            )));
        }
        run.reference = Some(l.output);
        Ok(run)
    }

    fn launch_with(&self, args: &[String]) -> io::Result<launch::Launch> {
        launch::launch(&self.harness.bin, args, self.export.as_deref(), &self.stderr)
    }

    /// One timed launch, checked against the reference.
    ///
    /// # Errors
    /// When the launch cannot be made (an unsuccessful exit is counted
    /// as a failure instead).
    pub fn launch(&mut self) -> io::Result<()> {
        let before = self.harness.calibration.measure()?;
        let l = self.launch_with(&self.args)?;
        let after = self.harness.calibration.measure()?;
        self.attempted += 1;
        if self.reference.is_none() && l.success {
            self.reference = Some(l.output.clone());
        }
        let problem = match &self.reference {
            Some(reference) if l.success => l.output.first_difference(reference),
            _ => Some(format!("exited unsuccessfully; stderr in {}", self.stderr.display())),
        };
        if let Some(why) = problem {
            self.failed += 1;
            eprintln!("benchmark: {} launch {}: {why}", self.workload.name, self.attempted);
        }
        self.samples.push(Sample {
            wall_s: l.wall_s,
            cpu_s: l.cpu_s,
            rss_mb: l.rss_mb,
            calibration_s: (before + after) / 2.0,
        });
        Ok(())
    }

    /// The end-to-end metrics over the launches so far, with `setup`
    /// the `--list` samples behind `setup_s`. Every metric keeps all its
    /// launch samples, so medians and tails stay readable.
    ///
    /// The bounded times are medians of normalised times
    /// ([`Sample::normalised`]): other tenants of a shared host slow
    /// every launch by up to half for minutes at a time, which moves raw
    /// times, even a run's fastest launch, by as much (README.md,
    /// "Noise"). The raw medians and the calibration are kept beside
    /// them, unbounded.
    ///
    /// # Panics
    /// When no launch has been made.
    fn end_to_end(&self, setup: &[Sample]) -> Vec<Metric> {
        let setup: Vec<f64> = setup.iter().map(|s| s.normalised(s.wall_s)).collect();
        let walls: Vec<f64> = self.samples.iter().map(|s| s.wall_s).collect();
        let cpus: Vec<f64> = self.samples.iter().map(|s| s.cpu_s).collect();
        let rss: Vec<f64> = self.samples.iter().map(|s| s.rss_mb).collect();
        let wall_norm: Vec<f64> = self.samples.iter().map(|s| s.normalised(s.wall_s)).collect();
        let cpu_norm: Vec<f64> = self.samples.iter().map(|s| s.normalised(s.cpu_s)).collect();
        let calibration: Vec<f64> = self.samples.iter().map(|s| s.calibration_s * 1e3).collect();
        let metric = |name: &str, unit: &str, value: f64, samples: &[f64]| Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples: samples.to_vec(),
        };
        vec![
            metric("setup_s", "s", median(&setup), &setup),
            metric("wall_norm_s", "s", median(&wall_norm), &wall_norm),
            metric("cpu_norm_s", "s", median(&cpu_norm), &cpu_norm),
            metric("peak_rss_mb", "MB", quantile(&rss, 1.0), &rss),
            metric("wall_s", "s", median(&walls), &walls),
            metric("cpu_s", "s", median(&cpus), &cpus),
            metric("calibration_ms", "ms", median(&calibration), &calibration),
        ]
    }

    /// The workload's result: its end-to-end metrics, no ledger yet.
    pub fn result(&self, setup: &[Sample]) -> report::WorkloadResult {
        report::WorkloadResult {
            name: self.workload.name.to_string(),
            attempted: self.attempted,
            failed: self.failed,
            end_to_end: self.end_to_end(setup),
            per_layer: Vec::new(),
            spans: hetsim_obs::Json::Arr(Vec::new()),
        }
    }
}

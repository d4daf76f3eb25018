//! The traced run: the per-layer ledger.
//!
//! One fresh process per workload calls the same
//! `bench_tables::experiments` functions the `bench-tables` binary's
//! `main` calls, in `main`'s order, and renders their tables into a
//! string. Each call runs inside a [`Tracer`] span (name, start, end,
//! parent) that also diffs the program's own counters — engine
//! telemetry and wall clocks, memo, pool — between its start and end.
//! Spans stay in memory until the run ends. The rendered string must
//! equal the binary's stdout byte for byte (and, for `faults_recover`,
//! the exported files must match too), which shows the spans timed the
//! work the binary does. Fixed probes of single layers follow
//! ([`crate::probes`]); they run after the workload's counters are
//! read, so they do not disturb them.
//!
//! Counters and the memo are process-global, so the ledger's counts are
//! the workload's own only in a fresh process.

use crate::launch::{self, Output};
use crate::probes::{self, Probes};
use crate::report::WorkloadResult;
use crate::{median, quantile, Harness, Metric, Run, Workload, SETUP_SAMPLES};
use bench_tables::experiments::{
    ablate, baselines, compare, decomp, ext, f1, f2t5, faults, mega, noise, recover, surface, t1,
    t2, t3t4, t6t7, validate, x2,
};
use bench_tables::{memo, obs, pool, seed, ExperimentParams};
use hetsim_mpi::telemetry::{self, FallbackReason};
use hetsim_obs::Json;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Counter names, in [`Counters`] order.
const COUNTERS: [&str; 16] = [
    "engine.record_ns",
    "engine.simulate_ns",
    "engine.analytic_sims",
    "engine.closed_form_cells",
    "engine.event_driven_sims",
    "engine.events",
    "engine.parks",
    "engine.retry_events",
    "engine.fallback_recovery_ops",
    "aggregate.sims",
    "aggregate.ranks",
    "aggregate.classes",
    "memo.touches",
    "memo.entries",
    "pool.batches",
    "pool.cells",
];

/// A snapshot (or, after [`Counters::since`], a difference) of the
/// program's counters: [`COUNTERS`] plus cells run per pool worker.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counters {
    values: [u64; COUNTERS.len()],
    worker_cells: Vec<u64>,
}

impl Counters {
    /// The counters now.
    fn now() -> Counters {
        let (record_ns, simulate_ns) = telemetry::wall_clock_ns();
        let e = telemetry::snapshot();
        let m = memo::snapshot();
        let p = pool::snapshot();
        let recovery = e.fallback_reasons.get(FallbackReason::RecoveryOps.name());
        Counters {
            values: [
                record_ns,
                simulate_ns,
                e.analytic_sims,
                e.closed_form_cells(),
                e.event_driven_fallback
                    + e.event_driven_forced
                    + e.event_driven_traced
                    + e.event_driven_faulted,
                e.p2p_events + e.collective_events,
                e.parks,
                e.retry_events,
                recovery.copied().unwrap_or(0),
                e.aggregated_sims,
                e.aggregated_ranks,
                e.aggregated_classes,
                m.values().map(|c| c.touches).sum(),
                m.values().map(|c| c.entries).sum(),
                p.batches,
                p.cells,
            ],
            worker_cells: pool::worker_cells(),
        }
    }

    /// What accumulated between `before` and `self`.
    fn since(&self, before: &Counters) -> Counters {
        let mut values = self.values;
        for (v, b) in values.iter_mut().zip(before.values) {
            *v = v.saturating_sub(b);
        }
        let worker_cells = self
            .worker_cells
            .iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(before.worker_cells.get(i).copied().unwrap_or(0)))
            .collect();
        Counters { values, worker_cells }
    }

    /// The counter called `name` (one of [`COUNTERS`]).
    ///
    /// # Panics
    /// When `name` is not a counter.
    fn get(&self, name: &str) -> u64 {
        let i = COUNTERS.iter().position(|&c| c == name).expect("a known counter");
        self.values[i]
    }

    /// (max − min) cells per worker over all cells, 0 when none ran.
    fn worker_cell_spread(&self) -> f64 {
        let total: u64 = self.worker_cells.iter().sum();
        let (Some(max), Some(min)) =
            (self.worker_cells.iter().max(), self.worker_cells.iter().min())
        else {
            return 0.0;
        };
        if total == 0 {
            0.0
        } else {
            (max - min) as f64 / total as f64
        }
    }

    fn to_json(&self) -> Json {
        let nonzero = COUNTERS.iter().zip(self.values).filter(|(_, v)| *v > 0);
        Json::Obj(nonzero.map(|(name, v)| (name.to_string(), Json::int(v))).collect())
    }
}

/// One span: a call into a layer, timed, with the counters it moved.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `experiments.decomp` or `render`.
    name: &'static str,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Start, from the tracer's origin.
    start: Duration,
    /// End, from the tracer's origin.
    end: Duration,
    /// Counters accumulated inside the span.
    counters: Counters,
}

/// Records nested spans in memory.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let before = Counters::now();
        let index = self.spans.len();
        let start = self.origin.elapsed();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start, end: start, counters: Counters::default() });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        self.spans[index].counters = Counters::now().since(&before);
        result
    }

    /// Every span, in start order.
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `i`'s duration minus the time its child spans cover.
    fn self_time(&self, i: usize) -> Duration {
        let children: Duration =
            self.spans.iter().filter(|s| s.parent == Some(i)).map(|s| s.end - s.start).sum();
        (self.spans[i].end - self.spans[i].start).saturating_sub(children)
    }

    /// Total self time of the spans named `name`, milliseconds.
    fn self_ms(&self, name: &str) -> f64 {
        self.self_ms_where(|n| n == name)
    }

    fn self_ms_where(&self, pick: impl Fn(&str) -> bool) -> f64 {
        (0..self.spans.len())
            .filter(|&i| pick(self.spans[i].name))
            .map(|i| self.self_time(i).as_secs_f64() * 1e3)
            .fold(0.0, |total, ms| total + ms)
    }

    /// The spans as written to result files.
    fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::Num(d.as_secs_f64() * 1e3);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let mut obj = BTreeMap::new();
                    obj.insert("name".to_string(), Json::str(s.name));
                    let parent = s.parent.map_or(Json::Null, |p| Json::int(p as u64));
                    obj.insert("parent".to_string(), parent);
                    obj.insert("start_ms".to_string(), ms(s.start));
                    obj.insert("ms".to_string(), ms(s.end - s.start));
                    obj.insert("self_ms".to_string(), ms(self.self_time(i)));
                    obj.insert("counters".to_string(), s.counters.to_json());
                    Json::Obj(obj)
                })
                .collect(),
        )
    }
}

/// Renders `item` as `bench-tables` prints it (`println!("{item}")`),
/// inside a `render` span.
fn emit(t: &mut Tracer, out: &mut String, item: &impl Display) {
    t.span("render", |_| writeln!(out, "{item}").expect("writing to a String cannot fail"));
}

/// `bench-tables` with no ids: `all`, in `main`'s order.
fn ladders(t: &mut Tracer, out: &mut String, p: &ExperimentParams, quick: bool) {
    t.span("experiments.t1", |t| emit(t, out, &t1::table1()));
    t.span("experiments.t2", |t| emit(t, out, &t2::table2(&p.ge_sizes)));
    t.span("experiments.f1", |t| {
        emit(t, out, &f1::figure1(&p.ge_sizes, p.ge_target, p.fit_degree));
        emit(t, out, &f1::figure1_plot(&p.ge_sizes, p.ge_target, p.fit_degree));
    });
    let (t3, t4, ge) = t.span("experiments.ge_ladder", |_| t3t4::table3_and_4(p));
    let (f2, t5, mm) = t.span("experiments.mm_ladder", |_| f2t5::figure2_and_table5(p));
    emit(t, out, &t3);
    emit(t, out, &t4);
    emit(t, out, &f2);
    t.span("experiments.f2_plot", |t| emit(t, out, &f2t5::figure2_plot(p)));
    emit(t, out, &t5);
    t.span("experiments.t6t7", |t| {
        let (t6, t7) = t6t7::table6_and_7(p, &ge);
        emit(t, out, &t6);
        emit(t, out, &t7);
    });
    t.span("experiments.compare", |t| emit(t, out, &compare::comparison(&ge, &mm)));
    t.span("experiments.x2", |t| {
        let st = x2::stencil_ladder(p, quick);
        let pw = x2::power_ladder(p, quick);
        emit(t, out, &x2::three_way_comparison(&ge, &mm, &st, &pw));
        emit(t, out, &x2::psi_ladder_plot(&ge, &mm, &st, &pw));
    });
    let by_scale = |quick_n: usize, full_n: usize| if quick { quick_n } else { full_n };
    t.span("experiments.decomp", |t| {
        emit(t, out, &decomp::overhead_decomposition(&p.ge_ladder, by_scale(192, 384)));
    });
    t.span("experiments.ablate_dist", |t| {
        emit(t, out, &ablate::ablate_distribution(by_scale(128, 256)));
    });
    t.span("experiments.ablate_net", |t| {
        emit(t, out, &ablate::ablate_network(by_scale(128, 256)));
    });
    t.span("experiments.ablate_place", |t| {
        emit(t, out, &ablate::ablate_placement(by_scale(96, 192)));
    });
    t.span("experiments.ablate_sched", |t| emit(t, out, &ablate::ablate_scheduling()));
    t.span("experiments.ablate_fit", |t| {
        emit(t, out, &ablate::ablate_fit_degree(&p.ge_sizes, p.ge_target));
    });
    t.span("experiments.ablate_noise", |t| {
        let seeds = by_scale(6, 12) as u64;
        emit(t, out, &noise::ablate_noise(&p.ge_sizes, p.ge_target, p.fit_degree, seeds));
    });
    t.span("experiments.validate", |t| {
        let (ladder, sizes): (&[usize], &[usize]) = if quick {
            (&[2, 4, 8], &[96, 192, 384])
        } else {
            (&[2, 4, 8, 16], &[96, 192, 384, 768])
        };
        emit(t, out, &validate::model_validation(ladder, sizes));
    });
    t.span("experiments.baselines", |t| emit(t, out, &baselines::baseline_comparison(p)));
    t.span("experiments.ext_mp", |t| emit(t, out, &ext::extension_marked_performance()));
}

/// `bench-tables --faults recover --trace-out DIR/traces --metrics-out
/// DIR/metrics.json`, writing its exports under `dir`.
fn faults_recover(t: &mut Tracer, out: &mut String, p: &ExperimentParams, quick: bool, dir: &Path) {
    t.span("experiments.faults", |t| {
        let (table, report) = faults::scalability_under_faults(p, quick);
        emit(t, out, &table);
        emit(t, out, &report);
    });
    t.span("experiments.recover", |t| {
        let (tables, report) = recover::recovery_sweep(p, quick);
        for table in &tables {
            emit(t, out, table);
        }
        emit(t, out, &report);
    });
    let runs = t.span("obs.observed_runs", |_| {
        let mut runs = obs::observed_runs(quick);
        runs.extend(obs::observed_runs_faulted(quick));
        runs.extend(obs::observed_runs_recovered(quick));
        runs
    });
    t.span("obs.write", |_| {
        obs::write_trace_dir(&dir.join("traces"), &runs).expect("trace directory is writable");
        obs::write_metrics(&dir.join("metrics.json"), &runs).expect("metrics file is writable");
    });
}

/// Names of the `experiments.*` spans with a ledger metric of their
/// own; the rest add up to `experiments.other_ms`.
const NAMED_EXPERIMENTS: [&str; 10] = [
    "t1",
    "ge_ladder",
    "mm_ladder",
    "x2",
    "decomp",
    "ablate_noise",
    "surface",
    "faults",
    "recover",
    "mega",
];

/// The traced run of `workload`: launches of the binary for its stdout
/// (the bytes the traced run must render) and untraced wall time, the
/// in-process traced run, the byte check, the probes, and the ledger.
/// Call it in a fresh process (see the module docs).
///
/// # Errors
/// When a launch cannot be made, the process-wide worker count or seed
/// is already fixed to another value, or the traced run rendered
/// different bytes than the binary — the message says where.
pub fn traced_run(h: &Harness, w: &'static Workload, seed: u64) -> Result<WorkloadResult, String> {
    let io = |e: std::io::Error| format!("{}: {e}", w.name);
    // Untraced reference: up to five launches within two seconds.
    let mut run = Run::new(h, w, seed).map_err(io)?;
    let started = Instant::now();
    while run.samples.len() < 5 && (run.samples.is_empty() || started.elapsed().as_secs_f64() < 2.0)
    {
        run.launch().map_err(io)?;
    }
    let Some(reference) = run.reference.take() else {
        return Err(format!("{}: bench-tables failed; no reference output", w.name));
    };
    let walls: Vec<f64> = run.samples.iter().map(|s| s.wall_s).collect();
    let setup_walls: Vec<f64> =
        h.setup_samples(SETUP_SAMPLES).map_err(io)?.iter().map(|s| s.wall_s).collect();
    let setup = median(&setup_walls);

    let _ = pool::set_jobs(h.jobs());
    if pool::jobs() != h.jobs() {
        return Err(format!("worker count already fixed to {} in this process", pool::jobs()));
    }
    if w.name == "faults_recover" {
        let _ = seed::set_plan_seed(seed);
        if seed::plan_seed() != seed {
            return Err(format!(
                "plan seed already fixed to {} in this process",
                seed::plan_seed()
            ));
        }
    }
    let quick = h.quick(w);
    let params = if quick { ExperimentParams::quick() } else { ExperimentParams::full() };
    let export = h.work_dir().join(w.name).join("traced");
    launch::remove_tree(&export).map_err(io)?;

    let mut t = Tracer::default();
    let mut out = String::new();
    t.span("workload", |t| match w.name {
        "ladders" => ladders(t, &mut out, &params, quick),
        "surface" => t.span("experiments.surface", |t| {
            for table in surface::psi_surface(&params, quick) {
                emit(t, &mut out, &table);
            }
        }),
        "faults_recover" => faults_recover(t, &mut out, &params, quick, &export),
        "mega" => t.span("experiments.mega", |t| {
            for table in mega::mega_sweep(&params, quick) {
                emit(t, &mut out, &table);
            }
        }),
        other => unreachable!("unknown workload {other}"),
    });
    let totals = t.spans()[0].counters.clone();
    let queue_high_water = pool::snapshot().queue_high_water;

    let traced =
        Output { stdout: out.into_bytes(), files: launch::digest_tree(&export).map_err(io)? };
    if let Some(why) = traced.first_difference(&reference) {
        return Err(format!(
            "the traced run of {} rendered different bytes than `bench-tables {}`: {why}",
            w.name, w.name
        ));
    }

    let probes = probes::run(w.name, &params, quick);
    let overhead = (t.spans()[0].end - t.spans()[0].start).as_secs_f64()
        / (quantile(&walls, 0.0) - setup).max(1e-6);
    let per_layer = ledger(&t, &totals, &probes, queue_high_water, traced.file_bytes(), overhead);
    Ok(WorkloadResult {
        name: w.name.to_string(),
        attempted: run.attempted + 1,
        failed: run.failed,
        end_to_end: Vec::new(),
        per_layer,
        spans: t.to_json(),
    })
}

/// Assembles the per-layer metrics.
fn ledger(
    t: &Tracer,
    totals: &Counters,
    probes: &Probes,
    queue_high_water: u64,
    bytes_written: u64,
    overhead_ratio: f64,
) -> Vec<Metric> {
    let count = |name: &str| Metric::new(name, "count", totals.get(name) as f64);
    let experiment = |id: &str| {
        Metric::new(&format!("experiments.{id}_ms"), "ms", t.self_ms(&format!("experiments.{id}")))
    };
    let other = t.self_ms_where(|n| {
        n.strip_prefix("experiments.").is_some_and(|id| !NAMED_EXPERIMENTS.contains(&id))
    });
    let touches = totals.get("memo.touches");
    let hits = touches - totals.get("memo.entries");
    let mut m: Vec<Metric> = NAMED_EXPERIMENTS.iter().map(|id| experiment(id)).collect();
    m.extend([
        Metric::new("experiments.other_ms", "ms", other),
        Metric::new("engine.record_ms", "ms", totals.get("engine.record_ns") as f64 / 1e6),
        Metric::new("engine.simulate_ms", "ms", totals.get("engine.simulate_ns") as f64 / 1e6),
        count("engine.event_driven_sims"),
        count("engine.events"),
        count("engine.parks"),
        count("engine.retry_events"),
        count("engine.fallback_recovery_ops"),
        count("engine.closed_form_cells"),
        count("engine.analytic_sims"),
        Metric::new("engine.record_us", "us", probes.record_us),
        Metric::new("engine.analytic_eval_us", "us", probes.analytic_eval_us),
        Metric::new("engine.event_eval_us", "us", probes.event_eval_us),
        Metric::new("closed_form.ge_ns_per_rank_round", "ns", probes.ge_ns_per_rank_round),
        Metric::new("closed_form.mm_us", "us", probes.mm_us),
        Metric::new("closed_form.ge_many_us", "us", probes.ge_many_us),
        Metric::new("mega.ge_ns_per_round", "ns", probes.mega_ge_ns_per_round),
        Metric::new("mega.ge_top_cell_s", "s", probes.ge_top_cell_s),
        Metric::new("mega.cells_sum_s", "s", probes.cells_sum_s),
        Metric::new("mega.mm_cells_ms", "ms", probes.mm_cells_ms),
        Metric::new("mega.power_cells_ms", "ms", probes.power_cells_ms),
        Metric::new("mega.heet_build_us", "us", probes.heet_build_us),
        count("aggregate.sims"),
        count("aggregate.ranks"),
        count("aggregate.classes"),
        Metric::new("scalability.invert_us", "us", probes.invert_us),
        count("memo.touches"),
        count("memo.entries"),
        Metric::new("memo.hits", "count", hits as f64),
        Metric::new(
            "memo.hit_ratio",
            "ratio",
            if touches == 0 { 0.0 } else { hits as f64 / touches as f64 },
        ),
        count("pool.batches"),
        count("pool.cells"),
        Metric::new("pool.queue_high_water", "count", queue_high_water as f64),
        Metric::new("pool.worker_cell_spread", "ratio", totals.worker_cell_spread()),
        Metric::new("pool.critical_share", "ratio", probes.critical_share),
        Metric::new("render.ms", "ms", t.self_ms("render")),
        Metric::new("obs.observed_runs_ms", "ms", t.self_ms("obs.observed_runs")),
        Metric::new("obs.write_ms", "ms", t.self_ms("obs.write")),
        Metric::new("obs.bytes_written", "bytes", bytes_written as f64),
        Metric::new("trace.overhead_ratio", "ratio", overhead_ratio),
    ]);
    m
}

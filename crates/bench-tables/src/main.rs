//! `bench-tables` — regenerate the paper's tables and figures.
//!
//! ```text
//! bench-tables [--quick] [--faults] [--no-analytic] [--jobs N] [--seed N] [--list] [--csv DIR] [--trace-out DIR] [--metrics-out FILE] [--stats-out FILE] [--profile-out FILE] [ids...]
//!   ids: t1 t2 f1 t3 t4 f2 t5 t6 t7 compare x2 decomp ablate-dist ablate-net
//!        ablate-fit ablate-place ablate-sched ablate-noise validate baselines
//!        ext-mp faults recover surface mega all   (default: all)
//! ```
//!
//! `--list` prints every id with a one-line description and exits.
//!
//! `--no-analytic` disables the lockstep closed forms and prices every
//! cell on the event-driven fast engine instead. The closed forms are
//! an optimization, not a semantic change, so output is byte-identical
//! either way (pinned by `tests/cli.rs`); the flag exists to make that
//! claim checkable from the command line and in ci.sh.
//!
//! `--jobs N` bounds the worker pool the experiment cells run on
//! (default: the machine's available parallelism). Output is
//! byte-identical for every worker count; `--jobs 1` is the sequential
//! reference.
//!
//! `faults` (or the `--faults` shorthand) runs the deterministic
//! fault-injection sweep — straggler nodes, lossy links with
//! retry/timeout/backoff, and a declared node death — and reports
//! scalability under each severity. It is opt-in: `all` excludes it.
//!
//! `surface` runs the X3 ψ-surface sweep: every ordered rung pair of a
//! scaled Sunwulf ladder (up to the whole 85-node machine), per kernel,
//! with fitted-trend inversions per rung. Also opt-in: `all` excludes it.
//!
//! `mega` runs the X4 mega-scale sweep: ψ and required-N inversions on
//! class-compressed HEET machines from 10³ to 10⁷ ranks, every cell
//! priced in O(classes) through the class-aggregated closed forms
//! (under `--no-analytic`: materialized and priced per rank, affordable
//! up to the 10⁵ preset). Also opt-in: `all` excludes it.
//!
//! `--trace-out` writes Chrome-trace JSON plus round-trippable JSONL
//! traces of one observed run per kernel; `--metrics-out` writes the
//! combined metrics document (per-kind fractions, activity split,
//! imbalance, critical path). Both are deterministic: repeated
//! invocations produce byte-identical files.
//!
//! `--stats-out` writes the deterministic telemetry document — engine
//! path selection, fallback reasons, ready-queue work, memo-cache and
//! worker-pool counters — and turns on one-line per-id summaries on
//! stderr (analytic coverage, memo hit rate). The file is byte-identical
//! across runs and `--jobs` values; the engine-dependent sections change
//! only with `--no-analytic` (DESIGN.md §11, pinned by `tests/cli.rs`).
//! `--profile-out` writes the wall-clock profile (per-id laps, engine
//! phase split, per-worker cells); it is **not** deterministic and says
//! so in the document.

use bench_tables::experiments::{
    ablate, baselines, compare, decomp, ext, f1, f2t5, faults, mega, noise, recover, surface, t1,
    t2, t3t4, t6t7, validate, x2,
};
use bench_tables::stats::{self, IdSummaries};
use bench_tables::stopwatch::Stopwatch;
use bench_tables::{obs, ExperimentParams, Table};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One wall-clock lap per id, plus (when `--stats-out` is active) a
/// one-line telemetry delta on stderr after each id completes.
struct Checkpoints {
    watch: Stopwatch,
    sums: Option<IdSummaries>,
}

impl Checkpoints {
    fn mark(&mut self, id: &str) {
        self.watch.lap(id);
        if let Some(sums) = &mut self.sums {
            eprintln!("{}", sums.line(id));
        }
    }
}

/// Every experiment id the CLI accepts, in `--list` and usage order,
/// with the one-line description `--list` prints. The four opt-in ids
/// (`faults`, also reachable as `--faults`, `recover`, `surface` and
/// `mega`) are marked by their description's `opt-in` prefix; `all`
/// expands to every other id (see [`opt_in`]).
const KNOWN_IDS_WITH_DESCRIPTIONS: &[(&str, &str)] = &[
    ("t1", "Table 1 — the Sunwulf node inventory and marked speeds"),
    ("t2", "Table 2 — GE speed-efficiency samples on the two-node system"),
    ("f1", "Fig. 1 — GE efficiency curve and trend line at two nodes"),
    ("t3", "Table 3 — required rank for the GE target per ladder rung"),
    ("t4", "Table 4 — measured GE scalability between consecutive rungs"),
    ("f2", "Fig. 2 — MM speed-efficiency curves across the ladder"),
    ("t5", "Table 5 — measured MM scalability between consecutive rungs"),
    ("t6", "Table 6 — predicted vs measured required rank (GE)"),
    ("t7", "Table 7 — predicted vs measured scalability (GE)"),
    ("compare", "GE vs MM scalability comparison (§4.4.3)"),
    ("x2", "extension — three-way GE/MM/stencil/power scalability"),
    ("decomp", "extension — overhead decomposition of the GE ladder"),
    ("ablate-dist", "ablation — row-distribution strategies"),
    ("ablate-net", "ablation — network-model throughput regimes"),
    ("ablate-fit", "ablation — trend-line polynomial degree"),
    ("ablate-place", "ablation — rank placement on segmented networks"),
    ("ablate-sched", "ablation — collective scheduling variants"),
    ("ablate-noise", "ablation — required-N read-off under frozen noise"),
    ("validate", "model validation against the analytic predictions"),
    ("baselines", "baseline metrics (speedup, iso-efficiency) side by side"),
    ("ext-mp", "extension — marked-performance composition rules"),
    ("faults", "opt-in — scalability under deterministic fault injection"),
    ("recover", "opt-in — mid-run failure recovery under MTBF death streams"),
    ("surface", "opt-in — psi(C, C') surface over scaled Sunwulf rungs"),
    ("mega", "opt-in — psi sweep on classed HEET machines, 10^3..10^7 ranks"),
    ("all", "every id above except the opt-in ones (the default)"),
];

fn known_id(id: &str) -> bool {
    KNOWN_IDS_WITH_DESCRIPTIONS.iter().any(|(known, _)| *known == id)
}

/// Whether the id `description` belongs to is opt-in: left out of `all`.
fn opt_in(description: &str) -> bool {
    description.starts_with("opt-in")
}

fn main() {
    // The one wall-clock source of the `--profile-out` document, whose
    // `total_us` the ci.sh perf gates threshold (process startup is
    // linker/loader cost, not ladder cost). Stdout stays byte-identical
    // with or without it.
    let watch = Stopwatch::new();
    let mut quick = false;
    let mut csv_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut ids: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--no-analytic" => hetsim_mpi::set_analytic_enabled(false),
            "--faults" => {
                ids.insert("faults".to_string());
            }
            "--csv" => csv_dir = Some(path_value(args.next(), "--csv needs a directory")),
            "--trace-out" => {
                trace_dir = Some(path_value(args.next(), "--trace-out needs a directory"))
            }
            "--metrics-out" => {
                metrics_path = Some(path_value(args.next(), "--metrics-out needs a file path"))
            }
            "--stats-out" => {
                stats_path = Some(path_value(args.next(), "--stats-out needs a file path"))
            }
            "--profile-out" => {
                profile_path = Some(path_value(args.next(), "--profile-out needs a file path"))
            }
            "--jobs" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage("--jobs needs a worker count"));
                bench_tables::pool::set_jobs(n)
                    .unwrap_or_else(|e| usage(&format!("--jobs given twice: {e}")));
            }
            "--seed" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| usage("--seed needs an unsigned integer"));
                bench_tables::seed::set_plan_seed(n)
                    .unwrap_or_else(|e| usage(&format!("--seed given twice: {e}")));
            }
            "--list" => list(),
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            id if !known_id(id) => usage(&format!("unknown experiment id {id}")),
            id => {
                ids.insert(id.to_string());
            }
        }
    }
    let faults_requested = ids.contains("faults");
    let recover_requested = ids.contains("recover");
    let surface_requested = ids.contains("surface");
    let mega_requested = ids.contains("mega");
    if ids.is_empty() || ids.contains("all") {
        ids = KNOWN_IDS_WITH_DESCRIPTIONS
            .iter()
            .filter(|&&(id, description)| !opt_in(description) && id != "all")
            .map(|(id, _)| id.to_string())
            .collect();
    }

    let params = if quick { ExperimentParams::quick() } else { ExperimentParams::full() };
    let mut emitted: Vec<Table> = Vec::new();
    let mut emit = |t: Table| {
        println!("{t}");
        emitted.push(t);
    };

    let wants = |id: &str| ids.contains(id);
    let mut cp = Checkpoints { watch, sums: stats_path.is_some().then(IdSummaries::new) };

    if wants("t1") {
        emit(t1::table1());
        cp.mark("t1");
    }
    if wants("t2") {
        emit(t2::table2(&params.ge_sizes));
        cp.mark("t2");
    }
    if wants("f1") {
        emit(f1::figure1(&params.ge_sizes, params.ge_target, params.fit_degree));
        println!("{}", f1::figure1_plot(&params.ge_sizes, params.ge_target, params.fit_degree));
        cp.mark("f1");
    }

    // The GE ladder feeds t3, t4, t6, t7 and the comparison; the MM
    // ladder feeds f2, t5 and the comparison. Run each at most once.
    // (The summary lines attribute the pricing to the ladder, not to
    // the tables that later re-read it.)
    let need_ge = ["t3", "t4", "t6", "t7", "compare", "x2"].iter().any(|id| wants(id));
    let need_mm = ["f2", "t5", "compare", "x2"].iter().any(|id| wants(id));
    let ge_ladder = need_ge.then(|| t3t4::table3_and_4(&params));
    if need_ge {
        cp.mark("ge-ladder");
    }
    let mm_ladder = need_mm.then(|| f2t5::figure2_and_table5(&params));
    if need_mm {
        cp.mark("mm-ladder");
    }

    if let Some((t3, t4, _)) = &ge_ladder {
        if wants("t3") {
            emit(t3.clone());
        }
        if wants("t4") {
            emit(t4.clone());
        }
    }
    if let Some((f2, t5, _)) = &mm_ladder {
        if wants("f2") {
            emit(f2.clone());
            println!("{}", f2t5::figure2_plot(&params));
        }
        if wants("t5") {
            emit(t5.clone());
        }
    }
    if wants("t6") || wants("t7") {
        let (_, _, ladder) = ge_ladder.as_ref().expect("ladder computed above");
        let (t6, t7) = t6t7::table6_and_7(&params, ladder);
        if wants("t6") {
            emit(t6);
        }
        if wants("t7") {
            emit(t7);
        }
        cp.mark("t6t7");
    }
    if wants("compare") {
        let (_, _, ge) = ge_ladder.as_ref().expect("ladder computed above");
        let (_, _, mm) = mm_ladder.as_ref().expect("ladder computed above");
        emit(compare::comparison(ge, mm));
        cp.mark("compare");
    }
    if wants("x2") {
        let (_, _, ge) = ge_ladder.as_ref().expect("ladder computed above");
        let (_, _, mm) = mm_ladder.as_ref().expect("ladder computed above");
        let st = x2::stencil_ladder(&params, quick);
        let pw = x2::power_ladder(&params, quick);
        emit(x2::three_way_comparison(ge, mm, &st, &pw));
        println!("{}", x2::psi_ladder_plot(ge, mm, &st, &pw));
        cp.mark("x2");
    }
    if wants("decomp") {
        emit(decomp::overhead_decomposition(&params.ge_ladder, if quick { 192 } else { 384 }));
        cp.mark("decomp");
    }
    if wants("ablate-dist") {
        emit(ablate::ablate_distribution(if quick { 128 } else { 256 }));
        cp.mark("ablate-dist");
    }
    if wants("ablate-net") {
        emit(ablate::ablate_network(if quick { 128 } else { 256 }));
        cp.mark("ablate-net");
    }
    if wants("ablate-place") {
        emit(ablate::ablate_placement(if quick { 96 } else { 192 }));
        cp.mark("ablate-place");
    }
    if wants("ablate-sched") {
        emit(ablate::ablate_scheduling());
        cp.mark("ablate-sched");
    }
    if wants("ablate-fit") {
        emit(ablate::ablate_fit_degree(&params.ge_sizes, params.ge_target));
        cp.mark("ablate-fit");
    }
    if wants("ablate-noise") {
        let seeds = if quick { 6 } else { 12 };
        emit(noise::ablate_noise(&params.ge_sizes, params.ge_target, params.fit_degree, seeds));
        cp.mark("ablate-noise");
    }
    if wants("validate") {
        let (ladder, sizes): (&[usize], &[usize]) = if quick {
            (&[2, 4, 8], &[96, 192, 384])
        } else {
            (&[2, 4, 8, 16], &[96, 192, 384, 768])
        };
        emit(validate::model_validation(ladder, sizes));
        cp.mark("validate");
    }
    if wants("baselines") {
        emit(baselines::baseline_comparison(&params));
        cp.mark("baselines");
    }
    if wants("ext-mp") {
        emit(ext::extension_marked_performance());
        cp.mark("ext-mp");
    }
    if faults_requested {
        let (table, report) = faults::scalability_under_faults(&params, quick);
        emit(table);
        println!("{report}");
        cp.mark("faults");
    }
    if recover_requested {
        let (tables, report) = recover::recovery_sweep(&params, quick);
        for table in tables {
            emit(table);
        }
        println!("{report}");
        cp.mark("recover");
    }
    if surface_requested {
        for table in surface::psi_surface(&params, quick) {
            emit(table);
        }
        cp.mark("surface");
    }
    if mega_requested {
        for table in mega::mega_sweep(&params, quick) {
            emit(table);
        }
        cp.mark("mega");
    }

    let mut export_us = 0;
    if trace_dir.is_some() || metrics_path.is_some() {
        let mut runs = obs::observed_runs(quick);
        if faults_requested {
            runs.extend(obs::observed_runs_faulted(quick));
        }
        if recover_requested {
            runs.extend(obs::observed_runs_recovered(quick));
        }
        let export = Stopwatch::new();
        if let Some(dir) = &trace_dir {
            let written = obs::write_trace_dir(Path::new(dir), &runs)
                .unwrap_or_else(|e| fail(&format!("cannot write trace directory {dir}: {e}")));
            for path in written {
                eprintln!("wrote {path}");
            }
        }
        if let Some(path) = &metrics_path {
            obs::write_metrics(Path::new(path), &runs)
                .unwrap_or_else(|e| fail(&format!("cannot write metrics file {path}: {e}")));
            eprintln!("wrote {path}");
        }
        export_us = export.total_us();
        cp.mark("obs");
    }

    if let Some(dir) = csv_dir {
        let dir = Path::new(&dir);
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            fail(&format!("cannot create csv directory {}: {e}", dir.display()))
        });
        // Two titles can share a slug (both "Recover — …" tables): the
        // first keeps it, later ones are numbered `slug-2`, `slug-3`, …
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for table in &emitted {
            let slug: String = table
                .title
                .chars()
                .take_while(|&c| c != '—')
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            let repeat = seen.entry(slug.clone()).or_insert(0);
            *repeat += 1;
            let name = match *repeat {
                1 => format!("{slug}.csv"),
                k => format!("{slug}-{k}.csv"),
            };
            let path = dir.join(name);
            std::fs::write(&path, table.to_csv()).unwrap_or_else(|e| {
                fail(&format!("cannot write csv file {}: {e}", path.display()))
            });
            eprintln!("wrote {}", path.display());
        }
    }

    if let Some(path) = &stats_path {
        let engine = hetsim_mpi::telemetry::snapshot();
        stats::write_stats(Path::new(path), &engine)
            .unwrap_or_else(|e| fail(&format!("cannot write stats file {path}: {e}")));
        for warning in stats::warnings(&engine) {
            eprintln!("{warning}");
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &profile_path {
        stats::write_profile(Path::new(path), &cp.watch, export_us)
            .unwrap_or_else(|e| fail(&format!("cannot write profile file {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// The value of an output-path flag: a missing or empty one is a usage
/// error, reported as `err`.
fn path_value(value: Option<String>, err: &str) -> String {
    value.filter(|path| !path.is_empty()).unwrap_or_else(|| usage(err))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `--list`: every accepted id with its one-line description, to stdout.
fn list() -> ! {
    let width =
        KNOWN_IDS_WITH_DESCRIPTIONS.iter().map(|(id, _)| id.len()).max().unwrap_or_default();
    for (id, description) in KNOWN_IDS_WITH_DESCRIPTIONS {
        println!("{id:width$}  {description}");
    }
    std::process::exit(0);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let ids: Vec<&str> = KNOWN_IDS_WITH_DESCRIPTIONS.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: bench-tables [--quick] [--faults] [--no-analytic] [--jobs N] [--seed N] [--list] [--csv DIR] [--trace-out DIR] [--metrics-out FILE] [--stats-out FILE] [--profile-out FILE] [ids...]\n\
         ids: {}\n\
         `faults` (or --faults) runs the fault-injection sweep; `recover` runs the mid-run failure-recovery sweep (checkpoint/restart vs shrink-rebalance under MTBF death streams); `surface` runs the psi-surface sweep on scaled Sunwulf rungs; `mega` runs the class-aggregated psi sweep on HEET machines up to 10^7 ranks. All four are opt-in and not part of `all`.\n\
         `--no-analytic` forces the event-driven engine on every cell (output is byte-identical to the default closed-form path).\n\
         `--jobs N` caps the experiment worker pool (default: available parallelism; output is byte-identical for every N).\n\
         `--seed N` re-bases every fault-plan seed (faults + recover sweeps; default 1592590336 = 0x5eed0000 reproduces the historical bytes; same seed twice => same bytes).\n\
         `--stats-out FILE` writes the deterministic telemetry document (engine paths, fallback reasons, memo and pool counters) and prints per-id summaries on stderr.\n\
         `--profile-out FILE` writes the wall-clock profile (non-deterministic by nature; the document says so).\n\
         `--list` prints every id with a one-line description and exits.",
        ids.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

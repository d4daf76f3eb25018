//! Exit-code contract of the `bench-tables` binary.
//!
//! The CLI must fail loudly — unknown flags or experiment ids and
//! unwritable output paths exit non-zero with a one-line error on
//! stderr — so scripted pipelines (ci.sh, the paper-table refresh)
//! cannot silently run the wrong experiment set.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-tables"))
        .args(args)
        .output()
        .expect("spawn bench-tables")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    assert!(err.contains("usage: bench-tables"), "missing usage: {err}");
    assert!(err.contains("--faults"), "usage must mention --faults: {err}");
}

#[test]
fn unknown_flag_exits_two_with_one_line_error() {
    let out = run(&["--quick", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error: unknown flag --no-such-flag"), "got: {err}");
}

#[test]
fn list_exits_zero_and_names_every_id() {
    let out = run(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in ["t1", "t3", "faults", "surface", "mega", "all"] {
        assert!(
            stdout.lines().any(|l| l.split_whitespace().next() == Some(id)),
            "--list must name {id}: {stdout}"
        );
    }
    // Listing must not run any experiment (tables render as `== title ==`).
    assert!(!stdout.contains("== "), "--list must not emit tables: {stdout}");
}

#[test]
fn repeated_jobs_flag_exits_two() {
    let out = run(&["--jobs", "2", "--jobs", "3", "t1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error: --jobs given twice"), "got: {err}");
    assert!(err.contains("worker count already fixed"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn unknown_experiment_id_exits_two() {
    let out = run(&["--quick", "t1", "no-such-table"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error: unknown experiment id no-such-table"), "got: {err}");
}

#[test]
fn missing_flag_argument_exits_two() {
    let out = run(&["--metrics-out"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--metrics-out needs a file path"));
    // An empty path is no path: `--csv ''` would write to `/<slug>.csv`
    // and `--trace-out ''` into the working directory. `--list` after it
    // exits before anything is written if the empty value is accepted.
    for (flag, needs) in [
        ("--csv", "a directory"),
        ("--trace-out", "a directory"),
        ("--metrics-out", "a file path"),
        ("--stats-out", "a file path"),
        ("--profile-out", "a file path"),
    ] {
        let out = run(&[flag, "", "--list"]);
        assert_eq!(out.status.code(), Some(2), "{flag} ''");
        let err = stderr(&out);
        assert!(err.contains(&format!("error: {flag} needs {needs}")), "{flag} '': {err}");
        assert!(out.stdout.is_empty(), "{flag} '' must exit before --list prints");
    }
}

#[test]
fn unwritable_metrics_path_exits_one() {
    // /proc/nonexistent is not creatable on Linux; the CLI must report
    // the failure instead of panicking.
    let out = run(&["--quick", "t1", "--metrics-out", "/proc/nonexistent/metrics.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error: cannot write metrics file"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn unwritable_trace_dir_exits_one() {
    let out = run(&["--quick", "t1", "--trace-out", "/proc/nonexistent/traces"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error: cannot write trace directory"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

// The exports are buffered, and each buffer's last write must be made
// and its error kept: dropping a `BufWriter` would discard it. /dev/full
// accepts the open and fails every write with ENOSPC: the t1 metrics
// document (~27 KB) fails mid-write, and a small trace file fails only
// when the writer hands its buffer over at the end.

#[cfg(target_os = "linux")]
#[test]
fn full_device_metrics_path_exits_one() {
    let out = run(&["--quick", "t1", "--metrics-out", "/dev/full"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error: cannot write metrics file /dev/full"), "got: {err}");
    assert_eq!(err.lines().filter(|l| l.starts_with("error:")).count(), 1, "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[cfg(target_os = "linux")]
#[test]
fn full_device_trace_file_exits_one() {
    // The MM JSONL export (4,279 bytes) fits in the writer's buffer, so
    // its error appears only when the buffer is handed over at the end.
    let dir = temp_dir("full-trace");
    std::os::unix::fs::symlink("/dev/full", dir.join("mm-p8-n128.jsonl")).expect("symlink");
    let out = run(&["--quick", "t1", "--trace-out", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error: cannot write trace directory"), "got: {err}");
    assert_eq!(err.lines().filter(|l| l.starts_with("error:")).count(), 1, "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn surface_id_emits_the_psi_surface_tables() {
    let out = run(&["--quick", "surface"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("X3 GE surface"), "missing GE matrix: {stdout}");
    assert!(stdout.contains("X3 MM inversions"), "missing MM inversions: {stdout}");
    assert!(stdout.contains("psi(C, C')"), "missing psi header: {stdout}");
}

#[test]
fn mega_id_emits_the_mega_scale_tables() {
    let out = run(&["--quick", "mega"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("X4 MM mega inversions"), "missing inversions: {stdout}");
    assert!(stdout.contains("X4 MM mega surface"), "missing psi matrix: {stdout}");
    assert!(stdout.contains("X4 GE mega inversions"), "missing GE inversions: {stdout}");
    assert!(stdout.contains("X4 GE mega surface"), "missing GE psi matrix: {stdout}");
    assert!(stdout.contains("X4 power mega ceiling"), "missing ceiling: {stdout}");
    assert!(stdout.contains("heet-100000x8"), "missing the 10^5-rank preset: {stdout}");
    assert!(stdout.contains("heet-zipf-30000x8"), "missing the zipf preset: {stdout}");
}

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = run(args);
    assert!(out.status.success(), "{args:?} exited with {:?}: {}", out.status, stderr(&out));
    out.stdout
}

// The analytic closed forms are an *optimization*, never a semantic
// change: every byte the suite prints must be identical whether cells
// are priced by the closed forms (default) or by the event-driven
// engine (`--no-analytic`). Run the real binary both ways and compare
// stdout byte-for-byte, including the opt-in fault and surface sweeps.

#[test]
fn no_analytic_is_byte_identical_on_the_quick_suite() {
    let fast = stdout_of(&["--quick"]);
    let slow = stdout_of(&["--quick", "--no-analytic"]);
    assert!(!fast.is_empty());
    assert_eq!(fast, slow, "--no-analytic changed the quick-suite output");
}

#[test]
fn no_analytic_is_byte_identical_on_the_fault_sweep() {
    let fast = stdout_of(&["--quick", "--faults"]);
    let slow = stdout_of(&["--quick", "--faults", "--no-analytic"]);
    assert!(!fast.is_empty());
    assert_eq!(fast, slow, "--no-analytic changed the fault-sweep output");
}

#[test]
fn no_analytic_is_byte_identical_on_the_surface_sweep() {
    let fast = stdout_of(&["--quick", "surface"]);
    let slow = stdout_of(&["--quick", "surface", "--no-analytic"]);
    assert!(!fast.is_empty());
    assert_eq!(fast, slow, "--no-analytic changed the surface-sweep output");
}

#[test]
fn no_analytic_is_byte_identical_on_the_mega_sweep() {
    // The largest oracle-affordable configuration: `--no-analytic`
    // materializes every quick preset (up to 10⁵ ranks) and prices it
    // per rank, so this is also the acceptance check that the
    // aggregated path changed nothing but the cost.
    let fast = stdout_of(&["--quick", "mega"]);
    let slow = stdout_of(&["--quick", "mega", "--no-analytic"]);
    assert!(!fast.is_empty());
    assert_eq!(fast, slow, "--no-analytic changed the mega-sweep output");
}

#[test]
fn misspelled_no_analytic_flag_exits_two() {
    let out = run(&["--quick", "--no-anaytic"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error: unknown flag --no-anaytic"));
}

#[test]
fn faults_flag_emits_the_fault_sweep_table() {
    let out = run(&["--quick", "--faults"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scalability under injected faults"), "missing table: {stdout}");
    assert!(stdout.contains("straggler+drops"), "missing severity rows: {stdout}");
    assert!(stdout.contains("under faults: psi retention"), "missing annex line: {stdout}");
}

// The `--stats-out` telemetry document has a two-tier determinism
// contract (DESIGN.md §11): the whole file is byte-identical across
// repeated runs and `--jobs` values; the engine-independent sections
// (memo, pool, closed-form cell totals) are additionally identical
// across engines, while the engine-dependent sections (path breakdown,
// ready-queue work) change only with `--no-analytic`.

fn stats_doc(dir: &std::path::Path, name: &str, args: &[&str]) -> Vec<u8> {
    stats_run(dir, name, args).1
}

/// Runs `args` plus `--stats-out DIR/NAME`; returns stdout, the stats
/// document and stderr without its `wrote …` lines (which name
/// temporary paths).
fn stats_run(dir: &std::path::Path, name: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let path = dir.join(name);
    let path_str = path.to_str().expect("utf-8 temp path");
    let mut full: Vec<&str> = args.to_vec();
    full.extend_from_slice(&["--stats-out", path_str]);
    let out = run(&full);
    let err = stderr(&out);
    assert!(out.status.success(), "{full:?} exited with {:?}: {err}", out.status);
    assert!(err.contains(&format!("wrote {path_str}")), "missing wrote line");
    let kept: String =
        err.split_inclusive('\n').filter(|line| !line.starts_with("wrote ")).collect();
    (out.stdout, std::fs::read(&path).expect("stats file written"), kept.into_bytes())
}

/// A scratch directory under the system temp directory, removed when
/// the guard drops: at the end of its scope, or while a failed assert
/// unwinds.
struct TempDir(std::path::PathBuf);

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("bench-tables-stats-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    TempDir(dir)
}

#[test]
fn stats_doc_is_byte_identical_across_runs_and_jobs() {
    for (tag, base) in [
        ("quick", vec!["--quick"]),
        ("faults", vec!["--quick", "--faults"]),
        ("surface", vec!["--quick", "surface"]),
        ("mega", vec!["--quick", "mega"]),
    ] {
        let dir = temp_dir(tag);
        let j1 = stats_run(&dir, "j1.json", &[&base[..], &["--jobs", "1"]].concat());
        let j4 = stats_run(&dir, "j4.json", &[&base[..], &["--jobs", "4"]].concat());
        let j4b = stats_run(&dir, "j4b.json", &[&base[..], &["--jobs", "4"]].concat());
        assert!(!j1.1.is_empty());
        // Which worker priced a cell (and so which thread's GE winner
        // table it read) must not reach any of the three outputs.
        assert_eq!(j1.0, j4.0, "{tag}: --jobs changed stdout");
        assert_eq!(j1.1, j4.1, "{tag}: --jobs changed the stats document");
        assert_eq!(j1.2, j4.2, "{tag}: --jobs changed stderr");
        assert_eq!(j4, j4b, "{tag}: a repeated run changed its outputs");
    }
}

#[test]
fn stats_doc_splits_engine_dependent_from_engine_independent() {
    use hetsim_obs::Json;
    let dir = temp_dir("engines");
    let fast = stats_doc(&dir, "fast.json", &["--quick"]);
    let slow = stats_doc(&dir, "slow.json", &["--quick", "--no-analytic"]);
    let parse = |bytes: &[u8]| {
        Json::parse(std::str::from_utf8(bytes).expect("utf-8 stats")).expect("stats parses")
    };
    let (fast, slow) = (parse(&fast), parse(&slow));
    let obj = |doc: &Json, key: &str| doc.as_obj().expect("object")[key].clone();
    // Engine-independent: the memo and pool sections must not notice
    // which engine priced the cells.
    assert_eq!(obj(&fast, "memo"), obj(&slow, "memo"), "memo section is engine-dependent");
    assert_eq!(obj(&fast, "pool"), obj(&slow, "pool"), "pool section is engine-dependent");
    // Engine-dependent: the default run prices through the kernel
    // closed forms; --no-analytic forces everything onto the scheduler.
    let engine = |doc: &Json| obj(doc, "engine").as_obj().expect("engine object").clone();
    let (fe, se) = (engine(&fast), engine(&slow));
    assert_ne!(fe["closed_form"], se["closed_form"], "closed forms must vanish when disabled");
    assert_eq!(se["closed_form"].as_obj().map(|m| m.len()), Some(0));
    let forced = |paths: &Json| {
        paths.as_obj().expect("paths")["event_driven"].as_obj().expect("event_driven")["forced"]
            .as_num()
            .expect("count")
    };
    assert_eq!(forced(&fe["paths"]), 0.0, "nothing is forced by default");
    assert!(forced(&se["paths"]) > 0.0, "--no-analytic must force the scheduler");
    // Both engines report full analytic coverage: forced runs are not
    // fallbacks, and the fault-free quick ladder never falls back.
    for doc in [&fast, &slow] {
        let summary = obj(doc, "summary");
        let summary = summary.as_obj().expect("summary object");
        assert_eq!(summary["analytic_coverage_percent"].as_num(), Some(100.0));
    }
}

#[test]
fn quick_stats_doc_reports_full_analytic_coverage_inline() {
    // The exact byte sequence the ci.sh coverage gate greps for.
    let dir = temp_dir("coverage");
    let doc = stats_doc(&dir, "quick.json", &["--quick"]);
    let text = String::from_utf8(doc).expect("utf-8 stats");
    assert!(
        text.contains("\"analytic_coverage_percent\":100,"),
        "coverage gate pattern missing: {text}"
    );
    assert!(text.contains("\"schema\":\"hetscale-telemetry/2\""), "schema missing: {text}");
}

// Engine routing is pinned across commits: each document counts the
// calls priced per engine path (closed forms, event-driven fallback /
// faulted / forced / traced, typed fallback reasons), so a call that
// reaches a different tier changes its bytes. Every run also pins its
// stdout and its stderr (the per-id `telemetry` lines and fallback
// warnings). The traced recovery run also pins its metrics document
// and, through a manifest of lengths and hashes, every trace file it
// writes, at the quick and the full preset, so a moved recovery span,
// an overhead shifted by one ulp or a drifted exporter byte shows too.
// Regenerate the fixtures with UPDATE_GOLDEN=1 only for an intended
// change, and review the diff.
#[test]
fn stats_docs_match_golden_fixtures() {
    let dir = temp_dir("golden");
    let traces = dir.join("traces");
    let metrics = dir.join("metrics.json");
    let obs = [
        "--quick",
        "--faults",
        "recover",
        "--trace-out",
        traces.to_str().expect("utf-8 temp path"),
        "--metrics-out",
        metrics.to_str().expect("utf-8 temp path"),
    ];
    let fixture = "stats_quick_faults_recover_obs.json";
    let (stdout, doc, err) = stats_run(&dir, fixture, &obs);
    assert_golden(fixture, &doc, &obs);
    assert_golden("stdout_quick_faults_recover_obs.txt", &stdout, &obs);
    assert_golden("stderr_quick_faults_recover_obs.txt", &err, &obs);
    let metrics_doc = std::fs::read(&metrics).expect("metrics written");
    assert_golden("metrics_quick_faults_recover_obs.json", &metrics_doc, &obs);
    assert_golden("traces_quick_faults_recover_obs.manifest", &trace_manifest(&traces), &obs);
    assert_jsonl_parses_back(&traces);
    // Without --quick the same exports hold about four times the numbers:
    // 16 trace files (~41 MB) and the metrics document, written into one
    // directory so one manifest pins all 17.
    let full_exports = dir.join("full_exports");
    let full_metrics = full_exports.join("metrics.json");
    let full_obs = [
        "--faults",
        "recover",
        "--trace-out",
        full_exports.to_str().expect("utf-8 temp path"),
        "--metrics-out",
        full_metrics.to_str().expect("utf-8 temp path"),
    ];
    let out = run(&full_obs);
    assert!(out.status.success(), "{full_obs:?} exited with {:?}: {}", out.status, stderr(&out));
    let manifest = trace_manifest(&full_exports);
    assert_golden("exports_full_faults_recover_obs.manifest", &manifest, &full_obs);
    assert_jsonl_parses_back(&full_exports);
    for (run_name, args) in [
        ("quick", &["--quick"][..]),
        ("full", &[][..]),
        ("surface", &["surface"][..]),
        ("quick_mega", &["--quick", "mega"][..]),
    ] {
        let fixture = format!("stats_{run_name}.json");
        let (stdout, doc, err) = stats_run(&dir, &fixture, args);
        assert_golden(&fixture, &doc, args);
        assert_golden(&format!("stdout_{run_name}.txt"), &stdout, args);
        assert_golden(&format!("stderr_{run_name}.txt"), &err, args);
    }
}

/// One `name length fnv1a64` line per file in `dir`, sorted by name: a
/// fixture that pins megabytes of exports in a few lines.
fn trace_manifest(dir: &std::path::Path) -> Vec<u8> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("trace directory written")
        .map(|entry| entry.expect("directory entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort_unstable();
    let mut manifest = String::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("trace file readable");
        manifest.push_str(&format!("{name} {} {:016x}\n", bytes.len(), fnv1a64(&bytes)));
    }
    manifest.into_bytes()
}

/// Parses back every `.jsonl` trace in `dir`: the parser refuses nothing
/// the exporters write.
fn assert_jsonl_parses_back(dir: &std::path::Path) {
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("trace directory written") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "jsonl") {
            let text = std::fs::read_to_string(&path).expect("trace file readable");
            if let Err(e) = hetsim_obs::parse_trace_jsonl(&text) {
                panic!("{} does not parse back: {e}", path.display());
            }
            files += 1;
        }
    }
    assert!(files > 0, "no .jsonl trace in {}", dir.display());
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn fnv1a64_matches_published_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

fn assert_golden(fixture: &str, bytes: &[u8], args: &[&str]) {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, bytes).expect("write fixture");
    }
    let golden = std::fs::read(&path).expect("golden fixture present");
    if bytes == golden {
        return;
    }
    // A manifest names the files that drifted: its lines on one side only.
    let mut drifted = String::new();
    if fixture.ends_with(".manifest") {
        let (new, old) = (String::from_utf8_lossy(bytes), String::from_utf8_lossy(&golden));
        for line in old.lines().filter(|line| !new.lines().any(|l| l == *line)) {
            drifted.push_str(&format!("\n- {line}"));
        }
        for line in new.lines().filter(|line| !old.lines().any(|l| l == *line)) {
            drifted.push_str(&format!("\n+ {line}"));
        }
    }
    panic!(
        "{args:?}: output drifted from tests/fixtures/{fixture}; if the change is \
         intentional, rerun with UPDATE_GOLDEN=1 and review the diff{drifted}"
    );
}

#[test]
fn stats_out_prints_per_id_summaries_on_stderr() {
    let dir = temp_dir("summaries");
    let path = dir.join("stats.json");
    let out = run(&["--quick", "t2", "--stats-out", path.to_str().expect("utf-8")]);
    assert!(out.status.success());
    let err = stderr(&out);
    assert!(err.contains("telemetry t2: analytic "), "missing per-id summary: {err}");
    assert!(err.contains(", memo hit "), "missing memo half: {err}");
    // Without the flag, no telemetry chatter reaches stderr.
    let silent = run(&["--quick", "t2"]);
    assert!(!stderr(&silent).contains("telemetry "), "summaries must be opt-in");
}

#[test]
fn unwritable_stats_path_exits_one() {
    let out = run(&["--quick", "t1", "--stats-out", "/proc/nonexistent/stats.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("error: cannot write stats file"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

// The recovery sweep (DESIGN.md §12) has the same determinism contract
// as every other id: byte-identical across repeated runs, worker
// counts, and engines. Its fault streams re-seed through `--seed`,
// whose default must reproduce the historical bytes exactly.

#[test]
fn recover_id_emits_sweep_daly_table_and_recovery_annex() {
    let out = run(&["--quick", "recover"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("psi retention under MTBF death streams"), "missing sweep: {stdout}");
    assert!(stdout.contains("checkpoint-restart"), "missing CR rows: {stdout}");
    assert!(stdout.contains("shrink-rebalance"), "missing shrink rows: {stdout}");
    assert!(stdout.contains("measured optimal checkpoint interval vs Young/Daly"), "{stdout}");
    assert!(stdout.contains("recovery overhead"), "missing annex decomposition: {stdout}");
}

#[test]
fn csv_writes_one_file_per_emitted_table() {
    // Both "Recover — …" tables slug to `recover`; the second must get a
    // file of its own instead of overwriting the first.
    let dir = temp_dir("csv");
    let out = run(&["--quick", "recover", "--csv", dir.to_str().expect("utf-8 temp path")]);
    assert!(out.status.success(), "--csv run failed: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut titles: Vec<String> = stdout
        .lines()
        .filter_map(|line| Some(format!("# {}", line.strip_prefix("== ")?.strip_suffix(" ==")?)))
        .collect();
    assert!(titles.len() > 1, "expected several tables: {stdout}");
    let mut heads: Vec<String> = std::fs::read_dir(&*dir)
        .expect("csv directory")
        .map(|entry| {
            let text = std::fs::read_to_string(entry.expect("dir entry").path()).expect("csv");
            text.lines().next().unwrap_or_default().to_string()
        })
        .collect();
    titles.sort();
    heads.sort();
    assert_eq!(heads, titles, "one file per emitted table, each headed by its title");
}

#[test]
fn recover_is_byte_identical_across_runs_jobs_and_engines() {
    let base = stdout_of(&["--quick", "recover"]);
    assert!(!base.is_empty());
    assert_eq!(base, stdout_of(&["--quick", "recover"]), "repeated run changed recover output");
    assert_eq!(base, stdout_of(&["--quick", "recover", "--jobs", "1"]), "--jobs 1 changed output");
    assert_eq!(base, stdout_of(&["--quick", "recover", "--jobs", "4"]), "--jobs 4 changed output");
    assert_eq!(
        base,
        stdout_of(&["--quick", "recover", "--no-analytic"]),
        "--no-analytic changed the recover output"
    );
}

#[test]
fn seed_default_reproduces_historical_bytes_and_reseeding_moves_them() {
    // 1592590336 == 0x5eed_0000, the seed baked in before the flag
    // existed: passing it explicitly must be a byte-level no-op.
    let default_bytes = stdout_of(&["--quick", "recover"]);
    let explicit = stdout_of(&["--quick", "recover", "--seed", "1592590336"]);
    assert_eq!(default_bytes, explicit, "explicit default seed changed the bytes");
    // A different seed draws different death streams — but is itself
    // perfectly reproducible.
    let reseeded = stdout_of(&["--quick", "recover", "--seed", "7"]);
    assert_ne!(default_bytes, reseeded, "--seed 7 must move the fault streams");
    assert_eq!(reseeded, stdout_of(&["--quick", "recover", "--seed", "7"]), "seed 7 not stable");
    // The faults sweep re-seeds through the same base.
    let faults = stdout_of(&["--quick", "--faults"]);
    assert_ne!(faults, stdout_of(&["--quick", "--faults", "--seed", "7"]), "faults ignore --seed");
}

#[test]
fn largest_seed_wraps_instead_of_overflowing() {
    // Plan seeds are the base plus small salts and rank counts; at
    // u64::MAX they wrap (what a release build always printed) rather
    // than panic on overflow in a debug build.
    let out = run(&["--quick", "--seed", "18446744073709551615", "faults", "recover"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn seed_flag_rejects_garbage_repeats_and_missing_argument() {
    let out = run(&["--quick", "recover", "--seed", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error: --seed needs an unsigned integer"));

    let out = run(&["--quick", "recover", "--seed", "7", "--seed", "7"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("error: --seed given twice"), "got: {err}");
    assert!(err.contains("already fixed"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");

    let out = run(&["--quick", "recover", "--seed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("error: --seed needs an unsigned integer"));
}

#[test]
fn usage_and_list_cover_recover_and_seed() {
    let err = stderr(&run(&["--help"]));
    assert!(err.contains("--seed N"), "usage must document --seed: {err}");
    assert!(err.contains("recover"), "usage must mention recover: {err}");
    let stdout = String::from_utf8_lossy(&run(&["--list"]).stdout).into_owned();
    assert!(
        stdout.lines().any(|l| l.split_whitespace().next() == Some("recover")),
        "--list must name recover: {stdout}"
    );
}

#[test]
fn recover_stats_doc_prices_every_recovery_segment_in_closed_form() {
    // Untraced recovery segments price through the GE and MM closed
    // forms under their own keys, so no recovery cell falls back to the
    // event-driven engine: full coverage (the byte sequence ci.sh greps
    // for) and no fallback reason.
    use hetsim_obs::Json;
    let dir = temp_dir("recover");
    let doc = stats_doc(&dir, "recover.json", &["--quick", "recover"]);
    let text = String::from_utf8(doc).expect("utf-8 stats");
    assert!(text.contains("\"analytic_coverage_percent\":100,"), "coverage below 100%: {text}");
    let doc = Json::parse(&text).expect("stats parses");
    let engine = doc.as_obj().expect("object")["engine"].as_obj().expect("engine object").clone();
    let closed_form = engine["closed_form"].as_obj().expect("closed_form object");
    for key in ["ge-recover", "mm-recover"] {
        let cells = closed_form.get(key).and_then(|s| s.as_obj()?.get("cells")?.as_num());
        assert!(cells.is_some_and(|c| c > 0.0), "no {key} closed-form cells: {text}");
    }
    let reasons = engine["fallback_reasons"].as_obj().expect("fallback_reasons object");
    assert!(reasons.is_empty(), "recovery cells fell back: {text}");
}

#[test]
fn recover_stats_doc_is_byte_identical_across_runs_and_jobs() {
    let dir = temp_dir("recover-jobs");
    let j1 = stats_doc(&dir, "j1.json", &["--quick", "recover", "--jobs", "1"]);
    let j4 = stats_doc(&dir, "j4.json", &["--quick", "recover", "--jobs", "4"]);
    let j4b = stats_doc(&dir, "j4b.json", &["--quick", "recover", "--jobs", "4"]);
    assert!(!j1.is_empty());
    assert_eq!(j1, j4, "recover: --jobs changed the stats document");
    assert_eq!(j4, j4b, "recover: repeated run changed the stats document");
}

#[test]
fn profile_doc_declares_itself_non_deterministic() {
    use hetsim_obs::Json;
    let dir = temp_dir("profile");
    let path = dir.join("profile.json");
    let path_str = path.to_str().expect("utf-8");
    let out = run(&["--quick", "t2", "--profile-out", path_str]);
    assert!(out.status.success(), "exit: {:?}: {}", out.status, stderr(&out));
    let text = std::fs::read_to_string(&path).expect("profile written");
    let doc = Json::parse(&text).expect("profile parses");
    let doc = doc.as_obj().expect("object top level");
    assert_eq!(doc["deterministic"], Json::Bool(false));
    assert_eq!(doc["schema"].as_str(), Some("hetscale-profile/1"));
    let ids = doc["ids"].as_obj().expect("ids object");
    assert!(ids.contains_key("t2"), "t2 lap missing: {text}");
    assert!(doc["total_us"].as_num().expect("total") >= 0.0);
    // Lockstep analysis is its own phase, beside recording and
    // simulation; writing the exports is one too (0 without them).
    let phases = doc["phases"].as_obj().expect("phases object");
    for phase in ["analyze_us", "export_us", "record_us", "simulate_us"] {
        let us = phases.get(phase).and_then(Json::as_num);
        assert!(us.is_some_and(|us| us >= 0.0), "{phase} missing: {text}");
    }
}

#[test]
fn fuzzed_argument_vectors_exit_cleanly() {
    // 64 fixed-seed vectors from the CLI's own vocabulary — cheap ids,
    // flags, junk, and good or bad flag values — must each exit 0, 1 or
    // 2 without panicking.
    const IDS: [&str; 4] = ["t1", "t2", "ext-mp", "ablate-sched"];
    const OTHER: [&str; 7] = ["--quick", "--no-analytic", "--list", "--help", "t99", "-", "--"];
    const VALUED: [&str; 4] = ["--jobs", "--seed", "--csv", "--stats-out"];
    const VALUES: [&str; 5] = ["2", "0", "-1", "18446744073709551616", "banana"];
    let tokens = [&IDS[..], &OTHER, &VALUED].concat();
    let dir = temp_dir("fuzz");
    let mut state = 0x5eed_f022u64;
    let mut draw = |bound: usize| {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut codes = [0usize; 3];
    for _ in 0..64 {
        // A cheap id first, so no vector falls through to the full suite.
        let mut args = vec![IDS[draw(IDS.len())]];
        for _ in 0..draw(6) {
            let token = tokens[draw(tokens.len())];
            args.push(token);
            // A valued flag may go without: the next token, if any, is
            // then taken as its value. Relative paths land in `dir`.
            let value = draw(VALUES.len() + 1);
            if VALUED.contains(&token) && value < VALUES.len() {
                args.push(VALUES[value]);
            }
        }
        let out = Command::new(env!("CARGO_BIN_EXE_bench-tables"))
            .args(&args)
            .current_dir(&*dir)
            .output()
            .expect("spawn bench-tables");
        let (code, err) = (out.status.code(), stderr(&out));
        assert!(matches!(code, Some(0..=2)), "{args:?} exited with {:?}: {err}", out.status);
        assert!(!err.contains("panicked"), "{args:?} panicked: {err}");
        codes[code.unwrap() as usize] += 1;
    }
    assert!(codes[0] > 0 && codes[2] > 0, "the draw must reach both outcomes: {codes:?}");
}

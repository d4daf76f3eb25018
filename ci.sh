#!/usr/bin/env sh
# Repository CI gate: formatting, lints, docs, tests. Run from the repo
# root. Builds offline: every dependency, criterion and proptest
# included, is a path crate of the workspace. Style is pinned by
# rustfmt.toml.
set -eux

# Scratch files live in a directory of this run's own, so two runs on one
# host (say, two commits checked side by side) never compare each
# other's outputs.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: no broken or private intra-doc link survives a rename.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Dead-API gate: fail on a `pub fn` or `pub const` that only its own
# file's tests reach. A `pub fn` counts as used where another .rs file
# under the scanned directories, or its own file above its first
# #[cfg(test)], calls it or names its path: `name(`, `name::<` or
# `::name`, so a field, local or module of the same name does not hide
# a dead function. A `pub const` counts as used wherever its name
# appears as a whole word. Comment lines and `pub use` statements (one
# line, or a multi-line `pub use …{ … };` block) do not count as uses:
# the gate reads a copy of the tree with those lines blanked. Each item
# found is printed as `file:line name`. Four items stay even where
# nothing calls them: the paper's two definitions (the metric library
# is what this repository delivers) and the §2 baselines' two defining
# required-work procedures, each tested in its own file. The rule is
# textual, so a function that a same-named function or method elsewhere
# shadows (`label`, `median`, `advance`), or a const whose name is a
# common word, slips past it.
set +x
DEAD_API_DIRS="crates src tests examples benchmark"
find $DEAD_API_DIRS -name target -prune -o -name '*.rs' -print | while read -r file; do
    mkdir -p "$TMP/code/${file%/*}"
    awk 'in_use || /^[[:space:]]*pub use / { in_use = !/;[[:space:]]*$/; print ""; next }
        /^[[:space:]]*\/\// { print ""; next }
        { print }' "$file" > "$TMP/code/$file"
done
(cd "$TMP/code" && grep -rn -E '^[[:space:]]*pub (const )?(fn|const) [A-Za-z_]' $DEAD_API_DIRS |
    sed -E -e 's/^([^:]*):([0-9]*):[[:space:]]*pub (const )?fn ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 fn \4/' \
        -e 's/^([^:]*):([0-9]*):[[:space:]]*pub const ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 const \3/' |
    while read -r file line kind name; do
        case "$name" in
            isospeed_scalability | scaled_execution_time) continue ;;
            required_work_for_unit_speed | isoefficiency_required_work) continue ;;
        esac
        if [ "$kind" = fn ]; then
            use="(^|[^A-Za-z0-9_])$name(\(|::<)|::$name([^A-Za-z0-9_]|\$)"
        else
            use="(^|[^A-Za-z0-9_])$name([^A-Za-z0-9_]|\$)"
        fi
        grep -rlE "$use" $DEAD_API_DIRS | grep -qvxF "$file" && continue
        tests_at=$(grep -n -m1 '#\[cfg(test)\]' "$file" | cut -d: -f1)
        grep -nE "$use" "$file" | cut -d: -f1 |
            awk -v def="$line" -v t="${tests_at:-0}" \
                '$1 != def && (t == 0 || $1 < t) { live = 1 } END { exit !live }' &&
            continue
        echo "$file:$line $name"
    done) > "$TMP"/dead_api.txt
set -x
test ! -s "$TMP"/dead_api.txt || {
    echo "pub items only their own file's tests reach (delete them, or give them a caller):" >&2
    cat "$TMP"/dead_api.txt >&2
    exit 1
}
# Layering gate: the runtime charges a recovery span for the seconds its
# caller hands it (`Rank::charge`); the recovery cost model lives in
# hetsim_cluster::faults, and kernels::recover prices each charge from
# it. Fail, printing file:line, on code (comment lines excluded) under
# crates/hetsim-mpi/src that names part of that model.
grep -rnE '(^|[^A-Za-z0-9_])(checkpoint_cost_secs|DETECT_TIMEOUT_SECS|REBALANCE_BANDWIDTH_BYTES_PER_SEC|CHECKPOINT_[A-Z0-9_]*)' \
    crates/hetsim-mpi/src | grep -vE '^[^:]*:[0-9]*:[[:space:]]*//' | cut -d: -f1,2 \
    > "$TMP"/layering.txt || true
test ! -s "$TMP"/layering.txt || {
    echo "hetsim-mpi names the recovery cost model (price it in kernels::recover):" >&2
    cat "$TMP"/layering.txt >&2
    exit 1
}
# The repository benchmark (benchmark/, a workspace of its own) builds
# against the crates' public API, so an API change it needs fails here.
# Its own tests run a quick traced set end to end: a change that breaks
# the traced run's byte check or `compare` fails here too.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Both suites' test binaries are built first, so each budget below
# times the tests alone, and a hung test (a rank blocked on a peer that
# is gone, say) fails its suite at a named step instead of stalling the
# gate. Each budget sits ~10x above the suite's time on a 2-vCPU host:
# ~40 s for the benchmark harness, ~12 s for the workspace.
cargo test --release --offline --manifest-path benchmark/Cargo.toml --no-run
cargo test --workspace --release --no-run
timeout 400 cargo test --release --offline --manifest-path benchmark/Cargo.toml
timeout 120 cargo test --workspace --release

# CLI smoke: `--list` must enumerate the ids and exit 0.
cargo run --release -p bench-tables -- --list

# Analytic equivalence smoke: the lockstep closed forms (DESIGN.md §10)
# are an optimization, never a semantic change — forcing the
# event-driven engine must reproduce the quick suite byte for byte.
# (tests/cli.rs pins the same property for the faults and surface
# sweeps; this is the cheap end-to-end re-check.)
BIN=target/release/bench-tables
cargo build --release -p bench-tables
"$BIN" --quick > "$TMP"/quick_analytic.txt
"$BIN" --quick --no-analytic > "$TMP"/quick_engine.txt
cmp "$TMP"/quick_analytic.txt "$TMP"/quick_engine.txt || {
    echo "--no-analytic output diverged from the closed-form path" >&2
    exit 1
}
"$BIN" --quick --faults > "$TMP"/faults_analytic.txt
"$BIN" --quick --faults --no-analytic > "$TMP"/faults_engine.txt
cmp "$TMP"/faults_analytic.txt "$TMP"/faults_engine.txt || {
    echo "--no-analytic output diverged on the fault sweep" >&2
    exit 1
}
# Recovery sweep smoke (DESIGN.md §12): runs, and holds the same
# engine-equivalence contract — `--no-analytic` records every recovery
# segment and replays it on the event-driven engine, so the cmp pins the
# GE and MM closed forms' bytes on recovery programs.
"$BIN" --quick recover > "$TMP"/recover_analytic.txt
"$BIN" --quick recover --no-analytic > "$TMP"/recover_engine.txt
cmp "$TMP"/recover_analytic.txt "$TMP"/recover_engine.txt || {
    echo "--no-analytic output diverged on the recovery sweep" >&2
    exit 1
}
# Mega-scale sweep smoke (DESIGN.md §13): the class-aggregated closed
# forms — including the round-batched GE form — must reproduce the
# per-rank oracle byte for byte at the largest oracle-affordable
# configuration: `--no-analytic` materializes every quick preset (up to
# 10^5 ranks) and prices it per rank, except GE's Theta(N*P) replay,
# which is gated at 10^3 ranks (larger presets stay aggregated).
"$BIN" --quick mega > "$TMP"/mega_aggregated.txt
"$BIN" --quick mega --no-analytic > "$TMP"/mega_per_rank.txt
cmp "$TMP"/mega_aggregated.txt "$TMP"/mega_per_rank.txt || {
    echo "--no-analytic output diverged on the mega sweep" >&2
    exit 1
}

# Perf gate, coarse: the experiment sweeps must stay on the fast timing
# engine. The *full* ladders plus the fault and surface sweeps complete
# in well under a second (see BENCH_ANALYTIC.json); the gate also runs
# `recover` (~0.07-0.1 s, its segments and representative runs on the
# closed forms)
# and the full `mega` sweep (~2-3.5 s, nearly all of it the 10^7-rank
# GE column) on a 2-vCPU host. A generous 60 s budget only trips on
# order-of-magnitude regressions, e.g. kernels silently falling back to
# the thread-per-rank oracle.
BUDGET_SECS=60
start=$(date +%s)
"$BIN"
"$BIN" --faults
"$BIN" surface
"$BIN" recover
"$BIN" mega
elapsed=$(( $(date +%s) - start ))
test "$elapsed" -le "$BUDGET_SECS" || {
    echo "full bench-tables + faults + surface + recover + mega took ${elapsed}s (budget ${BUDGET_SECS}s)" >&2
    exit 1
}

# Perf gates, fine: each reads the binary's own wall-clock from its
# --profile-out document (excluding exec/linker startup, which is not
# sweep cost) and keeps the best of a few runs, so single-core load
# spikes cannot flake a gate. `profile_runs RUNS ARGS...` runs
# "$BIN" ARGS --profile-out RUNS times, one document per run (all
# deleted first, so a run that writes none fails the gate instead of
# re-reading an earlier one); `best_us KEY` then prints the smallest
# "KEY":<us> across those documents: `total_us`, or one id's lap.
profile_runs() {
    PROFILE_RUNS=$1
    shift
    rm -f "$TMP"/profile.*.json
    run=$PROFILE_RUNS
    while [ "$run" -gt 0 ]; do
        "$BIN" "$@" --profile-out "$TMP"/profile."$run".json > /dev/null 2>&1 || exit 1
        run=$((run - 1))
    done
}
best_us() {
    key=$1
    best=
    run=$PROFILE_RUNS
    while [ "$run" -gt 0 ]; do
        doc="$TMP"/profile."$run".json
        us=$(sed -n "s/.*\"$key\":\([0-9]*\).*/\1/p" "$doc")
        test -n "$us" || { echo "$key missing from $doc" >&2; exit 1; }
        if [ -z "$best" ] || [ "$us" -lt "$best" ]; then best=$us; fi
        run=$((run - 1))
    done
    echo "$best"
}

# The full ladders must keep their closed-form speed: ~17-29 ms expected
# at best of 8 on a 2-vCPU host, through its fast and slow spells, since
# D1's decomposition prices through the GE closed form (~20-38 ms when
# it recorded traced runs); 30 ms trips on losing any closed form, the
# aggregated GE route or the batched noise path.
LADDER_BUDGET_US=30000
profile_runs 8
best=$(best_us total_us)
test "$best" -le "$LADDER_BUDGET_US" || {
    echo "full ladders took ${best}us internally (budget ${LADDER_BUDGET_US}us)" >&2
    exit 1
}
# The same eight runs gate the ladders' top laps, so a regression names
# the experiment it came from. Each budget sits above the lap's best of
# 8 on that host in both spells, as the total's does:
# - decomp (D1, ~0.35-0.6 ms): 0.8 ms trips if the decomposition goes
#   back to recording traced runs (~6-10 ms);
# - ablate-noise (~9-18.5 ms): ~765k jittered GE campaign-rounds on the
#   batched closed form; 22 ms trips on losing the batching (~2.9x);
# - t1 (~0.05-0.1 ms): each modeled node's kernels are rated as its
#   nominal speed x their efficiency, with no kernel run; 1 ms trips if
#   Table 1 goes back to running LU, FFT and BT per node (~3.2-3.7 ms).
for lap in decomp:800 ablate-noise:22000 t1:1000; do
    id=${lap%:*} budget=${lap#*:}
    best=$(best_us "$id")
    test "$best" -le "$budget" || {
        echo "full ladders: the $id lap took ${best}us internally at best (budget ${budget}us)" >&2
        exit 1
    }
done

# Mega: the quick mega sweep (which includes a 10^5-rank preset) must
# stay on the O(classes) aggregated path. Best of 5 reads ~20-36 ms on
# a 2-vCPU host — nearly all of it GE's Theta(N*classes) rounds, each
# machine dealt once per thread to its largest N — so 100 ms still
# trips on a cell sliding back to an O(P) walk (the per-rank oracle
# needs ~4 s for the same sweep).
MEGA_BUDGET_US=100000
profile_runs 5 --quick mega
best=$(best_us total_us)
test "$best" -le "$MEGA_BUDGET_US" || {
    echo "quick mega sweep took ${best}us internally (budget ${MEGA_BUDGET_US}us)" >&2
    exit 1
}

# Surface: every X3 GE rung (the server plus p-1 SunBlades) is two
# speed classes, so each makespan-only GE cell prices through ge_mega
# in Theta(N*classes) rounds (DESIGN.md §13). Best of 5 reads ~2.8-4.5
# ms on a 2-vCPU host; the per-rank Theta(N*P) walk took ~95-150 ms,
# so 30 ms still trips if any rung slides back to it.
SURFACE_BUDGET_US=30000
profile_runs 5 surface
best=$(best_us total_us)
test "$best" -le "$SURFACE_BUDGET_US" || {
    echo "surface sweep took ${best}us internally (budget ${SURFACE_BUDGET_US}us)" >&2
    exit 1
}

# Obs: the quick fault + recovery run exports ~10.6 MB of traces,
# streamed span by span through the direct JSON writers of
# hetsim_obs::export (DESIGN.md §7). The `obs` lap of --profile-out
# (the traced runs plus both exports) reads ~35-45 ms at best of 5 on a
# 2-vCPU host with the Ryu number writer of hetsim_obs::digits (~55 ms
# with `{}` formatting every number); it was ~300-370 ms when every span
# was built as a Json tree and each file held whole in memory, so 150 ms
# trips on a return to that.
OBS_BUDGET_US=150000
profile_runs 5 --quick --faults recover --trace-out "$TMP"/obs_traces \
    --metrics-out "$TMP"/obs_metrics.json
best=$(best_us obs)
test "$best" -le "$OBS_BUDGET_US" || {
    echo "obs layer (traced runs + trace and metrics export) took ${best}us at best (budget ${OBS_BUDGET_US}us)" >&2
    exit 1
}

# Telemetry gates (DESIGN.md §11). The --stats-out document counts how
# the suite priced its cells; the fault-free quick ladder must stay
# fully analytic (closed forms, lockstep evaluator and class-aggregated
# cells all count; no event-driven fallbacks), and the full suite's
# memo hit rate must not drop below
# the recorded baseline (36.5% — EXPERIMENTS.md "Telemetry baseline").
"$BIN" --quick --stats-out "$TMP"/stats_quick.json > /dev/null
grep -q '"analytic_coverage_percent":100,' "$TMP"/stats_quick.json || {
    echo "quick ladder lost full analytic coverage" >&2
    exit 1
}
MEMO_HIT_FLOOR=36
"$BIN" --stats-out "$TMP"/stats_full.json > /dev/null
hit=$(sed -n 's/.*"memo_hit_percent":\([0-9]*\).*/\1/p' "$TMP"/stats_full.json)
test -n "$hit" || { echo "memo_hit_percent missing from stats document" >&2; exit 1; }
test "$hit" -ge "$MEMO_HIT_FLOOR" || {
    echo "full-suite memo hit rate ${hit}% dropped below the ${MEMO_HIT_FLOOR}% baseline" >&2
    exit 1
}
# Recovery telemetry gate (DESIGN.md §12): every untraced recovery
# segment prices through the GE and MM closed forms, like every other
# untraced fault-free run. Full coverage and both recovery closed-form
# keys trip if a segment slides back to recording and replaying.
"$BIN" --quick recover --stats-out "$TMP"/stats_recover.json > /dev/null
for key in '"analytic_coverage_percent":100,' '"ge-recover":{' '"mm-recover":{'; do
    grep -q "$key" "$TMP"/stats_recover.json || {
        echo "recovery segments left the closed forms: no $key in the stats document" >&2
        exit 1
    }
done
# Determinism smoke: a repeated run must reproduce the document byte
# for byte. (The documents themselves are pinned against golden
# fixtures by crates/bench-tables/tests/cli.rs.)
"$BIN" --quick --stats-out "$TMP"/stats_quick2.json > /dev/null
cmp "$TMP"/stats_quick.json "$TMP"/stats_quick2.json || {
    echo "--stats-out document is not byte-stable across runs" >&2
    exit 1
}

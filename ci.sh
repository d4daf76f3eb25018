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
# file's tests reach. That is one no other .rs file under the scanned
# directories names as a whole word, and whose every other mention in
# its own file sits at or below that file's first #[cfg(test)]. Comment
# lines and `pub use` statements (one line, or a multi-line
# `pub use …{ … };` block) do not count as mentions: the gate reads a
# copy of the tree with those lines blanked. Each item found is printed
# as `file:line name`. Four items stay even where nothing calls them:
# the paper's two definitions (the metric library is what this
# repository delivers) and the §2 baselines' two defining required-work
# procedures, each tested in its own file. The rule is textual, so a
# name that is a common word (`processed`, `pending`) or that also names
# a field somewhere slips past it.
set +x
DEAD_API_DIRS="crates src tests examples benchmark"
find $DEAD_API_DIRS -name target -prune -o -name '*.rs' -print | while read -r file; do
    mkdir -p "$TMP/code/${file%/*}"
    awk 'in_use || /^[[:space:]]*pub use / { in_use = !/;[[:space:]]*$/; print ""; next }
        /^[[:space:]]*\/\// { print ""; next }
        { print }' "$file" > "$TMP/code/$file"
done
(cd "$TMP/code" && grep -rn -E '^[[:space:]]*pub (const )?(fn|const) [A-Za-z_]' $DEAD_API_DIRS |
    sed -E 's/^([^:]*):([0-9]*):[[:space:]]*pub (const fn|fn|const) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2 \4/' |
    while read -r file line name; do
        case "$name" in
            isospeed_scalability | scaled_execution_time) continue ;;
            required_work_for_unit_speed | isoefficiency_required_work) continue ;;
        esac
        grep -rlw "$name" $DEAD_API_DIRS | grep -qvxF "$file" && continue
        tests_at=$(grep -n -m1 '#\[cfg(test)\]' "$file" | cut -d: -f1)
        grep -nw "$name" "$file" | cut -d: -f1 |
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
# The repository benchmark (benchmark/, a workspace of its own) builds
# against the crates' public API, so an API change it needs fails here.
# Its own tests run a quick traced set end to end: a change that breaks
# the traced run's byte check or `compare` fails here too.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo test --workspace --release

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
# engine-equivalence contract.
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
# in well under a second (see BENCH_ANALYTIC.json); a generous 60 s
# budget only trips on order-of-magnitude regressions, e.g. kernels
# silently falling back to the thread-per-rank oracle.
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

# Perf gate, fine: the full ladders must keep their closed-form speed.
# The binary reports its own wall-clock as the `total_us` of its
# --profile-out document (excluding exec/linker startup, which is not
# ladder cost); take the minimum of a few runs so single-core load
# spikes cannot flake the gate. ~26 ms expected (BENCH_ANALYTIC.json);
# 30 ms trips on losing any closed form or the batched noise path.
LADDER_BUDGET_US=30000
best_us=
for _ in 1 2 3 4 5 6 7 8; do
    "$BIN" --profile-out "$TMP"/ladder_profile.json > /dev/null 2>&1
    us=$(sed -n 's/.*"total_us":\([0-9]*\).*/\1/p' "$TMP"/ladder_profile.json)
    test -n "$us" || { echo "total_us missing from the profile document" >&2; exit 1; }
    if [ -z "$best_us" ] || [ "$us" -lt "$best_us" ]; then best_us=$us; fi
done
test "$best_us" -le "$LADDER_BUDGET_US" || {
    echo "full ladders took ${best_us}us internally (budget ${LADDER_BUDGET_US}us)" >&2
    exit 1
}

# Perf gate, mega: the quick mega sweep (which includes a 10^5-rank
# preset) must stay on the O(classes) aggregated path. ~84 ms expected
# (BENCH_MEGASCALE.json) — nearly all of it GE's Theta(N*classes)
# rounds, ~35 ns each over the 2.4M-round quick grids — so 100 ms
# trips on any per-round regression or a cell sliding back to an O(P)
# walk (the per-rank oracle needs ~4 s for the same sweep).
MEGA_BUDGET_US=100000
best_us=
for _ in 1 2 3 4 5; do
    "$BIN" --quick mega --profile-out "$TMP"/mega_profile.json > /dev/null 2>&1
    us=$(sed -n 's/.*"total_us":\([0-9]*\).*/\1/p' "$TMP"/mega_profile.json)
    test -n "$us" || { echo "total_us missing from the profile document" >&2; exit 1; }
    if [ -z "$best_us" ] || [ "$us" -lt "$best_us" ]; then best_us=$us; fi
done
test "$best_us" -le "$MEGA_BUDGET_US" || {
    echo "quick mega sweep took ${best_us}us internally (budget ${MEGA_BUDGET_US}us)" >&2
    exit 1
}

# Perf gate, obs: the quick fault + recovery run exports ~10.6 MB of
# traces, streamed span by span through the direct JSON writers of
# hetsim_obs::export (DESIGN.md §7). The `obs` lap of --profile-out
# (the traced runs plus both exports) is ~55-85 ms at best on a 2-vCPU
# host; it was ~300-370 ms when every span was built as a Json tree and
# each file held whole in memory, so 150 ms trips on a return to that.
OBS_BUDGET_US=150000
best_us=
for _ in 1 2 3 4 5; do
    "$BIN" --quick --faults recover --trace-out "$TMP"/obs_traces \
        --metrics-out "$TMP"/obs_metrics.json --profile-out "$TMP"/obs_profile.json \
        > /dev/null 2>&1
    us=$(sed -n 's/.*"obs":\([0-9]*\).*/\1/p' "$TMP"/obs_profile.json)
    test -n "$us" || { echo "obs lap missing from the profile document" >&2; exit 1; }
    if [ -z "$best_us" ] || [ "$us" -lt "$best_us" ]; then best_us=$us; fi
done
test "$best_us" -le "$OBS_BUDGET_US" || {
    echo "obs layer (traced runs + trace and metrics export) took ${best_us}us at best (budget ${OBS_BUDGET_US}us)" >&2
    exit 1
}

# Telemetry gates (DESIGN.md §11). The --stats-out document counts how
# the suite priced its cells; the fault-free quick ladder must stay
# fully analytic (closed forms + lockstep evaluator, no event-driven
# fallbacks), and the full suite's memo hit rate must not drop below
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
# Recovery telemetry gate (DESIGN.md §12): the lockstep analyzer must
# reject recovery cells with the *typed* fallback reason — if the tag
# vanishes, recovery runs are being mis-priced by the closed forms.
"$BIN" --quick recover --stats-out "$TMP"/stats_recover.json > /dev/null
grep -q 'recovery-ops' "$TMP"/stats_recover.json || {
    echo "recovery runs no longer report the typed recovery-ops fallback" >&2
    exit 1
}
# Determinism smoke: a repeated run must reproduce the document byte
# for byte. (The documents themselves are pinned against golden
# fixtures by crates/bench-tables/tests/cli.rs.)
"$BIN" --quick --stats-out "$TMP"/stats_quick2.json > /dev/null
cmp "$TMP"/stats_quick.json "$TMP"/stats_quick2.json || {
    echo "--stats-out document is not byte-stable across runs" >&2
    exit 1
}

#!/usr/bin/env sh
# Repository CI gate: formatting, lints, docs, tests. Run from the repo
# root. Builds offline: every dependency, criterion and proptest
# included, is a path crate of the workspace. Style is pinned by
# rustfmt.toml.
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: no broken or private intra-doc link survives a rename.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# The repository benchmark (benchmark/, a workspace of its own) builds
# against the crates' public API, so an API change it needs fails here.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
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
"$BIN" --quick > /tmp/ci_quick_analytic.txt
"$BIN" --quick --no-analytic > /tmp/ci_quick_engine.txt
cmp /tmp/ci_quick_analytic.txt /tmp/ci_quick_engine.txt || {
    echo "--no-analytic output diverged from the closed-form path" >&2
    exit 1
}
"$BIN" --quick --faults > /tmp/ci_faults_analytic.txt
"$BIN" --quick --faults --no-analytic > /tmp/ci_faults_engine.txt
cmp /tmp/ci_faults_analytic.txt /tmp/ci_faults_engine.txt || {
    echo "--no-analytic output diverged on the fault sweep" >&2
    exit 1
}
# Recovery sweep smoke (DESIGN.md §12): runs, and holds the same
# engine-equivalence contract.
"$BIN" --quick recover > /tmp/ci_recover_analytic.txt
"$BIN" --quick recover --no-analytic > /tmp/ci_recover_engine.txt
cmp /tmp/ci_recover_analytic.txt /tmp/ci_recover_engine.txt || {
    echo "--no-analytic output diverged on the recovery sweep" >&2
    exit 1
}
# Mega-scale sweep smoke (DESIGN.md §13): the class-aggregated closed
# forms — including the round-batched GE form — must reproduce the
# per-rank oracle byte for byte at the largest oracle-affordable
# configuration: `--no-analytic` materializes every quick preset (up to
# 10^5 ranks) and prices it per rank, except GE's Theta(N*P) replay,
# which is gated at 10^3 ranks (larger presets stay aggregated).
"$BIN" --quick mega > /tmp/ci_mega_aggregated.txt
"$BIN" --quick mega --no-analytic > /tmp/ci_mega_per_rank.txt
cmp /tmp/ci_mega_aggregated.txt /tmp/ci_mega_per_rank.txt || {
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
# The binary reports its own wall-clock via BENCH_TABLES_STOPWATCH=1
# (excluding exec/linker startup, which is not ladder cost); take the
# minimum of a few runs so single-core load spikes cannot flake the
# gate. ~26 ms expected (BENCH_ANALYTIC.json); 30 ms trips on losing
# any closed form or the batched noise path.
LADDER_BUDGET_US=30000
best_us=
for _ in 1 2 3 4 5 6 7 8; do
    us=$(BENCH_TABLES_STOPWATCH=1 "$BIN" 2>&1 >/dev/null | sed -n 's/^stopwatch: \([0-9]*\) us$/\1/p')
    test -n "$us" || { echo "stopwatch line missing from stderr" >&2; exit 1; }
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
    us=$(BENCH_TABLES_STOPWATCH=1 "$BIN" --quick mega 2>&1 >/dev/null | sed -n 's/^stopwatch: \([0-9]*\) us$/\1/p')
    test -n "$us" || { echo "stopwatch line missing from stderr" >&2; exit 1; }
    if [ -z "$best_us" ] || [ "$us" -lt "$best_us" ]; then best_us=$us; fi
done
test "$best_us" -le "$MEGA_BUDGET_US" || {
    echo "quick mega sweep took ${best_us}us internally (budget ${MEGA_BUDGET_US}us)" >&2
    exit 1
}

# Telemetry gates (DESIGN.md §11). The --stats-out document counts how
# the suite priced its cells; the fault-free quick ladder must stay
# fully analytic (closed forms + lockstep evaluator, no event-driven
# fallbacks), and the full suite's memo hit rate must not drop below
# the recorded baseline (36.5% — EXPERIMENTS.md "Telemetry baseline").
"$BIN" --quick --stats-out /tmp/ci_stats_quick.json > /dev/null
grep -q '"analytic_coverage_percent":100,' /tmp/ci_stats_quick.json || {
    echo "quick ladder lost full analytic coverage" >&2
    exit 1
}
MEMO_HIT_FLOOR=36
"$BIN" --stats-out /tmp/ci_stats_full.json > /dev/null
hit=$(sed -n 's/.*"memo_hit_percent":\([0-9]*\).*/\1/p' /tmp/ci_stats_full.json)
test -n "$hit" || { echo "memo_hit_percent missing from stats document" >&2; exit 1; }
test "$hit" -ge "$MEMO_HIT_FLOOR" || {
    echo "full-suite memo hit rate ${hit}% dropped below the ${MEMO_HIT_FLOOR}% baseline" >&2
    exit 1
}
# Recovery telemetry gate (DESIGN.md §12): the lockstep analyzer must
# reject recovery cells with the *typed* fallback reason — if the tag
# vanishes, recovery runs are being mis-priced by the closed forms.
"$BIN" --quick recover --stats-out /tmp/ci_stats_recover.json > /dev/null
grep -q 'recovery-ops' /tmp/ci_stats_recover.json || {
    echo "recovery runs no longer report the typed recovery-ops fallback" >&2
    exit 1
}
# Determinism smoke: a repeated run must reproduce the document byte
# for byte. (The documents themselves are pinned against golden
# fixtures by crates/bench-tables/tests/cli.rs.)
"$BIN" --quick --stats-out /tmp/ci_stats_quick2.json > /dev/null
cmp /tmp/ci_stats_quick.json /tmp/ci_stats_quick2.json || {
    echo "--stats-out document is not byte-stable across runs" >&2
    exit 1
}

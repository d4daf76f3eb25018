//! The telemetry documents (`--stats-out`, `--profile-out`) and the
//! per-id stderr summaries.
//!
//! [`write_stats`] builds the deterministic stats document straight
//! from the three counter sources — the engine
//! (`hetsim_mpi::telemetry`), the memo cache ([`crate::memo`]) and the
//! worker pool ([`crate::pool`]) — with the same hand-rolled [`Json`]
//! writer the metrics document uses: sorted keys, integer counters, and
//! no floats but the derived percentages and the dedup factor (exact
//! ratios of integers, so they reproduce bit for bit).
//!
//! Determinism splits in two (pinned by `tests/cli.rs`):
//!
//! * **Engine-independent** sections — `memo`, `pool`, closed-form cell
//!   totals — depend only on which cells the experiments price, so they
//!   are byte-identical across runs, `--jobs` values, *and* engines.
//! * **Engine-dependent** sections — path breakdown, park/wake,
//!   fallback reasons — are still byte-identical across runs and
//!   `--jobs`, but change (only) with `--no-analytic`.
//!
//! The profile document is the opposite by design: wall-clock laps and
//! per-worker cell counts, flagged `"deterministic": false`
//! (DESIGN.md §11).

use crate::memo::{self, MemoCounts};
use crate::pool::{self, PoolCounts};
use crate::stopwatch::Stopwatch;
use hetsim_mpi::telemetry::{EngineTelemetry, FallbackReason};
use hetsim_obs::Json;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Writes the deterministic stats document (`--stats-out`, schema
/// `hetscale-telemetry/2`): `engine` plus the memo and pool counters.
pub fn write_stats(path: &Path, engine: &EngineTelemetry) -> io::Result<()> {
    let doc = document(engine, &memo::snapshot(), &pool::snapshot());
    std::fs::write(path, format!("{doc}\n"))
}

/// Human-readable warnings: one line per class-tier rejection reason
/// `engine` observed, in [`FallbackReason::ALL`] order. The reasons come
/// from the class walk and `ge_mega`, whose callers then price the cell
/// per rank. Empty when no class tier refused a cell.
pub fn warnings(engine: &EngineTelemetry) -> Vec<String> {
    let mut lines = Vec::new();
    for reason in FallbackReason::ALL {
        if let Some(&count) = engine.fallback_reasons.get(reason.name()) {
            let plural = if count == 1 { "" } else { "s" };
            lines.push(format!(
                "warning: {count} simulation{plural} fell back from the \
                 class-aggregated tier to per-rank pricing: {reason}"
            ));
        }
    }
    lines
}

/// Memo hits as a share of fingerprintable touches, in percent. No
/// touches reads as full hit rate (nothing was recomputable).
fn memo_hit_percent(memo: &BTreeMap<&'static str, MemoCounts>) -> f64 {
    let touches: u64 = memo.values().map(|c| c.touches).sum();
    let hits: u64 = memo.values().map(MemoCounts::hits).sum();
    if touches == 0 {
        100.0
    } else {
        100.0 * hits as f64 / touches as f64
    }
}

/// The stats document for one set of snapshots.
fn document(
    e: &EngineTelemetry,
    memo: &BTreeMap<&'static str, MemoCounts>,
    pool: &PoolCounts,
) -> Json {
    let closed_form = e
        .closed_form
        .iter()
        .map(|(kernel, s)| {
            (
                kernel.clone(),
                obj([("batches", Json::int(s.batches)), ("cells", Json::int(s.cells))]),
            )
        })
        .collect();
    let fallback_reasons =
        e.fallback_reasons.iter().map(|(name, &count)| (name.clone(), Json::int(count))).collect();
    let memo_doc = memo
        .iter()
        .map(|(kernel, c)| {
            (
                kernel.to_string(),
                obj([
                    ("bypasses", Json::int(c.bypasses)),
                    ("entries", Json::int(c.entries)),
                    ("hits", Json::int(c.hits())),
                    ("touches", Json::int(c.touches)),
                ]),
            )
        })
        .collect();
    let engine = obj([
        ("closed_form", Json::Obj(closed_form)),
        (
            "events",
            obj([("collective", Json::int(e.collective_events)), ("p2p", Json::int(e.p2p_events))]),
        ),
        ("fallback_reasons", Json::Obj(fallback_reasons)),
        (
            "paths",
            obj([
                ("aggregated_sims", Json::int(e.aggregated_sims)),
                ("analytic_sims", Json::int(e.analytic_sims)),
                (
                    "event_driven",
                    obj([
                        ("fallback", Json::int(e.event_driven_fallback)),
                        ("faulted", Json::int(e.event_driven_faulted)),
                        ("forced", Json::int(e.event_driven_forced)),
                        ("traced", Json::int(e.event_driven_traced)),
                    ]),
                ),
                ("threaded_sims", Json::int(e.threaded_sims)),
            ]),
        ),
        (
            "rank_classes",
            obj([
                ("aggregated_classes", Json::int(e.aggregated_classes)),
                ("aggregated_ranks", Json::int(e.aggregated_ranks)),
                ("classes_simulated", Json::int(e.classes_simulated)),
                ("dedup_factor", Json::Num(e.dedup_factor())),
                ("ranks_simulated", Json::int(e.ranks_simulated)),
            ]),
        ),
        ("ready_queue", obj([("parks", Json::int(e.parks)), ("wakes", Json::int(e.wakes))])),
        (
            "retries",
            obj([
                ("attempts", Json::int(e.retry_attempts)),
                ("charge_us", Json::int(e.retry_charge_us)),
                ("events", Json::int(e.retry_events)),
            ]),
        ),
    ]);
    let pool = obj([
        ("batches", Json::int(pool.batches)),
        ("cells", Json::int(pool.cells)),
        ("queue_high_water", Json::int(pool.queue_high_water)),
    ]);
    let summary = obj([
        ("aggregated_rank_percent", Json::Num(e.aggregated_rank_percent())),
        ("analytic_coverage_percent", Json::Num(e.analytic_coverage_percent())),
        ("memo_hit_percent", Json::Num(memo_hit_percent(memo))),
    ]);
    obj([
        ("engine", engine),
        ("memo", Json::Obj(memo_doc)),
        ("pool", pool),
        ("schema", Json::str("hetscale-telemetry/2")),
        ("summary", summary),
    ])
}

fn obj<const K: usize>(entries: [(&str, Json); K]) -> Json {
    Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes the wall-clock profile document (`--profile-out`). Everything
/// in it is non-deterministic except the shape; the document says so
/// itself (`"deterministic": false`). `export_us`, the time spent writing
/// the trace files and the metrics document, is its `phases.export_us`.
pub fn write_profile(path: &Path, watch: &Stopwatch, export_us: u64) -> io::Result<()> {
    let (record_ns, simulate_ns) = hetsim_mpi::telemetry::wall_clock_ns();
    let analyze_ns = hetsim_mpi::telemetry::analyze_wall_ns();
    let ids = watch
        .laps()
        .iter()
        .map(|(label, us)| (label.clone(), Json::int(*us)))
        .collect::<BTreeMap<_, _>>();
    let worker_cells = Json::Arr(pool::worker_cells().into_iter().map(Json::int).collect());
    let doc = obj([
        ("deterministic", Json::Bool(false)),
        ("ids", Json::Obj(ids)),
        (
            "phases",
            obj([
                ("analyze_us", Json::int(analyze_ns / 1_000)),
                ("export_us", Json::int(export_us)),
                ("record_us", Json::int(record_ns / 1_000)),
                ("simulate_us", Json::int(simulate_ns / 1_000)),
            ]),
        ),
        (
            "pool",
            obj([("worker_cells", worker_cells), ("workers", Json::int(pool::jobs() as u64))]),
        ),
        ("schema", Json::str("hetscale-profile/1")),
        ("total_us", Json::int(watch.total_us())),
    ]);
    std::fs::write(path, format!("{doc}\n"))
}

/// Per-id telemetry deltas for the one-line stderr summaries.
///
/// Counters are process-cumulative; this keeps the totals at the last
/// [`IdSummaries::line`] call so each line reports only the id's own
/// contribution.
pub struct IdSummaries {
    last: Totals,
}

/// The process totals a summary line is the difference of.
struct Totals {
    analytic: u64,
    fallbacks: u64,
    touches: u64,
    hits: u64,
    agg_ranks: u64,
    ranks: u64,
}

impl Totals {
    fn now() -> Totals {
        let engine = hetsim_mpi::telemetry::snapshot();
        let memo = memo::snapshot();
        Totals {
            analytic: engine.analytic_cells(),
            fallbacks: engine.event_driven_fallback,
            touches: memo.values().map(|c| c.touches).sum(),
            hits: memo.values().map(MemoCounts::hits).sum(),
            agg_ranks: engine.aggregated_ranks,
            ranks: engine.ranks_simulated,
        }
    }
}

impl IdSummaries {
    /// Starts from the counters' current state.
    pub fn new() -> IdSummaries {
        IdSummaries { last: Totals::now() }
    }

    /// The summary line for everything since the previous call:
    /// `telemetry {id}: analytic P%, memo hit Q%, agg R%` (`-` where the
    /// id priced nothing eligible; `agg` is the share of simulated ranks
    /// priced through class-aggregated representatives).
    pub fn line(&mut self, id: &str) -> String {
        let (now, last) = (Totals::now(), &self.last);
        let analytic = now.analytic - last.analytic;
        let coverage = percent(analytic, analytic + now.fallbacks - last.fallbacks);
        let hit_rate = percent(now.hits - last.hits, now.touches - last.touches);
        let agg = percent(now.agg_ranks - last.agg_ranks, now.ranks - last.ranks);
        self.last = now;
        format!("telemetry {id}: analytic {coverage}, memo hit {hit_rate}, agg {agg}")
    }
}

impl Default for IdSummaries {
    fn default() -> IdSummaries {
        IdSummaries::new()
    }
}

fn percent(num: u64, denom: u64) -> String {
    if denom == 0 {
        return "-".to_string();
    }
    let value = 100.0 * num as f64 / denom as f64;
    if value.fract() == 0.0 {
        format!("{value:.0}%")
    } else {
        // A share short of all never rounds up to read as all.
        format!("{:.1}%", value.min(99.9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_mpi::telemetry::ClosedFormStats;

    #[test]
    fn percent_formats_integers_fractions_and_empty_denominators() {
        assert_eq!(percent(3, 0), "-");
        assert_eq!(percent(3, 3), "100%");
        assert_eq!(percent(0, 4), "0%");
        assert_eq!(percent(7, 8), "87.5%");
        assert_eq!(percent(9999, 10000), "99.9%");
    }

    fn sample() -> (EngineTelemetry, BTreeMap<&'static str, MemoCounts>, PoolCounts) {
        let mut engine = EngineTelemetry::default();
        engine.closed_form.insert("ge".into(), ClosedFormStats { batches: 2, cells: 5 });
        engine.analytic_sims = 2;
        engine.event_driven_fallback = 2;
        engine.fallback_reasons.insert("send-across-sync".into(), 2);
        engine.ranks_simulated = 20;
        engine.classes_simulated = 5;
        engine.aggregated_sims = 1;
        engine.aggregated_ranks = 10;
        engine.aggregated_classes = 2;
        let memo = [("mm", MemoCounts { touches: 10, entries: 6, bypasses: 1 })].into();
        let pool = PoolCounts { batches: 3, cells: 30, queue_high_water: 16 };
        (engine, memo, pool)
    }

    #[test]
    fn percentages_are_exact_ratios() {
        let (engine, memo, _) = sample();
        assert_eq!(engine.analytic_coverage_percent(), 80.0);
        assert_eq!(memo_hit_percent(&memo), 40.0);
        assert_eq!(memo_hit_percent(&BTreeMap::new()), 100.0);
    }

    #[test]
    fn warnings_name_the_reason_in_stable_order() {
        let (mut engine, _, _) = sample();
        engine.fallback_reasons.insert("class-exhausted".into(), 1);
        let lines = warnings(&engine);
        assert_eq!(lines.len(), 2);
        let tier = "fell back from the class-aggregated tier to per-rank pricing: ";
        assert!(lines[0].starts_with(&format!("warning: 1 simulation {tier}")), "{}", lines[0]);
        assert!(lines[0].contains("(class-exhausted)"));
        assert!(lines[1].starts_with(&format!("warning: 2 simulations {tier}")), "{}", lines[1]);
        assert!(lines[1].contains("(send-across-sync)"));
        assert!(warnings(&EngineTelemetry::default()).is_empty());
    }

    #[test]
    fn document_round_trips_and_keeps_its_shape() {
        let (engine, memo, pool) = sample();
        let text = document(&engine, &memo, &pool).to_string();
        let parsed = Json::parse(&text).expect("self-produced JSON parses");
        let doc = parsed.as_obj().expect("top level is an object");
        assert_eq!(doc["schema"].as_str(), Some("hetscale-telemetry/2"));
        let engine_doc = doc["engine"].as_obj().expect("engine object");
        let paths = engine_doc["paths"].as_obj().expect("paths object");
        assert_eq!(paths["analytic_sims"].as_num(), Some(2.0));
        assert_eq!(paths["aggregated_sims"].as_num(), Some(1.0));
        let classes = engine_doc["rank_classes"].as_obj().expect("rank_classes object");
        assert_eq!(classes["aggregated_ranks"].as_num(), Some(10.0));
        assert_eq!(classes["aggregated_classes"].as_num(), Some(2.0));
        // Hits are derived, never stored: touches - entries per kernel.
        let mm = doc["memo"].as_obj().expect("memo object")["mm"].clone();
        assert_eq!(mm.as_obj().expect("mm object")["hits"].as_num(), Some(4.0));
        let summary = doc["summary"].as_obj().expect("summary object");
        assert_eq!(summary["aggregated_rank_percent"].as_num(), Some(50.0));
        assert_eq!(summary["analytic_coverage_percent"].as_num(), Some(80.0));
        assert_eq!(summary["memo_hit_percent"].as_num(), Some(40.0));
        // Serialization is a pure function of the snapshots.
        assert_eq!(text, document(&engine, &memo, &pool).to_string());
    }

    #[test]
    fn id_summaries_report_deltas_not_totals() {
        let mut sums = IdSummaries::new();
        // No counter movement between construction and the first line:
        // every denominator for this "id" may be zero or tiny, but the
        // line always has the fixed shape.
        let line = sums.line("t0");
        assert!(line.starts_with("telemetry t0: analytic "));
        assert!(line.contains(", memo hit "));
        assert!(line.contains(", agg "));
    }
}

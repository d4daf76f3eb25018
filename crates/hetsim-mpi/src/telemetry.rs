//! Deterministic engine self-observability: which pricing tier ran,
//! why a class tier rejected a recording, and how hard the ready-queue
//! scheduler, rank-class dedup, and fault machinery worked.
//!
//! The simulator observes the *kernels* through `hetsim-obs`; this
//! module observes the *simulator*. Every counter here is a pure
//! function of the simulations performed — op streams, class splits,
//! fault plans — never of thread scheduling or wall-clock, so process
//! totals are byte-stable across runs and worker counts as long as the
//! same set of simulations executes. One deliberate exception, the
//! record/simulate wall clocks read by [`wall_clock_ns`] and the
//! lockstep-analysis clock read by [`analyze_wall_ns`], accumulates
//! real elapsed time for the profile export and is excluded from every
//! byte-identity guarantee (DESIGN.md §11).
//!
//! The counters are one process-global [`EngineTelemetry`] behind one
//! lock. Simulations may run concurrently on the experiment worker
//! pool; each takes the lock once to fold in its report, and integer
//! addition is associative and commutative, so fold order cannot
//! perturb totals. Anything order-sensitive (float time) is rounded to
//! integer microseconds *per rank* before it is folded in.

use crate::lock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

/// Why the lockstep analyzer (DESIGN.md §10) or the class-aggregated
/// walk (DESIGN.md §13) refused a recording, so that its caller priced
/// the cell per rank instead.
///
/// Every variant marks a shape the tier cannot *prove* it folds; the
/// per-rank engines then either price it correctly or report the
/// protocol bug with their usual diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FallbackReason {
    /// Some rank class ran out of ops while others still expect a
    /// collective — the classes disagree on collective count.
    ClassExhausted,
    /// The class heads are collectives of different kinds (e.g. a
    /// barrier meeting a broadcast).
    MixedCollectiveKinds,
    /// Two classes both claim the root role of one broadcast or gather.
    DuplicateRoot,
    /// A broadcast/gather root recording stands for more than one rank:
    /// a rank class shares it, or the class aggregator weights it above
    /// one.
    MultiMemberRootClass,
    /// A broadcast receiver's declared size disagrees with the root's.
    CollectiveSizeMismatch,
    /// A point-to-point receive expects a different element count than
    /// the matching send carries.
    P2pSizeMismatch,
    /// A sent message crosses a synchronization point: sent before a
    /// collective, received after it.
    SendAcrossSync,
    /// A receive waits on a message no send in this phase produces.
    RecvBeforeSend,
    /// The program records a local charge (`SpmdTimer::charge`: a
    /// checkpoint, detector timeout, lost-work or rebalance span); the
    /// lockstep phase grammar has no word for it, so recovery programs
    /// always price event-driven.
    RecoveryOps,
    /// A point-to-point batch is not a single-hub scatter — the only
    /// p2p shape the class aggregator (DESIGN.md §13) can fold.
    AsymmetricP2p,
    /// The network model prices endpoints individually (e.g. frozen
    /// per-pair jitter), so per-class costs do not exist.
    UnclassedNetwork,
    /// Message delivery order within a rank class does not follow
    /// member rank order, so tracking one representative clock per
    /// class would lose the tail.
    ClassOrderDiverged,
}

impl FallbackReason {
    /// Every variant, in stable report order.
    pub const ALL: [FallbackReason; 12] = [
        FallbackReason::ClassExhausted,
        FallbackReason::MixedCollectiveKinds,
        FallbackReason::DuplicateRoot,
        FallbackReason::MultiMemberRootClass,
        FallbackReason::CollectiveSizeMismatch,
        FallbackReason::P2pSizeMismatch,
        FallbackReason::SendAcrossSync,
        FallbackReason::RecvBeforeSend,
        FallbackReason::RecoveryOps,
        FallbackReason::AsymmetricP2p,
        FallbackReason::UnclassedNetwork,
        FallbackReason::ClassOrderDiverged,
    ];

    /// Stable kebab-case key used in the telemetry document.
    pub fn name(self) -> &'static str {
        match self {
            FallbackReason::ClassExhausted => "class-exhausted",
            FallbackReason::MixedCollectiveKinds => "mixed-collective-kinds",
            FallbackReason::DuplicateRoot => "duplicate-root",
            FallbackReason::MultiMemberRootClass => "multi-member-root-class",
            FallbackReason::CollectiveSizeMismatch => "collective-size-mismatch",
            FallbackReason::P2pSizeMismatch => "p2p-size-mismatch",
            FallbackReason::SendAcrossSync => "send-across-sync",
            FallbackReason::RecvBeforeSend => "recv-before-send",
            FallbackReason::RecoveryOps => "recovery-ops",
            FallbackReason::AsymmetricP2p => "asymmetric-p2p",
            FallbackReason::UnclassedNetwork => "unclassed-network",
            FallbackReason::ClassOrderDiverged => "class-order-diverged",
        }
    }
}

impl fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            FallbackReason::ClassExhausted => {
                "a rank class ran out of ops while others still expect a collective"
            }
            FallbackReason::MixedCollectiveKinds => {
                "rank classes meet at collectives of different kinds"
            }
            FallbackReason::DuplicateRoot => "two rank classes both claim one collective's root",
            FallbackReason::MultiMemberRootClass => {
                "a collective root recording is shared by more than one rank"
            }
            FallbackReason::CollectiveSizeMismatch => {
                "a broadcast receiver's size expectation disagrees with the root's count"
            }
            FallbackReason::P2pSizeMismatch => {
                "a receive expects a different element count than the matching send carries"
            }
            FallbackReason::SendAcrossSync => {
                "a message is sent before a synchronization point and received after it"
            }
            FallbackReason::RecvBeforeSend => {
                "a receive waits on a message only sent in a later phase"
            }
            FallbackReason::RecoveryOps => {
                "the program charges failure-recovery ops the lockstep grammar cannot express"
            }
            FallbackReason::AsymmetricP2p => {
                "a point-to-point batch is not the single-hub scatter the aggregator folds"
            }
            FallbackReason::UnclassedNetwork => {
                "the network model prices endpoints individually, so class costs do not exist"
            }
            FallbackReason::ClassOrderDiverged => {
                "message order within a rank class diverges from member rank order"
            }
        };
        write!(f, "{what} ({})", self.name())
    }
}

/// Which event-driven replay ran, for the path-selection breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventDrivenMode {
    /// An untraced, fault-free replay while the analytic tiers are on:
    /// a cell no closed form or class walk priced. The replay analyzes
    /// nothing, so no [`FallbackReason`] comes with it.
    Fallback,
    /// The analytic tiers are globally disabled (`--no-analytic`), or
    /// the caller asked for the scheduler explicitly.
    Forced,
    /// Tracing was requested; traced runs keep the scheduler.
    Traced,
    /// A fault plan was active; faulted runs keep the scheduler.
    Faulted,
}

/// Which pricing tier executed one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePath {
    /// Lockstep analytic evaluation (DESIGN.md §10).
    Analytic,
    /// Class-aggregated evaluation: one representative clock per rank
    /// class plus analytic fan-out corrections (DESIGN.md §13).
    Aggregated,
    /// The event-driven ready-queue scheduler.
    EventDriven(EventDrivenMode),
    /// The thread-per-rank oracle runtime.
    Threaded,
}

/// Everything one simulation contributes to the process totals.
///
/// Built by the engine once per simulation; integer-only so that the
/// order in which concurrent simulations flush cannot change any total.
#[derive(Debug, Clone, Copy)]
pub struct EngineReport {
    /// The pricing tier that ran.
    pub path: EnginePath,
    /// Ranks simulated.
    pub ranks: u64,
    /// Distinct rank classes backing those ranks.
    pub classes: u64,
    /// Ready-queue parks (rank blocked on a mailbox or collective slot).
    pub parks: u64,
    /// Ready-queue wakes (ranks drained off wake lists).
    pub wakes: u64,
    /// Point-to-point ops executed (sends + receives).
    pub p2p_events: u64,
    /// Collective ops executed (per participating rank).
    pub collective_events: u64,
    /// Sends that paid a non-zero retry charge.
    pub retry_events: u64,
    /// Failed attempts across those sends.
    pub retry_attempts: u64,
    /// Total retry/timeout/backoff charge, rounded to µs per rank.
    pub retry_charge_us: u64,
}

impl EngineReport {
    /// A zeroed report for `path` over `ranks` ranks in `classes`
    /// classes; callers fill in the scheduler-specific counts.
    pub fn new(path: EnginePath, ranks: u64, classes: u64) -> EngineReport {
        EngineReport {
            path,
            ranks,
            classes,
            parks: 0,
            wakes: 0,
            p2p_events: 0,
            collective_events: 0,
            retry_events: 0,
            retry_attempts: 0,
            retry_charge_us: 0,
        }
    }
}

/// Per-kernel closed-form evaluation counts (`kernels::analytic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClosedFormStats {
    /// Evaluation calls (one per `*_closed_form_many` batch).
    pub batches: u64,
    /// Cells priced across those calls.
    pub cells: u64,
}

// Every deterministic counter. The wall-clock accumulators stay
// atomics — profile export only, never in the deterministic document.
static ENGINE: LazyLock<Mutex<EngineTelemetry>> = LazyLock::new(Mutex::default);
static RECORD_WALL_NS: AtomicU64 = AtomicU64::new(0);
static SIMULATE_WALL_NS: AtomicU64 = AtomicU64::new(0);
static ANALYZE_WALL_NS: AtomicU64 = AtomicU64::new(0);

/// Folds one simulation's [`EngineReport`] into the process totals.
pub fn record_simulation(report: &EngineReport) {
    let mut e = lock(&ENGINE);
    match report.path {
        EnginePath::Analytic => e.analytic_sims += 1,
        EnginePath::Aggregated => {
            e.aggregated_sims += 1;
            e.aggregated_ranks += report.ranks;
            e.aggregated_classes += report.classes;
        }
        EnginePath::EventDriven(EventDrivenMode::Fallback) => e.event_driven_fallback += 1,
        EnginePath::EventDriven(EventDrivenMode::Forced) => e.event_driven_forced += 1,
        EnginePath::EventDriven(EventDrivenMode::Traced) => e.event_driven_traced += 1,
        EnginePath::EventDriven(EventDrivenMode::Faulted) => e.event_driven_faulted += 1,
        EnginePath::Threaded => e.threaded_sims += 1,
    }
    e.ranks_simulated += report.ranks;
    e.classes_simulated += report.classes;
    e.parks += report.parks;
    e.wakes += report.wakes;
    e.p2p_events += report.p2p_events;
    e.collective_events += report.collective_events;
    e.retry_events += report.retry_events;
    e.retry_attempts += report.retry_attempts;
    e.retry_charge_us += report.retry_charge_us;
}

/// Counts one class-tier rejection under `reason` (the caller's
/// per-rank pricing reports its own simulation).
pub fn record_fallback(reason: FallbackReason) {
    let mut e = lock(&ENGINE);
    if let Some(count) = e.fallback_reasons.get_mut(reason.name()) {
        *count += 1;
    } else {
        e.fallback_reasons.insert(reason.name().to_string(), 1);
    }
}

/// Counts one kernel-level closed-form batch of `cells` cells
/// (`kernels::analytic` — these bypass the engine entirely).
pub fn record_closed_form(kernel: &'static str, cells: u64) {
    let mut e = lock(&ENGINE);
    if let Some(stats) = e.closed_form.get_mut(kernel) {
        stats.batches += 1;
        stats.cells += cells;
    } else {
        e.closed_form.insert(kernel.to_string(), ClosedFormStats { batches: 1, cells });
    }
}

/// Accumulates record-phase wall-clock (profile export only).
pub fn add_record_wall_ns(ns: u64) {
    RECORD_WALL_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Accumulates simulate-phase wall-clock (profile export only).
pub fn add_simulate_wall_ns(ns: u64) {
    SIMULATE_WALL_NS.fetch_add(ns, Ordering::Relaxed);
}

/// Accumulates lockstep-analysis wall-clock: the structure check of a
/// recording, outside both the record and simulate phases (profile
/// export only).
pub(crate) fn add_analyze_wall_ns(ns: u64) {
    ANALYZE_WALL_NS.fetch_add(ns, Ordering::Relaxed);
}

/// `(record_ns, simulate_ns)` wall-clock totals. **Not deterministic**
/// — profile export only, excluded from byte-identity guarantees.
pub fn wall_clock_ns() -> (u64, u64) {
    (RECORD_WALL_NS.load(Ordering::Relaxed), SIMULATE_WALL_NS.load(Ordering::Relaxed))
}

/// Lockstep-analysis wall-clock total. **Not deterministic** — profile
/// export only, like [`wall_clock_ns`].
pub fn analyze_wall_ns() -> u64 {
    ANALYZE_WALL_NS.load(Ordering::Relaxed)
}

/// Every deterministic engine counter. The process keeps one behind a
/// lock that [`record_simulation`], [`record_fallback`] and
/// [`record_closed_form`] fold into; [`snapshot`] returns a copy.
///
/// Deterministic contract: equal sets of simulations produce equal
/// snapshots, regardless of thread interleaving or worker count. Which
/// pricing tier each simulation takes — and therefore the path
/// breakdown, park/wake, and fallback counters — changes with
/// [`crate::set_analytic_enabled`]; everything memo/pool-shaped above
/// the engine is engine-independent (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineTelemetry {
    /// Kernel-level closed forms, keyed by kernel label.
    pub closed_form: BTreeMap<String, ClosedFormStats>,
    /// Simulations priced by the lockstep analytic evaluator.
    pub analytic_sims: u64,
    /// Simulations priced by the class-aggregated evaluator.
    pub aggregated_sims: u64,
    /// Ranks folded into class representatives by those simulations.
    pub aggregated_ranks: u64,
    /// Rank classes actually priced by those simulations.
    pub aggregated_classes: u64,
    /// Untraced, fault-free event-driven replays while the analytic
    /// tiers are on: cells no closed form or class walk priced.
    pub event_driven_fallback: u64,
    /// Event-driven simulations forced by `--no-analytic` or an
    /// explicit scheduler request.
    pub event_driven_forced: u64,
    /// Event-driven simulations that carried tracing.
    pub event_driven_traced: u64,
    /// Event-driven simulations under a fault plan.
    pub event_driven_faulted: u64,
    /// Thread-per-rank oracle runs.
    pub threaded_sims: u64,
    /// Class-tier rejections by [`FallbackReason::name`] (non-zero
    /// only).
    pub fallback_reasons: BTreeMap<String, u64>,
    /// Ready-queue parks across event-driven replays.
    pub parks: u64,
    /// Ready-queue wakes across event-driven replays.
    pub wakes: u64,
    /// Point-to-point ops executed (engine paths only).
    pub p2p_events: u64,
    /// Collective ops executed, per participating rank.
    pub collective_events: u64,
    /// Total ranks across simulations.
    pub ranks_simulated: u64,
    /// Total distinct rank classes across simulations.
    pub classes_simulated: u64,
    /// Sends that paid a non-zero retry charge.
    pub retry_events: u64,
    /// Failed attempts across those sends.
    pub retry_attempts: u64,
    /// Retry/timeout/backoff charge total, µs (rounded per rank).
    pub retry_charge_us: u64,
}

impl EngineTelemetry {
    /// Cells priced by kernel-level closed forms.
    pub fn closed_form_cells(&self) -> u64 {
        self.closed_form.values().map(|s| s.cells).sum()
    }

    /// Everything priced without the scheduler: closed-form cells plus
    /// lockstep-analytic and class-aggregated simulations.
    pub fn analytic_cells(&self) -> u64 {
        self.closed_form_cells() + self.analytic_sims + self.aggregated_sims
    }

    /// Share of simulated ranks the class aggregator folded into
    /// representatives, in percent (0 when nothing aggregated).
    pub fn aggregated_rank_percent(&self) -> f64 {
        if self.ranks_simulated == 0 {
            0.0
        } else {
            100.0 * self.aggregated_ranks as f64 / self.ranks_simulated as f64
        }
    }

    /// Share of analytic-eligible work that actually priced
    /// analytically, in percent. Traced, faulted, and explicitly forced
    /// event-driven runs are excluded from the denominator (they are
    /// not eligible); every other event-driven replay is a fallback. An
    /// empty denominator reads as full coverage.
    pub fn analytic_coverage_percent(&self) -> f64 {
        let analytic = self.analytic_cells();
        let denom = analytic + self.event_driven_fallback;
        if denom == 0 {
            100.0
        } else {
            100.0 * analytic as f64 / denom as f64
        }
    }

    /// Rank-class dedup factor: ranks simulated per stored recording.
    pub fn dedup_factor(&self) -> f64 {
        if self.classes_simulated == 0 {
            1.0
        } else {
            self.ranks_simulated as f64 / self.classes_simulated as f64
        }
    }
}

/// Snapshots every deterministic counter.
pub fn snapshot() -> EngineTelemetry {
    lock(&ENGINE).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_reason_names_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for reason in FallbackReason::ALL {
            assert!(seen.insert(reason.name()), "duplicate name {}", reason.name());
            let text = reason.to_string();
            assert!(text.ends_with(&format!("({})", reason.name())), "Display names itself");
        }
    }

    #[test]
    fn coverage_is_vacuously_full_and_degrades_with_fallbacks() {
        let mut t = EngineTelemetry::default();
        assert_eq!(t.analytic_coverage_percent(), 100.0);
        t.analytic_sims = 3;
        assert_eq!(t.analytic_coverage_percent(), 100.0);
        t.event_driven_fallback = 1;
        assert_eq!(t.analytic_coverage_percent(), 75.0);
        t.closed_form.insert("ge".into(), ClosedFormStats { batches: 1, cells: 4 });
        assert_eq!(t.analytic_cells(), 7);
        assert_eq!(t.analytic_coverage_percent(), 87.5);
    }

    #[test]
    fn aggregated_sims_count_as_analytic_cells() {
        let t = EngineTelemetry {
            aggregated_sims: 2,
            aggregated_ranks: 2_000_000,
            aggregated_classes: 6,
            ranks_simulated: 2_500_000,
            ..Default::default()
        };
        assert_eq!(t.analytic_cells(), 2);
        assert_eq!(t.analytic_coverage_percent(), 100.0);
        assert_eq!(t.aggregated_rank_percent(), 80.0);
        assert_eq!(EngineTelemetry::default().aggregated_rank_percent(), 0.0);
    }

    #[test]
    fn aggregated_reports_accumulate() {
        let before = snapshot();
        let report = EngineReport::new(EnginePath::Aggregated, 100_000, 5);
        record_simulation(&report);
        let after = snapshot();
        assert!(after.aggregated_sims > before.aggregated_sims);
        assert!(after.aggregated_ranks >= before.aggregated_ranks + 100_000);
        assert!(after.aggregated_classes >= before.aggregated_classes + 5);
        assert!(after.ranks_simulated >= before.ranks_simulated + 100_000);
    }

    #[test]
    fn dedup_factor_is_ranks_per_class() {
        let mut t = EngineTelemetry::default();
        assert_eq!(t.dedup_factor(), 1.0);
        t.ranks_simulated = 85;
        t.classes_simulated = 5;
        assert_eq!(t.dedup_factor(), 17.0);
    }

    #[test]
    fn simulation_reports_accumulate() {
        let before = snapshot();
        let mut report = EngineReport::new(EnginePath::EventDriven(EventDrivenMode::Forced), 4, 2);
        report.parks = 3;
        report.wakes = 3;
        report.p2p_events = 6;
        report.collective_events = 8;
        record_simulation(&report);
        record_fallback(FallbackReason::SendAcrossSync);
        let after = snapshot();
        assert!(after.event_driven_forced > before.event_driven_forced);
        assert!(after.ranks_simulated >= before.ranks_simulated + 4);
        assert!(after.parks >= before.parks + 3);
        let seen = after.fallback_reasons.get("send-across-sync").copied().unwrap_or(0);
        assert!(seen >= 1);
    }
}

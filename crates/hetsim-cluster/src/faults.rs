//! Deterministic fault injection: stragglers, lossy links, deaths.
//!
//! The isospeed-efficiency metric assumes every node delivers its marked
//! speed `Cᵢ` and every message arrives. Real heterogeneous clusters do
//! not cooperate: nodes throttle, links drop packets, machines die
//! mid-job. A [`FaultPlan`] describes such a degraded regime *ahead of
//! time*, as data, so a run under faults stays a pure function of
//! (marked speeds, payload sizes, network model, fault plan) — the
//! simulator's core determinism invariant survives intact. Four fault
//! families are modeled:
//!
//! * **Stragglers** — a rank runs at one fixed multiple of its marked
//!   speed for the whole run ([`FaultPlan::with_straggler`]). Each
//!   runtime reads the multiplier once, when it builds the rank, and
//!   prices every compute span of that rank at the slower speed.
//! * **Lossy links** — every point-to-point send consults a seeded drop
//!   schedule; each dropped attempt costs `timeout + backoff` of virtual
//!   time (exponential backoff, capped), charged by the runtime as
//!   `OpKind::Retry` spans. Whether attempt `a` of message `k` on link
//!   `(s, d)` drops is a hash of `(seed, s, d, k, a)` — deterministic,
//!   schedule-independent, and independent across links and messages.
//! * **Declared deaths** — a set of ranks that never join the run; the
//!   blocking SPMD runtime cannot lose a member mid-collective, so
//!   deaths are resolved *before* launch: [`FaultPlan::surviving_cluster`]
//!   shrinks the machine, `hetpart` repartitions the survivors by marked
//!   speed, and the run completes with honestly reduced `C`.
//!
//! * **MTBF failure streams** — [`FaultPlan::with_mtbf`] gives every
//!   rank a seeded exponential death time. Unlike declared deaths these
//!   fire *mid-run* and are handled by a [`RecoveryPolicy`]
//!   (checkpoint/restart with a Young/Daly-optimal interval baseline,
//!   or shrink-and-rebalance through `hetpart`); the recovery protocol
//!   and its determinism argument live in DESIGN.md §12.
//!
//! Every plan retries under [`RetryPolicy::default`]. Retry exhaustion
//! (more consecutive drops than the policy allows) surfaces as the
//! typed [`FaultError`] from
//! [`FaultPlan::send_retry_charge`], never as arithmetic corruption;
//! resolving deaths against a cluster they fully annihilate surfaces as
//! [`FaultError::AllRanksDead`].

use crate::cluster::ClusterSpec;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Retry/timeout/backoff semantics for lossy links.
///
/// A dropped attempt `i` (0-based) costs `timeout + min(backoff_base ·
/// 2ⁱ, backoff_max)` of the sender's virtual time before the next
/// attempt; the successful attempt then pays the normal network cost.
/// The total charge for `d` drops is therefore monotone in `d` and never
/// exceeds `d · (timeout + backoff_max)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retransmissions allowed after the first attempt; a message whose
    /// drop schedule exceeds this count exhausts its retries.
    pub max_retries: u32,
    /// Virtual time lost detecting each dropped attempt.
    pub timeout: SimTime,
    /// Backoff before the first retransmission; doubles per attempt.
    pub backoff_base: SimTime,
    /// Cap on the exponential backoff.
    pub backoff_max: SimTime,
}

impl Default for RetryPolicy {
    /// Generous defaults scaled to the Sunwulf interconnect (0.3 ms
    /// latency): exhaustion never occurs below ~99.9% drop rates.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 8,
            timeout: SimTime::from_millis(5.0),
            backoff_base: SimTime::from_millis(1.0),
            backoff_max: SimTime::from_millis(20.0),
        }
    }
}

impl RetryPolicy {
    /// Total virtual time charged for `failed_attempts` consecutive
    /// drops (not including the eventual successful transfer).
    pub fn charge_for(&self, failed_attempts: u32) -> SimTime {
        let mut total = SimTime::ZERO;
        let mut backoff = self.backoff_base;
        for _ in 0..failed_attempts {
            total += self.timeout + backoff.min(self.backoff_max);
            backoff = backoff + backoff;
        }
        total
    }
}

/// Typed fault-model failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultError {
    /// A message's drop schedule outlasted the retry policy.
    RetriesExhausted {
        /// Sending rank.
        source: usize,
        /// Destination rank.
        dest: usize,
        /// Per-link message index (0-based).
        msg_index: u64,
        /// Attempts made (`max_retries + 1`), all dropped.
        attempts: u32,
    },
    /// The plan declares every rank dead: no surviving cluster exists.
    AllRanksDead {
        /// Size of the cluster the plan was resolved against.
        cluster_size: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RetriesExhausted { source, dest, msg_index, attempts } => write!(
                f,
                "retries exhausted: message {msg_index} on link {source}->{dest} \
                 dropped on all {attempts} attempts"
            ),
            FaultError::AllRanksDead { cluster_size } => {
                write!(f, "fault plan kills every node of the {cluster_size}-rank cluster")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// How a run recovers from a mid-computation node death (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Coordinated checkpoints every `interval_secs` of estimated
    /// progress; on a death the machine detects the failure, rolls back
    /// to the last checkpoint, and replays the lost work at full
    /// strength (the dead node restarts).
    CheckpointRestart {
        /// Virtual seconds of progress between coordinated checkpoints.
        interval_secs: f64,
    },
    /// No checkpoints: on a death the survivors detect the failure,
    /// drop the dead rank, repartition the remaining rows by surviving
    /// marked speed (`hetpart::rebalance`), and redo the dead rank's
    /// in-flight work on the shrunken machine.
    ShrinkRebalance,
}

/// Fixed latency of one coordinated checkpoint, independent of size —
/// the coordination barrier plus the I/O setup cost.
pub const CHECKPOINT_LATENCY_SECS: f64 = 0.02;

/// Bandwidth of the checkpoint store. Deliberately of the same order as
/// the Sunwulf interconnect: checkpoints go to a shared filer, not to
/// node-local disk.
pub const CHECKPOINT_BANDWIDTH_BYTES_PER_SEC: f64 = 5.0e7;

/// Bandwidth at which repartition traffic moves during shrink-rebalance
/// recovery (survivors reload state over the shared interconnect).
pub const REBALANCE_BANDWIDTH_BYTES_PER_SEC: f64 = 1.25e7;

/// Default timeout of the heartbeat failure detector: how long the
/// survivors wait before declaring a silent rank dead.
pub const DETECT_TIMEOUT_SECS: f64 = 0.05;

/// Virtual-time cost of writing `bytes` of checkpoint state: latency
/// plus bytes over store bandwidth, the seconds `kernels::recover`
/// hands the runtime's local `charge` op for each checkpoint.
pub fn checkpoint_cost_secs(bytes: u64) -> f64 {
    CHECKPOINT_LATENCY_SECS + bytes as f64 / CHECKPOINT_BANDWIDTH_BYTES_PER_SEC
}

/// Young/Daly optimal checkpoint interval `sqrt(2 · δ · MTBF)` for a
/// per-checkpoint cost `delta_secs` and a system MTBF — the analytic
/// baseline the R2 sweep's measured optimum is checked against.
pub fn daly_interval(mtbf_secs: f64, delta_secs: f64) -> f64 {
    (2.0 * delta_secs * mtbf_secs).sqrt()
}

/// Where a mid-run recovery's overhead went, in virtual seconds summed
/// over ranks: the quantities the runtime charges as `Checkpoint`,
/// `Detect`, `LostWork` and `Rebalance` spans, recomputed in closed form
/// by the recovery driver for reporting (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecoveryOverhead {
    /// Checkpoint I/O tax: every coordinated checkpoint, every rank,
    /// paid whether or not anything fails.
    pub checkpoint_secs: f64,
    /// Failure-detector timeouts charged when a death fires.
    pub detect_secs: f64,
    /// Work rolled back and replayed (checkpoint/restart) or recomputed
    /// for the dead rank (shrink-rebalance).
    pub lost_work_secs: f64,
    /// Repartition traffic absorbed by the survivors.
    pub rebalance_secs: f64,
}

impl RecoveryOverhead {
    /// Sum of all four components.
    pub fn total_secs(&self) -> f64 {
        self.checkpoint_secs + self.detect_secs + self.lost_work_secs + self.rebalance_secs
    }
}

impl fmt::Display for RecoveryOverhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery overhead {:.4}s = checkpoint {:.4}s + detect {:.4}s + lost work {:.4}s \
             + rebalance {:.4}s",
            self.total_secs(),
            self.checkpoint_secs,
            self.detect_secs,
            self.lost_work_secs,
            self.rebalance_secs
        )
    }
}

/// The virtual-time cost of a send's failed attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryCharge {
    /// Consecutive dropped attempts before the success.
    pub failed_attempts: u32,
    /// Total timeout + backoff time charged for them.
    pub total: SimTime,
}

/// A complete, seed-driven description of one faulty regime.
///
/// Plans are plain data: two runs with the same plan (and the same
/// program, cluster, and network model) produce bit-identical virtual
/// times, traces, and metrics. An empty plan (no stragglers, zero drop
/// rate, no deaths) leaves every existing code path bit-equal to a
/// fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    stragglers: BTreeMap<usize, f64>,
    drop_per_mille: u16,
    deaths: BTreeSet<usize>,
    mtbf_secs: Option<f64>,
}

impl FaultPlan {
    /// An empty plan: nothing degraded, nothing dropped, nobody dead.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            stragglers: BTreeMap::new(),
            drop_per_mille: 0,
            deaths: BTreeSet::new(),
            mtbf_secs: None,
        }
    }

    /// Permanent straggler: `rank` runs at `multiplier × ` marked speed
    /// from time zero, forever.
    ///
    /// # Panics
    /// Panics unless `multiplier` is finite and `> 0` (a truly dead node
    /// is a death, not a multiplier — zero would stall virtual time
    /// forever), and when `rank` already has a multiplier.
    pub fn with_straggler(mut self, rank: usize, multiplier: f64) -> FaultPlan {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "speed multiplier must be finite and > 0 (got {multiplier})"
        );
        let previous = self.stragglers.insert(rank, multiplier);
        assert!(previous.is_none(), "rank {rank} already has a straggler multiplier");
        self
    }

    /// Makes every point-to-point link drop each attempt with
    /// probability `per_mille / 1000` (independently, per the seeded
    /// schedule).
    ///
    /// # Panics
    /// Panics when `per_mille ≥ 1000` (a link that never delivers can
    /// never finish).
    pub fn with_link_drops(mut self, per_mille: u16) -> FaultPlan {
        assert!(per_mille < 1000, "drop rate must be < 1000 per mille");
        self.drop_per_mille = per_mille;
        self
    }

    /// Declares `rank` dead. Deaths are resolved before launch (see the
    /// module docs): the dead rank is excluded by
    /// [`FaultPlan::surviving_cluster`] and its work repartitioned.
    pub fn with_death(mut self, rank: usize) -> FaultPlan {
        self.deaths.insert(rank);
        self
    }

    /// Turns on the MTBF-driven failure stream: each rank draws one
    /// exponential death time with the given mean from the plan seed
    /// (see [`FaultPlan::sampled_death_time`]). Sampled deaths are
    /// *mid-run* events handled by a [`RecoveryPolicy`], unlike the
    /// declared deaths of [`FaultPlan::with_death`] which are resolved
    /// before launch.
    ///
    /// # Panics
    /// Panics unless `mtbf_secs` is finite and `> 0`.
    pub fn with_mtbf(mut self, mtbf_secs: f64) -> FaultPlan {
        assert!(mtbf_secs.is_finite() && mtbf_secs > 0.0, "MTBF must be finite and > 0");
        self.mtbf_secs = Some(mtbf_secs);
        self
    }

    /// The seeded exponential death time of `rank`, or `None` when no
    /// MTBF stream is configured. Pure in `(seed, rank, mtbf)`: the
    /// inverse-CDF transform of a `mix64`-derived uniform in `(0, 1]`,
    /// so the stream is deterministic, seed-sensitive, and independent
    /// across ranks — and domain-separated from the link-drop schedule.
    pub fn sampled_death_time(&self, rank: usize) -> Option<SimTime> {
        let mtbf = self.mtbf_secs?;
        // Distinct stream tag keeps death rolls off the drop schedule.
        let h = mix64(
            mix64(self.seed ^ 0xdead_5eed_0f01_d1e5) ^ (rank as u64).wrapping_mul(0x9e37_79b9),
        );
        // 53 high bits → uniform in (0, 1]; u = 0 is impossible, so the
        // log below is always finite.
        let u = ((h >> 11) as f64 + 1.0) / 9_007_199_254_740_992.0;
        Some(SimTime::from_secs(-mtbf * u.ln()))
    }

    /// The first sampled death among `p` ranks: `(rank, time)` of the
    /// earliest exponential draw (ties break to the lower rank), or
    /// `None` when no MTBF stream is configured.
    pub fn first_sampled_death(&self, p: usize) -> Option<(usize, SimTime)> {
        (0..p).filter_map(|r| self.sampled_death_time(r).map(|t| (r, t))).min_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("death times are finite").then(a.0.cmp(&b.0))
        })
    }

    /// Link drop probability in per-mille.
    pub fn drop_per_mille(&self) -> u16 {
        self.drop_per_mille
    }

    /// Declared dead ranks.
    pub fn deaths(&self) -> &BTreeSet<usize> {
        &self.deaths
    }

    /// The speed multiplier of `rank`, or `None` when it runs at its
    /// marked speed (callers use this to keep the fault-free arithmetic
    /// path untouched).
    pub fn straggler(&self, rank: usize) -> Option<f64> {
        self.stragglers.get(&rank).copied()
    }

    /// Whether a run on `ranks` ranks under this plan has anything the
    /// runtime must price per op: a straggler on a rank below `ranks`,
    /// or a nonzero link-drop rate. Declared deaths (resolved before
    /// launch) and an MTBF stream (placed by `kernels::recover`) do
    /// not count, so a plan for which this is false prices exactly like
    /// no plan at all.
    pub fn injects_runtime_faults(&self, ranks: usize) -> bool {
        self.drop_per_mille > 0 || self.stragglers.range(..ranks).next().is_some()
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty()
            && self.drop_per_mille == 0
            && self.deaths.is_empty()
            && self.mtbf_secs.is_none()
    }

    /// Number of consecutive dropped attempts the schedule assigns to
    /// message `msg_index` on link `source → dest`, capped at
    /// `max_retries + 1` (the exhaustion threshold).
    pub fn planned_drops(&self, source: usize, dest: usize, msg_index: u64) -> u32 {
        if self.drop_per_mille == 0 {
            return 0;
        }
        let threshold = self.drop_per_mille as u64;
        let cap = RetryPolicy::default().max_retries + 1;
        let mut drops = 0u32;
        while drops < cap
            && attempt_roll(self.seed, source, dest, msg_index, drops) % 1000 < threshold
        {
            drops += 1;
        }
        drops
    }

    /// The virtual-time retry charge for one send, or the typed error
    /// when the drop schedule exhausts the retry budget.
    pub fn send_retry_charge(
        &self,
        source: usize,
        dest: usize,
        msg_index: u64,
    ) -> Result<RetryCharge, FaultError> {
        let retry = RetryPolicy::default();
        let drops = self.planned_drops(source, dest, msg_index);
        if drops > retry.max_retries {
            return Err(FaultError::RetriesExhausted { source, dest, msg_index, attempts: drops });
        }
        Ok(RetryCharge { failed_attempts: drops, total: retry.charge_for(drops) })
    }

    /// Original rank indices still alive out of `p` ranks.
    pub fn survivors(&self, p: usize) -> Vec<usize> {
        (0..p).filter(|r| !self.deaths.contains(r)).collect()
    }

    /// The cluster with every declared-dead rank removed. Returns the
    /// cluster unchanged when nobody died.
    ///
    /// # Errors
    /// [`FaultError::AllRanksDead`] when the plan kills every node.
    pub fn surviving_cluster(&self, cluster: &ClusterSpec) -> Result<ClusterSpec, FaultError> {
        let keep = self.survivors(cluster.size());
        if keep.len() == cluster.size() {
            return Ok(cluster.clone());
        }
        if keep.is_empty() {
            return Err(FaultError::AllRanksDead { cluster_size: cluster.size() });
        }
        Ok(ClusterSpec::new(
            format!("{}-survivors", cluster.label),
            keep.iter().map(|&i| cluster.nodes()[i].clone()).collect(),
        )
        .expect("survivor list is non-empty"))
    }

    /// The plan re-expressed for the surviving ranks: deaths cleared,
    /// straggler multipliers re-keyed to the survivors' compacted rank
    /// ids (entries for dead ranks dropped). Use together with
    /// [`FaultPlan::surviving_cluster`] before launching the degraded
    /// run.
    pub fn for_survivors(&self, p: usize) -> FaultPlan {
        let stragglers = self
            .survivors(p)
            .iter()
            .enumerate()
            .filter_map(|(new_id, &old_id)| self.straggler(old_id).map(|m| (new_id, m)))
            .collect();
        FaultPlan {
            seed: self.seed,
            stragglers,
            drop_per_mille: self.drop_per_mille,
            deaths: BTreeSet::new(),
            mtbf_secs: self.mtbf_secs,
        }
    }
}

/// Stateless 64-bit mix (Murmur3 finalizer): the only source of
/// "randomness" behind both seeded schedules — link drops
/// ([`attempt_roll`]) and MTBF death times
/// ([`FaultPlan::sampled_death_time`]).
fn mix64(mut z: u64) -> u64 {
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^= z >> 33;
    z
}

/// Drop roll keyed on the full attempt identity: whether attempt `a` of
/// message `k` on link `(s, d)` drops is independent across all four.
fn attempt_roll(seed: u64, source: usize, dest: usize, msg_index: u64, attempt: u32) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in [source as u64, dest as u64, msg_index, attempt as u64] {
        h = mix64(h ^ v.wrapping_add(0x2545_f491_4f6c_dd1d));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_charges_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert_eq!(plan.planned_drops(0, 1, 0), 0);
        let charge = plan.send_retry_charge(0, 1, 0).unwrap();
        assert_eq!(charge.failed_attempts, 0);
        assert_eq!(charge.total, SimTime::ZERO);
        assert!(plan.straggler(0).is_none());
    }

    #[test]
    #[should_panic(expected = "already has a straggler multiplier")]
    fn a_second_straggler_on_one_rank_panics() {
        let _ = FaultPlan::new(1).with_straggler(0, 0.5).with_straggler(0, 0.25);
    }

    #[test]
    #[should_panic(expected = "multiplier")]
    fn zero_multiplier_is_rejected() {
        let _ = FaultPlan::new(1).with_straggler(0, 0.0);
    }

    #[test]
    fn drop_schedule_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(42).with_link_drops(500);
        let b = FaultPlan::new(42).with_link_drops(500);
        let c = FaultPlan::new(43).with_link_drops(500);
        let schedule =
            |p: &FaultPlan| (0..64).map(|k| p.planned_drops(0, 1, k)).collect::<Vec<_>>();
        assert_eq!(schedule(&a), schedule(&b));
        assert_ne!(schedule(&a), schedule(&c), "different seeds should differ somewhere");
        // At 50% some messages must drop and some must not.
        assert!(schedule(&a).iter().any(|&d| d > 0));
        assert!(schedule(&a).contains(&0));
    }

    #[test]
    fn drop_rate_scales_with_per_mille() {
        let count = |per_mille: u16| {
            let plan = FaultPlan::new(9).with_link_drops(per_mille);
            (0..1000).filter(|&k| plan.planned_drops(0, 1, k) > 0).count()
        };
        let light = count(50);
        let heavy = count(500);
        assert!(light < heavy, "light {light} vs heavy {heavy}");
        assert!((400..600).contains(&heavy), "≈50% expected, got {heavy}/1000");
    }

    #[test]
    fn exhaustion_surfaces_typed_error() {
        let plan = FaultPlan::new(3).with_link_drops(999);
        // With a 99.9% drop rate, a message exhausts the default 8
        // retries with probability 0.999^9 ≈ 0.99, so some message on
        // the link must exhaust.
        let err = (0..64)
            .find_map(|k| plan.send_retry_charge(0, 1, k).err())
            .expect("an exhausted message");
        let FaultError::RetriesExhausted { source, dest, attempts, .. } = err else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert_eq!((source, dest), (0, 1));
        assert_eq!(attempts, RetryPolicy::default().max_retries + 1);
        assert!(err.to_string().contains("retries exhausted"));
    }

    #[test]
    fn survivors_and_surviving_cluster() {
        let plan = FaultPlan::new(1).with_death(1);
        let cluster = ClusterSpec::homogeneous(3, 50.0);
        assert_eq!(plan.survivors(3), vec![0, 2]);
        let surv = plan.surviving_cluster(&cluster).unwrap();
        assert_eq!(surv.size(), 2);
        assert_eq!(surv.marked_speed_mflops(), 100.0);
        // Killing everyone is an error.
        let all_dead = FaultPlan::new(1).with_death(0).with_death(1).with_death(2);
        assert!(all_dead.surviving_cluster(&cluster).is_err());
    }

    #[test]
    fn for_survivors_rekeys_degradations() {
        let plan = FaultPlan::new(1).with_death(0).with_straggler(2, 0.5).with_link_drops(100);
        let remapped = plan.for_survivors(3);
        assert!(remapped.deaths().is_empty());
        // Old rank 2 is new rank 1 (survivors are [1, 2]).
        assert_eq!(remapped.straggler(1), Some(0.5));
        assert!(remapped.straggler(0).is_none());
        assert_eq!(remapped.drop_per_mille(), 100);
    }

    // Deterministic grid versions of the retry-math bounds; the
    // randomized (proptest) counterparts live in tests/fault_properties.rs.
    #[test]
    fn retry_charge_is_monotone_and_bounded_on_a_grid() {
        for (timeout_ms, base_ms, max_ms) in
            [(0.0, 0.0, 0.0), (5.0, 1.0, 20.0), (2.0, 10.0, 4.0), (7.5, 0.0, 100.0)]
        {
            let policy = RetryPolicy {
                max_retries: 32,
                timeout: SimTime::from_millis(timeout_ms),
                backoff_base: SimTime::from_millis(base_ms),
                backoff_max: SimTime::from_millis(max_ms),
            };
            let mut prev = SimTime::ZERO;
            for drops in 0u32..32 {
                let charge = policy.charge_for(drops);
                assert!(charge >= prev, "charge must be monotone in drop count");
                let bound = drops as f64 * (policy.timeout + policy.backoff_max).as_secs();
                assert!(
                    charge.as_secs() <= bound + 1e-12,
                    "charge {} exceeds bound {bound}",
                    charge.as_secs()
                );
                prev = charge;
            }
        }
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let policy = RetryPolicy {
            max_retries: 8,
            timeout: SimTime::ZERO,
            backoff_base: SimTime::from_millis(1.0),
            backoff_max: SimTime::from_millis(4.0),
        };
        // Backoffs: 1, 2, 4, 4, 4 ms → cumulative 1, 3, 7, 11, 15 ms.
        let expected = [0.0, 1.0, 3.0, 7.0, 11.0, 15.0];
        for (drops, ms) in expected.iter().enumerate() {
            assert!(
                (policy.charge_for(drops as u32).as_millis() - ms).abs() < 1e-12,
                "drops = {drops}"
            );
        }
    }

    #[test]
    fn mtbf_stream_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(42).with_mtbf(100.0);
        let b = FaultPlan::new(42).with_mtbf(100.0);
        let c = FaultPlan::new(43).with_mtbf(100.0);
        let stream =
            |p: &FaultPlan| (0..16).map(|r| p.sampled_death_time(r).unwrap()).collect::<Vec<_>>();
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c), "different seeds should differ somewhere");
        assert!(stream(&a).iter().all(|t| t.is_finite() && t.as_secs() > 0.0));
        // No MTBF ⇒ no stream.
        assert!(FaultPlan::new(42).sampled_death_time(0).is_none());
        assert!(FaultPlan::new(42).first_sampled_death(16).is_none());
    }

    #[test]
    fn mtbf_draws_have_roughly_exponential_mean() {
        // Sample mean over many ranks should land near the MTBF; the
        // draws are fixed by the seed so this is a deterministic check,
        // not a statistical one.
        let mtbf = 50.0;
        let plan = FaultPlan::new(7).with_mtbf(mtbf);
        let n = 4096;
        let sum: f64 = (0..n).map(|r| plan.sampled_death_time(r).unwrap().as_secs()).sum();
        let mean = sum / n as f64;
        assert!((mean - mtbf).abs() / mtbf < 0.1, "mean {mean} vs mtbf {mtbf}");
    }

    #[test]
    fn first_sampled_death_is_the_minimum() {
        let plan = FaultPlan::new(11).with_mtbf(30.0);
        let (rank, at) = plan.first_sampled_death(8).unwrap();
        for r in 0..8 {
            assert!(plan.sampled_death_time(r).unwrap() >= at, "rank {r} dies before {rank}");
        }
        assert_eq!(plan.sampled_death_time(rank).unwrap(), at);
    }

    #[test]
    fn mtbf_extends_equality_and_emptiness() {
        let base = FaultPlan::new(5);
        let with = FaultPlan::new(5).with_mtbf(120.0);
        assert!(base.is_empty());
        assert!(!with.is_empty());
        assert_ne!(base, with);
        assert_ne!(with, FaultPlan::new(5).with_mtbf(121.0));
        // for_survivors carries the stream along.
        assert_eq!(with.for_survivors(4), with);
    }

    #[test]
    fn mtbf_alone_is_not_a_runtime_fault() {
        let plan = FaultPlan::new(3).with_mtbf(5.0);
        assert!(!plan.injects_runtime_faults(3));
        let plan = plan.with_straggler(1, 0.5);
        assert!(plan.injects_runtime_faults(3));
        // A straggler past the run's last rank slows nobody down.
        assert!(!plan.injects_runtime_faults(1));
        // Neither does a declared death, which is resolved before launch.
        assert!(!FaultPlan::new(3).with_death(0).injects_runtime_faults(3));
        assert!(FaultPlan::new(3).with_link_drops(1).injects_runtime_faults(1));
    }

    #[test]
    fn all_ranks_dead_is_typed() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let plan = FaultPlan::new(1).with_death(0).with_death(1);
        let err = plan.surviving_cluster(&cluster).unwrap_err();
        assert_eq!(err, FaultError::AllRanksDead { cluster_size: 2 });
        assert!(err.to_string().contains("kills every node"));
    }

    #[test]
    fn daly_interval_matches_closed_form() {
        // sqrt(2 · δ · MTBF): δ = 2 s, MTBF = 100 s ⇒ 20 s.
        assert!((daly_interval(100.0, 2.0) - 20.0).abs() < 1e-12);
        // Longer MTBF ⇒ sparser checkpoints; costlier checkpoints too.
        assert!(daly_interval(400.0, 2.0) > daly_interval(100.0, 2.0));
        assert!(daly_interval(100.0, 8.0) > daly_interval(100.0, 2.0));
    }

    #[test]
    fn checkpoint_cost_is_latency_plus_transfer() {
        assert_eq!(checkpoint_cost_secs(0), CHECKPOINT_LATENCY_SECS);
        let bytes = 1_000_000u64;
        let expected = CHECKPOINT_LATENCY_SECS + bytes as f64 / CHECKPOINT_BANDWIDTH_BYTES_PER_SEC;
        assert_eq!(checkpoint_cost_secs(bytes), expected);
    }
}

//! Execution tracing: per-operation virtual-time records.
//!
//! Theorem 1 explains scalability through `t₀` (sequential portion) and
//! `T_o` (communication overhead); a trace splits `T_o` further by
//! operation kind — broadcast, barrier, point-to-point, idle-wait — so
//! the *source* of lost scalability is visible per configuration. The
//! overhead-decomposition experiment builds directly on this module.

use hetsim_cluster::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// What a span of rank time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Floating-point (or otherwise accounted local) computation.
    Compute,
    /// Occupying the wire to send a point-to-point message.
    Send,
    /// Receiving a point-to-point message: the span the transfer is in
    /// flight and the receiver is engaged with it.
    Recv,
    /// Idle time blocked on a peer: waiting for a sender to start
    /// transmitting, for stragglers to reach a barrier, or for gather
    /// contributions to arrive. Pure load-imbalance time — no wire or
    /// CPU is occupied.
    Wait,
    /// Barrier synchronization.
    Barrier,
    /// Broadcast participation (root or receiver).
    Bcast,
    /// Gather/reduce participation.
    Gather,
    /// Scatter participation.
    Scatter,
    /// Timeout + backoff time lost to dropped send attempts under a
    /// fault plan's lossy-link model (see `hetsim_cluster::faults`).
    /// Pure overhead: the wire carries nothing useful during it.
    Retry,
    /// Writing checkpoint state to the shared store (recovery protocol,
    /// DESIGN.md §12). Pure overhead: insurance against future deaths.
    Checkpoint,
    /// Failure-detector timeout: the span survivors wait before
    /// declaring a silent rank dead.
    Detect,
    /// Re-executing work lost to a death — everything since the last
    /// checkpoint (or since the start, for shrink-rebalance).
    LostWork,
    /// Repartition traffic while shrink-rebalance recovery moves state
    /// onto the survivors.
    Rebalance,
}

impl OpKind {
    /// All kinds, in display order.
    pub const ALL: [OpKind; 13] = [
        OpKind::Compute,
        OpKind::Send,
        OpKind::Recv,
        OpKind::Wait,
        OpKind::Barrier,
        OpKind::Bcast,
        OpKind::Gather,
        OpKind::Scatter,
        OpKind::Retry,
        OpKind::Checkpoint,
        OpKind::Detect,
        OpKind::LostWork,
        OpKind::Rebalance,
    ];

    /// Short label.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Compute => "compute",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
            OpKind::Wait => "wait",
            OpKind::Barrier => "barrier",
            OpKind::Bcast => "bcast",
            OpKind::Gather => "gather",
            OpKind::Scatter => "scatter",
            OpKind::Retry => "retry",
            OpKind::Checkpoint => "checkpoint",
            OpKind::Detect => "detect",
            OpKind::LostWork => "lost-work",
            OpKind::Rebalance => "rebalance",
        }
    }

    /// True for kinds that count toward communication overhead `T_o`
    /// (everything except compute; idle-wait is overhead — it is lost
    /// time the paper's `T_o` absorbs, and so is every recovery span:
    /// checkpoints, detector timeouts, replayed lost work, and
    /// repartition traffic all buy no new results).
    pub fn is_overhead(self) -> bool {
        match self {
            OpKind::Compute => false,
            OpKind::Send
            | OpKind::Recv
            | OpKind::Wait
            | OpKind::Barrier
            | OpKind::Bcast
            | OpKind::Gather
            | OpKind::Scatter
            | OpKind::Retry
            | OpKind::Checkpoint
            | OpKind::Detect
            | OpKind::LostWork
            | OpKind::Rebalance => true,
        }
    }

    /// Parses the short label produced by [`OpKind::name`].
    pub fn from_name(name: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One traced span of one rank's virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// The operation kind.
    pub kind: OpKind,
    /// Virtual time the span began.
    pub start: SimTime,
    /// Virtual time the span ended (≥ start).
    pub end: SimTime,
    /// Payload bytes involved (0 for compute, barrier, and wait).
    pub bytes: u64,
    /// The other rank involved, when there is exactly one: the
    /// destination of a send, the source of a receive (and of the wait
    /// preceding it), the root of a broadcast/scatter seen from a
    /// receiver or of a gather seen from a contributor. `None` for
    /// compute, barriers, and root-side collective spans. Critical-path
    /// extraction follows these edges.
    pub peer: Option<usize>,
}

impl TraceRecord {
    /// Span duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// One rank's complete trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// Records in program order (non-overlapping, non-decreasing).
    pub records: Vec<TraceRecord>,
}

/// One rank's time per operation kind: each span's `end − start` added
/// to its kind's total in program order. A zero-length span still makes
/// its kind present. [`RankTrace::by_kind`] folds recorded spans through
/// it; a closed form charges it directly, without recording a span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindTotals {
    /// Indexed by `OpKind as usize`, which is the kind's place in
    /// [`OpKind::ALL`].
    secs: [SimTime; OpKind::ALL.len()],
    /// Bit `OpKind as usize` is set once a span of that kind is added.
    present: u16,
}

impl KindTotals {
    /// Adds the span `[start, end]` of `kind`.
    #[inline]
    pub fn add(&mut self, kind: OpKind, start: SimTime, end: SimTime) {
        let k = kind as usize;
        self.secs[k] += end - start;
        self.present |= 1 << k;
    }

    /// Each present kind with its total, in [`OpKind`] order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, SimTime)> + '_ {
        OpKind::ALL
            .into_iter()
            .filter(|&k| self.present & (1 << k as usize) != 0)
            .map(|k| (k, self.secs[k as usize]))
    }
}

impl RankTrace {
    /// Total time per operation kind.
    pub fn by_kind(&self) -> BTreeMap<OpKind, SimTime> {
        let mut totals = KindTotals::default();
        for r in &self.records {
            totals.add(r.kind, r.start, r.end);
        }
        totals.iter().collect()
    }

    /// Total traced time.
    pub fn total(&self) -> SimTime {
        self.records.iter().fold(SimTime::ZERO, |acc, r| acc + r.duration())
    }

    /// Total communication-overhead time (everything but compute).
    pub fn overhead(&self) -> SimTime {
        self.records
            .iter()
            .filter(|r| r.kind.is_overhead())
            .fold(SimTime::ZERO, |acc, r| acc + r.duration())
    }

    /// Total idle-wait time (the [`OpKind::Wait`] share of overhead).
    pub fn wait(&self) -> SimTime {
        self.records
            .iter()
            .filter(|r| r.kind == OpKind::Wait)
            .fold(SimTime::ZERO, |acc, r| acc + r.duration())
    }
}

/// Aggregated decomposition across all ranks of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadBreakdown {
    /// Summed time per kind across ranks.
    pub per_kind: BTreeMap<OpKind, f64>,
    /// Total time across ranks.
    pub total: f64,
}

impl OverheadBreakdown {
    /// Builds the breakdown from per-rank traces.
    pub fn from_traces(traces: &[RankTrace]) -> OverheadBreakdown {
        OverheadBreakdown::from_rank_totals(traces.iter().map(RankTrace::by_kind))
    }

    /// Builds the breakdown from each rank's time per kind, in rank
    /// order: a traced run's [`RankTrace::by_kind`], or the
    /// [`KindTotals`] a closed form charges. The fold runs rank by rank,
    /// then kind by kind in [`OpKind`] order, so equal per-rank totals
    /// give an equal breakdown, bit for bit.
    pub fn from_rank_totals<R>(ranks: impl IntoIterator<Item = R>) -> OverheadBreakdown
    where
        R: IntoIterator<Item = (OpKind, SimTime)>,
    {
        let mut per_kind: BTreeMap<OpKind, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (kind, dur) in ranks.into_iter().flatten() {
            *per_kind.entry(kind).or_insert(0.0) += dur.as_secs();
            total += dur.as_secs();
        }
        OverheadBreakdown { per_kind, total }
    }

    /// Fraction of total time spent in `kind` (0 when untraced).
    pub fn fraction(&self, kind: OpKind) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        self.per_kind.get(&kind).copied().unwrap_or(0.0) / self.total
    }

    /// Fraction of total time that is communication overhead.
    pub fn overhead_fraction(&self) -> f64 {
        OpKind::ALL.iter().filter(|k| k.is_overhead()).map(|&k| self.fraction(k)).sum()
    }
}

impl fmt::Display for OverheadBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for kind in OpKind::ALL {
            let frac = self.fraction(kind);
            if frac == 0.0 {
                continue;
            }
            let secs = self.per_kind.get(&kind).copied().unwrap_or(0.0);
            let bar_len = (frac * 40.0).round() as usize;
            writeln!(
                f,
                "{:>8}  {:>9.4}s  {:>5.1}%  {}",
                kind.name(),
                secs,
                frac * 100.0,
                "#".repeat(bar_len)
            )?;
        }
        Ok(())
    }
}

/// Renders per-rank traces as a fixed-width text Gantt chart.
///
/// Each rank becomes one row of `width` cells covering `[0, horizon]`;
/// a cell shows the operation occupying most of its time slice
/// (`.` compute, `B` bcast, `b` barrier, `s`/`r` point-to-point,
/// `~` idle-wait, `g` gather, `x` scatter, `!` retry, `C` checkpoint,
/// `d` detect, `L` lost work, `R` rebalance, space for untraced gaps).
pub fn timeline_text(traces: &[RankTrace], width: usize) -> String {
    assert!(width > 0, "timeline needs a positive width");
    let horizon = traces
        .iter()
        .filter_map(|t| t.records.last().map(|r| r.end.as_secs()))
        .fold(0.0f64, f64::max);
    if horizon == 0.0 {
        return String::new();
    }
    let glyph = |k: OpKind| match k {
        OpKind::Compute => '.',
        OpKind::Send => 's',
        OpKind::Recv => 'r',
        OpKind::Wait => '~',
        OpKind::Barrier => 'b',
        OpKind::Bcast => 'B',
        OpKind::Gather => 'g',
        OpKind::Scatter => 'x',
        OpKind::Retry => '!',
        OpKind::Checkpoint => 'C',
        OpKind::Detect => 'd',
        OpKind::LostWork => 'L',
        OpKind::Rebalance => 'R',
    };
    let cell_dt = horizon / width as f64;
    let mut out = String::new();
    for (rank, trace) in traces.iter().enumerate() {
        let mut row = vec![' '; width];
        for (i, slot) in row.iter_mut().enumerate() {
            let lo = i as f64 * cell_dt;
            let hi = lo + cell_dt;
            // Operation with the largest overlap in [lo, hi).
            let mut best = None;
            let mut best_overlap = 0.0f64;
            for r in &trace.records {
                let overlap = (r.end.as_secs().min(hi) - r.start.as_secs().max(lo)).max(0.0);
                if overlap > best_overlap {
                    best_overlap = overlap;
                    best = Some(r.kind);
                }
            }
            if let Some(k) = best {
                *slot = glyph(k);
            }
        }
        out.push_str(&format!("rank {rank:>3} |{}|\n", row.iter().collect::<String>()));
    }
    out.push_str(&format!(
        "legend: .=compute B=bcast b=barrier s=send r=recv ~=wait g=gather x=scatter !=retry \
         C=checkpoint d=detect L=lost-work R=rebalance  (span {horizon:.4}s)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: OpKind, start: f64, end: f64, bytes: u64) -> TraceRecord {
        TraceRecord {
            kind,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            bytes,
            peer: None,
        }
    }

    fn sample_trace() -> RankTrace {
        RankTrace {
            records: vec![
                rec(OpKind::Compute, 0.0, 1.0, 0),
                rec(OpKind::Bcast, 1.0, 1.2, 800),
                rec(OpKind::Compute, 1.2, 2.2, 0),
                rec(OpKind::Barrier, 2.2, 2.5, 0),
            ],
        }
    }

    #[test]
    fn by_kind_sums_durations() {
        let t = sample_trace();
        let map = t.by_kind();
        assert!((map[&OpKind::Compute].as_secs() - 2.0).abs() < 1e-12);
        assert!((map[&OpKind::Bcast].as_secs() - 0.2).abs() < 1e-12);
        assert!((map[&OpKind::Barrier].as_secs() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn kind_totals_index_kinds_in_display_order() {
        for (i, &k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k}");
        }
    }

    #[test]
    fn kind_totals_keep_zero_length_spans_present() {
        let mut totals = KindTotals::default();
        totals.add(OpKind::Barrier, SimTime::from_secs(1.0), SimTime::from_secs(1.0));
        totals.add(OpKind::Compute, SimTime::ZERO, SimTime::from_secs(0.5));
        let kinds: Vec<(OpKind, SimTime)> = totals.iter().collect();
        assert_eq!(
            kinds,
            [(OpKind::Compute, SimTime::from_secs(0.5)), (OpKind::Barrier, SimTime::ZERO)]
        );
    }

    #[test]
    fn overhead_excludes_compute() {
        let t = sample_trace();
        assert!((t.overhead().as_secs() - 0.5).abs() < 1e-12);
        assert!((t.total().as_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_aggregates_ranks() {
        let traces = vec![sample_trace(), sample_trace()];
        let b = OverheadBreakdown::from_traces(&traces);
        assert!((b.total - 5.0).abs() < 1e-12);
        assert!((b.fraction(OpKind::Compute) - 0.8).abs() < 1e-12);
        assert!((b.overhead_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = OverheadBreakdown::from_traces(&[]);
        assert_eq!(b.total, 0.0);
        assert_eq!(b.fraction(OpKind::Compute), 0.0);
        assert_eq!(b.overhead_fraction(), 0.0);
    }

    #[test]
    fn display_renders_bars_and_percentages() {
        let b = OverheadBreakdown::from_traces(&[sample_trace()]);
        let s = format!("{b}");
        assert!(s.contains("compute"));
        assert!(s.contains("80.0%"));
        assert!(s.contains('#'));
        // Kinds with zero time are omitted.
        assert!(!s.contains("scatter"));
    }

    #[test]
    fn timeline_renders_rows_and_legend() {
        let traces = vec![sample_trace(), sample_trace()];
        let text = timeline_text(&traces, 50);
        assert_eq!(text.matches("rank").count(), 2);
        assert!(text.contains('.'), "compute glyph expected");
        assert!(text.contains('B') || text.contains('b'));
        assert!(text.contains("legend"));
    }

    #[test]
    fn timeline_of_empty_traces_is_empty() {
        assert_eq!(timeline_text(&[RankTrace::default()], 40), "");
    }

    #[test]
    fn timeline_proportions_reflect_durations() {
        // 80% compute → roughly 80% of glyphs are dots.
        let text = timeline_text(&[sample_trace()], 100);
        let row = text.lines().next().unwrap();
        let dots = row.matches('.').count();
        assert!((70..=90).contains(&dots), "dots = {dots}");
    }

    #[test]
    fn op_kind_overhead_classification() {
        assert!(!OpKind::Compute.is_overhead());
        for k in OpKind::ALL.into_iter().filter(|&k| k != OpKind::Compute) {
            assert!(k.is_overhead(), "{k} must count as overhead");
        }
    }

    #[test]
    fn op_kind_names_roundtrip() {
        for k in OpKind::ALL {
            assert_eq!(OpKind::from_name(k.name()), Some(k));
        }
        assert_eq!(OpKind::from_name("nonsense"), None);
    }

    #[test]
    fn wait_sums_only_wait_spans() {
        let t = RankTrace {
            records: vec![
                rec(OpKind::Compute, 0.0, 1.0, 0),
                rec(OpKind::Wait, 1.0, 1.5, 0),
                rec(OpKind::Barrier, 1.5, 1.7, 0),
                rec(OpKind::Wait, 1.7, 1.9, 0),
            ],
        };
        assert!((t.wait().as_secs() - 0.7).abs() < 1e-12);
        assert!((t.overhead().as_secs() - 0.9).abs() < 1e-12);
    }
}

//! Deterministic metrics over virtual time, built from a traced run.
//!
//! [`MetricsSnapshot::from_traces`] aggregates every span of a traced
//! run into counters (span count, bytes moved), gauges (per-rank
//! virtual-clock high-water mark), and fixed-bucket duration histograms
//! — all keyed by `(rank, OpKind)`.
//!
//! Determinism: all quantities derive from *virtual* time, which the
//! runtime guarantees is a pure function of marked speeds, payload
//! sizes, and the network model. Spans are summed rank by rank, each
//! rank's in its program order, so the snapshot is reproducible.

use crate::json::Json;
use hetsim_mpi::trace::{OpKind, RankTrace};
use std::collections::BTreeMap;

/// Number of histogram buckets (see [`bucket_index`]).
pub const HISTOGRAM_BUCKETS: usize = 14;

/// Bucket upper bounds in seconds: bucket `i` holds durations `d` with
/// `EDGES[i-1] <= d < EDGES[i]`; bucket 0 holds `d < 1 ns` (including
/// zero-length spans) and the last bucket holds `d >= 1000 s`.
const EDGES: [f64; HISTOGRAM_BUCKETS - 1] =
    [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3];

/// Fixed-edge bucket index for a span duration in seconds.
pub fn bucket_index(duration_secs: f64) -> usize {
    EDGES.iter().position(|&e| duration_secs < e).unwrap_or(HISTOGRAM_BUCKETS - 1)
}

/// Human-readable label for a bucket ("<1e-9s", "[1e-8s,1e-7s)", ...).
pub fn bucket_label(index: usize) -> String {
    assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
    if index == 0 {
        format!("<{:e}s", EDGES[0])
    } else if index == HISTOGRAM_BUCKETS - 1 {
        format!(">={:e}s", EDGES[index - 1])
    } else {
        format!("[{:e}s,{:e}s)", EDGES[index - 1], EDGES[index])
    }
}

/// Aggregated statistics for one `(rank, OpKind)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStats {
    /// Counter: spans recorded.
    pub count: u64,
    /// Counter: payload bytes moved.
    pub bytes: u64,
    /// Total virtual seconds spent (sum of span durations, accumulated
    /// in the rank's program order — a deterministic f64 sum).
    pub seconds: f64,
    /// Fixed-bucket histogram of span durations.
    pub histogram: [u64; HISTOGRAM_BUCKETS],
}

impl KindStats {
    const ZERO: KindStats =
        KindStats { count: 0, bytes: 0, seconds: 0.0, histogram: [0; HISTOGRAM_BUCKETS] };
}

fn kind_index(kind: OpKind) -> usize {
    OpKind::ALL.iter().position(|&k| k == kind).expect("OpKind::ALL is exhaustive")
}

/// Immutable aggregation result of one observed run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// One entry per rank, indexed by rank id.
    pub per_rank: Vec<RankSnapshot>,
}

/// One rank's aggregated metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSnapshot {
    /// Virtual-clock high-water mark (gauge).
    pub clock: f64,
    /// Statistics per operation kind, indexed in [`OpKind::ALL`] order.
    pub per_kind: [KindStats; OpKind::ALL.len()],
}

impl RankSnapshot {
    /// Statistics for one kind.
    pub fn kind(&self, kind: OpKind) -> &KindStats {
        &self.per_kind[kind_index(kind)]
    }
}

impl MetricsSnapshot {
    /// Aggregates per-rank traces (indexed by rank) into a snapshot,
    /// summing each rank's spans in its program order.
    pub fn from_traces(traces: &[RankTrace]) -> MetricsSnapshot {
        let per_rank = traces
            .iter()
            .map(|trace| {
                let mut rank =
                    RankSnapshot { clock: 0.0, per_kind: [KindStats::ZERO; OpKind::ALL.len()] };
                for record in &trace.records {
                    let duration = record.duration().as_secs();
                    let stats = &mut rank.per_kind[kind_index(record.kind)];
                    stats.count += 1;
                    stats.bytes += record.bytes;
                    stats.seconds += duration;
                    stats.histogram[bucket_index(duration)] += 1;
                    rank.clock = rank.clock.max(record.end.as_secs());
                }
                rank
            })
            .collect();
        MetricsSnapshot { per_rank }
    }

    /// Total virtual seconds per kind, summed across ranks in rank
    /// order.
    pub fn seconds_by_kind(&self) -> BTreeMap<OpKind, f64> {
        let mut out = BTreeMap::new();
        for kind in OpKind::ALL {
            let mut total = 0.0;
            for rank in &self.per_rank {
                total += rank.kind(kind).seconds;
            }
            out.insert(kind, total);
        }
        out
    }

    /// Fraction of total busy-plus-overhead time per kind. Every kind in
    /// [`OpKind::ALL`] is present and the fractions sum to 1 (up to f64
    /// rounding); an empty snapshot attributes everything to compute so
    /// the invariant holds unconditionally.
    pub fn fractions(&self) -> BTreeMap<OpKind, f64> {
        let by_kind = self.seconds_by_kind();
        let total: f64 = by_kind.values().sum();
        if total == 0.0 {
            return OpKind::ALL
                .into_iter()
                .map(|k| (k, if k == OpKind::Compute { 1.0 } else { 0.0 }))
                .collect();
        }
        by_kind.into_iter().map(|(k, s)| (k, s / total)).collect()
    }

    /// Serializes the snapshot as a JSON value with stable field order.
    pub fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("ranks".into(), Json::int(self.per_rank.len() as u64));
        root.insert(
            "fractions".into(),
            Json::Obj(
                self.fractions()
                    .into_iter()
                    .map(|(k, f)| (k.name().to_string(), Json::Num(f)))
                    .collect(),
            ),
        );
        root.insert(
            "seconds_by_kind".into(),
            Json::Obj(
                self.seconds_by_kind()
                    .into_iter()
                    .map(|(k, s)| (k.name().to_string(), Json::Num(s)))
                    .collect(),
            ),
        );
        root.insert(
            "histogram_buckets".into(),
            Json::Arr((0..HISTOGRAM_BUCKETS).map(|i| Json::str(bucket_label(i))).collect()),
        );
        let ranks = self
            .per_rank
            .iter()
            .map(|rank| {
                let mut obj = BTreeMap::new();
                obj.insert("clock".into(), Json::Num(rank.clock));
                let mut kinds = BTreeMap::new();
                for kind in OpKind::ALL {
                    let stats = rank.kind(kind);
                    if stats.count == 0 {
                        continue;
                    }
                    let mut cell = BTreeMap::new();
                    cell.insert("count".into(), Json::int(stats.count));
                    cell.insert("bytes".into(), Json::int(stats.bytes));
                    cell.insert("seconds".into(), Json::Num(stats.seconds));
                    cell.insert(
                        "histogram".into(),
                        Json::Arr(stats.histogram.iter().map(|&c| Json::int(c)).collect()),
                    );
                    kinds.insert(kind.name().to_string(), Json::Obj(cell));
                }
                obj.insert("by_kind".into(), Json::Obj(kinds));
                Json::Obj(obj)
            })
            .collect();
        root.insert("per_rank".into(), Json::Arr(ranks));
        Json::Obj(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::time::SimTime;
    use hetsim_mpi::trace::TraceRecord;

    fn span(kind: OpKind, start: f64, end: f64, bytes: u64) -> TraceRecord {
        TraceRecord {
            kind,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            bytes,
            peer: None,
        }
    }

    fn snapshot(ranks: Vec<Vec<TraceRecord>>) -> MetricsSnapshot {
        let traces: Vec<RankTrace> =
            ranks.into_iter().map(|records| RankTrace { records }).collect();
        MetricsSnapshot::from_traces(&traces)
    }

    #[test]
    fn bucket_edges_classify_durations() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(5e-10), 0);
        assert_eq!(bucket_index(1e-9), 1);
        assert_eq!(bucket_index(0.5), 9); // [1e-1, 1)
        assert_eq!(bucket_index(1.0), 10); // [1, 1e1)
        assert_eq!(bucket_index(2e4), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_labels_cover_all_buckets() {
        let labels: Vec<String> = (0..HISTOGRAM_BUCKETS).map(bucket_label).collect();
        assert!(labels[0].starts_with('<'));
        assert!(labels[HISTOGRAM_BUCKETS - 1].starts_with(">="));
        assert_eq!(labels.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn snapshot_accumulates_counters_and_gauges() {
        let snap = snapshot(vec![
            vec![span(OpKind::Compute, 0.0, 1.0, 0), span(OpKind::Send, 1.0, 1.5, 800)],
            vec![span(OpKind::Recv, 0.0, 1.5, 800)],
        ]);
        assert_eq!(snap.per_rank[0].kind(OpKind::Compute).count, 1);
        assert_eq!(snap.per_rank[0].kind(OpKind::Send).bytes, 800);
        assert!((snap.per_rank[0].clock - 1.5).abs() < 1e-12);
        assert!((snap.per_rank[1].kind(OpKind::Recv).seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_span_durations() {
        let snap = snapshot(vec![vec![
            span(OpKind::Compute, 0.0, 0.5, 0), // bucket 9
            span(OpKind::Compute, 0.5, 0.9, 0), // bucket 9
            span(OpKind::Compute, 0.9, 0.9, 0), // bucket 0
        ]]);
        let h = &snap.per_rank[0].kind(OpKind::Compute).histogram;
        assert_eq!(h[9], 2);
        assert_eq!(h[0], 1);
        assert_eq!(h.iter().sum::<u64>(), 3);
    }

    #[test]
    fn fractions_sum_to_one() {
        let fractions = snapshot(vec![
            vec![span(OpKind::Compute, 0.0, 3.0, 0), span(OpKind::Barrier, 3.0, 4.0, 0)],
            vec![span(OpKind::Wait, 0.0, 2.0, 0)],
        ])
        .fractions();
        assert_eq!(fractions.len(), OpKind::ALL.len());
        let total: f64 = fractions.values().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        assert!((fractions[&OpKind::Compute] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_keeps_fraction_invariant() {
        let fractions = snapshot(vec![Vec::new(); 3]).fractions();
        let total: f64 = fractions.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(fractions[&OpKind::Compute], 1.0);
    }

    #[test]
    fn json_serialization_is_stable() {
        let snap = snapshot(vec![vec![
            span(OpKind::Compute, 0.0, 1.0, 0),
            span(OpKind::Send, 1.0, 1.25, 64),
        ]]);
        let a = snap.to_json().to_string();
        let b = snap.to_json().to_string();
        assert_eq!(a, b);
        // Parses back as valid JSON with the expected top-level shape.
        let parsed = Json::parse(&a).unwrap();
        let obj = parsed.as_obj().unwrap();
        assert!(obj.contains_key("fractions"));
        assert!(obj.contains_key("per_rank"));
        assert_eq!(obj["ranks"].as_num(), Some(1.0));
    }
}

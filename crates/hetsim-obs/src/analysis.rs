//! Analysis passes over per-rank traces: critical-path extraction,
//! per-rank activity (compute / transfer / idle-wait) attribution, and
//! the load-imbalance ratio.
//!
//! All passes are pure functions of the traces, which are themselves
//! deterministic — so every result here is reproducible bit for bit.
//!
//! ## How critical-path extraction works
//!
//! The runtime's conservative semantics make dependency edges
//! recoverable from timestamps alone: whenever a span's end time was
//! imposed by another rank (a receive bound by the sender, a broadcast
//! or scatter receiver bound by the root's departure), the binding span
//! on the other rank ends at the *bit-identical* virtual time, because
//! both ranks computed it from the same inputs. The extractor walks
//! backward from the rank that sets the makespan, hopping to the
//! binding rank at every remotely-bound span (guided by
//! [`TraceRecord::peer`]) and to the latest-arriving rank at every
//! rendezvous (barrier, gather root). Idle-wait spans are never part of
//! the path — the path follows whoever was *busy* making everyone else
//! wait — so in a fully-traced run the returned steps tile the whole
//! `[0, makespan]` interval.

use crate::json::Json;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::{OpKind, RankTrace, TraceRecord};
use std::collections::BTreeMap;

/// One span on the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalStep {
    /// Rank the span executed on.
    pub rank: usize,
    /// Operation kind.
    pub kind: OpKind,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
    /// Payload bytes involved.
    pub bytes: u64,
}

impl CriticalStep {
    /// Span duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// The longest dependency chain of a traced run, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Path spans, earliest first.
    pub steps: Vec<CriticalStep>,
    /// The run's makespan (latest span end across ranks).
    pub makespan: SimTime,
}

impl CriticalPath {
    /// Total time covered by path spans.
    pub fn covered(&self) -> SimTime {
        self.steps.iter().fold(SimTime::ZERO, |acc, s| acc + s.duration())
    }

    /// Fraction of the makespan the path explains; ~1.0 for a fully
    /// traced run (idle never lies on the path, busy spans tile it).
    pub fn coverage(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 1.0;
        }
        self.covered().as_secs() / self.makespan.as_secs()
    }

    /// Path time per operation kind — where the makespan was actually
    /// decided (compute-bound vs. communication-bound).
    pub fn time_by_kind(&self) -> BTreeMap<OpKind, f64> {
        let mut out = BTreeMap::new();
        for s in &self.steps {
            *out.entry(s.kind).or_insert(0.0) += s.duration().as_secs();
        }
        out
    }

    /// Number of times the path hops between ranks.
    pub fn rank_switches(&self) -> usize {
        self.steps.windows(2).filter(|w| w[0].rank != w[1].rank).count()
    }

    /// JSON summary (stable field order).
    pub fn to_json(&self) -> Json {
        let mut root = BTreeMap::new();
        root.insert("makespan".into(), Json::Num(self.makespan.as_secs()));
        root.insert("coverage".into(), Json::Num(self.coverage()));
        root.insert("steps".into(), Json::int(self.steps.len() as u64));
        root.insert("rank_switches".into(), Json::int(self.rank_switches() as u64));
        root.insert(
            "time_by_kind".into(),
            Json::Obj(
                self.time_by_kind()
                    .into_iter()
                    .map(|(k, s)| (k.name().to_string(), Json::Num(s)))
                    .collect(),
            ),
        );
        Json::Obj(root)
    }
}

/// Indices into one rank's records whose `end` equals `t` exactly.
/// Records are time-sorted, so this is a binary search plus a scan over
/// the (almost always tiny) equal-end run.
fn ends_at(trace: &RankTrace, t: SimTime) -> std::ops::Range<usize> {
    let lo = trace.records.partition_point(|r| r.end < t);
    let mut hi = lo;
    while hi < trace.records.len() && trace.records[hi].end == t {
        hi += 1;
    }
    lo..hi
}

/// Finds the span that remotely bound `record`'s end time, when there is
/// one: the matching send for a receive, the root's span for a bound
/// broadcast/scatter receiver, the peer's activity for a peer-attributed
/// wait. Returns the (rank, index) to jump to.
fn remote_binding(
    traces: &[RankTrace],
    rank: usize,
    record: &TraceRecord,
) -> Option<(usize, usize)> {
    let expected = |candidate: &TraceRecord| match record.kind {
        OpKind::Recv => candidate.kind == OpKind::Send && candidate.peer == Some(rank),
        OpKind::Bcast | OpKind::Scatter => {
            candidate.kind == record.kind && candidate.peer.is_none()
        }
        OpKind::Wait => candidate.kind != OpKind::Wait,
        _ => false,
    };
    match record.kind {
        OpKind::Recv | OpKind::Bcast | OpKind::Scatter | OpKind::Wait => {
            let peer = record.peer?;
            if record.duration() == SimTime::ZERO {
                // A free operation (precondition met before entry) is
                // locally bound; its end is the rank's own clock.
                return None;
            }
            ends_at(&traces[peer], record.end)
                .rfind(|&i| expected(&traces[peer].records[i]))
                .map(|i| (peer, i))
        }
        _ => None,
    }
}

/// Finds the latest-arriving rank at a rendezvous time: the non-wait,
/// non-empty span ending exactly at `t`. Lowest rank wins ties, which
/// keeps the walk deterministic.
fn straggler(traces: &[RankTrace], t: SimTime) -> Option<(usize, usize)> {
    for (rank, trace) in traces.iter().enumerate() {
        let hit = ends_at(trace, t).rfind(|&i| {
            let r = &trace.records[i];
            r.kind != OpKind::Wait && r.duration() > SimTime::ZERO
        });
        if let Some(i) = hit {
            return Some((rank, i));
        }
    }
    None
}

/// Extracts the critical path from a fully traced run.
///
/// Returns an empty path for empty traces. The walk is bounded by the
/// total record count, so malformed traces terminate rather than loop.
pub fn critical_path(traces: &[RankTrace]) -> CriticalPath {
    let makespan = traces
        .iter()
        .filter_map(|t| t.records.last().map(|r| r.end))
        .max()
        .unwrap_or(SimTime::ZERO);
    let start = traces.iter().enumerate().find_map(|(rank, t)| {
        t.records.last().filter(|r| r.end == makespan).map(|_| (rank, t.records.len() - 1))
    });
    let Some(mut cur) = start else {
        return CriticalPath { steps: Vec::new(), makespan };
    };

    let cap = traces.iter().map(|t| t.records.len()).sum::<usize>() + traces.len() + 1;
    let mut steps = Vec::new();
    for _ in 0..cap {
        let (rank, idx) = cur;
        let record = traces[rank].records[idx];

        // A remotely-bound span is *explained* by the binding rank:
        // hop there without putting this span on the path.
        if let Some(next) = remote_binding(traces, rank, &record) {
            cur = next;
            continue;
        }

        // Idle never lies on the critical path; everything else with
        // nonzero extent does.
        if record.kind != OpKind::Wait && record.duration() > SimTime::ZERO {
            steps.push(CriticalStep {
                rank,
                kind: record.kind,
                start: record.start,
                end: record.end,
                bytes: record.bytes,
            });
        }

        // Rendezvous operations resume from whichever rank arrived
        // last; everything else continues locally. A peer-less wait
        // (barrier or gather-root wait reached by local fallback) also
        // ends at a rendezvous.
        let rendezvous = match record.kind {
            OpKind::Barrier => Some(record.start),
            OpKind::Gather if record.peer.is_none() => Some(record.start),
            OpKind::Wait if record.peer.is_none() => Some(record.end),
            _ => None,
        };
        let pred = rendezvous
            .filter(|&t| t > SimTime::ZERO)
            .and_then(|t| straggler(traces, t))
            .filter(|&(r, i)| (r, i) != (rank, idx))
            .or_else(|| if idx > 0 { Some((rank, idx - 1)) } else { None });
        match pred {
            Some(p) => cur = p,
            None => break,
        }
    }
    steps.reverse();
    CriticalPath { steps, makespan }
}

/// Per-rank split of virtual time into productive compute, engaged
/// communication (wire occupancy), and pure idle-wait.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankActivity {
    /// Rank id.
    pub rank: usize,
    /// Productive computation time.
    pub compute: SimTime,
    /// Communication time actually engaged with a transfer or
    /// collective (overhead minus idle-wait).
    pub transfer: SimTime,
    /// Idle time blocked on peers (load imbalance).
    pub wait: SimTime,
}

impl RankActivity {
    /// Total accounted time.
    pub fn total(&self) -> SimTime {
        self.compute + self.transfer + self.wait
    }
}

/// Splits each rank's trace into compute / transfer / idle-wait.
pub fn rank_activity(traces: &[RankTrace]) -> Vec<RankActivity> {
    traces
        .iter()
        .enumerate()
        .map(|(rank, t)| {
            let wait = t.wait();
            let overhead = t.overhead();
            RankActivity { rank, compute: t.total() - overhead, transfer: overhead - wait, wait }
        })
        .collect()
}

/// Load-imbalance ratio `max(T_rank) / mean(T_rank)`: 1.0 means a
/// perfectly balanced run, higher means the slowest rank dominates.
/// Degenerate inputs (no ranks, all-zero times) report 1.0.
pub fn load_imbalance(values: &[SimTime]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let max = values.iter().map(|t| t.as_secs()).fold(0.0f64, f64::max);
    let mean = values.iter().map(|t| t.as_secs()).sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim_cluster::cluster::ClusterSpec;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::node::NodeSpec;
    use hetsim_mpi::{run_spmd, RunSpec, Tag};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn net() -> SharedEthernet {
        SharedEthernet::new(1e-3, 1e6)
    }

    #[test]
    fn pipeline_path_crosses_to_the_sender() {
        // Rank 0 computes then sends; rank 1 idles, receives, computes.
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let outcome = run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
            if rank.rank() == 0 {
                rank.compute_flops(1e8); // 1 s
                rank.send_f64s(1, Tag::DATA, &[1.0; 100]);
            } else {
                let _ = rank.recv_f64s(0, Tag::DATA);
                rank.compute_flops(5e7); // 0.5 s
            }
        });
        let path = critical_path(&outcome.traces);
        let kinds: Vec<(usize, OpKind)> = path.steps.iter().map(|s| (s.rank, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![(0, OpKind::Compute), (0, OpKind::Send), (1, OpKind::Compute)],
            "path must go compute@0 → send@0 → compute@1, not through the wait"
        );
        assert!((path.coverage() - 1.0).abs() < 1e-9, "coverage = {}", path.coverage());
        assert_eq!(path.makespan, outcome.makespan());
        assert_eq!(path.rank_switches(), 1);
    }

    #[test]
    fn barrier_path_follows_the_straggler() {
        let cluster = ClusterSpec::new(
            "het2",
            vec![NodeSpec::synthetic("fast", 100.0), NodeSpec::synthetic("slow", 25.0)],
        )
        .unwrap();
        let outcome = run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
            rank.compute_flops(1e8); // 1 s on fast, 4 s on slow
            rank.barrier();
            rank.compute_flops(1e7); // both tails
        });
        let path = critical_path(&outcome.traces);
        // The pre-barrier compute on the path must be the slow rank's.
        let pre_barrier =
            path.steps.iter().take_while(|s| s.kind != OpKind::Barrier).collect::<Vec<_>>();
        assert!(!pre_barrier.is_empty());
        assert!(pre_barrier.iter().all(|s| s.rank == 1), "straggler is rank 1");
        // And the tail compute belongs to the slow rank too (slower tail).
        assert_eq!(path.steps.last().unwrap().rank, 1);
        assert!((path.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_never_contains_wait() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let outcome = run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
            rank.compute_flops(1e6 * (rank.rank() + 1) as f64);
            rank.barrier();
            let _ = rank.gather_f64s(0, &[rank.rank() as f64]);
            rank.barrier();
        });
        let path = critical_path(&outcome.traces);
        assert!(path.steps.iter().all(|s| s.kind != OpKind::Wait));
        assert!(path.coverage() > 0.99, "coverage = {}", path.coverage());
    }

    #[test]
    fn bcast_path_goes_through_the_root() {
        let cluster = ClusterSpec::homogeneous(3, 100.0);
        let outcome = run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
            if rank.rank() == 0 {
                rank.compute_flops(1e8);
                rank.broadcast_f64s(0, Some(&[1.0; 64]));
            } else {
                rank.broadcast_f64s(0, None);
                rank.compute_flops(1e7);
            }
        });
        let path = critical_path(&outcome.traces);
        // Root-side spans: compute then the broadcast itself.
        assert_eq!(
            path.steps[0],
            CriticalStep {
                rank: 0,
                kind: OpKind::Compute,
                start: t(0.0),
                end: path.steps[0].end,
                bytes: 0,
            }
        );
        assert!(path.steps.iter().any(|s| s.kind == OpKind::Bcast && s.rank == 0));
        assert!((path.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_traces_give_empty_path() {
        let path = critical_path(&[]);
        assert!(path.steps.is_empty());
        assert_eq!(path.makespan, SimTime::ZERO);
        assert_eq!(path.coverage(), 1.0);
    }

    #[test]
    fn path_is_deterministic_across_runs() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let run = || {
            let outcome =
                run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
                    rank.compute_flops(1e6 * (rank.rank() + 1) as f64);
                    let _ = rank.allgather_f64s(&[rank.rank() as f64]);
                    rank.barrier();
                });
            critical_path(&outcome.traces)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn path_json_has_expected_shape() {
        let cluster = ClusterSpec::homogeneous(2, 100.0);
        let outcome = run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
            rank.compute_flops(1e7);
            rank.barrier();
        });
        let j = critical_path(&outcome.traces).to_json();
        let obj = j.as_obj().unwrap();
        assert!(obj.contains_key("makespan"));
        assert!(obj.contains_key("time_by_kind"));
        assert!(obj["coverage"].as_num().unwrap() > 0.99);
    }

    #[test]
    fn rank_activity_splits_compute_transfer_wait() {
        let cluster = ClusterSpec::new(
            "het2",
            vec![NodeSpec::synthetic("fast", 100.0), NodeSpec::synthetic("slow", 25.0)],
        )
        .unwrap();
        let outcome = run_spmd(&cluster, &net(), RunSpec { trace: true, faults: None }, |rank| {
            rank.compute_flops(1e8);
            rank.barrier();
        });
        let activity = rank_activity(&outcome.traces);
        // Fast rank waits 3 s for the slow one.
        assert!((activity[0].wait.as_secs() - 3.0).abs() < 1e-9);
        assert_eq!(activity[1].wait, SimTime::ZERO);
        for (a, (tc, to)) in
            activity.iter().zip(outcome.compute_times.iter().zip(outcome.comm_times.iter()))
        {
            assert!((a.compute.as_secs() - tc.as_secs()).abs() < 1e-12);
            assert!(((a.transfer + a.wait).as_secs() - to.as_secs()).abs() < 1e-12);
        }
    }

    #[test]
    fn load_imbalance_ratio() {
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[t(0.0), t(0.0)]), 1.0);
        assert!((load_imbalance(&[t(1.0), t(1.0)]) - 1.0).abs() < 1e-12);
        // max 3, mean 2 → 1.5.
        assert!((load_imbalance(&[t(1.0), t(3.0), t(2.0)]) - 1.5).abs() < 1e-12);
    }
}

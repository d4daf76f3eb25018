//! Timing-mode parallel GE: the same SPMD protocol, message sizes, and
//! charged flops as [`crate::ge::ge_parallel`], without executing the
//! arithmetic.
//!
//! Virtual time in this runtime is a pure function of message sizes and
//! charged flops — never of the floating-point *values* — so a skeleton
//! that sends same-sized payloads and charges the same flop counts
//! produces **bit-identical** virtual timings at a fraction of the real
//! cost. That is what makes the paper's large-`N` sweeps (required `N`
//! in the thousands at 32 nodes) affordable. The equivalence is pinned
//! by `timed_matches_real_timings`, which runs both versions and
//! compares every clock.
//!
//! The skeleton is written against [`SpmdTimer`], so it runs on either
//! engine: every timed kernel entry point takes a [`RunSpec`] and prices
//! it through one tier rule — the hand-derived closed form
//! ([`crate::analytic`]) when the run is untraced, fault-free, and the
//! analytic tier is enabled, the fast engine ([`run_spmd_fast`] — no
//! threads, no payloads) otherwise — while `fast_matches_threaded` pins
//! the fast result to the threaded oracle executing the *same generic
//! body*.

use crate::analytic::ge_closed_form;
use crate::ge::{back_substitution_flops, elimination_flops};
use crate::recover::Segment;
use hetpart::{CyclicDistribution, Distribution};
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::RankTrace;
use hetsim_mpi::{run_spmd_fast, RecordTimer, RunSpec, SpmdOutcome, SpmdTimer, Tag};

/// Timing result of a protocol-skeleton run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingOutcome {
    /// Parallel execution time `T`.
    pub makespan: SimTime,
    /// Total communication overhead `T_o` summed over ranks.
    pub total_overhead: SimTime,
    /// Per-rank final clocks.
    pub times: Vec<SimTime>,
    /// Per-rank pure-compute time.
    pub compute_times: Vec<SimTime>,
    /// Per-rank operation traces, indexed by rank; empty unless the run
    /// was started with [`RunSpec::trace`] set.
    pub traces: Vec<RankTrace>,
}

impl TimingOutcome {
    /// Condenses an [`SpmdOutcome`] into the timing summary, computing
    /// the aggregates first and then *moving* the per-rank vectors out
    /// (no clones).
    pub fn from_spmd<R>(outcome: SpmdOutcome<R>) -> TimingOutcome {
        TimingOutcome {
            makespan: outcome.makespan(),
            total_overhead: outcome.total_overhead(),
            times: outcome.times,
            compute_times: outcome.compute_times,
            traces: outcome.traces,
        }
    }
}

/// The tier rule every timed kernel entry point shares: the closed form
/// prices a run if and only if it is untraced, fault-free, and the
/// analytic tier is enabled (`--no-analytic` disables it).
pub(crate) fn closed_form_applies(spec: RunSpec<'_>) -> bool {
    !spec.trace && spec.faults.is_none() && hetsim_mpi::analytic_enabled()
}

/// Prices one timed run under `spec`: `closed_form` when
/// [`closed_form_applies`], otherwise `body` on the fast engine.
pub(crate) fn price<N, F>(
    cluster: &ClusterSpec,
    network: &N,
    spec: RunSpec<'_>,
    closed_form: impl FnOnce() -> TimingOutcome,
    body: F,
) -> TimingOutcome
where
    N: NetworkModel,
    F: Fn(&mut RecordTimer),
{
    if closed_form_applies(spec) {
        closed_form()
    } else {
        TimingOutcome::from_spmd(run_spmd_fast(cluster, network, spec, body))
    }
}

/// Runs the GE communication/computation skeleton at problem size `n`
/// with the standard speed-proportional cyclic distribution, under
/// `spec` (tracing feeds the overhead-decomposition experiment; a fault
/// plan stretches elimination compute and charges retry time, and its
/// deaths must already be resolved).
pub fn ge_parallel_timed<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    spec: RunSpec<'_>,
) -> TimingOutcome {
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let dist = CyclicDistribution::fine(n, &speeds);
    price(
        cluster,
        network,
        spec,
        || ge_closed_form(cluster, network, n, &dist),
        |t| ge_timed_body(t, &dist, n),
    )
}

/// Runs the GE skeleton with an explicit row distribution — the hook the
/// distribution-strategy ablation uses (e.g. a speed-blind cyclic layout
/// on a heterogeneous cluster).
///
/// # Panics
/// Panics when the distribution's shape does not match `n` and the
/// cluster size.
pub fn ge_parallel_timed_with<N: NetworkModel>(
    cluster: &ClusterSpec,
    network: &N,
    n: usize,
    dist: &CyclicDistribution,
) -> TimingOutcome {
    assert_eq!(dist.n(), n, "distribution covers a different problem size");
    assert_eq!(dist.p(), cluster.size(), "distribution has a different rank count");
    price(
        cluster,
        network,
        RunSpec::default(),
        || ge_closed_form(cluster, network, n, dist),
        |t| ge_timed_body(t, dist, n),
    )
}

/// [`ge_parallel_timed`] under many network models at once: the same
/// problem priced per network, batched so network-independent state
/// (row ownership, below-pivot counts, elimination times) is computed
/// once — the noise ablation's frozen-noise campaigns differ only in
/// their jittered network. Returns one outcome per network, each
/// bit-identical to the corresponding [`ge_parallel_timed`] call
/// (under `--no-analytic` the batch simply degenerates to that loop).
pub fn ge_parallel_timed_many<N: NetworkModel>(
    cluster: &ClusterSpec,
    networks: &[N],
    n: usize,
) -> Vec<TimingOutcome> {
    let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
    let dist = CyclicDistribution::fine(n, &speeds);
    if closed_form_applies(RunSpec::default()) {
        crate::analytic::ge_closed_form_many(cluster, networks, n, &dist)
    } else {
        networks.iter().map(|net| ge_parallel_timed_with(cluster, net, n, &dist)).collect()
    }
}

/// The GE protocol skeleton as a generic [`SpmdTimer`] body — the
/// single source of truth the engines, the threaded oracle, and the
/// closed form ([`crate::analytic::ge_closed_form`]) are all pinned to.
pub fn ge_timed_body<T: SpmdTimer>(rank: &mut T, dist: &CyclicDistribution, n: usize) {
    ge_segment_body(rank, dist, n, &Segment::whole(n.saturating_sub(1)));
}

/// One segment of the GE protocol: the whole run ([`ge_timed_body`]) or
/// a piece of a recoverable run ([`crate::recover`]) — the segment says
/// which elimination rounds to record, how the recording opens and
/// closes, and where recovery charges land.
pub(crate) fn ge_segment_body<T: SpmdTimer>(
    rank: &mut T,
    dist: &CyclicDistribution,
    n: usize,
    seg: &Segment,
) {
    let me = rank.rank();
    let p = rank.size();
    let my_rows = dist.rows_of(me); // ascending

    // Stage 1: distribution — same payload sizes, zero-filled.
    seg.open(rank, |rank| {
        if me == 0 {
            for peer in 1..p {
                let count = dist.rows_of(peer).len() * (n + 1);
                rank.send_count(peer, Tag::DATA, count);
            }
        } else {
            rank.recv_count(0, Tag::DATA, my_rows.len() * (n + 1));
        }
    });

    // Stage 2: elimination — same broadcasts, barriers, and charged
    // flops; no arithmetic on row contents.
    let mut below = 0usize;
    for i in seg.iters.clone() {
        seg.at_iteration(rank, i);
        rank.broadcast_count(dist.owner(i), n - i + 1);
        rank.compute_flops(round_flops(&my_rows, n, i, &mut below));
        rank.barrier();
    }

    // Stage 3: collection + sequential back substitution at rank 0.
    if seg.gather {
        rank.gather_count(0, my_rows.len() * (n + 1));
        if me == 0 {
            rank.compute_flops(back_substitution_flops(n));
        }
    }
}

/// A rank's elimination flops in pivot round `i`: its rows strictly
/// below the pivot times the per-row update cost. `below` indexes the
/// first of the ascending `rows` not yet passed; it only moves forward,
/// so rounds must be visited in ascending order.
pub(crate) fn round_flops(rows: &[usize], n: usize, i: usize, below: &mut usize) -> f64 {
    while *below < rows.len() && rows[*below] <= i {
        *below += 1;
    }
    (rows.len() - *below) as f64 * elimination_flops(n - i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ge::ge_parallel;
    use crate::matrix::Matrix;
    use hetsim_cluster::faults::FaultPlan;
    use hetsim_cluster::network::SharedEthernet;
    use hetsim_cluster::NodeSpec;
    use hetsim_mpi::{record_spmd, run_spmd};

    fn het3() -> ClusterSpec {
        ClusterSpec::new(
            "het3",
            vec![
                NodeSpec::synthetic("a", 90.0),
                NodeSpec::synthetic("b", 50.0),
                NodeSpec::synthetic("c", 110.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn timed_matches_real_timings() {
        // The skeleton must be *timing-equivalent* to the real kernel:
        // identical per-rank clocks, compute times, and overheads.
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        for n in [5usize, 17, 40] {
            let a = Matrix::random_diagonally_dominant(n, n as u64);
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 * 0.01 + 1.0).collect();
            let b = a.matvec(&x_true);
            let real = ge_parallel(&cluster, &net, &a, &b);
            let timed = ge_parallel_timed(&cluster, &net, n, RunSpec::default());
            assert_eq!(timed.makespan, real.makespan, "makespan mismatch at n = {n}");
            assert_eq!(timed.times, real.times, "per-rank clocks mismatch at n = {n}");
            assert_eq!(timed.compute_times, real.compute_times, "compute time mismatch at n = {n}");
            assert_eq!(timed.total_overhead, real.total_overhead, "overhead mismatch at n = {n}");
        }
    }

    #[test]
    fn fast_matches_threaded() {
        // Same generic body, both engines, bit-equal timings — the
        // threaded runtime is the oracle for the fast path.
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        for n in [5usize, 17, 40] {
            let speeds: Vec<f64> =
                cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
            let dist = CyclicDistribution::fine(n, &speeds);
            let fast = ge_parallel_timed(&cluster, &net, n, RunSpec::default());
            let threaded =
                TimingOutcome::from_spmd(run_spmd(&cluster, &net, RunSpec::default(), |rank| {
                    ge_timed_body(rank, &dist, n)
                }));
            assert_eq!(fast, threaded, "engine mismatch at n = {n}");
        }
    }

    #[test]
    fn fast_matches_threaded_under_faults() {
        let cluster = het3();
        let net = SharedEthernet::new(0.3e-3, 1.25e7);
        let plan = FaultPlan::new(11).with_straggler(2, 0.5).with_link_drops(120);
        let n = 23usize;
        let speeds: Vec<f64> = cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
        let dist = CyclicDistribution::fine(n, &speeds);
        let fast =
            ge_parallel_timed(&cluster, &net, n, RunSpec { trace: false, faults: Some(&plan) });
        let threaded = TimingOutcome::from_spmd(run_spmd(
            &cluster,
            &net,
            RunSpec { trace: false, faults: Some(&plan) },
            |rank| ge_timed_body(rank, &dist, n),
        ));
        assert_eq!(fast, threaded);
    }

    #[test]
    fn closed_form_matches_engine() {
        // The closed-form evaluator (now hosted in `crate::analytic`)
        // must be bit-identical to the *event-driven* scheduler on
        // every cluster shape (single rank, two-rank Sunwulf-like,
        // all-distinct speeds, wide homogeneous) under every network
        // family, including the post-stage-1 rounds where rank clocks
        // have not yet synchronized.
        use hetsim_cluster::network::{
            ConstantLatency, JitteredNetwork, MpichEthernet, SwitchedNetwork,
        };

        let clusters = vec![
            ClusterSpec::homogeneous(1, 50.0),
            ClusterSpec::new(
                "srv+blade",
                vec![NodeSpec::synthetic("srv", 90.0), NodeSpec::synthetic("blade", 50.0)],
            )
            .unwrap(),
            ClusterSpec::new(
                "distinct5",
                (0..5)
                    .map(|i| NodeSpec::synthetic("n", 40.0 + 17.0 * i as f64))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            ClusterSpec::homogeneous(8, 70.0),
        ];
        for cluster in &clusters {
            let speeds: Vec<f64> =
                cluster.nodes().iter().map(|nd| nd.marked_speed_mflops).collect();
            for n in [1usize, 2, 3, 17, 64, 129] {
                let dist = CyclicDistribution::fine(n, &speeds);
                let check = |tag: &str, closed: TimingOutcome, engine: TimingOutcome| {
                    assert_eq!(
                        closed,
                        engine,
                        "closed form diverged ({tag}, p = {}, n = {n})",
                        cluster.size()
                    );
                };
                let program = record_spmd(cluster, |t| ge_timed_body(t, &dist, n));
                let engine = |net: &dyn NetworkModel| {
                    TimingOutcome::from_spmd(program.simulate_event_driven(cluster, &net))
                };
                let nets: Vec<(&str, Box<dyn NetworkModel>)> = vec![
                    ("const", Box::new(ConstantLatency::new(2.5e-4))),
                    ("switched", Box::new(SwitchedNetwork::new(1.2e-4, 9.0e-9))),
                    ("shared", Box::new(SharedEthernet::new(0.3e-3, 1.25e7))),
                    ("mpich", Box::new(MpichEthernet::new(0.30e-3, 1.0e8))),
                    (
                        "jittered",
                        Box::new(JitteredNetwork::new(MpichEthernet::new(0.30e-3, 1.0e8), 0.1, 7)),
                    ),
                ];
                for (tag, net) in &nets {
                    let net: &dyn NetworkModel = net.as_ref();
                    check(tag, ge_closed_form(cluster, &net, n, &dist), engine(net));
                }
            }
        }
    }

    #[test]
    fn closed_form_prices_only_untraced_fault_free_runs() {
        let plan = FaultPlan::new(1);
        assert!(closed_form_applies(RunSpec::default()));
        assert!(!closed_form_applies(RunSpec { trace: true, faults: None }));
        assert!(!closed_form_applies(RunSpec { trace: false, faults: Some(&plan) }));
    }

    #[test]
    fn timed_is_deterministic() {
        let cluster = ClusterSpec::homogeneous(4, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        assert_eq!(
            ge_parallel_timed(&cluster, &net, 64, RunSpec::default()),
            ge_parallel_timed(&cluster, &net, 64, RunSpec::default())
        );
    }

    #[test]
    fn faulted_with_empty_plan_is_bit_equal_to_baseline() {
        let cluster = ClusterSpec::homogeneous(3, 70.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let plan = FaultPlan::new(99);
        let base = ge_parallel_timed(&cluster, &net, 48, RunSpec::default());
        let faulted =
            ge_parallel_timed(&cluster, &net, 48, RunSpec { trace: false, faults: Some(&plan) });
        assert_eq!(base, faulted);
    }

    #[test]
    fn straggler_slows_ge_makespan() {
        let cluster = ClusterSpec::homogeneous(3, 70.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        let plan = FaultPlan::new(3).with_straggler(1, 0.25);
        let base = ge_parallel_timed(&cluster, &net, 48, RunSpec::default());
        let faulted =
            ge_parallel_timed(&cluster, &net, 48, RunSpec { trace: false, faults: Some(&plan) });
        assert!(faulted.makespan > base.makespan);
    }

    #[test]
    fn timed_handles_trivial_sizes() {
        let cluster = ClusterSpec::homogeneous(2, 50.0);
        let net = SharedEthernet::new(1e-4, 1.25e7);
        for n in [1usize, 2] {
            let t = ge_parallel_timed(&cluster, &net, n, RunSpec::default());
            assert!(t.makespan.as_secs() >= 0.0);
        }
    }
}

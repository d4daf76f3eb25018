//! Mega-scale classed pricing: MM, power iteration and GE on a
//! [`ClassedCluster`] in O(classes) state per cell, without
//! materializing a rank vector (DESIGN.md §13).
//!
//! MM and power record their own timed bodies ([`mm_timed_body`],
//! [`power_timed_body`]) on a *class skeleton*: a [`ClusterSpec`] with
//! one synthetic rank per *(speed, rows)* subclass and a block
//! distribution of the subclass row counts (the bodies read only block
//! lengths). [`proportional_counts_classed`] splits every speed class
//! into at most two such subclasses, expanding bit for bit to the
//! per-rank proportional distribution, and rank 0 — root and hub of
//! every collective — gets a subclass of its own. Every member of a
//! subclass would record the same op stream, so
//! [`SpmdProgram::simulate_aggregated`] prices the skeleton recording
//! with each rank weighted by its member count.
//!
//! GE keeps a hand-written form, [`ge_mega`]: its cyclic deal gives the
//! members of one class different row positions, so no per-subclass
//! recording exists, and its Θ(N) rounds are batched by hand.
//!
//! The `mega_matches_per_rank_*` tests pin all three kernels against
//! the per-rank closed forms — and transitively, via
//! `closed_form_matches_engine_*`, against the event-driven engine and
//! the threaded oracle — at every materializable size. Networks that
//! price endpoints individually (jittered, segmented) have no per-class
//! costs and return [`FallbackReason::UnclassedNetwork`].

use crate::ge::{back_substitution_flops, elimination_flops};
use crate::mm::mm_timed_body;
use crate::power::power_timed_body;
use hetpart::{proportional_counts_classed, BlockDistribution, ClassedCyclicDeal};
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::node::NodeSpec;
use hetsim_cluster::repeat_add;
use hetsim_cluster::time::SimTime;
use hetsim_mpi::telemetry::{self, EnginePath, EngineReport};
use hetsim_mpi::{record_spmd, FallbackReason, RecordTimer, SpmdProgram};

/// The compact result of one mega-scale evaluation: no per-rank
/// vectors, by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MegaOutcome {
    /// Virtual completion time — bit-identical to the per-rank closed
    /// form's makespan on the materialized cluster.
    pub makespan: SimTime,
    /// Classes actually walked (≤ 2 · speed classes + 1): MM and power
    /// walk the skeleton's distinct recordings, GE its row runs.
    pub classes: usize,
    /// Ranks the evaluation priced.
    pub ranks: u64,
}

/// The class skeleton of a classed cluster under the proportional row
/// distribution: one synthetic rank per (speed × row-count) subclass,
/// rank 0 split off, each standing for `members` consecutive ranks.
struct Skeleton {
    cluster: ClusterSpec,
    /// One block per skeleton rank, of its subclass's per-member rows.
    dist: BlockDistribution,
    members: Vec<u64>,
}

fn skeleton(cluster: &ClassedCluster, n: usize) -> Skeleton {
    let weight_runs: Vec<(f64, usize)> =
        cluster.classes().iter().map(|c| (c.speed_mflops, c.count)).collect();
    let mut runs = proportional_counts_classed(n, &weight_runs).into_iter();
    let (mut nodes, mut rows, mut members) = (Vec::new(), Vec::new(), Vec::new());
    for class in cluster.classes() {
        let mut covered = 0usize;
        while covered < class.count {
            let (r, m) = runs.next().expect("runs cover every member");
            covered += m;
            // Rank 0 is the root and hub of every collective.
            let split = if nodes.is_empty() { [1, m - 1] } else { [m, 0] };
            for m in split.into_iter().filter(|&m| m > 0) {
                nodes.push(NodeSpec::synthetic(format!("s{}", nodes.len()), class.speed_mflops));
                rows.push(r);
                members.push(m as u64);
            }
        }
    }
    debug_assert!(runs.next().is_none(), "runs must not outlive the classes");
    let dist = BlockDistribution::from_counts(rows.iter().sum(), &rows);
    let cluster =
        ClusterSpec::new(&cluster.label, nodes).expect("a classed cluster is never empty");
    Skeleton { cluster, dist, members }
}

impl Skeleton {
    /// Records `body` once per subclass and prices the weighted
    /// recording on the class-aggregated tier.
    fn price<N: NetworkModel>(
        &self,
        network: &N,
        body: impl Fn(&mut RecordTimer),
    ) -> Result<MegaOutcome, FallbackReason> {
        let program: SpmdProgram<()> = record_spmd(&self.cluster, body);
        let outcome = program.simulate_aggregated(&self.cluster, network, &self.members)?;
        Ok(MegaOutcome {
            makespan: outcome.makespan,
            classes: outcome.class_members.len(),
            ranks: outcome.ranks,
        })
    }
}

/// Classed-cluster MM (HoHe) timing: [`mm_timed_body`] — A-block
/// scatter, B broadcast, local multiply, C gather — recorded on the
/// class skeleton and priced in O(classes).
pub fn mm_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let sk = skeleton(cluster, n);
    sk.price(network, |t| mm_timed_body(t, &sk.dist, n))
}

/// Classed-cluster power-iteration timing: [`power_timed_body`] —
/// scatter, then `iters` sweeps of local matvec → allgather →
/// normalization — recorded on the class skeleton and priced in
/// O(classes + iters · classes).
pub fn power_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
    iters: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let sk = skeleton(cluster, n);
    sk.price(network, |t| power_timed_body(t, &sk.dist, n, iters))
}

/// One run of consecutive *peer* ranks (rank 0 excluded) sharing a
/// speed class and a per-member row count under the fine cyclic deal.
struct GeRun {
    /// Rows each member owns.
    rows: usize,
    /// Consecutive peers in the run (≥ 1).
    members: u64,
    /// Marked speed in flop/s (the same float op the materialized
    /// `NodeSpec` performs).
    speed_flops: f64,
}

/// The fine cyclic deal serves every class round-robin from member 0
/// (see [`ClassedCyclicDeal`]), so class `c` with `m` members and `R`
/// dealt rows splits into at most two row-count runs: members `0..R%m`
/// own `⌈R/m⌉` rows, the rest `⌊R/m⌋`. This expands that split into
/// rank-order peer runs, carving rank 0 (class 0, member 0) out of
/// whichever run holds it, and remembers where each class's member 0
/// landed (the pivot owner of the class's first win).
struct GeLayout {
    rank0_rows: usize,
    runs: Vec<GeRun>,
    /// Index into `runs` of the run whose first peer is the class's
    /// member 0 (`usize::MAX` for class 0 — that member is rank 0).
    first_run: Vec<usize>,
}

fn ge_layout(cluster: &ClassedCluster, class_rows: &[u64]) -> GeLayout {
    let mut runs = Vec::with_capacity(2 * cluster.class_count());
    let mut first_run = vec![usize::MAX; cluster.class_count()];
    let mut rank0_rows = 0usize;
    for (c, class) in cluster.classes().iter().enumerate() {
        let m = class.count as u64;
        let total = class_rows[c];
        let q = (total / m) as usize;
        let hi = total % m;
        let speed_flops = class.speed_mflops * 1e6;
        let mut subruns = [(q + 1, hi), (q, m - hi)];
        if c == 0 {
            // Rank 0 is class 0's member 0: in the high run when it
            // exists, else the low run.
            let at = usize::from(hi == 0);
            rank0_rows = subruns[at].0;
            subruns[at].1 -= 1;
        }
        for (rows, members) in subruns {
            if members == 0 {
                continue;
            }
            if c != 0 && first_run[c] == usize::MAX {
                first_run[c] = runs.len();
            }
            runs.push(GeRun { rows, members, speed_flops });
        }
    }
    GeLayout { rank0_rows, runs, first_run }
}

/// Rank 0's send chain through one peer run: the per-message cost, the
/// chain value before the run, and the last member's arrival (= the
/// chain value after the run).
struct ChainRun {
    cost: f64,
    start: f64,
    last: f64,
}

/// Class-aggregated GE timing on a [`ClassedCluster`]: the protocol of
/// [`crate::ge_closed_form`] under the standard fine cyclic deal,
/// priced in O(classes) state per elimination round (DESIGN.md §13).
///
/// After round 0 every rank leaves the barrier with one shared scalar
/// clock, so a round's rendezvous collapses to the broadcast departure
/// plus the *largest* elimination time — and within a speed class the
/// largest below-pivot row count is `⌈remaining/members⌉`, maintained
/// by a ceil countdown as the replayed classed deal drains pivots.
/// Round 0 (where scatter leaves rank clocks unequal) and the
/// scatter/gather stages are priced per peer run through exact batched
/// repeated addition and the classed network hooks. Bit-identical to
/// the per-rank closed form — and transitively the event-driven engine
/// and the threaded oracle — at every materializable size.
pub fn ge_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let simulate_started = std::time::Instant::now();
    let outcome = ge_mega_eval(cluster, network, n);
    telemetry::add_simulate_wall_ns(simulate_started.elapsed().as_nanos() as u64);
    match &outcome {
        Ok(out) => {
            let mut report =
                EngineReport::new(EnginePath::Aggregated, out.ranks, out.classes as u64);
            // The ops the per-rank engines would execute: the scatter's
            // send/recv pairs, and per rank one broadcast + barrier per
            // round plus the closing gather.
            let rounds = n.saturating_sub(1) as u64;
            report.p2p_events = 2 * (out.ranks - 1);
            report.collective_events = (2 * rounds + 1) * out.ranks;
            telemetry::record_simulation(&report);
        }
        Err(reason) => telemetry::record_fallback(*reason),
    }
    outcome
}

fn ge_mega_eval<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let p = cluster.size();
    let k = cluster.class_count();
    // The deal sees marked MFLOPS — the speeds the per-rank kernel
    // hands to `CyclicDistribution::fine`; compute times divide flop/s.
    let deal_classes: Vec<(f64, u64)> =
        cluster.classes().iter().map(|c| (c.speed_mflops, c.count as u64)).collect();
    let class_speed_flops: Vec<f64> =
        cluster.classes().iter().map(|c| c.speed_mflops * 1e6).collect();

    // Pass 1 of the deal: per-class row totals, O(n · classes). The
    // winner sequence is recorded on the way (one byte per row) so the
    // stage-2 replay is a table read instead of a second full scan —
    // the deal costs as much as the whole rendezvous pricing, so
    // re-running it would nearly double the round loop.
    let mut pass1 = ClassedCyclicDeal::new(&deal_classes);
    let mut winners: Vec<u8> = Vec::new();
    if k <= usize::from(u8::MAX) {
        winners.reserve_exact(n);
        for _ in 0..n {
            winners.push(pass1.deal() as u8);
        }
    } else {
        for _ in 0..n {
            pass1.deal();
        }
    }
    let class_rows = pass1.class_counts().to_vec();
    let layout = ge_layout(cluster, &class_rows);
    let GeLayout { rank0_rows, runs, first_run } = &layout;

    // Stage 1: root-serialized scatter. Within a run every message
    // costs the same, so rank 0's serial chain batches through exact
    // repeated addition; each receiver's clock is its arrival.
    let mut chain = 0.0f64;
    let mut chains = Vec::with_capacity(runs.len());
    for run in runs {
        let bytes = (run.rows * (n + 1) * 8) as u64;
        let cost = network.p2p_time_class(bytes).ok_or(FallbackReason::UnclassedNetwork)?;
        let start = chain;
        chain = repeat_add(chain, cost, run.members);
        chains.push(ChainRun { cost, start, last: chain });
    }
    let a_last = chain; // rank 0's clock after stage 1

    // Stage 2: elimination rounds, replaying the classed deal (pass 2)
    // for pivot owners — from the recorded winner table when it fits
    // in bytes, else by re-running the deal (same state machine, same
    // sequence either way).
    enum Replay<'a> {
        Recorded(std::slice::Iter<'a, u8>),
        Fresh(ClassedCyclicDeal),
    }
    impl Replay<'_> {
        #[inline]
        fn next_winner(&mut self) -> usize {
            match self {
                Replay::Recorded(it) => usize::from(*it.next().expect("pass 1 recorded n winners")),
                Replay::Fresh(deal) => deal.deal(),
            }
        }
    }
    let mut replay = if winners.is_empty() && n > 0 {
        Replay::Fresh(ClassedCyclicDeal::new(&deal_classes))
    } else {
        Replay::Recorded(winners.iter())
    };
    let barrier_cost = SimTime::from_secs(network.barrier_time(p));
    let mut clk = SimTime::ZERO;
    if n >= 2 {
        // Round 0: rank clocks are still unequal, so each peer run is a
        // genuine rendezvous candidate — arrivals grow along the chain
        // and fl ops are monotone, so a run's candidate is its *last*
        // member's `max(arrival, departure) + dt`. The owner (its
        // class's member 0, the run's first peer) departs off its own
        // arrival and eliminates one fewer row.
        let w0 = replay.next_winner();
        let elim = elimination_flops(n);
        let bytes = ((n + 1) * 8) as u64;
        let bcast = SimTime::from_secs(network.bcast_time(p, bytes));
        let dt = |rem: usize, spd: f64| SimTime::from_secs(rem as f64 * elim / spd);
        let mut rendezvous = SimTime::ZERO;
        let departure = if w0 == 0 {
            let d = SimTime::from_secs(a_last) + bcast;
            rendezvous = rendezvous.max(d + dt(rank0_rows - 1, class_speed_flops[0]));
            d
        } else {
            let fr = &chains[first_run[w0]];
            let owner_arrival = repeat_add(fr.start, fr.cost, 1);
            let d = SimTime::from_secs(owner_arrival) + bcast;
            rendezvous =
                rendezvous.max(d + dt(runs[first_run[w0]].rows - 1, class_speed_flops[w0]));
            rendezvous = rendezvous
                .max(SimTime::from_secs(a_last).max(d) + dt(*rank0_rows, class_speed_flops[0]));
            d
        };
        for (idx, (run, ch)) in runs.iter().zip(chains.iter()).enumerate() {
            let members =
                if w0 != 0 && idx == first_run[w0] { run.members - 1 } else { run.members };
            if members == 0 {
                continue;
            }
            rendezvous = rendezvous
                .max(SimTime::from_secs(ch.last).max(departure) + dt(run.rows, run.speed_flops));
        }
        clk = rendezvous + barrier_cost;

        // Ceil-countdown state: `v[c]` is the most below-pivot rows any
        // member of class `c` still owns (`⌈remaining/members⌉` — the
        // residue counts of an interval); `cnt[c]` is how many more of
        // the class's pivots drain before `v[c]` drops.
        let mut v = vec![0u64; k];
        let mut cnt = vec![0u64; k];
        for c in 0..k {
            let m = deal_classes[c].1;
            if class_rows[c] > 0 {
                v[c] = class_rows[c].div_ceil(m);
                cnt[c] = class_rows[c] - (v[c] - 1) * m;
            }
        }
        let drain = |w: usize, v: &mut [u64], cnt: &mut [u64]| {
            debug_assert!(cnt[w] > 0, "a winning class always has rows left");
            cnt[w] -= 1;
            if cnt[w] == 0 {
                v[w] -= 1;
                cnt[w] = deal_classes[w].1;
            }
        };
        drain(w0, &mut v, &mut cnt);

        // Rounds 1…: every rank leaves the barrier with the shared
        // scalar `clk`, so the rendezvous is the departure plus the
        // largest elimination time over classes. This is the hot loop
        // — once per remaining matrix row — so it runs on raw f64
        // state: `SimTime + SimTime` is the plain f64 add and
        // `SimTime::max` the `>`-replace below, so the bits match the
        // wrapped arithmetic exactly. (A padded-reciprocal screen that
        // prunes divisions was tried and measured slower: the cyclic
        // deal balances `v·elim/spd` across classes by construction,
        // so no class is ever far enough from critical to skip.)
        let barrier_secs = barrier_cost.as_secs();
        let mut clk_secs = clk.as_secs();
        for i in 1..(n - 1) {
            let w = replay.next_winner();
            drain(w, &mut v, &mut cnt);
            let elim = elimination_flops(n - i);
            let bytes = ((n - i + 1) * 8) as u64;
            let departure = clk_secs + network.bcast_time(p, bytes);
            let mut rendezvous = 0.0f64;
            for (&vc, &spd) in v.iter().zip(class_speed_flops.iter()) {
                let t = departure + vc as f64 * elim / spd;
                if t > rendezvous {
                    rendezvous = t;
                }
            }
            clk_secs = rendezvous + barrier_secs;
        }
        clk = SimTime::from_secs(clk_secs);
    }

    // Stage 3: gather to rank 0 (every contribution reuses its scatter
    // byte size, hence its per-message cost), then back substitution.
    let mut gather_runs: Vec<(u64, u64)> = Vec::with_capacity(runs.len() + 1);
    gather_runs.push(((rank0_rows * (n + 1) * 8) as u64, 1));
    for run in runs {
        gather_runs.push(((run.rows * (n + 1) * 8) as u64, run.members));
    }
    let gather_cost = SimTime::from_secs(
        network.gather_time_classed(&gather_runs, 0).ok_or(FallbackReason::UnclassedNetwork)?,
    );
    let backsub = SimTime::from_secs(back_substitution_flops(n) / class_speed_flops[0]);
    let mut makespan;
    if n >= 2 {
        // Clocks equalized at `clk`: the root waits for the latest
        // entry (also `clk`) plus the gather cost, each leaf pays its
        // p2p cost off `clk`.
        makespan = clk + gather_cost + backsub;
        for ch in &chains {
            makespan = makespan.max(clk + SimTime::from_secs(ch.cost));
        }
    } else {
        // No elimination rounds ran: clocks still carry the scatter
        // chain, whose latest entry is rank 0's own `a_last`.
        makespan = SimTime::from_secs(a_last) + gather_cost + backsub;
        for ch in &chains {
            makespan = makespan.max(SimTime::from_secs(ch.last) + SimTime::from_secs(ch.cost));
        }
    }

    Ok(MegaOutcome { makespan, classes: runs.len() + 1, ranks: p as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ge_closed_form, mm_closed_form, power_closed_form};
    use hetpart::{BlockDistribution, CyclicDistribution};
    use hetsim_cluster::classed::SpeedClass;
    use hetsim_cluster::network::{
        ConstantLatency, JitteredNetwork, MpichEthernet, SharedEthernet, SwitchedNetwork,
    };

    /// Class-structure extremes, all materializable: single rank,
    /// homogeneous, two tiers, many tiers at the 85-node scale, and
    /// classes that repeat a speed or sit one ulp apart.
    fn clusters() -> Vec<ClassedCluster> {
        vec![
            ClassedCluster::heet(1, 1, 50.0, 1.0),
            ClassedCluster::heet(8, 1, 70.0, 1.0),
            ClassedCluster::heet(7, 2, 50.0, 3.0),
            ClassedCluster::heet(40, 5, 50.0, 2.2),
            ClassedCluster::heet(85, 8, 45.0, 2.4),
            palette(),
        ]
    }

    /// Speeds 50, 50 + 1 ulp, 50, 80, 50 − 1 ulp, 50: the repeated
    /// 50s give skeleton subclasses that share a recording.
    fn palette() -> ClassedCluster {
        let up = f64::from_bits(50f64.to_bits() + 1);
        let down = f64::from_bits(50f64.to_bits() - 1);
        let classes = [(50.0, 3), (up, 2), (50.0, 4), (80.0, 2), (down, 3), (50.0, 5)]
            .into_iter()
            .map(|(speed_mflops, count)| SpeedClass { speed_mflops, count })
            .collect();
        ClassedCluster::new("palette", classes).unwrap()
    }

    fn networks() -> Vec<(&'static str, Box<dyn NetworkModel>)> {
        vec![
            ("const", Box::new(ConstantLatency::new(2.5e-4))),
            ("switched", Box::new(SwitchedNetwork::new(1.2e-4, 9.0e-9))),
            ("shared", Box::new(SharedEthernet::new(0.3e-3, 1.25e7))),
            ("mpich", Box::new(MpichEthernet::new(0.30e-3, 1.0e8))),
        ]
    }

    fn mflops(cluster: &ClassedCluster) -> Vec<f64> {
        cluster.materialize().nodes().iter().map(|nd| nd.marked_speed_mflops).collect()
    }

    #[test]
    fn mega_matches_per_rank_mm() {
        for cluster in &clusters() {
            let spec = cluster.materialize();
            for n in [1usize, 2, 3, 17, 64] {
                let dist = BlockDistribution::proportional(n, &mflops(cluster));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let per_rank = mm_closed_form(&spec, &net, n, &dist);
                    let mega = mm_mega(cluster, &net, n).expect("classed network");
                    assert_eq!(
                        mega.makespan, per_rank.makespan,
                        "mm diverged ({tag}, {}, n={n})",
                        cluster.label
                    );
                    assert_eq!(mega.ranks as usize, cluster.size());
                }
            }
        }
    }

    #[test]
    fn mega_matches_per_rank_power() {
        for cluster in &clusters() {
            let spec = cluster.materialize();
            // `(5, 0)` pins the zero-sweep protocol (the scatter
            // alone) — the serial-scatter bound of the mega ceiling
            // table prices it.
            for (n, iters) in [(1usize, 1usize), (2, 2), (3, 1), (5, 0), (17, 4), (64, 3)] {
                let dist = BlockDistribution::proportional(n, &mflops(cluster));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let per_rank = power_closed_form(&spec, &net, n, iters, &dist);
                    let mega = power_mega(cluster, &net, n, iters).expect("classed network");
                    assert_eq!(
                        mega.makespan, per_rank.makespan,
                        "power diverged ({tag}, {}, n={n}, iters={iters})",
                        cluster.label
                    );
                }
            }
        }
    }

    #[test]
    fn mega_matches_per_rank_ge() {
        // The heet ladder extremes plus a Zipf-spread cluster: the
        // round-robin deal must survive harmonic speed decay too.
        let mut all = clusters();
        all.push(ClassedCluster::heet_zipf(33, 5, 50.0, 3.0));
        for cluster in &all {
            let spec = cluster.materialize();
            for n in [0usize, 1, 2, 3, 17, 64, 129] {
                let dist = CyclicDistribution::fine(n, &mflops(cluster));
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let per_rank = ge_closed_form(&spec, &net, n, &dist);
                    let mega = ge_mega(cluster, &net, n).expect("classed network");
                    assert_eq!(
                        mega.makespan, per_rank.makespan,
                        "ge diverged ({tag}, {}, n={n})",
                        cluster.label
                    );
                    assert_eq!(mega.ranks as usize, cluster.size());
                    assert!(mega.classes <= 2 * cluster.class_count() + 1);
                }
            }
        }
    }

    #[test]
    fn subclass_count_is_bounded_by_classes_not_ranks() {
        // 10⁶ ranks in 8 tiers: at most 2 row-runs per tier plus the
        // split-off root, and evaluation never materializes a rank.
        let cluster = ClassedCluster::heet(1_000_000, 8, 50.0, 2.4);
        let subclasses = skeleton(&cluster, 64).members.len();
        assert!(subclasses <= 2 * 8 + 1, "got {subclasses} subclasses");
        let out = mm_mega(&cluster, &MpichEthernet::new(0.29e-3, 1.07e8), 64).expect("classed");
        assert_eq!(out.ranks, 1_000_000);
        assert!(out.classes <= subclasses, "got {} recorded classes", out.classes);
        assert!(out.makespan > SimTime::ZERO);
        let ge = ge_mega(&cluster, &MpichEthernet::new(0.29e-3, 1.07e8), 2048).expect("classed");
        assert_eq!(ge.ranks, 1_000_000);
        assert!(ge.classes <= 2 * 8 + 1, "got {} ge runs", ge.classes);
        assert!(ge.makespan > SimTime::ZERO);
        // Subclasses that repeat a speed and a row count share one
        // recorded class.
        let shared =
            mm_mega(&palette(), &MpichEthernet::new(0.29e-3, 1.07e8), 64).expect("classed");
        assert!(shared.classes < skeleton(&palette(), 64).members.len());
    }

    #[test]
    fn endpoint_priced_networks_are_rejected() {
        let cluster = ClassedCluster::heet(100, 4, 50.0, 2.0);
        let net = JitteredNetwork::new(MpichEthernet::new(0.3e-3, 1e8), 0.1, 7);
        assert_eq!(mm_mega(&cluster, &net, 16), Err(FallbackReason::UnclassedNetwork));
        assert_eq!(power_mega(&cluster, &net, 16, 2), Err(FallbackReason::UnclassedNetwork));
        assert_eq!(ge_mega(&cluster, &net, 16), Err(FallbackReason::UnclassedNetwork));
    }

    #[test]
    fn row_subclasses_expand_to_the_block_distribution() {
        for cluster in &clusters() {
            for n in [0usize, 1, 17, 64, 200] {
                let sk = skeleton(cluster, n);
                let dist = BlockDistribution::proportional(n, &mflops(cluster));
                let spec = cluster.materialize();
                let mut rank = 0usize;
                for (c, &m) in sk.members.iter().enumerate() {
                    for _ in 0..m {
                        assert_eq!(
                            sk.dist.range_of(c).len(),
                            dist.range_of(rank).len(),
                            "{} rank {rank} n={n}",
                            cluster.label
                        );
                        assert_eq!(
                            sk.cluster.nodes()[c].marked_speed_flops().to_bits(),
                            spec.nodes()[rank].marked_speed_flops().to_bits()
                        );
                        rank += 1;
                    }
                }
                assert_eq!(rank, cluster.size());
                assert_eq!(sk.members[0], 1, "rank 0 stands alone");
                assert!(sk.members.len() <= 2 * cluster.class_count() + 1);
            }
        }
    }
}

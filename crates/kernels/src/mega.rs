//! Mega-scale classed pricing: MM, power iteration and GE on a
//! [`ClassedCluster`] in O(classes) state per cell, without
//! materializing a rank vector (DESIGN.md §13).
//!
//! MM and power record their own timed bodies ([`mm_timed_body`],
//! [`power_timed_body`](crate::power::power_timed_body)) on a *class
//! skeleton*: a [`ClusterSpec`] with one synthetic rank per *(speed,
//! rows)* subclass and a block distribution of the subclass row counts
//! (the bodies read only block lengths). [`proportional_counts_classed`]
//! splits every speed class into at most two such subclasses, expanding
//! bit for bit to the per-rank proportional distribution, and rank 0 —
//! root and hub of every collective — gets a subclass of its own. Every
//! member of a subclass would record the same op stream, so
//! [`SpmdProgram::simulate_aggregated`] prices the skeleton recording
//! with each rank weighted by its member count.
//!
//! GE keeps a hand-written form, [`ge_mega`]: its cyclic deal gives the
//! members of one class different row positions, so no per-subclass
//! recording exists, and its Θ(N) rounds are batched by hand. The deal
//! does not depend on N, so each thread keeps the winner table of the
//! last machine it priced and reads every size's winners, and their
//! per-class totals, from a prefix of it: a sweep over one machine's
//! size grid deals the machine once, to its largest N. Both per-row
//! loops — a round's fold over classes and the deal's deficit scan —
//! run two classes at a time in [`LANES`]-wide lanes, with the same
//! IEEE operations per class as the per-rank form.
//!
//! [`ge_makespan`] brings the same pricing to a per-rank
//! [`ClusterSpec`]: it run-length encodes the cluster
//! ([`ClassedCluster::from_spec`]) and prices through [`ge_mega`], so a
//! makespan-only GE cell costs O(N · runs) instead of O(N · P).
//!
//! The `mega_matches_per_rank_*` tests pin all three kernels against
//! the per-rank closed forms — and transitively, via
//! `closed_form_matches_engine_*`, against the event-driven engine and
//! the threaded oracle — at every materializable size. Networks that
//! price endpoints individually (jittered, segmented) have no per-class
//! costs and return [`FallbackReason::UnclassedNetwork`].

use crate::ge::timed::closed_form_applies;
use crate::ge::{back_substitution_flops, elimination_flops, ge_parallel_timed};
use crate::mm::mm_timed_body;
use crate::power::power_body;
use hetpart::{proportional_counts_classed, BlockDistribution, ClassedCyclicDeal};
use hetsim_cluster::classed::ClassedCluster;
use hetsim_cluster::cluster::ClusterSpec;
use hetsim_cluster::network::NetworkModel;
use hetsim_cluster::node::NodeSpec;
use hetsim_cluster::time::SimTime;
use hetsim_cluster::{lanes, repeat_add, LANES};
use hetsim_mpi::telemetry::{self, EnginePath, EngineReport};
use hetsim_mpi::{record_spmd, FallbackReason, RecordTimer, RunSpec, SpmdProgram};
use std::cell::Cell;

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

/// Classed-cluster power-iteration timing:
/// [`power_timed_body`](crate::power::power_timed_body) —
/// scatter, then `iters` sweeps of local matvec → allgather →
/// normalization — recorded on the class skeleton and priced in
/// O(classes + iters · classes). The skeleton records fewer ranks than
/// the machine has, so the body is handed the machine's rank count for
/// the allgather's length headers.
pub fn power_mega<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
    iters: usize,
) -> Result<MegaOutcome, FallbackReason> {
    let sk = skeleton(cluster, n);
    sk.price(network, |t| power_body(t, &sk.dist, n, iters, cluster.size()))
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
/// plus the *largest* elimination time, folded over the classes two at
/// a time — and within a speed class the largest below-pivot row count
/// is `⌈remaining/members⌉`, maintained by a ceil countdown as the
/// replayed classed deal drains pivots.
/// Round 0 (where scatter leaves rank clocks unequal) and the
/// scatter/gather stages are priced per peer run through exact batched
/// repeated addition and the classed network hooks. Bit-identical to
/// the per-rank closed form — and transitively the event-driven engine
/// and the threaded oracle — at every materializable size.
///
/// The pivot owners come from this thread's winner table: a call on
/// the machine priced last deals only the rows past the table's end,
/// and its per-class row totals are one byte scan of an N-row prefix.
/// A machine of more than 255 classes has no table; its call deals N
/// rows to count them and N more to replay them.
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

/// GE's makespan on a per-rank cluster: exactly the bits of
/// `ge_parallel_timed(cluster, network, n, RunSpec::default()).makespan`,
/// for callers that read nothing else.
///
/// Where the closed-form tier applies, the cluster is run-length
/// encoded ([`ClassedCluster::from_spec`]) and priced through
/// [`ge_mega`] in O(N · runs): a Sunwulf rung is two runs (the server
/// and the SunBlades) at any rank count. It prices per rank instead
/// under `--no-analytic`, when the cluster holds a speed a classed
/// cluster rejects, and when the network has no per-class costs —
/// [`FallbackReason::UnclassedNetwork`], which [`ge_mega`] counts in the
/// engine telemetry like every other rejection.
pub fn ge_makespan<N: NetworkModel>(cluster: &ClusterSpec, network: &N, n: usize) -> SimTime {
    if closed_form_applies(RunSpec::default()) {
        let classed = ClassedCluster::from_spec(cluster).ok();
        if let Some(out) = classed.and_then(|c| ge_mega(&c, network, n).ok()) {
            return out.makespan;
        }
    }
    ge_parallel_timed(cluster, network, n, RunSpec::default()).makespan
}

/// The fine cyclic deal of the last machine [`ge_mega`] priced on this
/// thread, grown on demand. The deal's state is a function of the
/// classes and the step count only, so the first N winners of a longer
/// deal are exactly an N-row deal's winners: a sweep that prices one
/// machine at a grid of sizes deals it once, to its largest N, instead
/// of once per size.
struct WinnerTable {
    /// `(speed_mflops.to_bits(), count)` per class, in class order —
    /// exactly the inputs of [`ClassedCyclicDeal::new`], so no other
    /// machine's winners are ever read.
    key: Vec<(u64, u64)>,
    /// The deal after `winners.len()` rows.
    deal: ClassedCyclicDeal,
    /// The winning class of each dealt row, one byte per row.
    winners: Vec<u8>,
}

/// Why the deal of a [`ClassedCluster`]'s classes is never rejected.
const VALIDATED: &str =
    "a ClassedCluster has classes, members, positive finite speeds and a finite speed total";

thread_local! {
    /// One winner table per thread, so no lock: every caller prices a
    /// machine's whole size grid on one thread (one pool cell, or a
    /// sequential loop), and pool workers drop theirs with their batch.
    static WINNERS: Cell<Option<WinnerTable>> = const { Cell::new(None) };
}

impl WinnerTable {
    /// Takes this thread's table for `classes` (at most 255 of them):
    /// the kept one when it holds this machine's deal, else an empty
    /// one, dropping the other machine's, so a thread holds at most one
    /// machine's largest N. The caller puts it back after pricing, so
    /// no borrow of the thread's table spans the network calls.
    fn take(classes: &[(f64, u64)]) -> WinnerTable {
        debug_assert!(classes.len() <= usize::from(u8::MAX), "a byte names every class");
        let key: Vec<(u64, u64)> = classes.iter().map(|&(s, m)| (s.to_bits(), m)).collect();
        match WINNERS.take() {
            Some(table) if table.key == key => table,
            _ => {
                let deal = ClassedCyclicDeal::new(classes).expect(VALIDATED);
                WinnerTable { key, deal, winners: Vec::new() }
            }
        }
    }

    /// The first `n` winners, dealing only rows not dealt yet.
    fn prefix(&mut self, n: usize) -> &[u8] {
        if n > self.winners.len() {
            let more = n - self.winners.len();
            // Exactly to the N asked for, never doubled: the 10⁷-rank
            // preset's table is 50 MB.
            self.winners.reserve_exact(more);
            let deal = &mut self.deal;
            self.winners.extend((0..more).map(|_| deal.deal() as u8));
        }
        &self.winners[..n]
    }
}

fn ge_mega_eval<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
) -> Result<MegaOutcome, FallbackReason> {
    // The deal sees marked MFLOPS — the speeds the per-rank kernel
    // hands to `CyclicDistribution::fine`.
    let deal_classes: Vec<(f64, u64)> =
        cluster.classes().iter().map(|c| (c.speed_mflops, c.count as u64)).collect();
    let k = deal_classes.len();
    if k > usize::from(u8::MAX) {
        // More classes than a byte can name: no table. One deal counts
        // the rows, a fresh one replays the pivot owners (same state
        // machine, same sequence).
        let class_rows = ClassedCyclicDeal::counts(n, &deal_classes).expect(VALIDATED);
        let mut deal = ClassedCyclicDeal::new(&deal_classes).expect(VALIDATED);
        return ge_price(cluster, network, n, &class_rows, std::iter::repeat_with(|| deal.deal()));
    }
    let mut table = WinnerTable::take(&deal_classes);
    let winners = table.prefix(n);
    let mut class_rows = [0u64; 256];
    for &w in winners {
        class_rows[usize::from(w)] += 1;
    }
    let winners = winners.iter().map(|&w| usize::from(w));
    let outcome = ge_price(cluster, network, n, &class_rows[..k], winners);
    WINNERS.set(Some(table));
    outcome
}

/// Prices GE on `cluster` from its per-class row totals under an
/// `n`-row deal and that deal's winners, the pivot owner of each row in
/// row order.
fn ge_price<N: NetworkModel>(
    cluster: &ClassedCluster,
    network: &N,
    n: usize,
    class_rows: &[u64],
    mut winners: impl Iterator<Item = usize>,
) -> Result<MegaOutcome, FallbackReason> {
    let p = cluster.size();
    let members: Vec<u64> = cluster.classes().iter().map(|c| c.count as u64).collect();
    // Compute times divide flop/s.
    let class_speed_flops: Vec<f64> =
        cluster.classes().iter().map(|c| c.speed_mflops * 1e6).collect();
    let layout = ge_layout(cluster, class_rows);
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

    // Stage 2: elimination rounds, reading the deal's winners for the
    // pivot owners.
    let barrier_cost = SimTime::from_secs(network.barrier_time(p));
    let mut clk = SimTime::ZERO;
    if n >= 2 {
        // Round 0: rank clocks are still unequal, so each peer run is a
        // genuine rendezvous candidate — arrivals grow along the chain
        // and fl ops are monotone, so a run's candidate is its *last*
        // member's `max(arrival, departure) + dt`. The owner (its
        // class's member 0, the run's first peer) departs off its own
        // arrival and eliminates one fewer row.
        let w0 = winners.next().expect("an n-row deal has n winners");
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

        // Ceil-countdown state: `v` holds, per class, the most
        // below-pivot rows any member still owns (`⌈remaining/members⌉`
        // — the residue counts of an interval) as an exact `f64`
        // (`v ≤ n < 2⁵³`), in lanes beside the class speeds; `cnt[c]` is
        // how many more of class `c`'s pivots drain before its `v`
        // drops. A padding slot holds 0 rows at speed 1.0.
        let (v, mut cnt): (Vec<f64>, Vec<u64>) = class_rows
            .iter()
            .zip(&members)
            .map(|(&rows, &m)| {
                let v = rows.div_ceil(m);
                (v as f64, if rows > 0 { rows - (v - 1) * m } else { 0 })
            })
            .unzip();
        let mut v = lanes(v, 0.0);
        let speed_lanes = lanes(class_speed_flops.iter().copied(), 1.0);
        // A lane is written only when a countdown drops: rewriting the
        // winner's lane every round stalls the next round's packed
        // load on store forwarding.
        let mut drain = |w: usize, v: &mut [[f64; LANES]]| {
            debug_assert!(cnt[w] > 0, "a winning class always has rows left");
            cnt[w] -= 1;
            if cnt[w] == 0 {
                v.as_flattened_mut()[w] -= 1.0;
                cnt[w] = members[w];
            }
        };
        drain(w0, &mut v);

        // Rounds 1…: every rank leaves the barrier with the shared
        // scalar `clk`, so the rendezvous is the departure plus the
        // largest elimination time over classes. This is the hot loop
        // — once per remaining matrix row — so it runs on raw f64 state
        // (`SimTime + SimTime` is the plain f64 add, `SimTime::max` a
        // `>`-replace), two classes per lane, and stays bit-identical
        // to the per-rank fold `max_c fl(d + q_c)` seeded at 0.0:
        // - each quotient `q_c = fl(fl(v·elim)/spd)` is the per-rank
        //   form's two operations, on an exact integer `v`;
        // - round-to-nearest addition is monotone in each operand, so
        //   `max_c fl(d + q_c) = fl(d + max_c q_c)`: the departure is
        //   added once, to the longest quotient;
        // - every `q_c` is finite and ≥ +0.0 (a padding slot's is +0.0)
        //   and `d ≥ 0`, so the 0.0 seed changes nothing and the max
        //   does not depend on the order the lanes fold in.
        // Tried and measured slower: a padded-reciprocal screen that
        // prunes divisions (the deal balances `v·elim/spd` across
        // classes, so none is far from critical), four-wide lanes, and
        // the hoist over a scalar fold. Re-dividing only the critical
        // classes slowed two-class machines: a one-member class's
        // countdown drops on every win.
        let barrier_secs = barrier_cost.as_secs();
        let mut clk_secs = clk.as_secs();
        for (i, w) in (1..(n - 1)).zip(winners) {
            drain(w, &mut v);
            let elim = elimination_flops(n - i);
            let bytes = ((n - i + 1) * 8) as u64;
            let departure = clk_secs + network.bcast_time(p, bytes);
            let mut longest = [0.0f64; LANES];
            for (v, spd) in v.iter().zip(&speed_lanes) {
                for ((longest, &v), &spd) in longest.iter_mut().zip(v).zip(spd) {
                    let q = v * elim / spd;
                    *longest = if q > *longest { q } else { *longest };
                }
            }
            let longest = longest.into_iter().fold(0.0, |a, q| if q > a { q } else { a });
            clk_secs = (departure + longest) + barrier_secs;
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
    use hetsim_cluster::topology::SegmentedNetwork;
    use proptest::prelude::*;

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
        cluster.materialize().speeds_mflops()
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
        // `ge_makespan` prices such cells per rank, with the same bits.
        let spec = palette_spec(12, &[(0, 3), (1, 2), (5, 4), (0, 3)], false);
        let classed = ClassedCluster::from_spec(&spec).expect("valid speeds");
        let segmented = SegmentedNetwork::new(
            (0..12).map(|r| r / 6).collect(),
            MpichEthernet::new(0.1e-3, 1e8),
            MpichEthernet::new(0.8e-3, 1.25e7),
        );
        let nets: [(&str, &dyn NetworkModel); 2] = [("jittered", &net), ("segmented", &segmented)];
        for (tag, net) in nets {
            for n in [0usize, 5, 12, 40] {
                assert_eq!(ge_mega(&classed, &net, n), Err(FallbackReason::UnclassedNetwork));
                assert_eq!(
                    ge_makespan(&spec, &net, n).as_secs().to_bits(),
                    per_rank_ge(&spec, &net, n).as_secs().to_bits(),
                    "{tag} n={n}"
                );
            }
        }
    }

    /// 50 Mflop/s, its ±1-ulp and ±4-ulp neighbours, and two far
    /// speeds: runs the encoding must keep apart although every
    /// deficit and elimination time differs from 50's by about an ulp.
    fn ulp_palette() -> [f64; 7] {
        let ulps = |k: i64| f64::from_bits(50f64.to_bits().wrapping_add_signed(k));
        [50.0, ulps(1), ulps(-1), ulps(4), ulps(-4), 80.0, 110.0]
    }

    /// `p` ranks laid out from `(palette index, run length)` draws. With
    /// `singles`, every run has one member and differs from the last, so
    /// every class is a single rank and speeds repeat only apart.
    fn palette_spec(p: usize, draws: &[(usize, usize)], singles: bool) -> ClusterSpec {
        let palette = ulp_palette();
        let mut speeds: Vec<f64> = Vec::with_capacity(p);
        let mut last = palette.len();
        for &(idx, len) in draws.iter().cycle() {
            let (idx, len) = if singles {
                ((last + 1 + idx % (palette.len() - 1)) % palette.len(), 1)
            } else {
                (idx, len)
            };
            last = idx;
            speeds.extend(std::iter::repeat_n(palette[idx], len.min(p - speeds.len())));
            if speeds.len() == p {
                break;
            }
        }
        let nodes = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| NodeSpec::synthetic(format!("r{i}"), s))
            .collect();
        ClusterSpec::new("palette-spec", nodes).expect("p >= 1")
    }

    fn per_rank_ge<N: NetworkModel>(spec: &ClusterSpec, net: &N, n: usize) -> SimTime {
        let dist = CyclicDistribution::fine(n, &spec.speeds_mflops());
        ge_closed_form(spec, net, n, &dist).makespan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `ge_makespan` on any run layout — maximal runs of random
        /// length, all-singleton classes, speeds that repeat after
        /// other runs, ulp-adjacent neighbours — returns the per-rank
        /// closed form's makespan bit for bit, N < P included.
        #[test]
        fn ge_makespan_matches_per_rank_on_adversarial_layouts(
            p in 1usize..41,
            draws in prop::collection::vec((0usize..7, 1usize..9), 1..12),
            singles in 0usize..3,
        ) {
            let spec = palette_spec(p, &draws, singles == 0);
            let classed = ClassedCluster::from_spec(&spec).expect("palette speeds are valid");
            // Leading with the largest size makes every later size
            // read a prefix of this thread's winner table.
            for n in [3 * p, 0, 1, 2, p - 1, p, 3 * p] {
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let want = per_rank_ge(&spec, &net, n).as_secs().to_bits();
                    let routed = ge_makespan(&spec, &net, n).as_secs().to_bits();
                    let mega = ge_mega(&classed, &net, n).expect("classed network");
                    prop_assert_eq!(routed, want, "{} p={} n={} {:?}", tag, p, n, spec.speeds_mflops());
                    prop_assert_eq!(mega.makespan.as_secs().to_bits(), want);
                }
            }
        }

        /// `mm_mega` and `power_mega` on the same run layouts return the
        /// per-rank closed forms' makespans bit for bit: the class
        /// skeleton must survive ulp-adjacent runs, repeats and N < P.
        #[test]
        fn mm_and_power_mega_match_per_rank_on_adversarial_layouts(
            p in 1usize..41,
            draws in prop::collection::vec((0usize..7, 1usize..9), 1..12),
            singles in 0usize..3,
        ) {
            let spec = palette_spec(p, &draws, singles == 0);
            let classed = ClassedCluster::from_spec(&spec).expect("palette speeds are valid");
            for n in [1, 2, p - 1, p, 3 * p].into_iter().filter(|&n| n > 0) {
                let dist = BlockDistribution::proportional(n, &spec.speeds_mflops());
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    let want = mm_closed_form(&spec, &net, n, &dist).makespan;
                    let mega = mm_mega(&classed, &net, n).expect("classed network").makespan;
                    prop_assert_eq!(
                        mega.as_secs().to_bits(), want.as_secs().to_bits(),
                        "mm {} p={} n={} {:?}", tag, p, n, spec.speeds_mflops()
                    );
                    for iters in [0, 1, 3] {
                        let want = power_closed_form(&spec, &net, n, iters, &dist).makespan;
                        let mega = power_mega(&classed, &net, n, iters).expect("classed").makespan;
                        prop_assert_eq!(
                            mega.as_secs().to_bits(), want.as_secs().to_bits(),
                            "power {} p={} n={} iters={}", tag, p, n, iters
                        );
                    }
                }
            }
        }
    }

    /// `cluster` with class `i` split into two adjacent classes of the
    /// same speed at member `at(i, count)` (0 or `count` keeps it whole).
    fn split(cluster: &ClassedCluster, at: impl Fn(usize, usize) -> usize) -> ClassedCluster {
        let mut classes = Vec::new();
        for (i, c) in cluster.classes().iter().enumerate() {
            let cut = at(i, c.count);
            for count in [cut, c.count - cut].into_iter().filter(|&m| m > 0) {
                classes.push(SpeedClass { speed_mflops: c.speed_mflops, count });
            }
        }
        ClassedCluster::new("split", classes).expect("split classes stay valid")
    }

    /// The makespan bits of GE at `ge_sizes`, then of MM and 3-sweep
    /// power at `block_sizes`, under every classed network.
    fn makespans(cluster: &ClassedCluster, ge_sizes: &[usize], block_sizes: &[usize]) -> Vec<u64> {
        let mut bits = Vec::new();
        for (_, net) in &networks() {
            let net: &dyn NetworkModel = net.as_ref();
            for &n in ge_sizes {
                bits.push(ge_mega(cluster, &net, n).expect("classed network").makespan);
            }
            for &n in block_sizes {
                bits.push(mm_mega(cluster, &net, n).expect("classed network").makespan);
                bits.push(power_mega(cluster, &net, n, 3).expect("classed network").makespan);
            }
        }
        bits.into_iter().map(|t| t.as_secs().to_bits()).collect()
    }

    /// Splitting a class into two adjacent classes of the same speed
    /// describes the same per-rank machine, so every kernel returns the
    /// same makespan bits — checked on machines too large for the
    /// per-rank oracle: 10⁵ ranks, a class of 2³² + 1 members, and
    /// equal-speed HEET ladders (spread 1) against one class.
    #[test]
    fn splitting_a_class_keeps_every_makespan() {
        let midpoint = |_: usize, count: usize| count / 2;
        let scattered = |i: usize, count: usize| (7919 * i) % count;
        let huge = ClassedCluster::new(
            "huge",
            vec![
                SpeedClass { speed_mflops: 90.0, count: 1 },
                SpeedClass { speed_mflops: 45.0, count: (1 << 32) + 1 },
            ],
        )
        .unwrap();
        let machines = [
            (
                ClassedCluster::heet(100_000, 8, 45.0, 2.4),
                &[2, 1000, 100_000, 300_000][..],
                &[1, 2, 64, 4096][..],
            ),
            (huge, &[2, 3, 5000], &[2, 3, 5000]),
        ];
        for (cluster, ge_sizes, block_sizes) in &machines {
            let want = makespans(cluster, ge_sizes, block_sizes);
            for halves in [split(cluster, midpoint), split(cluster, scattered)] {
                assert!(halves.class_count() > cluster.class_count());
                assert_eq!(halves.size(), cluster.size());
                let got = makespans(&halves, ge_sizes, block_sizes);
                assert_eq!(got, want, "{} split into {:?}", cluster.label, halves.classes());
            }
        }
        // `max_classes` 8 exceeds p at p = 1 and 7.
        for p in [1, 7, 1000, 100_000] {
            let one = ClassedCluster::heet(p, 1, 45.0, 1.0);
            let ladder = ClassedCluster::heet(p, 8, 45.0, 1.0);
            assert_eq!(ladder.class_count(), p.min(8));
            let want = makespans(&one, &[2, 1000], &[1, 2, 64, 4096]);
            for same in [ladder.clone(), split(&one, midpoint), split(&ladder, scattered)] {
                assert_eq!(makespans(&same, &[2, 1000], &[1, 2, 64, 4096]), want, "p={p}");
            }
        }
    }

    /// The winner table is keyed by every class's exact speed and
    /// member count: three machines priced interleaved on one thread,
    /// at sizes that shrink and grow, each match the per-rank closed
    /// form. B is A with its second class one ulp faster (same member
    /// counts); C moves one member between A's two 50 Mflop/s classes
    /// (same speeds, and the same per-rank deal under other class
    /// indices).
    #[test]
    fn winner_table_never_reads_another_machines_deal() {
        let classed = |classes: [(f64, usize); 3]| {
            let classes = classes
                .into_iter()
                .map(|(speed_mflops, count)| SpeedClass { speed_mflops, count })
                .collect();
            ClassedCluster::new("interleaved", classes).unwrap()
        };
        let up = f64::from_bits(50f64.to_bits() + 1);
        let a = classed([(50.0, 3), (50.0, 2), (80.0, 2)]);
        let b = classed([(50.0, 3), (up, 2), (80.0, 2)]);
        let c = classed([(50.0, 2), (50.0, 3), (80.0, 2)]);
        let net = MpichEthernet::new(0.30e-3, 1.0e8);
        let order =
            [(&a, 40), (&a, 9), (&b, 9), (&b, 40), (&c, 17), (&a, 17), (&c, 60), (&b, 3), (&a, 60)];
        for (cluster, n) in order {
            let dist = CyclicDistribution::fine(n, &mflops(cluster));
            let want = ge_closed_form(&cluster.materialize(), &net, n, &dist).makespan;
            let mega = ge_mega(cluster, &net, n).expect("classed network");
            assert_eq!(
                mega.makespan.as_secs().to_bits(),
                want.as_secs().to_bits(),
                "{:?} n={n}",
                cluster.classes()
            );
        }
    }

    /// More classes than a byte can name: on an alternating-speed
    /// machine every rank is its own class, so `ge_mega` keeps no
    /// winner table and re-deals each round's pivot owner.
    #[test]
    fn ge_makespan_matches_per_rank_past_the_winner_table() {
        for p in [256usize, 300] {
            let spec = palette_spec(p, &[(0, 1), (5, 1)], false);
            assert_eq!(ClassedCluster::from_spec(&spec).expect("valid speeds").class_count(), p);
            for n in [0, 1, 2, p - 1, p, 2 * p + 3] {
                for (tag, net) in &networks() {
                    let net: &dyn NetworkModel = net.as_ref();
                    assert_eq!(
                        ge_makespan(&spec, &net, n).as_secs().to_bits(),
                        per_rank_ge(&spec, &net, n).as_secs().to_bits(),
                        "{tag} p={p} n={n}"
                    );
                }
            }
        }
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

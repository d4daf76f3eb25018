//! D1 (extension) — overhead decomposition by operation kind.
//!
//! Theorem 1 attributes lost scalability to `t₀ + T_o`; per-operation
//! tracing splits `T_o` into broadcast, barrier and point-to-point
//! (distribution/collection) time, showing *which* mechanism burns the
//! budget at each ladder rung — and why GE's ψ behaves as it does (the
//! barrier term grows linearly in `p`, the broadcast in `log p`).

use crate::table::{fnum, Table};
use hetsim_cluster::sunwulf;
use hetsim_mpi::trace::{OpKind, OverheadBreakdown};
use hetsim_mpi::RunSpec;
use kernels::ge::ge_parallel_timed;

/// Runs traced GE at problem size `n` on each ladder rung and tabulates
/// the share of total rank-time per operation kind.
pub fn overhead_decomposition(ladder: &[usize], n: usize) -> Table {
    let net = sunwulf::sunwulf_network();
    let mut t = Table::new(
        format!("Extension D1 — GE overhead decomposition at N = {n}"),
        &["Nodes", "compute %", "bcast %", "barrier %", "wait %", "p2p %", "other %", "T_o %"],
    );
    for &p in ladder {
        let cluster = sunwulf::ge_config(p);
        let traced = ge_parallel_timed(&cluster, &net, n, RunSpec { trace: true, faults: None });
        let b = OverheadBreakdown::from_traces(&traced.traces);
        let pct = |k: OpKind| b.fraction(k) * 100.0;
        let p2p = pct(OpKind::Send) + pct(OpKind::Recv);
        let other = pct(OpKind::Gather) + pct(OpKind::Scatter);
        t.push_row(vec![
            p.to_string(),
            fnum(pct(OpKind::Compute)),
            fnum(pct(OpKind::Bcast)),
            fnum(pct(OpKind::Barrier)),
            fnum(pct(OpKind::Wait)),
            fnum(p2p),
            fnum(other),
            fnum(b.overhead_fraction() * 100.0),
        ]);
    }
    t.push_note("percent of summed rank time; T_o % = everything except compute");
    t.push_note(
        "wait % is idle time blocked on a straggler; the remaining columns \
         are the operations' own costs",
    );
    t.push_note(
        "barrier share grows fastest with p (linear MPICH-1 barrier) — the \
         mechanism behind GE's low psi",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_share_grows_with_p() {
        let t = overhead_decomposition(&[2, 4, 8], 192);
        let to: Vec<f64> =
            t.rows.iter().map(|r| r.last().unwrap().parse::<f64>().unwrap()).collect();
        assert!(to.windows(2).all(|w| w[1] > w[0]), "T_o%: {to:?}");
        // Shares are percentages of a whole.
        for row in &t.rows {
            let sum: f64 = row[1..7].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((sum - 100.0).abs() < 1.0, "shares must sum to ~100: {row:?}");
        }
    }

    #[test]
    fn barrier_share_overtakes_bcast_share() {
        // Linear barrier vs log-p broadcast: by p = 8 the barrier's own
        // cost must dominate the collective overhead (idle time blocked
        // at either collective is attributed to wait %, not here).
        let t = overhead_decomposition(&[8], 192);
        let row = &t.rows[0];
        let bcast: f64 = row[2].parse().unwrap();
        let barrier: f64 = row[3].parse().unwrap();
        assert!(barrier > bcast, "barrier {barrier}% vs bcast {bcast}%");
    }

    #[test]
    fn wait_share_is_positive_on_heterogeneous_rungs() {
        // Sunwulf rungs mix node speeds, so some rank always idles at
        // the iteration barrier — the wait column must catch it.
        let t = overhead_decomposition(&[4], 192);
        let wait: f64 = t.rows[0][4].parse().unwrap();
        assert!(wait > 0.0, "wait share = {wait}%");
    }
}

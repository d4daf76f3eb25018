//! B1 (extension) — the §2 baseline metrics computed side by side on
//! one concrete scenario, quantifying the paper's qualitative critique
//! of each:
//!
//! * classic isospeed sees processor counts, not marked speeds — on a
//!   heterogeneous ladder its ψ diverges from the heterogeneity-aware
//!   value;
//! * isoefficiency and Pastor–Bosque need a sequential baseline of the
//!   full problem on one node — which stops *fitting in memory* long
//!   before the parallel runs do;
//! * productivity moves with the price tag at fixed hardware.

use crate::params::ExperimentParams;
use crate::systems::GeSystem;
use crate::table::{fnum, Table};
use hetsim_cluster::memory::{ge_feasible, max_feasible};
use hetsim_cluster::sunwulf;
use hetsim_cluster::ClusterSpec;
use hetsim_mpi::RunSpec;
use kernels::ge::ge_parallel_timed;
use kernels::workload::ge_work;
use scalability::baselines::isoefficiency::parallel_efficiency;
use scalability::baselines::isospeed::isospeed_psi;
use scalability::baselines::pastor_bosque::heterogeneous_efficiency;
use scalability::baselines::productivity::{productivity_scalability, ProductivityModel};
use scalability::function::isospeed_efficiency_scalability;
use scalability::metric::required_n_for_efficiency;

/// Computes every metric on the GE 2 → 4 node scenario and reports each
/// one's verdict plus its structural caveat.
pub fn baseline_comparison(params: &ExperimentParams) -> Table {
    let net = sunwulf::sunwulf_network();
    let small = sunwulf::ge_config(2);
    let big = sunwulf::ge_config(4);
    let sys_small = GeSystem::new(&small, &net);
    let sys_big = GeSystem::new(&big, &net);

    let n1 = required_n_for_efficiency(
        &sys_small,
        params.ge_target,
        &params.ge_sizes,
        params.fit_degree,
    )
    .expect("target reachable")
    .round() as usize;
    let n2 =
        required_n_for_efficiency(&sys_big, params.ge_target, &params.ge_sizes, params.fit_degree)
            .expect("target reachable")
            .round() as usize;
    let (w1, w2) = (ge_work(n1), ge_work(n2));
    let t1 = ge_parallel_timed(&small, &net, n1, RunSpec::default()).makespan.as_secs();

    let mut t = Table::new(
        "Extension B1 — every metric on the GE 2 -> 4 node scenario",
        &["Metric", "Value", "Caveat quantified"],
    );

    // 1. Isospeed-efficiency (the paper).
    let psi = isospeed_efficiency_scalability(
        small.marked_speed_flops(),
        w1,
        big.marked_speed_flops(),
        w2,
    );
    t.push_row(vec![
        "isospeed-efficiency psi".into(),
        fnum(psi),
        "defined over C; no caveat — the reference value".into(),
    ]);

    // 2. Classic isospeed: counts processors, misprices heterogeneity.
    let psi_iso = isospeed_psi(small.size(), w1, big.size(), w2);
    t.push_row(vec![
        "isospeed psi (p-based)".into(),
        fnum(psi_iso),
        format!(
            "{:.0}% off the C-based value on this heterogeneous ladder",
            (psi_iso / psi - 1.0).abs() * 100.0
        ),
    ]);

    // 3. Isoefficiency: needs T_seq of the full problem on one node.
    let one_blade =
        ClusterSpec::new("one-blade", vec![sunwulf::sunblade_node(1)]).expect("non-empty");
    let t_seq = w1 / one_blade.marked_speed_flops();
    let e_par = parallel_efficiency(t_seq, t1, small.size());
    let seq_cap = max_feasible(&one_blade, ge_feasible);
    t.push_row(vec![
        "isoefficiency E".into(),
        fnum(e_par),
        format!("sequential baseline capped at N = {seq_cap} by one node's memory"),
    ]);

    // 4. Productivity: the price tag moves the verdict.
    let base_model = ProductivityModel {
        throughput: 1.0 / t1,
        response_time: t1,
        cost_per_sec: 2.0,
        half_value_response: 10.0,
    };
    let t2_scaled = ge_parallel_timed(&big, &net, n2, RunSpec::default()).makespan.as_secs();
    let paid = ProductivityModel {
        throughput: 1.0 / t2_scaled,
        response_time: t2_scaled,
        cost_per_sec: 4.0,
        half_value_response: 10.0,
    };
    let discounted = ProductivityModel { cost_per_sec: 2.0, ..paid };
    let psi_prod = productivity_scalability(&base_model, &paid);
    let psi_disc = productivity_scalability(&base_model, &discounted);
    t.push_row(vec![
        "productivity psi".into(),
        fnum(psi_prod),
        format!("a 50% discount changes it to {} at fixed hardware", fnum(psi_disc)),
    ]);

    // 5. Pastor–Bosque: heterogeneity-aware but sequential-anchored.
    let c_ref = sunwulf::SUNBLADE_MFLOPS * 1e6;
    let e_pb = heterogeneous_efficiency(w1 / c_ref, t1, small.marked_speed_flops(), c_ref);
    t.push_row(vec![
        "Pastor-Bosque E_het".into(),
        fnum(e_pb),
        "equals E_s when T_seq is rated, but must be *measured* on one node".into(),
    ]);

    t.push_note(format!("scenario: required N for E_s = {}: {n1} -> {n2}", params.ge_target));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_and_p_based_psi_differ_on_heterogeneous_ladders() {
        let t = baseline_comparison(&ExperimentParams::quick());
        let psi: f64 = t.rows[0][1].parse().unwrap();
        let psi_iso: f64 = t.rows[1][1].parse().unwrap();
        assert!(psi > 0.0 && psi < 1.0);
        // The 2-node rung is heterogeneous (server ≠ SunBlade), so the
        // p-based value must differ from the C-based one.
        assert!((psi_iso - psi).abs() / psi > 0.02, "p-based {psi_iso} vs C-based {psi}");
    }

    #[test]
    fn pastor_bosque_matches_speed_efficiency_with_rated_baseline() {
        // With T_seq = W/C_ref (rated, not measured), E_het = E_s — the
        // operational difference is *how* T_seq is obtained.
        let t = baseline_comparison(&ExperimentParams::quick());
        let e_pb: f64 = t.rows[4][1].parse().unwrap();
        assert!((e_pb - 0.3).abs() < 0.05, "E_het = {e_pb} should sit at the target");
    }

    #[test]
    fn sequential_memory_cap_is_reported() {
        let t = baseline_comparison(&ExperimentParams::quick());
        assert!(t.rows[2][2].contains("capped at N ="));
    }
}

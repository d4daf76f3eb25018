//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * **Distribution strategy** — what speed-proportional distribution
//!   buys over a speed-blind equal split on a heterogeneous system.
//! * **Network-model fidelity** — how the interconnect model
//!   (constant-latency, switched, shared medium) moves speed-efficiency
//!   and the required problem size.
//! * **Trend-line degree** — stability of the required-`N` readout and
//!   of ψ against the polynomial degree of the paper's trend line.

use crate::systems::GeSystem;
use crate::table::{fnum, Table};
use hetpart::selfsched::{dynamic_schedule, static_schedule};
use hetpart::{BlockDistribution, CyclicDistribution};
use hetsim_cluster::network::{
    ConstantLatency, MpichEthernet, NetworkModel, SharedEthernet, SwitchedNetwork,
};
use hetsim_cluster::sunwulf;
use hetsim_cluster::time::SimTime;
use hetsim_cluster::topology::SegmentedNetwork;
use hetsim_mpi::RunSpec;
use kernels::ge::ge_parallel_timed_with;
use kernels::mm::{mm_parallel_timed, mm_parallel_timed_with};
use kernels::workload::{ge_work, mm_work};
use scalability::measure::speed_efficiency;
use scalability::metric::EfficiencyCurve;

/// A1 — proportional vs homogeneous distribution on heterogeneous
/// configurations, for both kernels, at a fixed problem size.
pub fn ablate_distribution(n: usize) -> Table {
    let net = sunwulf::sunwulf_network();
    let mut t = Table::new(
        format!("Ablation A1 — distribution strategy at N = {n}"),
        &["Kernel", "System", "Strategy", "T (s)", "Speed-efficiency"],
    );

    for &p in &[4usize, 8] {
        // GE on the GE ladder.
        let cluster = sunwulf::ge_config(p);
        let speeds = cluster.speeds_mflops();
        let c = cluster.marked_speed_flops();
        let strategies = [
            ("heterogeneous", CyclicDistribution::fine(n, &speeds)),
            ("homogeneous", CyclicDistribution::fine(n, &vec![1.0; p])),
        ];
        for (name, dist) in strategies {
            let out = ge_parallel_timed_with(&cluster, &net, n, &dist);
            let time = out.makespan.as_secs();
            t.push_row(vec![
                "GE".into(),
                cluster.label.clone(),
                name.into(),
                fnum(time),
                fnum(speed_efficiency(ge_work(n), time, c)),
            ]);
        }

        // MM on the MM ladder.
        let cluster = sunwulf::mm_config(p);
        let speeds = cluster.speeds_mflops();
        let c = cluster.marked_speed_flops();
        let strategies = [
            ("heterogeneous", BlockDistribution::proportional(n, &speeds)),
            ("homogeneous", BlockDistribution::homogeneous(n, p)),
        ];
        for (name, dist) in strategies {
            let out = mm_parallel_timed_with(&cluster, &net, n, &dist);
            let time = out.makespan.as_secs();
            t.push_row(vec![
                "MM".into(),
                cluster.label.clone(),
                name.into(),
                fnum(time),
                fnum(speed_efficiency(mm_work(n), time, c)),
            ]);
        }
    }
    t.push_note("heterogeneous = rows proportional to marked speed (the paper's scheme)");
    t
}

/// A2 — network-model fidelity: speed-efficiency of GE at a fixed size
/// under three interconnect models with matched latency/bandwidth.
pub fn ablate_network(n: usize) -> Table {
    let alpha = 0.3e-3;
    let beta = 12.5e6;
    let models: Vec<(&str, Box<dyn NetworkModel>)> = vec![
        ("constant-latency", Box::new(ConstantLatency::new(alpha))),
        ("switched", Box::new(SwitchedNetwork::new(alpha, beta))),
        ("shared-ethernet", Box::new(SharedEthernet::new(alpha, beta))),
    ];
    let mut t = Table::new(
        format!("Ablation A2 — network model fidelity (GE, N = {n})"),
        &["Model", "p", "T (s)", "Speed-efficiency"],
    );
    for (name, net) in &models {
        for &p in &[2usize, 8] {
            let cluster = sunwulf::ge_config(p);
            let speeds = cluster.speeds_mflops();
            let dist = CyclicDistribution::fine(n, &speeds);
            let out = ge_parallel_timed_with(&cluster, &net.as_ref(), n, &dist);
            let time = out.makespan.as_secs();
            t.push_row(vec![
                name.to_string(),
                p.to_string(),
                fnum(time),
                fnum(speed_efficiency(ge_work(n), time, cluster.marked_speed_flops())),
            ]);
        }
    }
    t.push_note("matched α = 0.3 ms, β = 12.5 MB/s across models");
    t
}

/// A4 — node placement across network segments: the same 8-node MM
/// system (same marked speed `C`) on a two-switch fabric, with rank 0's
/// distribution partners either co-located on its segment or spread
/// across the uplink.
pub fn ablate_placement(n: usize) -> Table {
    let cluster = sunwulf::mm_config(8);
    let local = MpichEthernet::new(0.1e-3, 1e8);
    let uplink = MpichEthernet::new(0.8e-3, 1.25e7);

    // Layouts: root + its 7 partners packed onto one switch vs split
    // 4 + 4 across the uplink (the root's segment holds ranks 0..4).
    let layouts: [(&str, Vec<usize>); 3] = [
        ("one switch", vec![0; 8]),
        ("split 4 + 4", vec![0, 0, 0, 0, 1, 1, 1, 1]),
        ("root isolated", vec![0, 1, 1, 1, 1, 1, 1, 1]),
    ];

    let mut t = Table::new(
        format!("Ablation A4 — node placement across segments (MM, N = {n})"),
        &["Layout", "T (s)", "Speed-efficiency"],
    );
    for (name, map) in layouts {
        let net = SegmentedNetwork::new(map, local, uplink);
        let out = mm_parallel_timed(&cluster, &net, n, RunSpec::default());
        let time = out.makespan.as_secs();
        t.push_row(vec![
            name.to_string(),
            fnum(time),
            fnum(speed_efficiency(mm_work(n), time, cluster.marked_speed_flops())),
        ]);
    }
    t.push_note("identical nodes and marked speed C in every layout — only placement differs");
    t.push_note("the metric charges the *system* for placement: same C, different E_s and psi");
    t
}

/// A5 — static (marked-speed-proportional) vs dynamic (self-scheduled)
/// work assignment as one node's true speed drifts from its rating.
///
/// The paper's methodology treats marked speed as a constant; this
/// study quantifies the cost of that assumption: with accurate ratings
/// the static split wins (no grant traffic), but once a node delivers
/// a fraction of its rating, the dynamic scheduler's adaptivity pays
/// for its latency many times over.
pub fn ablate_scheduling() -> Table {
    // The 8-node MM configuration's marked speeds, as flop/s.
    let cluster = sunwulf::mm_config(8);
    let rated = cluster.speeds_flops();
    // 512 chunks of 2 Mflop each (a 1024-rank MM row-block at 2 rows per
    // chunk is the same order).
    let chunks = vec![2e6f64; 512];
    let grant = SimTime::from_micros(600.0); // request + reply at α = 0.3 ms

    let mut t = Table::new(
        "Ablation A5 — static vs dynamic scheduling under speed misestimation",
        &["True speed of node 7", "T static (s)", "T dynamic (s)", "winner"],
    );
    for &factor in &[1.0f64, 0.7, 0.5, 0.25] {
        let mut true_speeds = rated.clone();
        let last = true_speeds.len() - 1;
        true_speeds[last] *= factor;
        let s = static_schedule(&rated, &true_speeds, &chunks);
        let d = dynamic_schedule(&true_speeds, &chunks, grant);
        t.push_row(vec![
            format!("{:.0}% of rating", factor * 100.0),
            fnum(s.makespan.as_secs()),
            fnum(d.makespan.as_secs()),
            if s.makespan <= d.makespan { "static" } else { "dynamic" }.to_string(),
        ]);
    }
    t.push_note(
        "static = proportional by marked speed (the paper's scheme), priced at true speeds",
    );
    t.push_note("dynamic = master-worker self-scheduling, 0.6 ms per chunk grant");
    t.push_note(
        "marked speed as a constant is sound while ratings hold; staleness flips the verdict",
    );
    t
}

/// A3 — trend-line degree: required `N` for the GE 0.3 target on two
/// nodes, read from polynomial fits of degree 2..=5.
pub fn ablate_fit_degree(sizes: &[usize], target: f64) -> Table {
    let cluster = sunwulf::ge_config(2);
    let net = sunwulf::sunwulf_network();
    let sys = GeSystem::new(&cluster, &net);
    let curve = EfficiencyCurve::measure(&sys, sizes);

    let mut t = Table::new(
        format!("Ablation A3 — trend-line degree (GE 2 nodes, target {target})"),
        &["Degree", "Required N", "Fit R²"],
    );
    for degree in 2..=5 {
        let n = curve.required_n(target, degree);
        let r2 = curve.fit(degree).map(|f| f.r_squared);
        t.push_row(vec![
            degree.to_string(),
            n.map(fnum).unwrap_or_else(|e| format!("({e})")),
            r2.map(|v| format!("{v:.6}")).unwrap_or_else(|e| format!("({e})")),
        ]);
    }
    t.push_note("a stable readout across degrees validates the paper's trend-line method");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_distribution_wins_on_heterogeneous_clusters() {
        let t = ablate_distribution(192);
        // Rows come in (het, hom) pairs: het must be at least as fast.
        for pair in t.rows.chunks(2) {
            let t_het: f64 = pair[0][3].parse().unwrap();
            let t_hom: f64 = pair[1][3].parse().unwrap();
            assert!(
                t_het <= t_hom * 1.001,
                "{} {}: het {t_het} vs hom {t_hom}",
                pair[0][0],
                pair[0][1]
            );
        }
        // And strictly better for MM at p = 8 (V210s idle under equal
        // splits).
        let mm8: Vec<&Vec<String>> =
            t.rows.iter().filter(|r| r[0] == "MM" && r[1].contains("8")).collect();
        let t_het: f64 = mm8[0][3].parse().unwrap();
        let t_hom: f64 = mm8[1][3].parse().unwrap();
        assert!(t_het < t_hom * 0.95, "het {t_het} vs hom {t_hom}");
    }

    #[test]
    fn richer_network_models_cost_more() {
        let t = ablate_network(256);
        // At p = 8, shared ethernet must be slowest, constant latency
        // fastest (at these parameter values).
        let at_p8 = |model: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == model && r[1] == "8").unwrap()[col].parse().unwrap()
        };
        let tc = at_p8("constant-latency", 2);
        let ts = at_p8("switched", 2);
        let te = at_p8("shared-ethernet", 2);
        assert!(tc < ts && ts < te, "times: constant {tc}, switched {ts}, shared {te}");
        // Efficiency orders the other way.
        let ec = at_p8("constant-latency", 3);
        let ee = at_p8("shared-ethernet", 3);
        assert!(ec > ee, "efficiencies: constant {ec}, shared {ee}");
    }

    #[test]
    fn scheduling_verdict_flips_with_staleness() {
        let t = ablate_scheduling();
        assert_eq!(t.rows[0][3], "static", "accurate ratings favour static: {t}");
        assert_eq!(t.rows.last().unwrap()[3], "dynamic", "a 4x-degraded node favours dynamic: {t}");
    }

    #[test]
    fn placement_changes_efficiency_at_constant_c() {
        let t = ablate_placement(128);
        let es: Vec<f64> = t.rows.iter().map(|r| r[2].parse::<f64>().unwrap()).collect();
        // One switch is best; isolating the root (every transfer crosses
        // the uplink) is worst.
        assert!(es[0] > es[1], "one switch {} vs split {}", es[0], es[1]);
        assert!(es[1] > es[2], "split {} vs isolated root {}", es[1], es[2]);
    }

    #[test]
    fn required_n_is_stable_across_fit_degrees() {
        let sizes = vec![60, 100, 160, 260, 420, 700];
        let t = ablate_fit_degree(&sizes, 0.3);
        let ns: Vec<f64> = t.rows.iter().filter_map(|r| r[1].parse::<f64>().ok()).collect();
        assert!(ns.len() >= 3, "most degrees should invert: {t}");
        let min = ns.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ns.iter().copied().fold(0.0, f64::max);
        assert!(max / min < 1.2, "readout unstable: {ns:?}");
    }
}

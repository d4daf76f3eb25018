//! The paper's §4.5: predict scalability analytically — calibrated
//! machine parameters + the algorithm's overhead model + Corollary 2 —
//! then check the prediction against measurement, without ever running
//! the scaled system's full sweep.
//!
//! ```sh
//! cargo run --release --example predict_vs_measure
//! ```

use hetscale::hetsim_cluster::calibrate::calibrate;
use hetscale::hetsim_cluster::sunwulf;
use hetscale::numfit::stats::relative_error;
use hetscale::scalability::metric::required_n_for_efficiency;
use hetscale::scalability::predict::{psi_predicted_corollary2, Model, Predictor};
use hetscale::scalability::AlgorithmSystem;

fn main() {
    let net = sunwulf::sunwulf_network();

    // Step 1 — calibrate the machine, as the paper measures T_send,
    // T_bcast and T_barrier on Sunwulf.
    let machine = calibrate(&net).expect("calibration fits");
    println!("calibrated machine parameters:");
    println!(
        "  T_send(n)  = {:.3} ms + {:.4} µs/element   (r = {:.4})",
        machine.p2p.intercept * 1e3,
        machine.p2p.slope * 1e6,
        machine.p2p.r
    );
    println!(
        "  T_bcast    ~ {:?} basis, slope {:.3} ms",
        machine.bcast.basis,
        machine.bcast.fit.slope * 1e3
    );
    println!(
        "  T_barrier  ~ {:?} basis, slope {:.3} ms",
        machine.barrier.basis,
        machine.barrier.fit.slope * 1e3
    );

    // Step 2 — per configuration: predicted vs measured required N.
    let sizes: Vec<usize> = vec![60, 120, 240, 420, 700, 1100, 1700];
    let target = 0.3;
    let configs = [2usize, 4, 8];
    println!("\n{:<8} {:>14} {:>14}", "nodes", "N (predicted)", "N (measured)");
    let mut predicted_n = Vec::new();
    let mut predictors = Vec::new();
    for &p in &configs {
        let cluster = sunwulf::ge_config(p);
        let predictor = Predictor::new(Model::Ge, &cluster, machine);
        let n_pred = required_n_for_efficiency(&predictor, target, &sizes, 3)
            .expect("prediction reaches target")
            .round() as usize;
        let sys = bench_tables::GeSystem::new(&cluster, &net);
        let n_meas = required_n_for_efficiency(&sys, target, &sizes, 3)
            .expect("measurement reaches target")
            .round() as usize;
        println!("{p:<8} {n_pred:>14} {n_meas:>14}");
        predicted_n.push((n_pred, n_meas));
        predictors.push(predictor);
    }

    // Step 3 — ψ by Corollary 2 (α ≈ 0 for large N): the overhead ratio
    // at the required sizes.
    println!("\n{:<12} {:>16} {:>16} {:>10}", "step", "psi (predicted)", "psi (measured)", "error");
    for w in 0..configs.len() - 1 {
        let psi_pred = psi_predicted_corollary2(
            &predictors[w],
            predicted_n[w].0,
            &predictors[w + 1],
            predicted_n[w + 1].0,
        );
        let c = predictors[w].c_flops;
        let c2 = predictors[w + 1].c_flops;
        let work = |n: usize| predictors[w].work(n);
        let psi_meas = (c2 * work(predicted_n[w].1)) / (c * work(predicted_n[w + 1].1));
        println!(
            "{:<12} {:>16.4} {:>16.4} {:>9.1}%",
            format!("{} -> {}", configs[w], configs[w + 1]),
            psi_pred,
            psi_meas,
            relative_error(psi_pred, psi_meas) * 100.0
        );
    }
    println!("\npaper: \"the predicted scalability is close to our measured scalability\"");
}

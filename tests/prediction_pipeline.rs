//! The full §4.5 pipeline across crates: calibrate machine parameters
//! from the network model, predict GE's required problem size and ψ
//! analytically, and check the prediction against the *simulated
//! measurement* (the timing-exact SPMD kernel).

use hetscale::hetsim_cluster::calibrate::calibrate;
use hetscale::hetsim_cluster::sunwulf;
use hetscale::hetsim_mpi::RunSpec;
use hetscale::kernels::ge::ge_parallel_timed;
use hetscale::kernels::workload::ge_work;
use hetscale::numfit::stats::relative_error;
use hetscale::scalability::measure::speed_efficiency;
use hetscale::scalability::metric::required_n_for_efficiency;
use hetscale::scalability::predict::{psi_predicted_corollary2, GePredictor};

fn sizes() -> Vec<usize> {
    vec![60, 100, 160, 260, 420, 700, 1100, 1700]
}

#[test]
fn predicted_time_tracks_simulated_time() {
    let net = sunwulf::sunwulf_network();
    let machine = calibrate(&net).unwrap();
    for p in [2usize, 4, 8] {
        let cluster = sunwulf::ge_config(p);
        let predictor = GePredictor::new(&cluster, machine);
        for n in [120usize, 300, 600] {
            let simulated =
                ge_parallel_timed(&cluster, &net, n, RunSpec::default()).makespan.as_secs();
            let predicted = predictor.predicted_time_secs(n);
            let err = relative_error(predicted, simulated);
            assert!(
                err < 0.25,
                "p = {p}, N = {n}: predicted {predicted:.4}s vs simulated {simulated:.4}s ({:.0}%)",
                err * 100.0
            );
        }
    }
}

#[test]
fn predicted_efficiency_tracks_simulated_efficiency() {
    let net = sunwulf::sunwulf_network();
    let machine = calibrate(&net).unwrap();
    let cluster = sunwulf::ge_config(4);
    let predictor = GePredictor::new(&cluster, machine);
    for n in [200usize, 500, 900] {
        let t = ge_parallel_timed(&cluster, &net, n, RunSpec::default()).makespan.as_secs();
        let measured = speed_efficiency(ge_work(n), t, cluster.marked_speed_flops());
        let predicted = predictor.predicted_efficiency(n);
        assert!(
            relative_error(predicted, measured) < 0.2,
            "N = {n}: predicted E {predicted:.3} vs measured {measured:.3}"
        );
    }
}

#[test]
fn predicted_psi_close_to_measured_psi() {
    // The paper's closing claim: "the predicted scalability is close to
    // our measured scalability".
    let net = sunwulf::sunwulf_network();
    let machine = calibrate(&net).unwrap();
    let configs = [2usize, 4, 8];
    let target = 0.3;

    let mut measured_n = Vec::new();
    let mut predictors = Vec::new();
    for &p in &configs {
        let cluster = sunwulf::ge_config(p);
        // Measured required N from the simulated kernel.
        let sys = bench_tables::GeSystem::new(&cluster, &net);
        let n = required_n_for_efficiency(&sys, target, &sizes(), 3).unwrap().round() as usize;
        measured_n.push(n);
        predictors.push(GePredictor::new(&cluster, machine));
    }

    for w in 0..configs.len() - 1 {
        // Predicted required N from the analytic model.
        let n_pred_base = required_n_for_efficiency(&predictors[w], target, &sizes(), 3)
            .unwrap()
            .round() as usize;
        let n_pred_next = required_n_for_efficiency(&predictors[w + 1], target, &sizes(), 3)
            .unwrap()
            .round() as usize;
        let psi_pred =
            psi_predicted_corollary2(&predictors[w], n_pred_base, &predictors[w + 1], n_pred_next);
        // Measured ψ from the simulated required N.
        let c = predictors[w].c_flops;
        let c2 = predictors[w + 1].c_flops;
        let psi_meas = (c2 * ge_work(measured_n[w])) / (c * ge_work(measured_n[w + 1]));
        assert!(
            relative_error(psi_pred, psi_meas) < 0.25,
            "step {w}: predicted psi {psi_pred:.3} vs measured {psi_meas:.3}"
        );
    }
}

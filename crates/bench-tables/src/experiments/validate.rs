//! V1 (extension) — model validation: the analytic predictors against
//! the simulated (virtual-time SPMD) kernels for all four workloads,
//! across a (configuration, problem size) grid.
//!
//! The §4.5 prediction pipeline stands on the overhead models being
//! faithful; this experiment measures that faithfulness directly as a
//! relative-error table, kernel by kernel. GE's model carries the
//! sequential back-substitution term and shrinking broadcasts, MM's the
//! root-serialized distribution, the stencil's the p-independent halo
//! exchange, and the power method's the two-phase allgather — each
//! validated against the engine that actually executes the protocol.

use crate::systems::{power_iters, stencil_iters};
use crate::table::Table;
use hetsim_cluster::calibrate::calibrate;
use hetsim_cluster::sunwulf;
use hetsim_mpi::RunSpec;
use kernels::ge_makespan;
use kernels::mm::mm_parallel_timed;
use kernels::power::power_parallel_timed;
use kernels::stencil::stencil_parallel_timed;
use numfit::stats::relative_error;
use scalability::predict::{Model, Predictor};

/// Runs the validation grid: for each kernel × configuration, the worst
/// and mean relative error of the predicted time over `sizes`.
pub fn model_validation(ladder: &[usize], sizes: &[usize]) -> Table {
    let net = sunwulf::sunwulf_network();
    let machine = calibrate(&net).expect("calibration fits");

    let mut t = Table::new(
        "Extension V1 — analytic models vs simulated kernels (relative error of T)",
        &["Kernel", "Nodes", "mean error", "worst error", "worst at N"],
    );

    for &p in ladder {
        let cluster = sunwulf::ge_config(p);
        // (kernel model, simulated time fn)
        type TimeFn<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
        let rows: Vec<(Model, TimeFn)> = vec![
            (Model::Ge, Box::new(|n| ge_makespan(&cluster, &net, n).as_secs())),
            (
                Model::Mm,
                Box::new(|n| {
                    mm_parallel_timed(&cluster, &net, n, RunSpec::default()).makespan.as_secs()
                }),
            ),
            (
                Model::Stencil { iters: stencil_iters },
                Box::new(|n| {
                    stencil_parallel_timed(&cluster, &net, n, stencil_iters(n), RunSpec::default())
                        .makespan
                        .as_secs()
                }),
            ),
            (
                Model::Power { iters: power_iters },
                Box::new(|n| {
                    power_parallel_timed(&cluster, &net, n, power_iters(n), RunSpec::default())
                        .makespan
                        .as_secs()
                }),
            ),
        ];
        for (model, simulated) in rows {
            let predictor = Predictor::new(model, &cluster, machine);
            let mut worst = 0.0f64;
            let mut worst_n = 0usize;
            let mut sum = 0.0f64;
            for &n in sizes {
                let err = relative_error(predictor.predicted_time_secs(n), simulated(n));
                sum += err;
                if err > worst {
                    worst = err;
                    worst_n = n;
                }
            }
            t.push_row(vec![
                model.name().to_string(),
                p.to_string(),
                format!("{:.1}%", sum / sizes.len() as f64 * 100.0),
                format!("{:.1}%", worst * 100.0),
                worst_n.to_string(),
            ]);
        }
    }
    t.push_note("simulated = virtual-time SPMD protocol run; predicted = closed-form model");
    t.push_note("per-workload models share one machine calibration (T_send/T_bcast/T_barrier)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_tracks_its_kernel_within_a_quarter() {
        let t = model_validation(&[2, 4, 8], &[96, 192, 384]);
        assert_eq!(t.rows.len(), 12);
        for row in &t.rows {
            let worst: f64 = row[3].trim_end_matches('%').parse().unwrap();
            assert!(worst < 25.0, "{} at {} nodes: worst error {worst}%", row[0], row[1]);
        }
    }

    #[test]
    fn mean_error_never_exceeds_worst() {
        let t = model_validation(&[2, 4], &[96, 256]);
        for row in &t.rows {
            let mean: f64 = row[2].trim_end_matches('%').parse().unwrap();
            let worst: f64 = row[3].trim_end_matches('%').parse().unwrap();
            assert!(mean <= worst + 1e-9, "{row:?}");
        }
    }
}

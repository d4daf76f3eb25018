//! One scenario, five scalability metrics — the paper's §2 as running
//! code. A heterogeneous system is doubled; each prior metric renders a
//! verdict, and the doc prints why the paper finds each lacking for
//! heterogeneous machines.
//!
//! ```sh
//! cargo run --release --example metric_comparison
//! ```

use hetscale::hetsim_cluster::sunwulf;
use hetscale::hetsim_mpi::RunSpec;
use hetscale::kernels::ge::ge_parallel_timed;
use hetscale::kernels::workload::ge_work;
use hetscale::scalability::baselines::isoefficiency::parallel_efficiency;
use hetscale::scalability::baselines::isospeed::{average_unit_speed, isospeed_psi};
use hetscale::scalability::baselines::pastor_bosque::heterogeneous_efficiency;
use hetscale::scalability::baselines::productivity::{productivity_scalability, ProductivityModel};
use hetscale::scalability::function::isospeed_efficiency_scalability;
use hetscale::scalability::metric::required_n_for_efficiency;

fn main() {
    let net = sunwulf::sunwulf_network();
    let small = sunwulf::ge_config(2);
    let big = sunwulf::ge_config(4);
    let sizes: Vec<usize> = vec![60, 100, 160, 260, 420, 700, 1100];

    // Shared measurements.
    let sys_small = bench_tables::GeSystem::new(&small, &net);
    let sys_big = bench_tables::GeSystem::new(&big, &net);
    let n1 = required_n_for_efficiency(&sys_small, 0.3, &sizes, 3).unwrap().round() as usize;
    let n2 = required_n_for_efficiency(&sys_big, 0.3, &sizes, 3).unwrap().round() as usize;
    let (w1, w2) = (ge_work(n1), ge_work(n2));
    let t1 = ge_parallel_timed(&small, &net, n1, RunSpec::default()).makespan.as_secs();
    let t2 = ge_parallel_timed(&big, &net, n2, RunSpec::default()).makespan.as_secs();

    println!("scenario: GE, {} -> {}", small.label, big.label);
    println!("required N for E_s = 0.3: {n1} -> {n2}\n");

    // 1. Isospeed-efficiency (this paper).
    let psi = isospeed_efficiency_scalability(
        small.marked_speed_flops(),
        w1,
        big.marked_speed_flops(),
        w2,
    );
    println!("[isospeed-efficiency]   psi = {psi:.4}");
    println!("   defined over marked speed C — heterogeneity-aware, no sequential run needed\n");

    // 2. Classic isospeed (Sun & Rover) — needs a processor count, which
    //    misrepresents heterogeneous nodes.
    let psi_iso = isospeed_psi(small.size(), w1, big.size(), w2);
    println!("[isospeed]              psi = {psi_iso:.4}");
    println!(
        "   unit speed {:.1} Mflop/s per *processor* pretends the server and a SunBlade are equal",
        average_unit_speed(w1, t1, small.size()) / 1e6
    );
    println!("   (paper: homogeneous-only; the special case C = p*Ci of the metric above)\n");

    // 3. Isoefficiency (Kumar et al.) — needs the sequential time of the
    //    *full* problem on one node.
    let t_seq_small = w1 / (sunwulf::SERVER_CPU_MFLOPS * 2.0 * 1e6);
    let e = parallel_efficiency(t_seq_small, t1, small.size());
    println!("[isoefficiency]         E = {e:.4} at N = {n1}");
    println!(
        "   requires T_seq(N = {n1}) = {t_seq_small:.2} s on one node — impractical at scale \
         (a 128 MB SunBlade cannot even hold the 32-node problems)\n"
    );

    // 4. Productivity (Jogalekar & Woodside) — scalability tracks price.
    let charge_small = ProductivityModel {
        throughput: 1.0 / t1,
        response_time: t1,
        cost_per_sec: 2.0, // two rented nodes
        half_value_response: 10.0,
    };
    let charge_big = ProductivityModel {
        throughput: 1.0 / t2,
        response_time: t2,
        cost_per_sec: 4.0,
        half_value_response: 10.0,
    };
    let psi_prod = productivity_scalability(&charge_small, &charge_big);
    let discounted = ProductivityModel { cost_per_sec: 2.0, ..charge_big };
    println!("[productivity]          psi = {psi_prod:.4}");
    println!(
        "   a 50% discount on the big system changes it to {:.4} with zero hardware change — \
         it measures the *deal*, not the machine\n",
        productivity_scalability(&charge_small, &discounted)
    );

    // 5. Pastor–Bosque heterogeneous efficiency — heterogeneity-aware but
    //    still anchored to a sequential run.
    let c_ref = sunwulf::SUNBLADE_MFLOPS * 1e6;
    let e_pb = heterogeneous_efficiency(w1 / c_ref, t1, small.marked_speed_flops(), c_ref);
    println!("[Pastor-Bosque]         E_het = {e_pb:.4} at N = {n1}");
    println!("   heterogeneity-aware, but inherits isoefficiency's sequential-run requirement");
}

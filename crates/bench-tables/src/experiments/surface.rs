//! X3 (extension) — high-resolution ψ-surface sweep on scaled Sunwulf.
//!
//! The paper evaluates ψ only between *consecutive* rungs of a
//! five-rung ladder (Tables 4 and 5). This sweep extends the ladder
//! onto scaled Sunwulf configurations — up to the whole 85-node machine
//! — and evaluates ψ(C, C′) for **every** ordered rung pair, giving the
//! full scalability surface instead of its first off-diagonal. Per
//! kernel it reports:
//!
//! * the fitted-trend inversion per rung (required `N` for the target
//!   efficiency, read off the polynomial trend line exactly as the
//!   paper does; rungs whose grid never brackets the target show `-`);
//! * the ψ(C, C′) matrix over all rung pairs (diagonal ≡ 1 by
//!   definition; ψ is directional, so only the scaling-up half is
//!   defined).
//!
//! Every `(kernel, rung)` curve is an independent cell on the worker
//! pool; the per-cell sweeps are dense `N` grids anchored to the
//! measured ladder (see [`crate::params`]). The sweep is opt-in (the
//! `surface` id) — it is not part of `all` — and composes with
//! `--jobs`, `--csv`, and the observability exports like any other id.

use crate::params::{surface_ge_sizes, surface_mm_sizes, surface_rungs, ExperimentParams};
use crate::pool;
use crate::systems::{GeSystem, MmSystem};
use crate::table::{fnum, Table};
use hetsim_cluster::sunwulf;
use scalability::isospeed_efficiency_scalability;
use scalability::metric::{AlgorithmSystem, EfficiencyCurve};

/// One measured rung (an X3 rung or an X4 preset): the system's label
/// and marked speed, and its required-`N` inversion — `None` when the
/// trend never reaches the target efficiency.
pub(crate) struct Rung {
    pub(crate) label: String,
    pub(crate) c_flops: f64,
    pub(crate) inverted: Option<(usize, f64)>, // (required N, W at N)
}

impl Rung {
    /// Measures `sys` over `sizes` and reads the required `N` off the
    /// curve with `invert` (a fitted-trend or extrapolated read-off).
    pub(crate) fn measure(
        sys: &dyn AlgorithmSystem,
        sizes: &[usize],
        invert: impl FnOnce(&EfficiencyCurve) -> Option<f64>,
    ) -> Rung {
        let curve = EfficiencyCurve::measure(sys, sizes);
        let inverted =
            invert(&curve).map(|n| n.round().max(1.0) as usize).map(|n| (n, sys.work(n)));
        Rung { label: sys.label(), c_flops: sys.marked_speed_flops(), inverted }
    }
}

/// Measures one kernel's rung (each an independent pool cell — the
/// caller flattens both kernels into one cell list).
fn measure_rung(kernel: &'static str, p: usize, params: &ExperimentParams) -> Rung {
    let net = sunwulf::sunwulf_network();
    let degree = params.fit_degree;
    match kernel {
        "ge" => {
            let cluster = sunwulf::ge_config(p);
            let sys = GeSystem::new(&cluster, &net);
            Rung::measure(&sys, &surface_ge_sizes(p), |c| {
                c.required_n(params.ge_target, degree).ok()
            })
        }
        "mm" => {
            let cluster = sunwulf::mm_config(p);
            let sys = MmSystem::new(&cluster, &net);
            Rung::measure(&sys, &surface_mm_sizes(p), |c| {
                c.required_n(params.mm_target, degree).ok()
            })
        }
        other => unreachable!("unknown surface kernel {other}"),
    }
}

/// Renders one kernel's inversion table (`inv_title`, with `inv_note`
/// explaining a `-` row) and its ψ matrix (`matrix_title`) over the
/// measured rungs, which `tags` label in the matrix. Callers keep a
/// distinct pre-dash prefix per title so the `--csv` slugs (title up to
/// the em-dash) do not collide.
pub(crate) fn render_psi(
    inv_title: String,
    inv_note: &str,
    matrix_title: String,
    tags: &[String],
    measured: &[Rung],
) -> (Table, Table) {
    let mut inv = Table::new(
        inv_title,
        &["System", "Marked speed (Mflop/s)", "Required N", "Workload W (flop)"],
    );
    for r in measured {
        let (n_cell, w_cell) = match r.inverted {
            Some((n, w)) => (n.to_string(), fnum(w)),
            None => ("-".to_string(), "-".to_string()),
        };
        inv.push_row(vec![r.label.clone(), fnum(r.c_flops / 1e6), n_cell, w_cell]);
    }
    inv.push_note(inv_note);

    let headers: Vec<String> =
        std::iter::once("p".to_string()).chain(tags.iter().map(|t| format!("p' = {t}"))).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut matrix = Table::new(matrix_title, &header_refs);
    for (i, from) in measured.iter().enumerate() {
        let mut row = vec![tags[i].clone()];
        for (j, to) in measured.iter().enumerate() {
            row.push(match (i.cmp(&j), &from.inverted, &to.inverted) {
                (std::cmp::Ordering::Equal, _, _) => "1.0000".to_string(),
                (std::cmp::Ordering::Greater, _, _) => String::new(),
                (_, Some((_, w)), Some((_, w_prime))) => {
                    fnum(isospeed_efficiency_scalability(from.c_flops, *w, to.c_flops, *w_prime))
                }
                _ => "-".to_string(),
            });
        }
        matrix.push_row(row);
    }
    matrix.push_note("rows: base configuration C; columns: scaled configuration C'");
    matrix.push_note("psi is directional (C scaled up to C'): the lower triangle is undefined");
    (inv, matrix)
}

/// Runs the ψ-surface sweep and returns the four tables (GE inversions,
/// GE matrix, MM inversions, MM matrix).
pub fn psi_surface(params: &ExperimentParams, quick: bool) -> Vec<Table> {
    let rungs = surface_rungs(quick);
    // Flatten both kernels' rungs into one cell list so the pool keeps
    // every worker busy across the GE/MM cost imbalance.
    let cells: Vec<(&'static str, usize)> =
        ["ge", "mm"].iter().flat_map(|&k| rungs.iter().map(move |&p| (k, p))).collect();
    let measured: Vec<Rung> =
        pool::run_indexed(&cells, |_, &(kernel, p)| measure_rung(kernel, p, params));
    let (ge, mm) = measured.split_at(rungs.len());
    let tags: Vec<String> = rungs.iter().map(usize::to_string).collect();
    let mut tables = Vec::new();
    for (name, target, measured) in [("GE", params.ge_target, ge), ("MM", params.mm_target, mm)] {
        let (inv, matrix) = render_psi(
            format!("X3 {name} inversions — fitted-trend required N per rung (E_s = {target})"),
            "`-`: the rung's size grid never brackets the target efficiency",
            format!("X3 {name} surface — psi(C, C') over scaled Sunwulf rungs (E_s = {target})"),
            &tags,
            measured,
        );
        tables.extend([inv, matrix]);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_tables_have_the_expected_shape() {
        let params = ExperimentParams::quick();
        let tables = psi_surface(&params, true);
        assert_eq!(tables.len(), 4, "GE inversions, GE matrix, MM inversions, MM matrix");
        let rungs = surface_rungs(true);
        for t in &tables {
            assert_eq!(t.rows.len(), rungs.len(), "one row per rung in {}", t.title);
        }
        // Matrix tables: one label column + one column per rung.
        for t in [&tables[1], &tables[3]] {
            assert_eq!(t.headers.len(), rungs.len() + 1, "{}", t.title);
        }
    }

    #[test]
    fn surface_diagonal_is_one_and_upper_triangle_is_in_unit_interval() {
        let params = ExperimentParams::quick();
        let tables = psi_surface(&params, true);
        for t in [&tables[1], &tables[3]] {
            for (i, row) in t.rows.iter().enumerate() {
                assert_eq!(row[i + 1], "1.0000", "diagonal of {}", t.title);
                for (j, cell) in row.iter().enumerate().skip(1) {
                    let j = j - 1;
                    if j < i {
                        assert!(cell.is_empty(), "lower triangle of {}", t.title);
                    } else if j > i && cell != "-" {
                        let psi: f64 = cell.parse().expect("psi cell parses");
                        assert!(
                            psi > 0.0 && psi < 1.0,
                            "psi({i}, {j}) = {psi} out of (0, 1) in {}",
                            t.title
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quick_rungs_all_invert() {
        // The quick grids are anchored to the measured ladder, so every
        // quick rung's inversion must succeed (no `-` rows).
        let params = ExperimentParams::quick();
        let tables = psi_surface(&params, true);
        for t in [&tables[0], &tables[2]] {
            for row in &t.rows {
                assert_ne!(row[2], "-", "inversion failed in {}: {row:?}", t.title);
            }
        }
    }

    #[test]
    fn surface_psi_decays_along_long_jumps() {
        // ψ over a long jump (2 → 16) must not exceed ψ over the first
        // short jump (2 → 4): scaling further away cannot get *easier*.
        let params = ExperimentParams::quick();
        let tables = psi_surface(&params, true);
        for t in [&tables[1], &tables[3]] {
            let first = &t.rows[0];
            let short: f64 = first[2].parse().expect("psi(2,4) parses");
            let long: f64 = first[4].parse().expect("psi(2,16) parses");
            assert!(long <= short, "psi(2,16) = {long} > psi(2,4) = {short} in {}", t.title);
        }
    }
}

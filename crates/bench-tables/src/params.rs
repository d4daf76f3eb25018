//! Shared experiment parameters: ladders, sweeps, targets.
//!
//! Everything tunable about the reproduction lives here, in one place,
//! with the paper's corresponding choice noted. `ExperimentParams::full()`
//! mirrors the paper (ladders to 32 nodes); `ExperimentParams::quick()`
//! shrinks sweeps for smoke tests and CI.

/// Tunable knobs for the experiment suite.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentParams {
    /// Node counts of the GE ladder (paper: 2, 4, 8, 16, 32).
    pub ge_ladder: Vec<usize>,
    /// Node counts of the MM ladder (paper: 2, 4, 8, 16, 32).
    pub mm_ladder: Vec<usize>,
    /// Target speed-efficiency for GE (paper: 0.3).
    pub ge_target: f64,
    /// Target speed-efficiency for MM (paper: 0.2).
    pub mm_target: f64,
    /// Problem sizes swept for the GE efficiency curves.
    pub ge_sizes: Vec<usize>,
    /// Problem sizes swept for the MM efficiency curves.
    pub mm_sizes: Vec<usize>,
    /// Trend-line polynomial degree (paper: "polynomial trend line").
    pub fit_degree: usize,
}

impl ExperimentParams {
    /// The paper-scale configuration.
    pub fn full() -> ExperimentParams {
        ExperimentParams {
            ge_ladder: vec![2, 4, 8, 16, 32],
            mm_ladder: vec![2, 4, 8, 16, 32],
            ge_target: 0.3,
            mm_target: 0.2,
            // Geometric-ish sweep wide enough that every rung's required
            // N (from ~290 at p = 2 to ~4700 at p = 32) is interior.
            ge_sizes: vec![60, 120, 240, 420, 700, 1100, 1700, 2600, 3800, 5200],
            // MM saturates fast (overhead is O(N²) against O(N³) work);
            // small sizes resolve the target crossing (required N runs
            // from ~30 at p = 2 to ~230 at p = 32), larger ones the
            // curve shape.
            mm_sizes: vec![12, 16, 24, 32, 48, 64, 96, 128, 176, 240, 330, 450],
            fit_degree: 3,
        }
    }

    /// A fast configuration for smoke tests: 3-rung ladders, short sweeps.
    pub fn quick() -> ExperimentParams {
        ExperimentParams {
            ge_ladder: vec![2, 4, 8],
            mm_ladder: vec![2, 4, 8],
            ge_target: 0.3,
            mm_target: 0.2,
            ge_sizes: vec![60, 100, 160, 260, 420, 700, 1100, 1700],
            mm_sizes: vec![12, 16, 24, 32, 48, 64, 96, 128, 176],
            fit_degree: 3,
        }
    }
}

/// Node counts of the ψ-surface sweep (X3). The full sweep extends the
/// paper's ladder onto scaled Sunwulf rungs up to the whole 85-node
/// machine (1 server + 64 SunBlades + 20 V210s ⇒ 85 ranks); quick stops
/// at 16 nodes so the smoke run stays fast.
pub fn surface_rungs(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 4, 8, 16]
    } else {
        vec![2, 4, 8, 16, 32, 64, 85]
    }
}

/// Relative multipliers of the per-rung anchor size — one column of the
/// ψ surface. Wide enough that the target-efficiency crossing is
/// interior at every rung, dense enough near 1.0 that the fitted-trend
/// inversion resolves the crossing sharply.
const SURFACE_GRID: [f64; 9] = [0.45, 0.6, 0.75, 0.9, 1.0, 1.15, 1.35, 1.55, 1.8];

/// Dense problem-size grid for one GE surface rung. The measured GE
/// ladder pins required `N` ≈ 150·p across the paper's rungs (301 at
/// p = 2, 4727 at p = 32 — Table 3), so the anchor extrapolates
/// linearly to the scaled rungs and the grid brackets it.
pub fn surface_ge_sizes(p: usize) -> Vec<usize> {
    let anchor = 150.0 * p as f64;
    SURFACE_GRID.iter().map(|m| (m * anchor).round() as usize).collect()
}

/// Dense problem-size grid for one MM surface rung. MM's required `N`
/// grows sublinearly (≈ 20 at p = 2 crossing to ≈ 210 at p = 32 — the
/// Fig. 2 sweep), consistent with a `N ∝ p^0.86` power law; the anchor
/// follows it so the crossing stays interior out to 85 nodes.
pub fn surface_mm_sizes(p: usize) -> Vec<usize> {
    let anchor = 20.0 * (p as f64 / 2.0).powf(0.856);
    SURFACE_GRID.iter().map(|m| (m * anchor).round().max(4.0) as usize).collect()
}

/// One machine of the X4 mega-scale sweep: a rank count plus the
/// speed-ladder shape of its HEET preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegaPreset {
    /// Total ranks.
    pub ranks: usize,
    /// Harmonic (Zipf-spread) speed decay instead of the linear ladder
    /// — same endpoints and tier populations, sagging interior tiers.
    pub zipf: bool,
}

impl MegaPreset {
    /// Short tag for table axes: the rank count, with the ladder shape
    /// when it is not the default linear one.
    pub fn tag(&self) -> String {
        if self.zipf {
            format!("{} (zipf)", self.ranks)
        } else {
            self.ranks.to_string()
        }
    }
}

/// Presets of the X4 mega-scale sweep: HEET machines from 10³ to 10⁷
/// ranks, every cell priced in O(classes) through the class-aggregated
/// closed forms. One heavy-tailed (Zipf-spread) rung rides between the
/// 10⁴ and 10⁵ linear machines so the sweep crosses ladder shapes, not
/// just sizes. Quick stops at the 10⁵ preset (the interactive,
/// ci.sh-gated point that is still affordable for the per-rank oracle
/// under `--no-analytic`); full adds the 10⁶ and 10⁷ machines.
pub fn mega_presets(quick: bool) -> Vec<MegaPreset> {
    let mut presets = vec![
        MegaPreset { ranks: 1_000, zipf: false },
        MegaPreset { ranks: 10_000, zipf: false },
        MegaPreset { ranks: 30_000, zipf: true },
        MegaPreset { ranks: 100_000, zipf: false },
    ];
    if !quick {
        presets.push(MegaPreset { ranks: 1_000_000, zipf: false });
        presets.push(MegaPreset { ranks: 10_000_000, zipf: false });
    }
    presets
}

/// Speed-tier cap of the mega HEET machines — the same 8-tier shape the
/// engine-equivalence extremes use at 85 nodes, scaled out.
pub const MEGA_MAX_CLASSES: usize = 8;

/// Marked speed of the slowest mega tier (Mflop/s) — Sunwulf's V210
/// per-CPU class, so the mega machines read as scaled-out Sunwulfs.
pub const MEGA_BASE_MFLOPS: f64 = 45.0;

/// Fastest-to-slowest marked-speed ratio of the mega machines.
pub const MEGA_SPREAD: f64 = 2.4;

/// Fixed sweep count of the mega power-iteration cells. The ladder's
/// `⌈n/4⌉` rule would put `O(n)` collective phases in every cell; a
/// fixed count keeps evaluation `O(classes · iters)` at any rank count.
pub const MEGA_POWER_ITERS: usize = 4;

/// Dense problem-size grid for one MM mega rung. MM's Θ(N³) work
/// against Θ(N²)-byte collectives keeps the target crossing finite;
/// measured across all five presets the crossing sits at `N* ≈ 3.2·p`
/// (the `O(p·α)` scatter/gather serialization is the binding overhead,
/// so `N*` grows linearly, not with `p·log p`). The anchor follows it
/// so the crossing stays interior from 10³ to 10⁷ ranks.
pub fn mega_mm_sizes(p: usize) -> Vec<usize> {
    let anchor = 3.2 * p as f64;
    SURFACE_GRID.iter().map(|m| (m * anchor).round().max(4.0) as usize).collect()
}

/// Dense problem-size grid for one power mega rung. With a fixed sweep
/// count, work is Θ(N²) against the Θ(N²) bytes the hub scatters
/// serially, so `E_s` saturates instead of crossing any target; the
/// grid's job is to reach the plateau. The scatter overtakes the
/// per-sweep `O(p·α)` allgather serialization once
/// `8N²/β ≳ iters·p·α`, i.e. `N ≳ 350·√p` on the Sunwulf network, so
/// an anchor of `1000·√p` puts the top of the grid deep inside the
/// plateau at every preset.
pub fn mega_power_sizes(p: usize) -> Vec<usize> {
    let anchor = 1000.0 * (p as f64).sqrt();
    SURFACE_GRID.iter().map(|m| (m * anchor).round().max(4.0) as usize).collect()
}

/// Relative multipliers of the GE mega anchor. Denser and narrower than
/// [`SURFACE_GRID`]: the GE cells never reach their crossing (see
/// [`mega_ge_sizes`]), so the grid's job is to pin the low-size band
/// the reciprocal trend extrapolates from.
const MEGA_GE_GRID: [f64; 5] = [1.0, 1.25, 1.6, 2.0, 2.5];

/// Dense problem-size grid for one GE mega rung. GE walks Θ(N)
/// lockstep broadcast + barrier rounds, so a cell costs Θ(N·classes)
/// even aggregated — and its target crossing sits near `N* ≈ 150·p`
/// (the X3 surface trend), unaffordable to sample at 10⁷ ranks. The
/// grid instead samples a dense band anchored at `2·p` — above the
/// `n ≈ p` regime change where ranks still hold single rows — and the
/// sweep inverts the *reciprocal* trend
/// ([`scalability::metric::EfficiencyCurve::required_n_extrapolated`]),
/// which reaches crossings beyond the sampled range.
pub fn mega_ge_sizes(p: usize) -> Vec<usize> {
    let anchor = 2.0 * p as f64;
    MEGA_GE_GRID.iter().map(|m| (m * anchor).round().max(4.0) as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper_ladders() {
        let p = ExperimentParams::full();
        assert_eq!(p.ge_ladder, vec![2, 4, 8, 16, 32]);
        assert_eq!(p.mm_ladder, vec![2, 4, 8, 16, 32]);
        assert_eq!(p.ge_target, 0.3);
        assert_eq!(p.mm_target, 0.2);
    }

    #[test]
    fn sweeps_are_sorted_and_distinct() {
        for p in [ExperimentParams::full(), ExperimentParams::quick()] {
            assert!(p.ge_sizes.windows(2).all(|w| w[0] < w[1]));
            assert!(p.mm_sizes.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn quick_is_a_strict_subscale_of_full() {
        let q = ExperimentParams::quick();
        let f = ExperimentParams::full();
        assert!(q.ge_ladder.len() < f.ge_ladder.len());
        assert!(q.ge_sizes.last().unwrap() < f.ge_sizes.last().unwrap());
    }

    #[test]
    fn surface_rungs_extend_the_paper_ladder() {
        let full = surface_rungs(false);
        assert_eq!(*full.last().unwrap(), 85, "full sweep reaches the whole machine");
        assert!(full.windows(2).all(|w| w[0] < w[1]));
        let quick = surface_rungs(true);
        assert!(quick.len() < full.len());
        assert!(quick.iter().all(|p| full.contains(p)));
    }

    #[test]
    fn mega_presets_span_three_to_seven_decades() {
        let full = mega_presets(false);
        let ranks: Vec<usize> = full.iter().map(|p| p.ranks).collect();
        assert_eq!(ranks, vec![1_000, 10_000, 30_000, 100_000, 1_000_000, 10_000_000]);
        let quick = mega_presets(true);
        assert_eq!(quick.last().unwrap().ranks, 100_000, "quick must price a >= 10^5-rank preset");
        assert!(quick.iter().all(|p| full.contains(p)));
        // Exactly one heavy-tailed rung, present in both scales, with a
        // distinct rank count so every preset pair is a genuine jump.
        assert_eq!(quick.iter().filter(|p| p.zipf).count(), 1);
        assert_eq!(full.iter().filter(|p| p.zipf).count(), 1);
        let zipf = quick.iter().find(|p| p.zipf).unwrap();
        assert_eq!(zipf.tag(), "30000 (zipf)");
        assert!(ranks.windows(2).all(|w| w[0] < w[1]), "rank counts strictly increase");
    }

    #[test]
    fn mega_grids_are_increasing_and_bracket_the_measured_crossings() {
        // The MM crossing measured at N* ≈ 3.2·p must be interior to
        // every preset's grid or the inversion cannot succeed; the
        // power grid must reach past the scatter-dominance threshold
        // N ≈ 350·√p so the ceiling is measured in its plateau.
        for preset in mega_presets(false) {
            let p = preset.ranks;
            let mm = mega_mm_sizes(p);
            assert!(mm.windows(2).all(|w| w[0] < w[1]), "MM grid not increasing at p = {p}");
            let crossing = (3.2 * p as f64) as usize;
            assert!(
                mm[0] < crossing && crossing < *mm.last().unwrap(),
                "MM crossing {crossing} exits grid at p = {p}"
            );
            let pw = mega_power_sizes(p);
            assert!(pw.windows(2).all(|w| w[0] < w[1]), "power grid not increasing at p = {p}");
            let plateau = (350.0 * (p as f64).sqrt()) as usize;
            assert!(*pw.last().unwrap() > 2 * plateau, "power grid too shallow at p = {p}");
            // The GE band sits entirely above the n ≈ p regime change
            // and below the ≈ 150·p crossing — it is an extrapolation
            // base, not a bracketing grid.
            let ge = mega_ge_sizes(p);
            assert!(ge.windows(2).all(|w| w[0] < w[1]), "GE grid not increasing at p = {p}");
            assert!(ge[0] >= 2 * p, "GE band dips into the single-row regime at p = {p}");
            assert!(*ge.last().unwrap() < 150 * p, "GE band reaches the crossing at p = {p}");
        }
    }

    #[test]
    fn surface_grids_bracket_the_measured_anchors() {
        // Table 3: required N = 301 at p = 2, 4727 at p = 32; the MM
        // sweep crosses 0.2 near N ≈ 210 at p = 32. Each anchor must be
        // interior to its rung's grid or the inversion cannot succeed.
        for (p, n) in [(2usize, 301usize), (32, 4727)] {
            let grid = surface_ge_sizes(p);
            assert!(grid.windows(2).all(|w| w[0] < w[1]), "GE grid not increasing at p = {p}");
            assert!(grid[0] < n && n < *grid.last().unwrap(), "GE anchor {n} exits grid {grid:?}");
        }
        for (p, n) in [(2usize, 20usize), (32, 210)] {
            let grid = surface_mm_sizes(p);
            assert!(grid.windows(2).all(|w| w[0] < w[1]), "MM grid not increasing at p = {p}");
            assert!(grid[0] < n && n < *grid.last().unwrap(), "MM anchor {n} exits grid {grid:?}");
        }
    }
}

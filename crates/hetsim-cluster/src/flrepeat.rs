//! Exact batched IEEE-754 repeated addition.
//!
//! Class-aggregated pricing (DESIGN.md §13) collapses a chain of
//! identical fl-additions — a hub clock absorbing one send cost per
//! class member, a marked-speed fold over an equal-speed run — into a
//! single closed-form hop. IEEE 754 addition is non-associative, so
//! the collapse must reproduce the *rounded* chain bit for bit, not
//! the real-number sum `s + k·c`. [`repeat_add`] does exactly that in
//! O(regions crossed) instead of O(k), by stepping the mantissa-space
//! dynamics of round-to-nearest-even directly:
//!
//! * within a region of constant ulp `u` (one binade, or the shared
//!   subnormal/first-normal region), split `c = q·u + r` exactly; the
//!   per-step increment is `q·u` when `r < u/2`, `(q+1)·u` when
//!   `r > u/2`, and tie-determined by mantissa parity when `r = u/2`
//!   (round half to even) — after at most one step the tie decision
//!   locks onto an even mantissa and the increment is a constant the
//!   whole region shares;
//! * region boundaries (where the ulp changes) and the `s < c`
//!   warm-up are stepped individually through hardware addition.
//!
//! Every quantity the batched path manipulates (`q`, `r`, mantissa
//! counts) is an exact integer within `u64`/`f64` range, so the result
//! is bit-identical to the naive `for _ in 0..k { s += c }` loop —
//! the property the tests below pin, and the reason class-aggregated
//! simulation can price a 10⁷-member fan-out without walking it.
//!
//! [`LANES`] and [`lanes`] fix the two-wide per-class layout that the
//! same pricing's per-row loops fold in (DESIGN.md §13).

/// One ulp of a positive, finite `f64`: the spacing of representable
/// values in the constant-ulp region containing `s`.
fn ulp(s: f64) -> f64 {
    debug_assert!(s > 0.0 && s.is_finite());
    f64::from_bits(s.to_bits() + 1) - s
}

/// The result of `k` successive IEEE-754 double additions of `c`
/// starting from `s` — `fl(…fl(fl(s + c) + c)… + c)`, `k` times —
/// computed in O(regions crossed), bit-identical to the naive loop.
///
/// Requires `s ≥ 0` and `c ≥ 0`, both finite (simulated times and
/// costs always are). The chain itself stays finite for any input a
/// simulation can produce; a chain that would overflow panics in
/// debug builds like the naive loop would return `inf`.
pub fn repeat_add(mut s: f64, c: f64, mut k: u64) -> f64 {
    assert!(s >= 0.0 && s.is_finite(), "repeat_add: s must be finite and non-negative");
    assert!(c >= 0.0 && c.is_finite(), "repeat_add: c must be finite and non-negative");
    // Mantissa counts live in [0, 2^53); candidates m + q + 1 must stay
    // below this top for the constant-ulp rounding analysis to hold.
    const TOP: u64 = 1 << 53;
    while k > 0 {
        let s1 = s + c;
        if s1 == s {
            // c is absorbed below the rounding grid at s; every
            // remaining step is the identity.
            return s;
        }
        if s < c {
            // Warm-up: after one hardware step s ≥ c (fl is monotone
            // and fl(c) = c), which bounds q below 2^53 thereafter.
            s = s1;
            k -= 1;
            continue;
        }
        let u = ulp(s);
        // All exact: u is a power of two, s/u and c/u are < 2^53 (so
        // the power-of-two scalings cannot round), q·u ≤ c, and r is a
        // multiple of ulp(c) below u.
        let m = (s / u) as u64;
        let q = (c / u).floor() as u64;
        let r = c - (q as f64) * u;
        // Increment of one round-to-nearest-even step taken from
        // mantissa count `m`: the exact sum sits between candidates
        // m + q and m + q + 1, offset r.
        let step = |m: u64| -> u64 {
            if 2.0 * r < u {
                q
            } else if 2.0 * r > u {
                q + 1
            } else if (m + q).is_multiple_of(2) {
                q
            } else {
                q + 1
            }
        };
        let m1 = m + step(m);
        if m1 + q + 2 > TOP {
            // The next step may leave the constant-ulp region; let the
            // hardware round it and re-derive the region parameters.
            s = s1;
            k -= 1;
            continue;
        }
        debug_assert_eq!(s1, m1 as f64 * u, "mantissa dynamics must match hardware");
        s = s1;
        k -= 1;
        if k == 0 {
            return s;
        }
        // From m1 on the increment is constant until the region ends:
        // the non-tie cases never consult the mantissa, and in the tie
        // case m1 is even (round half to even picked the even
        // candidate) and every further step lands even again, so the
        // decision repeats verbatim.
        let d = step(m1);
        if d == 0 {
            // Tie rounding down with q = 0: m1 is the fixed point of
            // the remaining chain.
            return s;
        }
        let batch = ((TOP - q - 2).saturating_sub(m1) / d).min(k);
        if batch > 0 {
            s = (m1 + batch * d) as f64 * u;
            k -= batch;
        }
    }
    s
}

/// Width of the `[f64; LANES]` lanes that the class-aggregated hot
/// loops (GE's round fold and the classed cyclic deal) keep per-class
/// state in. The compiler packs a loop over one lane's slots into one
/// SSE2 or NEON register; four-wide lanes measured slower.
pub const LANES: usize = 2;

/// Packs per-class values into lanes, class `c` at
/// `lanes[c / LANES][c % LANES]` (so `as_flattened` reads them back in
/// class order), with `pad` filling the last lane's unused slots.
pub fn lanes(values: impl IntoIterator<Item = f64>, pad: f64) -> Vec<[f64; LANES]> {
    let mut out: Vec<[f64; LANES]> = Vec::new();
    for (c, x) in values.into_iter().enumerate() {
        if c % LANES == 0 {
            out.push([pad; LANES]);
        }
        out[c / LANES][c % LANES] = x;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definitional loop the gadget must reproduce bit for bit.
    fn naive(mut s: f64, c: f64, k: u64) -> f64 {
        for _ in 0..k {
            s += c;
        }
        s
    }

    #[test]
    fn matches_naive_on_plain_chains() {
        for &(s, c) in
            &[(0.0, 0.3e-3), (1.0, 1e-7), (0.125, 0.1), (3.5e-4, 2.7e-9), (1e9, 0.1), (7.0, 3.0)]
        {
            for &k in &[0u64, 1, 2, 3, 7, 100, 12345] {
                assert_eq!(repeat_add(s, c, k).to_bits(), naive(s, c, k).to_bits(), "{s} {c} {k}");
            }
        }
    }

    #[test]
    fn exact_ties_round_to_even() {
        // s = 1.0, c = ulp/2: the exact sum is a tie every step; round
        // half to even absorbs it immediately (mantissa of 1.0 is even).
        let u = ulp(1.0);
        assert_eq!(repeat_add(1.0, u / 2.0, 1_000_000), 1.0);
        // From an odd mantissa the first tie rounds up, then absorbs.
        let odd = f64::from_bits(1.0f64.to_bits() + 1);
        assert_eq!(repeat_add(odd, u / 2.0, 1_000_000).to_bits(), naive(odd, u / 2.0, 3).to_bits());
        // q odd with an exact half-ulp remainder: increment alternates
        // onto even mantissas and stays there.
        let c = 3.0 * u + u / 2.0;
        assert_eq!(repeat_add(1.0, c, 10_000).to_bits(), naive(1.0, c, 10_000).to_bits());
    }

    #[test]
    fn crosses_binades_and_leaves_subnormals() {
        // Chain from just below a power of two across the boundary.
        let s = 2.0 - 2.0 * ulp(1.0);
        assert_eq!(repeat_add(s, 1e-16, 40_000).to_bits(), naive(s, 1e-16, 40_000).to_bits());
        // Subnormal start, subnormal increment.
        let tiny = f64::from_bits(17);
        assert_eq!(repeat_add(0.0, tiny, 30_000).to_bits(), naive(0.0, tiny, 30_000).to_bits());
    }

    #[test]
    fn absorption_is_detected() {
        // c far below half an ulp of s: the chain never moves.
        assert_eq!(repeat_add(1e18, 1e-3, u64::MAX), 1e18);
        assert_eq!(repeat_add(5.0, 0.0, u64::MAX), 5.0);
    }

    #[test]
    fn long_chains_compose() {
        // Splitting a chain at any point must agree with running it
        // whole — the property that lets callers batch per class run.
        let (s, c) = (0.25, 0.3e-3);
        let whole = repeat_add(s, c, 2_000_000_000);
        let split = repeat_add(repeat_add(s, c, 1_234_567_891), c, 2_000_000_000 - 1_234_567_891);
        assert_eq!(whole.to_bits(), split.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_naive_loop(
            sm in 0f64..10.0,
            se in -9i32..12,
            cm in 0f64..10.0,
            ce in -12i32..2,
            k in 0u64..3_000,
        ) {
            // Mantissa × decade sampling covers chains where s and c
            // differ by many orders of magnitude in both directions.
            let s = sm * 10f64.powi(se);
            let c = cm * 10f64.powi(ce);
            prop_assert_eq!(repeat_add(s, c, k).to_bits(), naive(s, c, k).to_bits());
        }

        #[test]
        fn composes_at_any_split(
            s in 0f64..1e6,
            c in 1e-9..1.0,
            k in 0u64..1_000_000,
            cut in 0u64..1_000_000,
        ) {
            let cut = cut.min(k);
            let whole = repeat_add(s, c, k);
            let split = repeat_add(repeat_add(s, c, cut), c, k - cut);
            prop_assert_eq!(whole.to_bits(), split.to_bits());
        }
    }
}

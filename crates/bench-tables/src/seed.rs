//! Process-wide fault-plan seed base (`--seed N`).
//!
//! Every seeded fault stream in the experiment suite — the `--faults`
//! severity plans and the `recover` sweep's MTBF death streams — derives
//! its [`hetsim_cluster::faults::FaultPlan`] seed from one base value,
//! fixed once per process exactly like the worker count
//! (`crate::pool`). The default is the historical constant
//! `0x5eed_0000`, so runs without `--seed` are byte-identical to every
//! release before the flag existed; any other value re-seeds the whole
//! family of plans deterministically (same `--seed` twice ⇒ same bytes).

use std::sync::OnceLock;

static SEED: OnceLock<u64> = OnceLock::new();

/// The historical plan-seed base: the value every seeded sweep used
/// before `--seed` existed, and the default when the flag is absent.
pub const DEFAULT_PLAN_SEED: u64 = 0x5eed_0000;

/// The seed base was already fixed — [`set_plan_seed`] was called twice
/// (or after a sweep's first plan defaulted it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedAlreadySet;

impl std::fmt::Display for SeedAlreadySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault-plan seed already fixed for this process")
    }
}

impl std::error::Error for SeedAlreadySet {}

/// Fixes the plan-seed base for the rest of the process. Call at most
/// once, before any sweep builds a plan.
///
/// # Errors
/// Returns [`SeedAlreadySet`] when the base was already fixed (a second
/// call, or a call after the first plan defaulted it).
pub fn set_plan_seed(seed: u64) -> Result<(), SeedAlreadySet> {
    SEED.set(seed).map_err(|_| SeedAlreadySet)
}

/// The plan-seed base: the value fixed by [`set_plan_seed`], or
/// [`DEFAULT_PLAN_SEED`] when none was set.
pub fn plan_seed() -> u64 {
    *SEED.get_or_init(|| DEFAULT_PLAN_SEED)
}

/// A plan seed derived from the base: [`plan_seed`] plus `offset`,
/// wrapping at `u64::MAX` so every base a user can pass is valid.
pub fn plan_seed_plus(offset: u64) -> u64 {
    plan_seed().wrapping_add(offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_historical_constant() {
        assert_eq!(DEFAULT_PLAN_SEED, 0x5eed_0000);
        // In-process the slot may already be taken by another test; the
        // read must be *some* fixed value either way.
        assert_eq!(plan_seed(), plan_seed());
    }

    #[test]
    fn second_set_reports_instead_of_panicking() {
        let _ = set_plan_seed(11);
        let err = set_plan_seed(12).expect_err("second set_plan_seed must be rejected");
        assert_eq!(err.to_string(), "fault-plan seed already fixed for this process");
    }
}

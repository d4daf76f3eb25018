//! Property-based tests of the fault model's retry/timeout/backoff
//! arithmetic: bounds, monotonicity, and typed (never panicking)
//! exhaustion.

use hetscale::hetsim_cluster::faults::{FaultError, FaultPlan, RetryPolicy};
use hetscale::hetsim_cluster::time::SimTime;
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = RetryPolicy> {
    (0u32..12, 0.0f64..50.0, 0.0f64..10.0, 0.0f64..100.0).prop_map(
        |(max_retries, timeout_ms, base_ms, max_ms)| RetryPolicy {
            max_retries,
            timeout: SimTime::from_millis(timeout_ms),
            backoff_base: SimTime::from_millis(base_ms),
            backoff_max: SimTime::from_millis(max_ms),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn retry_charge_is_monotone_in_drop_count(policy in policy_strategy(), d in 0u32..16) {
        prop_assert!(policy.charge_for(d + 1) >= policy.charge_for(d));
    }

    #[test]
    fn retry_charge_is_bounded_by_worst_case(policy in policy_strategy(), d in 0u32..16) {
        // Each failed attempt costs at most timeout + backoff_max, so
        // d drops cost at most d × (timeout + backoff_max) — the bound
        // the RetryPolicy docs promise.
        let per_attempt = policy.timeout + policy.backoff_max;
        let bound = SimTime::from_secs(d as f64 * per_attempt.as_secs());
        // Allow one ulp of slack per attempt for the summation order.
        let slack = 1e-12 * d as f64;
        prop_assert!(
            policy.charge_for(d).as_secs() <= bound.as_secs() + slack,
            "charge {} exceeds bound {}",
            policy.charge_for(d).as_secs(),
            bound.as_secs()
        );
    }

    #[test]
    fn retry_charge_grows_monotonically_with_drop_rate(
        seed in 0u64..1_000_000,
        msg in 0u64..64,
        lo in 0u16..500,
        step in 0u16..500,
    ) {
        // A higher drop rate can only add drops to the schedule (the
        // per-attempt roll is compared against the rate), so the charge
        // for any given message is monotone in the drop rate.
        let hi = lo + step;
        let sparse = FaultPlan::new(seed).with_link_drops(lo);
        let dense = FaultPlan::new(seed).with_link_drops(hi);
        let d_lo = sparse.planned_drops(0, 1, msg);
        let d_hi = dense.planned_drops(0, 1, msg);
        prop_assert!(d_hi >= d_lo, "drops {d_hi} at {hi} per mille < {d_lo} at {lo}");
    }

    #[test]
    fn exhaustion_is_a_typed_error_not_a_panic(seed in 0u64..1_000_000) {
        // A 99.9% drop rate: a message exhausts the default 8 retries
        // with probability 0.999^9 ≈ 0.99. Whatever happens, the API
        // must answer with Ok or the typed error — never a panic — and
        // the error must carry the exact link identity.
        let plan = FaultPlan::new(seed).with_link_drops(999);
        let max_retries = RetryPolicy::default().max_retries;
        let mut exhausted = 0u32;
        for msg in 0u64..64 {
            match plan.send_retry_charge(0, 1, msg) {
                Ok(charge) => prop_assert!(charge.failed_attempts <= max_retries),
                Err(FaultError::RetriesExhausted { source, dest, msg_index, attempts }) => {
                    prop_assert_eq!(
                        (source, dest, msg_index, attempts),
                        (0, 1, msg, max_retries + 1)
                    );
                    exhausted += 1;
                }
                Err(other @ FaultError::AllRanksDead { .. }) => {
                    // The recovery-side exhaustion variant can never come
                    // out of the retry arithmetic.
                    prop_assert!(false, "send_retry_charge produced {other:?}");
                }
            }
        }
        // P(no exhaustion in 64 messages) ≈ 1e-131: effectively a
        // guaranteed witness for every seed.
        prop_assert!(exhausted > 0, "99.9% drops must exhaust the retry budget");
    }

    #[test]
    fn successful_charge_never_exceeds_retry_budget_bound(
        seed in 0u64..1_000_000,
        drops in 0u16..1000,
        msg in 0u64..64,
    ) {
        // Whenever the send succeeds, its failed attempts fit the retry
        // budget and its charge fits retries × (timeout + backoff_max).
        let plan = FaultPlan::new(seed).with_link_drops(drops);
        if let Ok(charge) = plan.send_retry_charge(2, 3, msg) {
            let policy = RetryPolicy::default();
            prop_assert!(charge.failed_attempts <= policy.max_retries);
            let per_attempt = policy.timeout + policy.backoff_max;
            let bound = policy.max_retries as f64 * per_attempt.as_secs();
            prop_assert!(charge.total.as_secs() <= bound + 1e-12);
        }
    }
}

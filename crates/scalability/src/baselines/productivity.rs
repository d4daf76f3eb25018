//! Jogalekar & Woodside's strategy-based (productivity) scalability
//! (TPDS 2000), for general distributed systems.
//!
//! Productivity at scale `k` is `F(k) = λ(k) · f(k) / C(k)`: throughput
//! times the value of each response (a function of response time, often
//! a degradation curve) divided by the running cost per unit time. The
//! system scales from `k₁` to `k₂` if `ψ = F(k₂)/F(k₁)` stays near 1.
//!
//! The paper's critique — preserved in the doc comments because it
//! motivates isospeed-efficiency — is that commercial cost varies with
//! business considerations and so does not reflect inherent scalability.
//! The model is nonetheless implemented in full as a baseline.

/// One configuration's observed service metrics and cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductivityModel {
    /// Throughput λ in responses per second.
    pub throughput: f64,
    /// Mean response time in seconds (feeds the value function).
    pub response_time: f64,
    /// Cost per unit time (arbitrary currency per second).
    pub cost_per_sec: f64,
    /// Target response time at which value is half of maximum (the knee
    /// of the standard degradation curve `f(t) = 1/(1 + t/t_half)`).
    pub half_value_response: f64,
}

impl ProductivityModel {
    /// The value per response, `f(t) = 1 / (1 + t / t_half)` — 1 for
    /// instant responses, ½ at the knee, → 0 as responses crawl.
    pub fn value_per_response(&self) -> f64 {
        assert!(self.half_value_response > 0.0, "half-value response time must be positive");
        1.0 / (1.0 + self.response_time / self.half_value_response)
    }

    /// Productivity `F = λ·f/C`.
    ///
    /// # Panics
    /// Panics on non-positive cost or throughput, or negative response
    /// time.
    pub fn productivity(&self) -> f64 {
        assert!(self.throughput > 0.0, "throughput must be positive");
        assert!(self.cost_per_sec > 0.0, "cost must be positive");
        assert!(self.response_time >= 0.0, "response time must be ≥ 0");
        self.throughput * self.value_per_response() / self.cost_per_sec
    }
}

/// Productivity `F = λ·f/C` from raw numbers.
pub fn productivity(throughput: f64, value_per_response: f64, cost_per_sec: f64) -> f64 {
    assert!(throughput > 0.0 && cost_per_sec > 0.0 && value_per_response >= 0.0);
    throughput * value_per_response / cost_per_sec
}

/// The productivity scalability `ψ = F(k₂)/F(k₁)`.
pub fn productivity_scalability(base: &ProductivityModel, scaled: &ProductivityModel) -> f64 {
    scaled.productivity() / base.productivity()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(throughput: f64, response: f64, cost: f64) -> ProductivityModel {
        ProductivityModel {
            throughput,
            response_time: response,
            cost_per_sec: cost,
            half_value_response: 1.0,
        }
    }

    #[test]
    fn value_degrades_with_response_time() {
        assert_eq!(model(1.0, 0.0, 1.0).value_per_response(), 1.0);
        assert_eq!(model(1.0, 1.0, 1.0).value_per_response(), 0.5);
        assert!(model(1.0, 10.0, 1.0).value_per_response() < 0.1);
    }

    #[test]
    fn productivity_scales_with_throughput_per_cost() {
        let a = model(100.0, 0.0, 10.0);
        assert_eq!(a.productivity(), 10.0);
        let b = model(200.0, 0.0, 10.0);
        assert_eq!(productivity_scalability(&a, &b), 2.0);
    }

    #[test]
    fn scaling_that_doubles_cost_and_throughput_is_neutral() {
        // Productivity keeps pace with cost → scalable (ψ = 1).
        let a = model(100.0, 0.2, 10.0);
        let b = model(200.0, 0.2, 20.0);
        assert!((productivity_scalability(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degraded_response_time_hurts_scalability() {
        let a = model(100.0, 0.1, 10.0);
        let b = model(200.0, 2.0, 20.0); // same λ/C, slower responses
        assert!(productivity_scalability(&a, &b) < 1.0);
    }

    #[test]
    fn business_pricing_distorts_the_verdict() {
        // The paper's critique, as a test: identical machines and
        // workloads, different price tags → different "scalability".
        let tech = model(100.0, 0.1, 10.0);
        let same_tech_discounted = model(100.0, 0.1, 5.0);
        let psi = productivity_scalability(&tech, &same_tech_discounted);
        assert!((psi - 2.0).abs() < 1e-12, "a discount doubled ψ with zero hardware change");
    }

    #[test]
    fn free_form_productivity_matches_struct() {
        let m = model(50.0, 1.0, 5.0);
        assert_eq!(m.productivity(), productivity(50.0, 0.5, 5.0));
    }

    #[test]
    #[should_panic(expected = "cost must be positive")]
    fn zero_cost_rejected() {
        model(1.0, 0.0, 0.0).productivity();
    }
}

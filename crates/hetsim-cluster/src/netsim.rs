//! Message-level network simulation on the discrete-event core.
//!
//! The analytic [`crate::network::SharedEthernet`] model asserts that a
//! collective among `p` processes costs the *sum* of its transfers
//! because the medium serializes. This module simulates that medium one
//! transfer at a time: transfers queue for the wire in arrival order
//! (ties by request order), each occupying it for `alpha + bytes/beta`.
//! Its tests use it to validate the closed-form collective costs and to
//! probe contention beyond what the closed forms capture (e.g.
//! staggered arrivals from heterogeneous compute phases).

use crate::engine::Simulator;
use crate::time::SimTime;

/// One transfer request presented to the shared medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRequest {
    /// Time at which the message is ready to enter the wire.
    pub ready: SimTime,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Sending rank (for reporting only; the medium is shared).
    pub source: usize,
    /// Receiving rank (for reporting only).
    pub dest: usize,
}

/// Completion record for one simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferOutcome {
    /// The original request.
    pub request: TransferRequest,
    /// When the transfer began occupying the medium.
    pub start: SimTime,
    /// When the last byte arrived.
    pub finish: SimTime,
}

impl TransferOutcome {
    /// Queueing delay experienced before the wire was acquired.
    pub fn queueing_delay(&self) -> SimTime {
        self.start - self.request.ready
    }
}

/// A single shared medium with per-message latency `alpha` (seconds) and
/// bandwidth `beta` (bytes/second), served FIFO by ready time.
#[derive(Debug, Clone, Copy)]
pub struct SharedMedium {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Bandwidth in bytes per second.
    pub beta: f64,
}

#[derive(Debug)]
enum Ev {
    Arrive(usize), // index into the request list
}

impl SharedMedium {
    /// Creates the medium. Panics on invalid parameters.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha >= 0.0, "latency must be ≥ 0");
        assert!(beta.is_finite() && beta > 0.0, "bandwidth must be > 0");
        SharedMedium { alpha, beta }
    }

    /// Occupancy time of one transfer.
    pub fn service_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(self.alpha + bytes as f64 / self.beta)
    }

    /// Simulates the requests through the shared medium and returns their
    /// outcomes in request order.
    ///
    /// Requests are served in ready-time order with ties broken by their
    /// position in `requests`, matching the deterministic tie-breaking of
    /// the event engine.
    pub fn simulate(&self, requests: &[TransferRequest]) -> Vec<TransferOutcome> {
        let mut sim: Simulator<Ev> = Simulator::new();
        for (i, r) in requests.iter().enumerate() {
            sim.schedule(r.ready, Ev::Arrive(i));
        }
        let mut wire_free = SimTime::ZERO;
        let mut outcomes: Vec<Option<TransferOutcome>> = vec![None; requests.len()];
        sim.run_to_completion(|now, ev, _sched| {
            let Ev::Arrive(i) = ev;
            let req = requests[i];
            let start = now.max(wire_free);
            let finish = start + self.service_time(req.bytes);
            wire_free = finish;
            outcomes[i] = Some(TransferOutcome { request: req, start, finish });
        });
        outcomes.into_iter().map(|o| o.expect("every request simulated")).collect()
    }

    /// Simulated completion time of a broadcast: `p − 1` transfers of
    /// `bytes` ready simultaneously at `ready`.
    pub fn bcast_finish(&self, p: usize, bytes: u64, ready: SimTime) -> SimTime {
        if p <= 1 {
            return ready;
        }
        let requests: Vec<TransferRequest> =
            (1..p).map(|dest| TransferRequest { ready, bytes, source: 0, dest }).collect();
        self.simulate(&requests).into_iter().map(|o| o.finish).max().unwrap_or(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkModel, SharedEthernet};

    fn req(ready_s: f64, bytes: u64) -> TransferRequest {
        TransferRequest { ready: SimTime::from_secs(ready_s), bytes, source: 0, dest: 1 }
    }

    #[test]
    fn single_transfer_has_no_queueing() {
        let m = SharedMedium::new(1e-3, 1e6);
        let out = m.simulate(&[req(0.0, 1000)]);
        assert_eq!(out[0].start, SimTime::ZERO);
        assert!((out[0].finish.as_secs() - (1e-3 + 1e-3)).abs() < 1e-12);
        assert_eq!(out[0].queueing_delay(), SimTime::ZERO);
    }

    #[test]
    fn simultaneous_transfers_serialize() {
        let m = SharedMedium::new(1e-3, 1e6);
        let out = m.simulate(&[req(0.0, 1000), req(0.0, 1000), req(0.0, 1000)]);
        let service = 2e-3;
        for (k, o) in out.iter().enumerate() {
            assert!(
                (o.start.as_secs() - k as f64 * service).abs() < 1e-12,
                "transfer {k} start {o:?}"
            );
        }
        assert!((out[2].finish.as_secs() - 3.0 * service).abs() < 1e-12);
    }

    #[test]
    fn idle_medium_serves_immediately() {
        let m = SharedMedium::new(1e-3, 1e6);
        let out = m.simulate(&[req(0.0, 1000), req(10.0, 1000)]);
        assert_eq!(out[1].start, SimTime::from_secs(10.0));
    }

    #[test]
    fn staggered_arrivals_queue_partially() {
        let m = SharedMedium::new(0.0, 1e6); // service = bytes/1e6 s
                                             // First occupies [0, 2]; second arrives at 1, waits until 2.
        let out = m.simulate(&[req(0.0, 2_000_000), req(1.0, 1_000_000)]);
        assert_eq!(out[1].start, SimTime::from_secs(2.0));
        assert_eq!(out[1].finish, SimTime::from_secs(3.0));
        assert_eq!(out[1].queueing_delay(), SimTime::from_secs(1.0));
    }

    #[test]
    fn simulated_bcast_matches_analytic_shared_ethernet() {
        // The closed-form SharedEthernet bcast cost must equal the
        // event-level simulation for simultaneous transfers.
        let alpha = 0.3e-3;
        let beta = 1.25e7;
        let medium = SharedMedium::new(alpha, beta);
        let analytic = SharedEthernet::new(alpha, beta);
        for p in [1, 2, 4, 8, 16, 32] {
            for bytes in [0u64, 800, 8000, 80_000] {
                let sim_t = medium.bcast_finish(p, bytes, SimTime::ZERO).as_secs();
                let ana_t = analytic.bcast_time(p, bytes);
                assert!(
                    (sim_t - ana_t).abs() < 1e-12,
                    "p={p} bytes={bytes}: sim {sim_t} vs analytic {ana_t}"
                );
            }
        }
    }

    #[test]
    fn outcomes_keep_request_order() {
        let m = SharedMedium::new(1e-3, 1e6);
        let reqs = [req(2.0, 10), req(0.0, 10), req(1.0, 10)];
        let out = m.simulate(&reqs);
        for (o, r) in out.iter().zip(reqs.iter()) {
            assert_eq!(o.request, *r);
        }
        // But service order follows ready time.
        assert!(out[1].start < out[2].start && out[2].start < out[0].start);
    }

    #[test]
    fn zero_byte_transfer_costs_latency_only() {
        let m = SharedMedium::new(5e-4, 1e6);
        let out = m.simulate(&[req(0.0, 0)]);
        assert!((out[0].finish.as_secs() - 5e-4).abs() < 1e-15);
    }

    #[test]
    fn empty_request_list_is_fine() {
        let m = SharedMedium::new(1e-3, 1e6);
        assert!(m.simulate(&[]).is_empty());
        assert_eq!(m.bcast_finish(1, 100, SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn determinism_of_simulation() {
        let m = SharedMedium::new(1e-4, 1e7);
        let reqs: Vec<TransferRequest> =
            (0..100).map(|i| req((i % 13) as f64 * 0.01, 100 * (i as u64 + 1))).collect();
        let a = m.simulate(&reqs);
        let b = m.simulate(&reqs);
        assert_eq!(a, b);
    }
}

//! Single wall-clock source for the binary's self-timing.
//!
//! It feeds the `--profile-out` document's total and per-id laps; the
//! ci.sh perf gates threshold that document's `total_us` and `ids`, so
//! the gates and the profile can never disagree about what was
//! measured.
//!
//! Wall-clock is inherently non-deterministic; everything here is
//! excluded from the byte-identity guarantees (DESIGN.md §11) and never
//! reaches stdout or the `--stats-out` document.

use std::time::Instant;

/// Wall-clock timer with named laps.
pub struct Stopwatch {
    start: Instant,
    last: Instant,
    laps: Vec<(String, u64)>,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        let now = Instant::now();
        Stopwatch { start: now, last: now, laps: Vec::new() }
    }

    /// Closes the current lap under `label` (µs since the previous lap
    /// boundary, or since start for the first lap).
    pub fn lap(&mut self, label: &str) {
        let now = Instant::now();
        self.laps.push((label.to_string(), now.duration_since(self.last).as_micros() as u64));
        self.last = now;
    }

    /// The recorded `(label, µs)` laps, in recording order.
    pub fn laps(&self) -> &[(String, u64)] {
        &self.laps
    }

    /// Total µs since construction.
    pub fn total_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_in_order() {
        let mut watch = Stopwatch::new();
        watch.lap("first");
        watch.lap("second");
        assert_eq!(watch.laps().len(), 2);
        assert_eq!(watch.laps()[0].0, "first");
        assert_eq!(watch.laps()[1].0, "second");
    }
}

//! Virtual simulated time.
//!
//! Simulated time is a non-negative `f64` number of seconds wrapped in a
//! newtype so it cannot be confused with wall-clock durations or with
//! work amounts. `SimTime` is totally ordered (NaN is rejected at
//! construction) so it can key the discrete-event queue.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of simulated time, in seconds.
///
/// Construction rejects NaN; negative values are allowed only through
/// subtraction and indicate an elapsed-time computation error that the
/// caller should treat as a bug (debug builds assert).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds. Panics on NaN (programmer error).
    pub fn from_secs(secs: f64) -> SimTime {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: f64) -> SimTime {
        SimTime::from_secs(ms * 1e-3)
    }

    /// Creates a time from microseconds.
    pub fn from_micros(us: f64) -> SimTime {
        SimTime::from_secs(us * 1e-6)
    }

    /// Seconds as `f64`.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Milliseconds as `f64`.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// The earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// True if the value is finite (no overflow occurred).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN is excluded at construction, so total_cmp is a total order
        // consistent with the numeric order.
        self.0.total_cmp(&other.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        let d = self.0 - rhs.0;
        debug_assert!(d >= 0.0 || d.abs() < 1e-12, "negative elapsed time: {d}");
        SimTime(d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.6} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} µs", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        let t = SimTime::from_millis(1.5);
        assert!((t.as_secs() - 0.0015).abs() < 1e-15);
        assert!((t.as_millis() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_micros(2000.0), SimTime::from_millis(2.0));
    }

    #[test]
    fn ordering_is_numeric() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn arithmetic_adds_and_subtracts() {
        let mut t = SimTime::from_secs(1.0);
        t += SimTime::from_secs(0.5);
        assert_eq!(t, SimTime::from_secs(1.5));
        assert_eq!(t + SimTime::from_secs(0.5), SimTime::from_secs(2.0));
        assert_eq!((SimTime::from_secs(3.0) - SimTime::from_secs(1.0)).as_secs(), 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_construction_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert!(format!("{}", SimTime::from_secs(2.0)).contains("s"));
        assert!(format!("{}", SimTime::from_millis(2.0)).contains("ms"));
        assert!(format!("{}", SimTime::from_micros(2.0)).contains("µs"));
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn sortable_in_collections() {
        let mut v = [SimTime::from_secs(3.0), SimTime::from_secs(1.0), SimTime::from_secs(2.0)];
        v.sort();
        assert_eq!(v[0], SimTime::from_secs(1.0));
        assert_eq!(v[2], SimTime::from_secs(3.0));
    }
}

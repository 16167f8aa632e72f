//! Simulation time.
//!
//! [`SimTime`] wraps a non-negative, finite `f64` number of simulated
//! seconds. Wrapping it in a newtype gives the calendar a total order
//! (plain `f64` is only partially ordered) and catches NaN/negative time
//! arithmetic at the point of creation instead of deep inside the heap.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, in seconds since the start of the run.
///
/// Construction rejects NaN and negative values by panicking — those are
/// programming errors in model code (a negative delay or an uninitialized
/// sample), never legitimate data.
///
/// # Examples
///
/// ```
/// use lb_des::SimTime;
/// let t = SimTime::new(1.5) + 2.5;
/// assert_eq!(t.as_secs(), 4.0);
/// assert!(SimTime::ZERO < t);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a simulation time.
    ///
    /// # Panics
    ///
    /// Panics when `secs` is negative, NaN, or infinite.
    #[inline]
    pub fn new(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// The underlying number of seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Elapsed seconds since `earlier`; saturates at zero if `earlier` is
    /// actually later (guards monitors against clock misuse).
    #[inline]
    pub(crate) fn since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Both values are finite by construction, so partial_cmp is total.
        self.0.partial_cmp(&other.0).expect("SimTime is finite")
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances time by `delay` seconds.
    ///
    /// # Panics
    ///
    /// Panics when the delay is negative or produces a non-finite time.
    #[inline]
    fn add(self, delay: f64) -> SimTime {
        SimTime::new(self.0 + delay)
    }
}

impl Sub for SimTime {
    type Output = f64;

    #[inline]
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::new(2.5);
        assert_eq!(t.as_secs(), 2.5);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(format!("{t}"), "2.500000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = SimTime::new(-0.1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(1.0) + 0.5;
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(t - SimTime::new(1.0), 0.5);
        assert_eq!(t.since(SimTime::new(1.0)), 0.5);
        // since() saturates instead of going negative.
        assert_eq!(SimTime::new(1.0).since(t), 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_delay_panics() {
        let _ = SimTime::new(1.0) + (-2.0);
    }
}

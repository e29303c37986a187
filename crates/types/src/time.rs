//! Simulated time.
//!
//! All timing in the simulator is expressed in integer nanoseconds via
//! [`Nanos`]. Sub-nanosecond quantities (e.g. cycle times of a 4 GHz core)
//! are handled by [`Freq::cycles_to_nanos`], which rounds up so that work is
//! never under-accounted.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration or point in simulated time, in nanoseconds.
///
/// `Nanos` is used both as an absolute timestamp (nanoseconds since the start
/// of the simulation) and as a duration; the arithmetic is identical and the
/// simulator never needs calendar time.
///
/// # Example
///
/// ```
/// use skybyte_types::Nanos;
/// let flash_read = Nanos::from_micros(3);
/// let protocol = Nanos::new(40);
/// assert_eq!((flash_read + protocol).as_nanos(), 3_040);
/// assert_eq!(flash_read.as_micros_f64(), 3.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero duration / simulation start.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from raw nanoseconds.
    #[inline]
    pub const fn new(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time value from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time value from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    ///
    /// Use this only where an earlier-than-`rhs` value is *expected* (e.g.
    /// windowing a busy interval against a horizon). Where time must be
    /// monotone — a completion never precedes its request — use
    /// [`Nanos::since`], which fails loudly instead of masking the bug as a
    /// zero latency.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Monotone elapsed time: `self - earlier`, panicking if time ran
    /// backwards, so an accounting bug cannot pass as a zero latency.
    ///
    /// # Panics
    ///
    /// Panics if `earlier > self` (simulated time ran backwards).
    #[inline]
    #[track_caller]
    pub fn since(self, earlier: Nanos) -> Nanos {
        assert!(
            self.0 >= earlier.0,
            "simulated time ran backwards: {self} precedes {earlier}"
        );
        Nanos(self.0 - earlier.0)
    }

    /// Multiplies the duration by an integer factor.
    #[inline]
    pub fn scaled(self, factor: u64) -> Nanos {
        Nanos(self.0 * factor)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

/// A clock frequency in hertz, used to convert instruction/cycle counts to
/// simulated time.
///
/// # Example
///
/// ```
/// use skybyte_types::{Freq, Nanos};
/// let f = Freq::from_ghz(4.0);
/// // 4 cycles at 4 GHz = 1 ns
/// assert_eq!(f.cycles_to_nanos(4), Nanos::new(1));
/// // rounding is upwards so work is never lost
/// assert_eq!(f.cycles_to_nanos(1), Nanos::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Freq {
    hz: f64,
}

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Freq { hz }
    }

    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Self::from_hz(ghz * 1e9)
    }

    /// Converts a cycle count to simulated time, rounding up to at least 1 ns
    /// for any non-zero cycle count.
    pub fn cycles_to_nanos(self, cycles: u64) -> Nanos {
        if cycles == 0 {
            return Nanos::ZERO;
        }
        let ns = (cycles as f64) * 1e9 / self.hz;
        Nanos::new(ns.ceil().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors() {
        assert_eq!(Nanos::from_micros(2).as_nanos(), 2_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::new(100);
        let b = Nanos::new(40);
        assert_eq!(a + b, Nanos::new(140));
        assert_eq!(a - b, Nanos::new(60));
        assert_eq!(a * 3, Nanos::new(300));
        assert_eq!(a / 4, Nanos::new(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos::new(140));
    }

    #[test]
    fn since_measures_monotone_elapsed_time() {
        assert_eq!(Nanos::new(140).since(Nanos::new(40)), Nanos::new(100));
        assert_eq!(Nanos::new(7).since(Nanos::new(7)), Nanos::ZERO);
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn since_panics_when_time_runs_backwards() {
        let _ = Nanos::new(40).since(Nanos::new(41));
    }

    #[test]
    fn nanos_sum_and_minmax() {
        let total: Nanos = [Nanos::new(1), Nanos::new(2), Nanos::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Nanos::new(6));
        assert_eq!(Nanos::new(5).max(Nanos::new(9)), Nanos::new(9));
        assert_eq!(Nanos::new(5).min(Nanos::new(9)), Nanos::new(5));
    }

    #[test]
    fn nanos_display_units() {
        assert_eq!(format!("{}", Nanos::new(999)), "999ns");
        assert_eq!(format!("{}", Nanos::new(1500)), "1.500us");
        assert_eq!(format!("{}", Nanos::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Nanos::from_millis(2_000)), "2.000s");
    }

    #[test]
    fn freq_round_trip() {
        let f = Freq::from_ghz(4.0);
        assert_eq!(f.cycles_to_nanos(400), Nanos::new(100));
        assert_eq!(f.cycles_to_nanos(0), Nanos::ZERO);
        // sub-nanosecond work is rounded up to 1ns
        assert_eq!(f.cycles_to_nanos(1), Nanos::new(1));
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn freq_rejects_zero() {
        let _ = Freq::from_hz(0.0);
    }

    #[test]
    fn nanos_serde_round_trip() {
        let t = Nanos::from_micros(7);
        let s = serde_json::to_string(&t).unwrap();
        assert_eq!(s, "7000");
        let back: Nanos = serde_json::from_str(&s).unwrap();
        assert_eq!(back, t);
    }
}

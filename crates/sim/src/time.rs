//! Simulation time and durations.
//!
//! Time is stored as an integer number of microseconds since the start of the
//! simulation. Integer time keeps event ordering exact (no floating-point
//! drift when adding many periods together), while microsecond resolution is
//! far finer than anything the protocol needs (packet transmission times are
//! hundreds of microseconds).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant in simulated time (microseconds since simulation start).
///
/// `SimTime` is totally ordered and cheap to copy; use [`Duration`] for
/// differences between instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; useful as an "infinitely far away"
    /// sentinel for deadlines that are never reached.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a whole number of microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from a whole number of milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant from a whole number of seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Creates an instant from fractional seconds.
    ///
    /// Negative values are clamped to zero: the simulation clock never runs
    /// before its origin. This comes up when analytical formulas such as the
    /// prefetch forwarding bound (Eq. 10 of the paper) produce a send time in
    /// the past — the protocol then sends "as soon as possible", i.e. now.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            SimTime::ZERO
        } else {
            SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// This instant as a whole number of microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed from `earlier` to `self`, saturating at zero when
    /// `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_micros()))
    }

    /// Subtracts a duration, saturating at [`SimTime::ZERO`].
    pub fn saturating_sub(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(d.as_micros()))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.as_micros())
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_micros(self.0 - rhs.0)
    }
}

/// A span of simulated time (non-negative, microsecond resolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// The largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, clamping negative or
    /// non-finite inputs to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            Duration::ZERO
        } else {
            Duration((secs * MICROS_PER_SEC as f64).round() as u64)
        }
    }

    /// This duration as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns `true` for the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(12.345678);
        assert!((t.as_secs_f64() - 12.345678).abs() < 1e-6);
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(1500).as_micros(), 1_500_000);
        assert_eq!(Duration::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-5.0), SimTime::ZERO);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(b - a, Duration::from_secs(1));
        assert_eq!(a + Duration::from_secs(1), b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_secs(4));
        assert_eq!(a.saturating_sub(Duration::from_secs(10)), SimTime::ZERO);
        assert_eq!(
            SimTime::MAX.saturating_add(Duration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            Duration::from_secs(1).saturating_sub(Duration::from_secs(2)),
            Duration::ZERO
        );
    }

    #[test]
    fn duration_multiplication() {
        assert_eq!(Duration::from_secs(2) * 3, Duration::from_secs(6));
        assert_eq!(
            Duration::from_secs(2).saturating_mul(u64::MAX),
            Duration::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
        assert_eq!(format!("{}", Duration::from_millis(250)), "0.250000s");
    }
}

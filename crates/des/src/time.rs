//! Integer simulated time.
//!
//! All simulated timestamps are integer **picoseconds**. The paper's hardware
//! constants are given in fractions of a microsecond (e.g. 0.15 µs router
//! fall-through, 0.18 µs back-to-back PCI writes); picoseconds represent all
//! of them exactly, keep event ordering deterministic, and still allow
//! simulations of many simulated minutes inside a `u64`
//! (2^64 ps ≈ 213 simulated days).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// An instant of simulated time (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Construct from integer microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Construct from fractional microseconds (rounded to the nearest
    /// picosecond). Panics on negative or non-finite input. A `const fn`,
    /// so the paper's fractional-microsecond costs can be named constants.
    pub const fn from_us_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0,
            "invalid duration: negative or non-finite microseconds"
        );
        SimDuration((us * 1e6).round() as u64)
    }

    /// Construct from fractional seconds (rounded to the nearest picosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s} s");
        SimDuration((s * 1e12).round() as u64)
    }

    /// The number of picoseconds in this duration.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Time to move `bytes` bytes at `mbyte_per_sec` MByte/s (decimal
    /// megabytes, as in the paper's link-rate figures).
    pub fn for_bytes_at(bytes: u64, mbyte_per_sec: f64) -> Self {
        assert!(mbyte_per_sec > 0.0, "bandwidth must be positive");
        // ps = bytes / (MB/s * 1e6 B/s) * 1e12 ps/s = bytes * 1e6 / (MB/s)
        SimDuration(((bytes as f64) * 1e6 / mbyte_per_sec).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }
}

impl SimTime {
    /// Simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from picoseconds since the epoch.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from fractional microseconds since the epoch.
    pub fn from_us_f64(us: f64) -> Self {
        SimTime(SimDuration::from_us_f64(us).as_ps())
    }

    /// Picoseconds since the epoch.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Elapsed duration since `earlier`. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(self >= earlier, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, t: SimTime) -> SimDuration {
        self.since(t)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        let d = SimDuration::from_us_f64(0.15);
        assert_eq!(d.as_ps(), 150_000);
        assert!((d.as_us_f64() - 0.15).abs() < 1e-12);
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(2).as_ps(), 2_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_us(3);
        let u = t + SimDuration::from_us(2);
        assert_eq!(u.since(t), SimDuration::from_us(2));
        assert_eq!(u - t, SimDuration::from_us(2));
        assert_eq!((u - SimDuration::from_us(5)), SimTime::ZERO);
    }

    #[test]
    fn bandwidth_times() {
        // 150 bytes at 150 MB/s is exactly 1 us.
        let d = SimDuration::for_bytes_at(150, 150.0);
        assert_eq!(d, SimDuration::from_us(1));
        // 88-byte Arctic payload at 150 MB/s.
        let d = SimDuration::for_bytes_at(88, 150.0);
        assert!((d.as_us_f64() - 88.0 / 150.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_elapsed_panics() {
        let t = SimTime::from_ps(10);
        let _ = SimTime::ZERO.since(t);
    }

    #[test]
    fn duration_ops() {
        let a = SimDuration::from_us(10);
        let b = SimDuration::from_us(4);
        assert_eq!(a - b, SimDuration::from_us(6));
        assert_eq!(a + b, SimDuration::from_us(14));
        assert_eq!(a * 3, SimDuration::from_us(30));
        assert_eq!(a / 2, SimDuration::from_us(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        let v = [a, b, b];
        assert_eq!(v.into_iter().sum::<SimDuration>(), SimDuration::from_us(18));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_us_f64(1.5)), "1.500us");
        assert_eq!(format!("{}", SimTime::from_us_f64(2.25)), "t=2.250us");
    }
}

//! Virtual time.
//!
//! All simulation time is integer nanoseconds since simulation start. An
//! integer representation keeps event ordering exact (no fp ties) and is the
//! "globally synchronised clock" of the reproduction: every rank reads the
//! same timebase, which is precisely the property MPIBench's hardware clock
//! synchronisation provides on a real cluster.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);
    /// A time later than any reachable simulation time.
    pub const MAX: Time = Time(u64::MAX);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Convert to floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Construct from floating-point seconds (rounded to nanoseconds,
    /// clamped at zero).
    pub fn from_secs_f64(s: f64) -> Time {
        Time(secs_to_nanos(s))
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Dur {
    /// Zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Construct from floating-point seconds (rounded, clamped at zero).
    pub fn from_secs_f64(s: f64) -> Dur {
        Dur(secs_to_nanos(s))
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating duration subtraction.
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Scale by an integer factor.
    pub fn times(self, k: u64) -> Dur {
        Dur(self.0 * k)
    }
}

fn secs_to_nanos(s: f64) -> u64 {
    if !s.is_finite() || s <= 0.0 {
        0
    } else {
        (s * 1e9).round().min(u64::MAX as f64) as u64
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, other: Time) -> Dur {
        self.since(other)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, d: Dur) -> Dur {
        Dur(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Dur {
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// Transmission time of `bytes` at `bits_per_sec` on a serial link.
pub fn wire_time(bytes: u64, bits_per_sec: u64) -> Dur {
    assert!(bits_per_sec > 0, "bandwidth must be positive");
    // bytes*8e9/bps without overflow for realistic values (u128 intermediate).
    let ns = (bytes as u128 * 8 * 1_000_000_000) / bits_per_sec as u128;
    Dur(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = Time(1_000);
        let t2 = t + Dur::from_nanos(500);
        assert_eq!(t2, Time(1_500));
        assert_eq!(t2 - t, Dur(500));
        assert_eq!(t - t2, Dur(0), "subtraction saturates");
        assert_eq!(t.max(t2), t2);
        assert_eq!(t.min(t2), t);
    }

    #[test]
    fn conversions_roundtrip() {
        let t = Time::from_secs_f64(1.5e-3);
        assert_eq!(t.as_nanos(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5e-3).abs() < 1e-15);
        assert_eq!(Dur::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Dur::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn negative_and_nan_seconds_clamp_to_zero() {
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
    }

    #[test]
    fn wire_time_fast_ethernet() {
        // 1538 bytes on 100 Mbit/s = 123.04 us.
        let d = wire_time(1538, 100_000_000);
        assert_eq!(d.as_nanos(), 123_040);
        // 1 byte at 1 Gbit/s = 8 ns.
        assert_eq!(wire_time(1, 1_000_000_000).as_nanos(), 8);
        assert_eq!(wire_time(0, 100).as_nanos(), 0);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Dur(12).to_string(), "12ns");
        assert_eq!(Dur(1_500).to_string(), "1.50us");
        assert_eq!(Dur(2_500_000).to_string(), "2.50ms");
        assert_eq!(Dur(1_200_000_000).to_string(), "1.200s");
    }

    #[test]
    fn saturating_add_at_extremes() {
        let t = Time::MAX + Dur(1);
        assert_eq!(t, Time::MAX);
    }
}

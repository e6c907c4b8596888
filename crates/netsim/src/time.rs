//! Simulation clock primitives.
//!
//! The simulator uses an integer nanosecond clock so that event ordering is
//! exact and runs are bit-for-bit reproducible. [`SimTime`] is an absolute
//! instant measured from the start of the simulation; [`SimDuration`] is a
//! span between two instants. Both are thin wrappers around `u64`
//! nanoseconds with saturating/checked arithmetic where it matters.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// `x.round() as u64`, bit for bit, for every `f64` — without calling
/// `f64::round`, which the baseline x86-64 target (no SSE4.1 `roundsd`)
/// lowers to a soft-float library call.
///
/// On `0 ≤ x < 2⁵²` the value truncates through `i64` and the fraction,
/// which that range makes exact, rounds up from one half: half away from
/// zero, as `round` does. Everything else — negatives, NaN, infinities,
/// and values from 2⁵² up, which are already integers — takes the
/// `round` path, so the saturating `as u64` cast decides them as before.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    if (0.0..EXACT_BELOW).contains(&x) {
        let whole = x as i64;
        let half_up = x - whole as f64 >= 0.5;
        (whole + half_up as i64) as u64
    } else {
        x.round() as u64
    }
}

/// An absolute simulation instant, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative");
        SimTime(round_to_u64(s * NANOS_PER_SEC as f64))
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span; useful as an "infinite" timeout.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative");
        SimDuration(round_to_u64(s * NANOS_PER_SEC as f64))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Multiply by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// True if this span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Exact span from `rhs` to `self`. Panics in debug builds if `rhs`
    /// is later than `self`; use [`SimTime::saturating_since`] when the
    /// ordering is uncertain.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0);
        SimDuration(round_to_u64(self.0 as f64 * rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimTime::from_nanos(11).as_nanos(), 11);
    }

    #[test]
    fn duration_construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
    }

    #[test]
    fn fractional_seconds_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);

        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!(d.as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(1);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_nanos(), 1_250_000_000);
        assert_eq!(((t + d) - t).as_nanos(), d.as_nanos());
        assert_eq!((t + d) - d, t);

        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, t + d);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!((d * 3u64).as_nanos(), 30_000);
        assert_eq!((d * 0.5).as_nanos(), 5_000);
        assert_eq!((d / 2).as_nanos(), 5_000);
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn round_to_u64_matches_f64_round_at_the_edges() {
        let cases = [
            0.0,
            -0.0,
            0.49999999999999994, // x + 0.5 rounds to 1.0; `round` gives 0
            0.5,
            1.5,
            2.5,
            -0.4,
            -0.5,
            -1.0,
            -1e300,
            4_503_599_627_370_495.5, // 2^52 - 0.5, the last half below 2^52
            4_503_599_627_370_496.0, // 2^52: the fallback begins
            9_007_199_254_740_993.0,
            1.8446744073709552e19, // 2^64
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in cases {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
        assert_eq!(round_to_u64(0.49999999999999994), 0);
        assert_eq!(round_to_u64(2.5), 3, "half away from zero, not to even");
        assert_eq!(round_to_u64(f64::NAN), 0);
        assert_eq!(round_to_u64(-3.7), 0);
        assert_eq!(round_to_u64(f64::INFINITY), u64::MAX, "saturates");
        assert_eq!(round_to_u64(1.8446744073709552e19), u64::MAX);
        // Every exponent from 2^52 to past 2^64, and the neighbours of
        // each power of two.
        for e in 52..=66 {
            let p = 2f64.powi(e);
            for x in [p, p.next_down(), p.next_up(), p * 1.5] {
                assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
            }
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000000s");
    }
}

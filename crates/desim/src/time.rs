//! Simulation time base.
//!
//! All simulation time in Lumen is kept in unsigned picoseconds. The paper's
//! system mixes a fixed 625 MHz router-core clock (1600 ps/cycle) with
//! per-link clocks whose period depends on the current bit rate (a 16-bit
//! flit at 7 Gb/s serializes in 2285.7 ps — not an integral number of core
//! cycles), plus optical attenuator transitions on the 100 µs scale. A
//! picosecond integer time base represents all of these exactly enough
//! (sub-ps rounding only) while staying cheap and totally ordered.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulation time, or a duration, in picoseconds.
///
/// `Picos` is deliberately used for both instants and durations: the
/// simulator only ever performs the well-defined combinations (instant +
/// duration, instant − instant, duration scaling), and a single newtype
/// keeps the arithmetic lightweight.
///
/// # Example
///
/// ```
/// use lumen_desim::Picos;
/// let cycle = Picos::from_ps(1600); // one 625 MHz router cycle
/// assert_eq!(cycle * 625_000, Picos::from_ms(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Picos(u64);

impl Picos {
    /// Time zero / the zero duration.
    pub const ZERO: Picos = Picos(0);
    /// The maximum representable time (used as "never" sentinel).
    pub const MAX: Picos = Picos(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Creates a duration from a (non-negative, finite) number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[cfg(test)]
    fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "seconds must be finite and non-negative, got {secs}"
        );
        let ps = secs * 1e12;
        assert!(
            ps <= u64::MAX as f64,
            "duration overflows picoseconds: {secs}s"
        );
        Picos(ps.round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: returns [`Picos::ZERO`] instead of wrapping.
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two times.
    pub(crate) fn min(self, rhs: Picos) -> Picos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ps")
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{}ns", ps / 1_000)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Div<Picos> for Picos {
    type Output = u64;
    /// Integer division of durations: how many whole `rhs` fit in `self`.
    fn div(self, rhs: Picos) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Picos> for Picos {
    type Output = Picos;
    fn rem(self, rhs: Picos) -> Picos {
        Picos(self.0 % rhs.0)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

/// A whole number of cycles of some clock.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

/// A fixed-frequency clock domain, converting between cycles and time.
///
/// The router core in the paper runs at a fixed 625 MHz even while link
/// clocks vary; [`ClockDomain::router_core`] constructs that domain.
///
/// # Example
///
/// ```
/// use lumen_desim::{ClockDomain, Cycles, Picos};
/// let core = ClockDomain::router_core();
/// assert_eq!(core.period(), Picos::from_ps(1600));
/// assert_eq!(core.time_of(Cycles(10)), Picos::from_ns(16));
/// assert_eq!(core.cycle_at(Picos::from_ns(16)), Cycles(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClockDomain {
    period: Picos,
}

impl ClockDomain {
    /// The paper's 625 MHz router-core clock (1600 ps period).
    pub const fn router_core() -> Self {
        ClockDomain {
            period: Picos::from_ps(1600),
        }
    }

    /// A clock domain with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[cfg(test)]
    fn with_period(period: Picos) -> Self {
        assert!(period > Picos::ZERO, "clock period must be positive");
        ClockDomain { period }
    }

    /// A clock domain with the given frequency in Hz: the tests' check
    /// that the paper's 625 MHz router clock is the 1600 ps period that
    /// [`ClockDomain::router_core`] hard-codes.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    #[cfg(test)]
    fn with_frequency_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Self::with_period(Picos::from_secs_f64(1.0 / hz))
    }

    /// The clock period.
    pub const fn period(self) -> Picos {
        self.period
    }

    /// The time at which cycle `c` begins.
    pub fn time_of(self, c: Cycles) -> Picos {
        self.period * c.0
    }

    /// The index of the cycle containing instant `t` (cycle `n` spans
    /// `[n*period, (n+1)*period)`).
    pub fn cycle_at(self, t: Picos) -> Cycles {
        Cycles(t / self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Picos::from_ns(3).as_ps(), 3_000);
        assert_eq!(Picos::from_us(2).as_ps(), 2_000_000);
        assert_eq!(Picos::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Picos::from_us(1).as_us_f64(), 1.0);
    }

    #[test]
    fn from_secs_rounds() {
        assert_eq!(Picos::from_secs_f64(1e-12), Picos::from_ps(1));
        assert_eq!(Picos::from_secs_f64(0.0), Picos::ZERO);
        // 1.6ns
        assert_eq!(Picos::from_secs_f64(1.6e-9), Picos::from_ps(1600));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_rejects_negative() {
        let _ = Picos::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let a = Picos::from_ns(5);
        let b = Picos::from_ns(3);
        assert_eq!(a + b, Picos::from_ns(8));
        assert_eq!(a - b, Picos::from_ns(2));
        assert_eq!(a * 2, Picos::from_ns(10));
        assert_eq!(a / 5, Picos::from_ns(1));
        assert_eq!(a / b, 1);
        assert_eq!(a % b, Picos::from_ns(2));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: Picos = (1..=4).map(Picos::from_ns).sum();
        assert_eq!(total, Picos::from_ns(10));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Picos::ZERO.to_string(), "0ps");
        assert_eq!(Picos::from_ps(7).to_string(), "7ps");
        assert_eq!(Picos::from_ns(7).to_string(), "7ns");
        assert_eq!(Picos::from_us(7).to_string(), "7us");
        assert_eq!(Picos::from_ms(7).to_string(), "7ms");
    }

    #[test]
    fn router_core_clock() {
        let core = ClockDomain::router_core();
        assert_eq!(core.period(), Picos::from_ps(1600));
        let hz = 1e12 / core.period().as_ps() as f64;
        assert!((hz - 625e6).abs() < 1.0, "frequency {hz}");
    }

    #[test]
    fn cycle_time_mapping() {
        let clk = ClockDomain::router_core();
        assert_eq!(clk.time_of(Cycles(0)), Picos::ZERO);
        assert_eq!(clk.time_of(Cycles(3)), Picos::from_ps(4800));
        assert_eq!(clk.cycle_at(Picos::from_ps(4799)), Cycles(2));
        assert_eq!(clk.cycle_at(Picos::from_ps(4800)), Cycles(3));
    }

    #[test]
    fn frequency_constructor() {
        let clk = ClockDomain::with_frequency_hz(625e6);
        assert_eq!(clk.period(), Picos::from_ps(1600));
        assert_eq!(clk, ClockDomain::router_core());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_rejected() {
        let _ = ClockDomain::with_period(Picos::ZERO);
    }
}

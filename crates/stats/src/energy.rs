//! Exact energy integration over piecewise-constant power.
//!
//! Every power-aware link in the simulated network holds a constant power
//! between policy/transition events; an [`EnergyAccount`] integrates that
//! step function exactly, so the normalized-power numbers of the paper's
//! evaluation contain no sampling error.

use lumen_desim::Picos;
use lumen_opto::MilliWatts;
use serde::{Deserialize, Serialize};

/// Integrates energy for one power consumer over simulation time.
///
/// # Example
///
/// ```
/// use lumen_desim::Picos;
/// use lumen_opto::MilliWatts;
/// use lumen_stats::EnergyAccount;
///
/// let mut acct = EnergyAccount::new(Picos::ZERO, MilliWatts::from_mw(290.0));
/// acct.set_power(Picos::from_us(1), MilliWatts::from_mw(60.0));
/// acct.close(Picos::from_us(2));
/// // 290 mW for 1 µs + 60 mW for 1 µs = 350 nJ
/// assert!((acct.energy_nj() - 350.0).abs() < 1e-9);
/// assert!((acct.average_power().as_mw() - 175.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyAccount {
    start: Picos,
    segment_start: Picos,
    current_power: MilliWatts,
    energy_mw_ps: f64,
    closed_at: Option<Picos>,
}

impl EnergyAccount {
    /// Opens an account at `start` with an initial power draw.
    pub fn new(start: Picos, initial_power: MilliWatts) -> Self {
        EnergyAccount {
            start,
            segment_start: start,
            current_power: initial_power,
            energy_mw_ps: 0.0,
            closed_at: None,
        }
    }

    /// Changes the power draw at time `at`, closing the previous segment.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous segment boundary or the account
    /// is closed.
    pub fn set_power(&mut self, at: Picos, power: MilliWatts) {
        assert!(self.closed_at.is_none(), "account is closed");
        assert!(
            at >= self.segment_start,
            "power change at {at} before segment start {}",
            self.segment_start
        );
        self.accumulate(at);
        self.segment_start = at;
        self.current_power = power;
    }

    /// The instantaneous power currently drawn.
    pub fn current_power(&self) -> MilliWatts {
        self.current_power
    }

    /// Closes the account at `at`; no further changes are accepted.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last segment boundary or the account is
    /// already closed.
    pub fn close(&mut self, at: Picos) {
        assert!(self.closed_at.is_none(), "account already closed");
        assert!(at >= self.segment_start, "close before last segment");
        self.accumulate(at);
        self.segment_start = at;
        self.closed_at = Some(at);
    }

    fn accumulate(&mut self, until: Picos) {
        let dt = (until - self.segment_start).as_ps() as f64;
        self.energy_mw_ps += self.current_power.as_mw() * dt;
    }

    /// Energy accumulated so far (through the last boundary or close), in
    /// nanojoules. 1 mW · 1 ps = 1e-15 J = 1e-6 nJ.
    pub fn energy_nj(&self) -> f64 {
        self.energy_mw_ps * 1e-6
    }

    /// Energy including the still-open segment up to `now`, in nanojoules.
    pub fn energy_nj_at(&self, now: Picos) -> f64 {
        let mut open = 0.0;
        if self.closed_at.is_none() && now > self.segment_start {
            open = self.current_power.as_mw() * (now - self.segment_start).as_ps() as f64;
        }
        (self.energy_mw_ps + open) * 1e-6
    }

    /// Average power over the account's lifetime (through close, or through
    /// the last recorded boundary if still open). Zero if no time elapsed.
    pub fn average_power(&self) -> MilliWatts {
        let end = self.closed_at.unwrap_or(self.segment_start);
        let dt = (end - self.start).as_ps() as f64;
        if dt == 0.0 {
            MilliWatts::ZERO
        } else {
            MilliWatts::from_mw(self.energy_mw_ps / dt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
    // 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
    use proptest::prelude::*;

    #[test]
    fn constant_power() {
        let mut a = EnergyAccount::new(Picos::ZERO, MilliWatts::from_mw(100.0));
        a.close(Picos::from_us(10));
        // 100 mW · 10 µs = 1000 nJ
        assert!((a.energy_nj() - 1000.0).abs() < 1e-9);
        assert!((a.average_power().as_mw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn two_segments() {
        let mut a = EnergyAccount::new(Picos::ZERO, MilliWatts::from_mw(290.0));
        a.set_power(Picos::from_us(3), MilliWatts::from_mw(60.0));
        a.close(Picos::from_us(4));
        // 290·3 + 60·1 = 930 nJ over 4 µs → avg 232.5 mW
        assert!((a.energy_nj() - 930.0).abs() < 1e-9);
        assert!((a.average_power().as_mw() - 232.5).abs() < 1e-9);
    }

    #[test]
    fn open_segment_included_in_at_queries() {
        let a = EnergyAccount::new(Picos::ZERO, MilliWatts::from_mw(50.0));
        assert!((a.energy_nj_at(Picos::from_us(2)) - 100.0).abs() < 1e-9);
        // Closed bookkeeping alone has seen nothing yet.
        assert_eq!(a.energy_nj(), 0.0);
    }

    #[test]
    fn zero_duration_harmless() {
        let mut a = EnergyAccount::new(Picos::from_ns(5), MilliWatts::from_mw(10.0));
        a.set_power(Picos::from_ns(5), MilliWatts::from_mw(20.0));
        a.close(Picos::from_ns(5));
        assert_eq!(a.energy_nj(), 0.0);
        assert_eq!(a.average_power(), MilliWatts::ZERO);
    }

    #[test]
    fn nonzero_start_offset() {
        let mut a = EnergyAccount::new(Picos::from_us(10), MilliWatts::from_mw(100.0));
        a.close(Picos::from_us(12));
        assert!((a.energy_nj() - 200.0).abs() < 1e-9);
        assert!((a.average_power().as_mw() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "before segment start")]
    fn time_travel_rejected() {
        let mut a = EnergyAccount::new(Picos::from_us(5), MilliWatts::ZERO);
        a.set_power(Picos::from_us(1), MilliWatts::from_mw(1.0));
    }

    #[test]
    #[should_panic(expected = "closed")]
    fn change_after_close_rejected() {
        let mut a = EnergyAccount::new(Picos::ZERO, MilliWatts::ZERO);
        a.close(Picos::from_us(1));
        a.set_power(Picos::from_us(2), MilliWatts::from_mw(1.0));
    }

    proptest! {
        #[test]
        fn average_power_bounded_by_segment_extremes(
            powers in proptest::collection::vec(0.0f64..500.0, 1..20),
            durations in proptest::collection::vec(1u64..1_000_000, 1..20),
        ) {
            let n = powers.len().min(durations.len());
            let mut a = EnergyAccount::new(Picos::ZERO, MilliWatts::from_mw(powers[0]));
            let mut t = Picos::ZERO;
            for i in 0..n {
                t += Picos::from_ps(durations[i]);
                if i + 1 < n {
                    a.set_power(t, MilliWatts::from_mw(powers[i + 1]));
                }
            }
            a.close(t);
            let avg = a.average_power().as_mw();
            let lo = powers[..n].iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = powers[..n].iter().cloned().fold(0.0, f64::max);
            prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {} not in [{},{}]", avg, lo, hi);
        }
    }
}

//! Clock and data recovery (paper §2.2.3).
//!
//! The CDR is a PLL-based circuit that re-times an internal clock to the
//! incoming data and slices out the digital bits. The PLL and clock buffers
//! dominate, so power barely depends on bit *patterns*; being mostly digital
//! switching it follows (paper Eq. 9):
//!
//! ```text
//! P_CDR = α₃ · C_CDR · Vdd² · BR
//! ```
//!
//! Like the VCSEL driver it can be frequency- and voltage-scaled. The catch
//! is lock: any bit-rate change forces the timing loop to re-acquire, so the
//! link is unusable for the *bit-rate transition delay* `Tbr` after every
//! frequency hop — the central circuit constraint the paper's network policy
//! must absorb (20 router cycles in the evaluation).
//!
//! The network integrates the calibrated Table 2 power instead
//! ([`crate::presets`]), so this model is compiled for tests only: it is
//! the Eq. 9 reference that reproduces the 150 mW calibration point and
//! its `Vdd² · BR` trend.

use crate::units::{Gbps, MilliWatts, Volts};

/// A PLL-based clock-and-data-recovery circuit model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cdr {
    switching_activity: f64,
    capacitance_f: f64,
    relock_cycles: u32,
}

impl Cdr {
    /// Creates a CDR model.
    ///
    /// * `switching_activity` — effective switching probability `α₃`.
    /// * `capacitance_f` — total switched capacitance `C_CDR` in farads.
    /// * `relock_cycles` — router-core cycles needed to re-acquire lock
    ///   after a bit-rate change (the paper's `Tbr`, 20 cycles).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range activity or non-positive capacitance.
    fn new(switching_activity: f64, capacitance_f: f64, relock_cycles: u32) -> Self {
        assert!(
            (0.0..=1.0).contains(&switching_activity),
            "switching activity must be in [0,1]"
        );
        assert!(capacitance_f > 0.0, "capacitance must be positive");
        Cdr {
            switching_activity,
            capacitance_f,
            relock_cycles,
        }
    }

    /// A CDR calibrated so that `power(vdd, br) == target` at the given
    /// operating point (Table 2: 150 mW at 10 Gb/s, 1.8 V).
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive.
    fn calibrated(target: MilliWatts, vdd: Volts, br: Gbps, relock_cycles: u32) -> Self {
        assert!(target.as_mw() > 0.0 && vdd.as_v() > 0.0 && br.as_gbps() > 0.0);
        let alpha = 0.5;
        let c = target.as_watts() / (alpha * vdd.as_v() * vdd.as_v() * br.as_bits_per_sec());
        Cdr::new(alpha, c, relock_cycles)
    }

    /// Eq. 9 — power at a supply voltage and bit rate.
    fn power(&self, vdd: Volts, br: Gbps) -> MilliWatts {
        let w = self.switching_activity
            * self.capacitance_f
            * vdd.as_v()
            * vdd.as_v()
            * br.as_bits_per_sec();
        MilliWatts::from_mw(w * 1e3)
    }

    /// Router-core cycles the link is unusable after a bit-rate change
    /// while the timing loop re-locks (`Tbr`).
    fn relock_cycles(&self) -> u32 {
        self.relock_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_hits_table2() {
        let cdr = Cdr::calibrated(
            MilliWatts::from_mw(150.0),
            Volts::from_v(1.8),
            Gbps::from_gbps(10.0),
            20,
        );
        let p = cdr.power(Volts::from_v(1.8), Gbps::from_gbps(10.0));
        assert!((p.as_mw() - 150.0).abs() < 1e-9, "{p}");
        assert_eq!(cdr.relock_cycles(), 20);
    }

    #[test]
    fn scaling_trend_v2_br() {
        let cdr = Cdr::calibrated(
            MilliWatts::from_mw(150.0),
            Volts::from_v(1.8),
            Gbps::from_gbps(10.0),
            20,
        );
        let half = cdr.power(Volts::from_v(0.9), Gbps::from_gbps(5.0));
        // V²·BR: 1/8 of 150 = 18.75 mW
        assert!((half.as_mw() - 18.75).abs() < 1e-9, "{half}");
    }

    #[test]
    fn power_independent_of_relock() {
        let a = Cdr::new(0.5, 1e-12, 20);
        let b = Cdr::new(0.5, 1e-12, 200);
        assert_eq!(
            a.power(Volts::from_v(1.0), Gbps::from_gbps(5.0)),
            b.power(Volts::from_v(1.0), Gbps::from_gbps(5.0))
        );
    }

    #[test]
    #[should_panic(expected = "capacitance")]
    fn zero_capacitance_rejected() {
        let _ = Cdr::new(0.5, 0.0, 20);
    }
}

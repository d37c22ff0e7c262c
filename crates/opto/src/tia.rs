//! Transimpedance amplifier (paper §2.2.2).
//!
//! The TIA turns the detector's photocurrent `Ip` into a voltage swing
//! `Ip · Rf` via a common-source amplifier with feedback resistance `Rf`.
//! Its usable bandwidth is set by the internal amplifier's bias current
//! (paper Eq. 7, `Ibias = c · BRmax`), and since photocurrent and dark
//! current are negligible next to that bias, its power is (paper Eq. 8):
//!
//! ```text
//! P_TIA = Ibias · Vdd = c · BRmax · Vdd
//! ```
//!
//! Under dynamic control, when the link bit rate drops, `BRmax` can drop
//! with it and the supply can scale too, giving the `Vdd · BR` scaling trend
//! of Table 2. A lower supply also means a smaller required output swing, so
//! less photocurrent — and hence less optical power — suffices.
//!
//! The network integrates the calibrated Table 2 power instead
//! ([`crate::presets`]), so this model is compiled for tests only: it is
//! the Eq. 7–8 reference that reproduces the 100 mW calibration point and
//! its `Vdd · BR` trend.

use crate::units::{Gbps, MilliAmps, MilliWatts, Volts};

/// A transimpedance amplifier model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tia {
    /// Bias-current-per-bandwidth constant `c`, in mA per Gb/s.
    bias_ma_per_gbps: f64,
    /// Feedback resistance `Rf` in ohms.
    feedback_ohms: f64,
    /// Required output voltage swing at the nominal supply, as a fraction
    /// of the supply (swing tracks the rail under voltage scaling).
    swing_fraction: f64,
}

impl Tia {
    /// Creates a TIA model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `swing_fraction` exceeds 1.
    fn new(bias_ma_per_gbps: f64, feedback_ohms: f64, swing_fraction: f64) -> Self {
        assert!(bias_ma_per_gbps > 0.0, "bias constant must be positive");
        assert!(feedback_ohms > 0.0, "feedback resistance must be positive");
        assert!(
            swing_fraction > 0.0 && swing_fraction <= 1.0,
            "swing fraction must be in (0,1]"
        );
        Tia {
            bias_ma_per_gbps,
            feedback_ohms,
            swing_fraction,
        }
    }

    /// A TIA calibrated so that `power(vdd, br) == target` at the given
    /// operating point (used to match Table 2's 100 mW at 10 Gb/s, 1.8 V).
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive.
    fn calibrated(target: MilliWatts, vdd: Volts, br_max: Gbps) -> Self {
        assert!(target.as_mw() > 0.0 && vdd.as_v() > 0.0 && br_max.as_gbps() > 0.0);
        let c = target.as_mw() / vdd.as_v() / br_max.as_gbps();
        Tia::new(c, 500.0, 0.25)
    }

    /// Eq. 7 — amplifier bias current needed to support `br_max`.
    fn bias_current(&self, br_max: Gbps) -> MilliAmps {
        MilliAmps::from_ma(self.bias_ma_per_gbps * br_max.as_gbps())
    }

    /// Eq. 8 — power at a given supply and maximum supported bit rate.
    fn power(&self, vdd: Volts, br_max: Gbps) -> MilliWatts {
        self.bias_current(br_max) * vdd
    }

    /// Output voltage swing for a given photocurrent: `Ip · Rf`.
    fn output_swing(&self, photocurrent: MilliAmps) -> Volts {
        Volts::from_v(photocurrent.as_ma() / 1e3 * self.feedback_ohms)
    }

    /// The photocurrent required to produce the full output swing at supply
    /// `vdd` (swing requirement scales with the rail).
    fn required_photocurrent(&self, vdd: Volts) -> MilliAmps {
        let swing = vdd.as_v() * self.swing_fraction;
        MilliAmps::from_ma(swing / self.feedback_ohms * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_hits_table2() {
        let tia = Tia::calibrated(
            MilliWatts::from_mw(100.0),
            Volts::from_v(1.8),
            Gbps::from_gbps(10.0),
        );
        let p = tia.power(Volts::from_v(1.8), Gbps::from_gbps(10.0));
        assert!((p.as_mw() - 100.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn scaling_trend_vdd_br() {
        let tia = Tia::calibrated(
            MilliWatts::from_mw(100.0),
            Volts::from_v(1.8),
            Gbps::from_gbps(10.0),
        );
        let half = tia.power(Volts::from_v(0.9), Gbps::from_gbps(5.0));
        // Vdd·BR trend: (1/2)·(1/2) = 1/4 → 25 mW
        assert!((half.as_mw() - 25.0).abs() < 1e-9, "{half}");
    }

    #[test]
    fn bias_current_linear_in_bandwidth() {
        let tia = Tia::new(5.0, 500.0, 0.25);
        let i10 = tia.bias_current(Gbps::from_gbps(10.0));
        let i5 = tia.bias_current(Gbps::from_gbps(5.0));
        assert!((i10.as_ma() - 50.0).abs() < 1e-12);
        assert!((i10.as_ma() / i5.as_ma() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn output_swing_is_ip_rf() {
        let tia = Tia::new(5.0, 500.0, 0.25);
        // 1 mA through 500 Ω = 0.5 V
        let swing = tia.output_swing(MilliAmps::from_ma(1.0));
        assert!((swing.as_v() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lower_rail_needs_less_photocurrent() {
        // The paper's side benefit: at a lower supply the required swing
        // Ip·Rf shrinks, so less light is needed.
        let tia = Tia::new(5.0, 500.0, 0.25);
        let full = tia.required_photocurrent(Volts::from_v(1.8));
        let half = tia.required_photocurrent(Volts::from_v(0.9));
        assert!((full.as_ma() / half.as_ma() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "swing fraction")]
    fn bad_swing_rejected() {
        let _ = Tia::new(5.0, 500.0, 1.5);
    }
}

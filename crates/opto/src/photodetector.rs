//! Receiver photodetector (paper §2.2.1).
//!
//! The photodetector converts the optical bit stream back into photocurrent.
//! To hit the target bit error rate (10⁻¹² for inter-chassis/inter-board
//! links) it needs at least the *receiver sensitivity* `Prec` of optical
//! power; its dissipation follows paper Eq. 6:
//!
//! ```text
//! P = Prec · (q / hν) · Vbias · (CR + 1) / (CR − 1)
//! ```
//!
//! Detector power is well under a milliwatt — far below every other link
//! component — so the paper applies no dynamic power control here; we model
//! it anyway for completeness of the link budget.
//!
//! Compiled for tests only: the network leaves the detector out of its
//! calibrated Table 2 link power, and this model is the Eq. 6 reference
//! that shows why.

use crate::constants::ideal_responsivity_a_per_w;
use crate::units::{MicroWatts, MilliAmps, MilliWatts, Volts};

/// A PIN photodetector model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Photodetector {
    bias_voltage: Volts,
    quantum_efficiency: f64,
    dark_current: MilliAmps,
}

impl Photodetector {
    /// Creates a photodetector.
    ///
    /// * `bias_voltage` — reverse bias across the junction.
    /// * `quantum_efficiency` — fraction of photons converted, in `(0, 1]`.
    /// * `dark_current` — leakage with no light (typically a few nA).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    fn new(bias_voltage: Volts, quantum_efficiency: f64, dark_current: MilliAmps) -> Self {
        assert!(bias_voltage.as_v() > 0.0, "bias voltage must be positive");
        assert!(
            quantum_efficiency > 0.0 && quantum_efficiency <= 1.0,
            "quantum efficiency must be in (0,1]"
        );
        assert!(
            dark_current.as_ma() >= 0.0,
            "dark current must be non-negative"
        );
        Photodetector {
            bias_voltage,
            quantum_efficiency,
            dark_current,
        }
    }

    /// A typical 10 Gb/s PIN detector: 3.3 V bias, 0.8 quantum efficiency,
    /// 5 nA dark current (paper ref. \[10\]).
    fn pin_10g() -> Self {
        Photodetector::new(Volts::from_v(3.3), 0.8, MilliAmps::from_ma(5e-6))
    }

    /// Responsivity in A/W: quantum efficiency times the ideal `q/hν`.
    fn responsivity_a_per_w(&self) -> f64 {
        self.quantum_efficiency * ideal_responsivity_a_per_w()
    }

    /// Photocurrent generated by a given incident optical power.
    fn photocurrent(&self, light: MicroWatts) -> MilliAmps {
        MilliAmps::from_ma(self.responsivity_a_per_w() * light.as_uw() / 1e3)
    }

    /// Eq. 6 — average dissipated power when receiving at sensitivity
    /// `prec` with optical contrast ratio `cr` between 1 and 0 levels.
    ///
    /// # Panics
    ///
    /// Panics if `cr <= 1` (no eye opening).
    fn average_power(&self, prec: MicroWatts, cr: f64) -> MilliWatts {
        assert!(cr > 1.0, "contrast ratio must exceed 1, got {cr}");
        let i_avg_ma = self.responsivity_a_per_w() * prec.as_uw() / 1e3 * (cr + 1.0) / (cr - 1.0);
        MilliAmps::from_ma(i_avg_ma) * self.bias_voltage
    }

    /// Static dissipation from dark current alone.
    fn dark_power(&self) -> MilliWatts {
        self.dark_current * self.bias_voltage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> Photodetector {
        Photodetector::pin_10g()
    }

    #[test]
    fn responsivity_below_ideal() {
        let r = det().responsivity_a_per_w();
        assert!(r > 0.9 && r < 1.25, "responsivity {r}");
    }

    #[test]
    fn photocurrent_linear() {
        let i1 = det().photocurrent(MicroWatts::from_uw(25.0));
        let i2 = det().photocurrent(MicroWatts::from_uw(50.0));
        assert!(i1.as_ma() > 0.0);
        assert!((i2.as_ma() / i1.as_ma() - 2.0).abs() < 1e-9);
        // 25 µW · ~1 A/W ≈ 25 µA: well under the 100 µA the paper calls
        // negligible next to TIA power.
        assert!(i1.as_ma() < 0.1);
    }

    #[test]
    fn power_is_sub_milliwatt() {
        // Paper: detector dissipation < 1 mW at a 25 µW 10 Gb/s sensitivity.
        let p = det().average_power(MicroWatts::from_uw(25.0), 10.0);
        assert!(p.as_mw() < 1.0, "{p}");
        assert!(p.as_mw() > 0.0);
    }

    #[test]
    fn power_grows_as_contrast_shrinks() {
        // (CR+1)/(CR−1) grows as CR → 1: worse extinction needs more
        // average light for the same eye, dissipating more.
        let good = det().average_power(MicroWatts::from_uw(25.0), 20.0);
        let poor = det().average_power(MicroWatts::from_uw(25.0), 2.0);
        assert!(poor > good);
    }

    #[test]
    fn dark_power_negligible() {
        let p = det().dark_power();
        assert!(p.as_mw() < 1e-3, "{p}");
    }

    #[test]
    #[should_panic(expected = "contrast ratio")]
    fn unity_contrast_rejected() {
        let _ = det().average_power(MicroWatts::from_uw(25.0), 1.0);
    }
}

//! Multiple-quantum-well (MQW) electro-absorption modulator (paper §2.1.2).
//!
//! In the external-laser transmitter scheme, continuous light from a central
//! mode-locked laser reaches each link transmitter, where an MQW modulator
//! either absorbs it (0-bit, "off") or passes it (1-bit, "on") depending on
//! the voltage applied by the driver. Its contrast ratio `CR` is the on/off
//! transmitted power ratio at the driver's nominal swing.
//!
//! Crucially for power-aware operation, lowering the driver supply shrinks
//! the voltage swing, which collapses the contrast ratio (paper ref. \[7\]) —
//! so the modulator driver is only *bit-rate* scaled, never voltage scaled.
//! [`MqwModulator::contrast_at_swing`] models that degradation.
//!
//! The modulator's own dissipation (paper Eq. 4) is well under a milliwatt,
//! so the calibrated Table 2 link power ([`crate::presets`]) leaves it out;
//! the tests keep Eq. 4 as `Absorption`, the reference that shows why.

use crate::units::Volts;
#[cfg(test)]
use crate::units::{MicroWatts, MilliWatts};
use serde::{Deserialize, Serialize};

/// An MQW electro-absorption modulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MqwModulator {
    contrast_ratio: f64,
    nominal_swing: Volts,
}

impl MqwModulator {
    /// Creates a modulator model.
    ///
    /// * `contrast_ratio` — on/off transmitted-power ratio, `> 1`.
    /// * `nominal_swing` — the driver swing at which `contrast_ratio` holds.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is out of its physical range.
    pub(crate) fn new(contrast_ratio: f64, nominal_swing: Volts) -> Self {
        assert!(contrast_ratio > 1.0, "contrast ratio must exceed 1");
        assert!(nominal_swing.as_v() > 0.0, "swing must be positive");
        MqwModulator {
            contrast_ratio,
            nominal_swing,
        }
    }

    /// A strained InGaAs/InAlAs MQW modulator in the spirit of the paper's
    /// reference \[7\]: 10:1 contrast at a 1.8 V swing.
    pub fn ingaas_10g() -> Self {
        MqwModulator::new(10.0, Volts::from_v(1.8))
    }

    /// The contrast ratio achieved at a reduced driver swing.
    ///
    /// Electro-absorption contrast falls off steeply as the swing shrinks
    /// (paper ref. \[7\]); we model extinction in dB as proportional to swing,
    /// which makes the linear contrast ratio collapse exponentially — this
    /// is why the paper keeps the modulator driver's supply fixed.
    pub fn contrast_at_swing(&self, swing: Volts) -> f64 {
        let ratio = (swing.as_v() / self.nominal_swing.as_v()).clamp(0.0, 1.0);
        let nominal_db = 10.0 * self.contrast_ratio.log10();
        10f64.powf(nominal_db * ratio / 10.0)
    }
}

/// The light an MQW modulator absorbs, and the power that dissipates (paper
/// Eq. 4, equal 1/0 probabilities):
///
/// ```text
/// P = 0.5 · Rs · PI · [ IL·(Vbias − Vdd)  +  (1 − (1−IL)/CR)·Vbias ]
/// ```
///
/// where `IL` is the fraction of light absorbed in the "on" state, `CR` the
/// modulator's contrast ratio, `Rs` the optical-to-current conversion
/// efficiency, `PI` the input optical power, `Vbias` the reverse bias and
/// `Vdd` the driver supply (a 1-bit applies `Vbias − Vdd`, a 0-bit `Vbias`).
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct Absorption {
    modulator: MqwModulator,
    insertion_loss: f64,
    responsivity_a_per_w: f64,
    bias_voltage: Volts,
}

#[cfg(test)]
impl Absorption {
    /// [`MqwModulator::ingaas_10g`] with ~1 dB on-state loss (≈20%), 0.8 A/W
    /// conversion and a 2.5 V reverse bias.
    fn ingaas_10g() -> Self {
        Absorption {
            modulator: MqwModulator::ingaas_10g(),
            insertion_loss: 0.2,
            responsivity_a_per_w: 0.8,
            bias_voltage: Volts::from_v(2.5),
        }
    }

    /// Transmitted optical power in the "on" (1-bit) state.
    fn transmitted_on(&self, input: MicroWatts) -> MicroWatts {
        input * (1.0 - self.insertion_loss)
    }

    /// Transmitted optical power in the "off" (0-bit) state.
    fn transmitted_off(&self, input: MicroWatts) -> MicroWatts {
        self.transmitted_on(input) / self.modulator.contrast_ratio
    }

    /// Optical power absorbed in the "on" state.
    fn absorbed_on(&self, input: MicroWatts) -> MicroWatts {
        input * self.insertion_loss
    }

    /// Optical power absorbed in the "off" state.
    fn absorbed_off(&self, input: MicroWatts) -> MicroWatts {
        input * (1.0 - (1.0 - self.insertion_loss) / self.modulator.contrast_ratio)
    }

    /// Eq. 4 — average dissipated power for a given input optical power
    /// and driver supply voltage.
    fn average_power(&self, input: MicroWatts, vdd: Volts) -> MilliWatts {
        let rs = self.responsivity_a_per_w;
        let pi_w = input.as_uw() / 1e6;
        let on_term = self.insertion_loss * (self.bias_voltage.as_v() - vdd.as_v()).abs();
        let off_term = (1.0 - (1.0 - self.insertion_loss) / self.modulator.contrast_ratio)
            * self.bias_voltage.as_v();
        MilliWatts::from_mw(0.5 * rs * pi_w * (on_term + off_term) * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MqwModulator {
        MqwModulator::ingaas_10g()
    }

    fn a() -> Absorption {
        Absorption::ingaas_10g()
    }

    #[test]
    fn energy_conservation_on_state() {
        let input = MicroWatts::from_uw(100.0);
        let t = a().transmitted_on(input);
        let absorbed = a().absorbed_on(input);
        assert!((t.as_uw() + absorbed.as_uw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn energy_conservation_off_state() {
        let input = MicroWatts::from_uw(100.0);
        let t = a().transmitted_off(input);
        let absorbed = a().absorbed_off(input);
        assert!((t.as_uw() + absorbed.as_uw() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn contrast_ratio_definition() {
        let input = MicroWatts::from_uw(50.0);
        let on = a().transmitted_on(input).as_uw();
        let off = a().transmitted_off(input).as_uw();
        assert!((on / off - 10.0).abs() < 1e-9);
    }

    #[test]
    fn off_state_absorbs_more() {
        let input = MicroWatts::from_uw(100.0);
        assert!(a().absorbed_off(input) > a().absorbed_on(input));
    }

    #[test]
    fn average_power_positive_and_linear_in_light() {
        let p1 = a().average_power(MicroWatts::from_uw(100.0), Volts::from_v(1.8));
        let p2 = a().average_power(MicroWatts::from_uw(200.0), Volts::from_v(1.8));
        assert!(p1.as_mw() > 0.0);
        assert!((p2.as_mw() / p1.as_mw() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_power_magnitude_is_small() {
        // With tens of µW of light, dissipation is well under a milliwatt —
        // consistent with the paper treating it as minor next to the driver.
        let p = a().average_power(MicroWatts::from_uw(50.0), Volts::from_v(1.8));
        assert!(p.as_mw() < 1.0, "{p}");
    }

    #[test]
    fn contrast_degrades_with_swing() {
        let full = m().contrast_at_swing(Volts::from_v(1.8));
        let half = m().contrast_at_swing(Volts::from_v(0.9));
        assert!((full - 10.0).abs() < 1e-9);
        // 10 dB → 5 dB extinction: CR drops from 10 to ~3.16
        assert!((half - 10f64.powf(0.5)).abs() < 1e-9);
    }

    #[test]
    fn contrast_never_below_unity() {
        assert!(m().contrast_at_swing(Volts::ZERO) >= 1.0);
    }

    #[test]
    #[should_panic(expected = "contrast ratio")]
    fn bad_contrast_rejected() {
        let _ = MqwModulator::new(0.9, Volts::from_v(1.8));
    }
}

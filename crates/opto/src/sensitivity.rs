//! Receiver sensitivity and bit-error-rate margin (paper §2.2.1).
//!
//! A receiver needs a minimum optical power — the *sensitivity* `Prec` — to
//! hit the target BER (10⁻¹² for inter-chassis/board links); higher bit
//! rates integrate fewer photons per bit and therefore need proportionally
//! more light. This module models `Prec(BR)` and converts optical margin
//! into a Q-factor / BER estimate, which the power-aware machinery uses to
//! check that reduced light levels (lower VOA settings, scaled-down VCSEL
//! swing) still close the link at reduced bit rates.

use crate::units::{Gbps, MicroWatts};
use serde::{Deserialize, Serialize};

/// Q-factor corresponding to BER = 10⁻¹² for a Gaussian-noise receiver.
pub(crate) const Q_FOR_1E_MINUS_12: f64 = 7.034;

/// Complementary error function via the Abramowitz–Stegun 7.1.26
/// approximation (max absolute error ≈ 1.5e-7) — ample for BER estimates.
pub(crate) fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

/// BER for a given Q-factor: `0.5 · erfc(Q/√2)`.
pub(crate) fn ber_from_q(q: f64) -> f64 {
    0.5 * erfc(q / std::f64::consts::SQRT_2)
}

/// A receiver sensitivity model: `Prec(BR) = Prec(BRmax) · (BR/BRmax)^k`.
///
/// `k = 1` is the thermal-noise-limited case (sensitivity linear in rate),
/// which the paper's "higher bit rates require higher receiver sensitivity"
/// statement reflects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityModel {
    prec_at_max: MicroWatts,
    br_max: Gbps,
    exponent: f64,
}

impl SensitivityModel {
    /// Creates a sensitivity model anchored at (`br_max`, `prec_at_max`).
    ///
    /// # Panics
    ///
    /// Panics if powers/rates are non-positive or the exponent is negative.
    pub(crate) fn new(prec_at_max: MicroWatts, br_max: Gbps, exponent: f64) -> Self {
        assert!(prec_at_max.as_uw() > 0.0, "sensitivity must be positive");
        assert!(br_max.as_gbps() > 0.0, "max bit rate must be positive");
        assert!(exponent >= 0.0, "exponent must be non-negative");
        SensitivityModel {
            prec_at_max,
            br_max,
            exponent,
        }
    }

    /// The paper's anchor: 25 µW at the receiver for a 10 Gb/s link,
    /// thermal-noise-limited scaling.
    pub fn paper_default() -> Self {
        SensitivityModel::new(MicroWatts::from_uw(25.0), Gbps::from_gbps(10.0), 1.0)
    }

    /// Required optical power at the receiver for bit rate `br`.
    ///
    /// # Panics
    ///
    /// Panics if `br` is not strictly positive.
    pub(crate) fn required(&self, br: Gbps) -> MicroWatts {
        assert!(br.as_gbps() > 0.0, "bit rate must be positive");
        let ratio = (br.as_gbps() / self.br_max.as_gbps()).powf(self.exponent);
        self.prec_at_max * ratio
    }

    /// Optical margin in linear terms: received / required.
    pub(crate) fn margin(&self, received: MicroWatts, br: Gbps) -> f64 {
        received / self.required(br)
    }

    /// Estimated Q-factor when `received` light arrives at bit rate `br`:
    /// Q scales linearly with optical power for a thermal-noise-limited
    /// receiver, anchored at Q = 7.034 (BER 10⁻¹²) when exactly at
    /// sensitivity.
    pub(crate) fn q_factor(&self, received: MicroWatts, br: Gbps) -> f64 {
        Q_FOR_1E_MINUS_12 * self.margin(received, br)
    }

    /// Estimated BER for the given received power and bit rate.
    pub fn ber(&self, received: MicroWatts, br: Gbps) -> f64 {
        ber_from_q(self.q_factor(received, br))
    }

    /// Whether the link closes (BER ≤ 10⁻¹²) at the given operating point.
    pub fn link_closes(&self, received: MicroWatts, br: Gbps) -> bool {
        self.margin(received, br) >= 1.0
    }

    /// Probability that a `bits`-wide flit crossing the link suffers at
    /// least one bit error at the given received power and bit rate:
    /// `1 − (1 − BER)^bits`, computed with `ln_1p`/`exp_m1` so tiny BERs
    /// don't vanish in floating-point cancellation. This is the corruption
    /// probability fault injection applies to flits launched while a laser
    /// is delivering degraded light.
    pub fn flit_corruption_probability(&self, received: MicroWatts, br: Gbps, bits: u32) -> f64 {
        let ber = self.ber(received, br).clamp(0.0, 1.0);
        if ber >= 1.0 {
            return 1.0;
        }
        -(f64::from(bits) * (-ber).ln_1p()).exp_m1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        // symmetry: erfc(-x) = 2 - erfc(x)
        assert!((erfc(-1.0) - (2.0 - 0.157_299_2)).abs() < 1e-6);
    }

    #[test]
    fn q7_gives_1e12_ber() {
        let ber = ber_from_q(Q_FOR_1E_MINUS_12);
        assert!(ber < 2e-12 && ber > 0.5e-12, "BER {ber}");
    }

    #[test]
    fn sensitivity_scales_linearly_with_rate() {
        let s = SensitivityModel::paper_default();
        assert!((s.required(Gbps::from_gbps(10.0)).as_uw() - 25.0).abs() < 1e-9);
        assert!((s.required(Gbps::from_gbps(5.0)).as_uw() - 12.5).abs() < 1e-9);
        assert!((s.required(Gbps::from_gbps(2.5)).as_uw() - 6.25).abs() < 1e-9);
    }

    #[test]
    fn margin_and_closure() {
        let s = SensitivityModel::paper_default();
        // Exactly at sensitivity: margin 1, link closes.
        assert!(s.link_closes(MicroWatts::from_uw(25.0), Gbps::from_gbps(10.0)));
        // 20 µW at 10 Gb/s: under-powered.
        assert!(!s.link_closes(MicroWatts::from_uw(20.0), Gbps::from_gbps(10.0)));
        // But the same 20 µW closes a 5 Gb/s link with margin.
        assert!(s.link_closes(MicroWatts::from_uw(20.0), Gbps::from_gbps(5.0)));
        assert!((s.margin(MicroWatts::from_uw(20.0), Gbps::from_gbps(5.0)) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn halved_light_halved_rate_keeps_ber() {
        // The key power-aware co-design fact: dropping the optical level
        // together with the bit rate preserves the BER target.
        let s = SensitivityModel::paper_default();
        let full = s.ber(MicroWatts::from_uw(25.0), Gbps::from_gbps(10.0));
        let half = s.ber(MicroWatts::from_uw(12.5), Gbps::from_gbps(5.0));
        assert!((full.log10() - half.log10()).abs() < 1e-6);
    }

    #[test]
    fn more_light_better_ber() {
        let s = SensitivityModel::paper_default();
        let at = s.ber(MicroWatts::from_uw(25.0), Gbps::from_gbps(10.0));
        let above = s.ber(MicroWatts::from_uw(50.0), Gbps::from_gbps(10.0));
        assert!(above < at);
    }

    #[test]
    fn flit_corruption_probability_behaves() {
        let s = SensitivityModel::paper_default();
        // Full margin: essentially zero corruption.
        let clean =
            s.flit_corruption_probability(MicroWatts::from_uw(80.0), Gbps::from_gbps(10.0), 16);
        assert!(clean < 1e-12, "clean {clean}");
        // Starved light: high corruption, bounded by 1.
        let starved =
            s.flit_corruption_probability(MicroWatts::from_uw(2.0), Gbps::from_gbps(10.0), 16);
        assert!(starved > 0.5 && starved <= 1.0, "starved {starved}");
        // Slowing the link at the same light level reduces corruption.
        let slowed =
            s.flit_corruption_probability(MicroWatts::from_uw(8.0), Gbps::from_gbps(5.0), 16);
        let fast =
            s.flit_corruption_probability(MicroWatts::from_uw(8.0), Gbps::from_gbps(10.0), 16);
        assert!(slowed < fast, "slowed {slowed} vs fast {fast}");
        // Small-BER regime agrees with bits · BER to first order.
        let ber = s.ber(MicroWatts::from_uw(8.0), Gbps::from_gbps(5.0));
        assert!((slowed - 16.0 * ber).abs() / slowed < 1e-3);
    }

    #[test]
    fn constant_exponent_flat_sensitivity() {
        let s = SensitivityModel::new(MicroWatts::from_uw(25.0), Gbps::from_gbps(10.0), 0.0);
        assert_eq!(
            s.required(Gbps::from_gbps(1.0)),
            s.required(Gbps::from_gbps(10.0))
        );
    }
}

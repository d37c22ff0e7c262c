//! Directly-modulated VCSEL transmitter (paper §2.1.1).
//!
//! A vertical-cavity surface-emitting laser emits when driven above its
//! threshold current; to keep stimulated emission stable at high bit rates
//! it is constantly biased above threshold, and the driver adds a modulation
//! current `Im` on top for 1-bits:
//!
//! - Eq. 1 — emitted optical power: `Pe = S · (I − Ith)`
//!
//! The laser's electrical power (Eq. 2) and its driver's (Eq. 3) reach the
//! network through the calibrated Table 2 powers and trends
//! ([`crate::presets`]); both equations are compiled for tests only, as
//! the references for those trends:
//!
//! - Eq. 2 — average electrical power: `P = (Ibias + Im/2) · Vbias`
//! - Eq. 3 — driver power: `P = α₁ · C_LD · Vdd² · BR` (`InverterChainDriver`)
//!
//! Under dynamic power control, scaling the driver's `Vdd` scales `Im`
//! roughly proportionally, which in turn scales both the VCSEL's electrical
//! power and its emitted light linearly — preserving the contrast ratio, the
//! key advantage of VCSELs for power-aware links (paper §2.3).

#[cfg(test)]
use crate::units::{Gbps, MilliWatts, Volts};
use crate::units::{MicroWatts, MilliAmps};
use serde::{Deserialize, Serialize};

/// A VCSEL device model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vcsel {
    threshold: MilliAmps,
    slope_efficiency_w_per_a: f64,
    bias: MilliAmps,
    nominal_modulation: MilliAmps,
}

impl Vcsel {
    /// Creates a VCSEL model.
    ///
    /// * `threshold` — lasing threshold current `Ith`.
    /// * `slope_efficiency_w_per_a` — conversion slope `S` (W/A).
    /// * `bias` — standing bias current `Ibias` (must be ≥ threshold so the
    ///   laser stays in stimulated emission).
    /// * `nominal_modulation` — modulation current `Im` at the full-rate
    ///   operating point.
    ///
    /// # Panics
    ///
    /// Panics if `bias < threshold` or any parameter is non-positive.
    pub(crate) fn new(
        threshold: MilliAmps,
        slope_efficiency_w_per_a: f64,
        bias: MilliAmps,
        nominal_modulation: MilliAmps,
    ) -> Self {
        assert!(threshold.as_ma() > 0.0, "threshold must be positive");
        assert!(
            bias >= threshold,
            "bias {bias} must be at or above threshold {threshold}"
        );
        assert!(
            slope_efficiency_w_per_a > 0.0,
            "slope efficiency must be positive"
        );
        assert!(
            nominal_modulation.as_ma() > 0.0,
            "modulation current must be positive"
        );
        Vcsel {
            threshold,
            slope_efficiency_w_per_a,
            bias,
            nominal_modulation,
        }
    }

    /// An oxide-aperture-confined 1.55 µm VCSEL in the spirit of the paper's
    /// references [10, 18]: sub-mA threshold, ~0.3 W/A slope.
    pub fn oxide_aperture_10g() -> Self {
        Vcsel::new(
            MilliAmps::from_ma(0.5),
            0.3,
            MilliAmps::from_ma(1.0),
            MilliAmps::from_ma(10.0),
        )
    }

    /// Standing bias current `Ibias`.
    pub fn bias(&self) -> MilliAmps {
        self.bias
    }

    /// Eq. 1 — emitted optical power for a total driving current `i`.
    /// Below threshold the laser emits (approximately) nothing.
    pub fn emitted_power(&self, i: MilliAmps) -> MicroWatts {
        if i <= self.threshold {
            return MicroWatts::ZERO;
        }
        let above_a = (i - self.threshold).as_ma() / 1e3;
        MicroWatts::from_uw(self.slope_efficiency_w_per_a * above_a * 1e9 / 1e3)
    }

    /// The modulation current when the driver's supply is scaled to
    /// `vdd / vdd_nominal` of its nominal value; `Im` tracks the driver
    /// swing roughly linearly (paper §3.2.2).
    pub fn modulation_at_scale(&self, supply_ratio: f64) -> MilliAmps {
        assert!(
            (0.0..=1.0).contains(&supply_ratio),
            "supply ratio must be in [0,1], got {supply_ratio}"
        );
        self.nominal_modulation * supply_ratio
    }

    /// Eq. 2 — average electrical power for a given modulation current at
    /// forward bias `bias_voltage` (equal 1/0 probabilities):
    /// `(Ibias + Im/2) · Vbias`.
    #[cfg(test)]
    fn electrical_power(&self, modulation: MilliAmps, bias_voltage: Volts) -> MilliWatts {
        (self.bias + modulation / 2.0) * bias_voltage
    }

    /// Optical modulation amplitude: emitted power difference between a
    /// 1-bit (`Ibias + Im`) and a 0-bit (`Ibias`).
    #[cfg(test)]
    fn optical_modulation_amplitude(&self, modulation: MilliAmps) -> MicroWatts {
        let one = self.emitted_power(self.bias + modulation);
        let zero = self.emitted_power(self.bias);
        one - zero
    }

    /// Extinction (contrast) ratio between the 1 and 0 light levels.
    ///
    /// Returns `f64::INFINITY` when the 0-level emits no light.
    pub fn contrast_ratio(&self, modulation: MilliAmps) -> f64 {
        let one = self.emitted_power(self.bias + modulation).as_uw();
        let zero = self.emitted_power(self.bias).as_uw();
        if zero <= 0.0 {
            f64::INFINITY
        } else {
            one / zero
        }
    }
}

/// A CMOS cascaded-inverter driver chain (paper Fig. 2), used both as the
/// VCSEL driver and as the MQW modulator driver.
///
/// Dynamic power follows Eq. 3 / Eq. 5: `P = α · C · Vdd² · BR`, where `α`
/// is the input stream's bit-transition probability and `C` the total
/// switched capacitance.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
struct InverterChainDriver {
    switching_activity: f64,
    total_capacitance_f: f64,
    fanout_beta: f64,
    input_capacitance_f: f64,
}

#[cfg(test)]
impl InverterChainDriver {
    /// Creates a driver chain model.
    ///
    /// * `switching_activity` — probability of a bit transition (`α`), in
    ///   `[0, 1]`; 0.5 for random data.
    /// * `total_capacitance_f` — total switched capacitance in farads
    ///   (chain + load gate).
    /// * `fanout_beta` — per-stage sizing ratio `β` (typically 3–4).
    /// * `input_capacitance_f` — first-stage input capacitance in farads.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range activity, non-positive capacitances, or
    /// `fanout_beta <= 1`.
    fn new(
        switching_activity: f64,
        total_capacitance_f: f64,
        fanout_beta: f64,
        input_capacitance_f: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&switching_activity),
            "switching activity must be in [0,1]"
        );
        assert!(total_capacitance_f > 0.0, "capacitance must be positive");
        assert!(fanout_beta > 1.0, "fanout beta must exceed 1");
        assert!(
            input_capacitance_f > 0.0 && input_capacitance_f <= total_capacitance_f,
            "input capacitance must be positive and at most the total"
        );
        InverterChainDriver {
            switching_activity,
            total_capacitance_f,
            fanout_beta,
            input_capacitance_f,
        }
    }

    /// A driver calibrated so that `P = target` at (`vdd`, `br`); used to
    /// match the paper's Table 2 component powers.
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive.
    fn calibrated(target: MilliWatts, vdd: Volts, br: Gbps, switching_activity: f64) -> Self {
        assert!(target.as_mw() > 0.0 && vdd.as_v() > 0.0 && br.as_gbps() > 0.0);
        let c = target.as_watts()
            / (switching_activity * vdd.as_v() * vdd.as_v() * br.as_bits_per_sec());
        InverterChainDriver::new(switching_activity, c, 3.5, c / 100.0)
    }

    /// Eq. 3 / Eq. 5 — dynamic power at a supply voltage and bit rate.
    fn power(&self, vdd: Volts, br: Gbps) -> MilliWatts {
        let w = self.switching_activity
            * self.total_capacitance_f
            * vdd.as_v()
            * vdd.as_v()
            * br.as_bits_per_sec();
        MilliWatts::from_mw(w * 1e3)
    }

    /// Number of inverter stages needed to drive the total load from the
    /// input capacitance at the configured fanout `β`.
    fn stage_count(&self) -> u32 {
        let ratio = self.total_capacitance_f / self.input_capacitance_f;
        ratio.ln().div_euclid(self.fanout_beta.ln()).max(0.0) as u32 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laser() -> Vcsel {
        Vcsel::oxide_aperture_10g()
    }

    #[test]
    fn below_threshold_emits_nothing() {
        let v = laser();
        assert_eq!(v.emitted_power(MilliAmps::from_ma(0.3)), MicroWatts::ZERO);
        assert_eq!(v.emitted_power(v.threshold), MicroWatts::ZERO);
    }

    #[test]
    fn emitted_power_is_linear_above_threshold() {
        let v = laser();
        // 0.3 W/A · (1.5mA - 0.5mA) = 0.3 mW = 300 µW
        let p = v.emitted_power(MilliAmps::from_ma(1.5));
        assert!((p.as_uw() - 300.0).abs() < 1e-9, "{p}");
        // doubling the above-threshold current doubles the light
        let p2 = v.emitted_power(MilliAmps::from_ma(2.5));
        assert!((p2.as_uw() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn electrical_power_eq2() {
        let v = laser();
        // (1mA + 10mA/2) · 1.8V = 10.8 mW
        let p = v.electrical_power(v.nominal_modulation, Volts::from_v(1.8));
        assert!((p.as_mw() - 10.8).abs() < 1e-9, "{p}");
    }

    #[test]
    fn electrical_power_scales_with_modulation() {
        let v = laser();
        let half = v.modulation_at_scale(0.5);
        assert!((half.as_ma() - 5.0).abs() < 1e-12);
        let p_half = v.electrical_power(half, Volts::from_v(1.8));
        let p_full = v.electrical_power(v.nominal_modulation, Volts::from_v(1.8));
        assert!(p_half < p_full);
        // Bias floor remains: power never reaches half even at Im/2.
        assert!(p_half.as_mw() > p_full.as_mw() / 2.0);
    }

    #[test]
    fn contrast_ratio_preserved_under_scaling() {
        let v = laser();
        let cr_full = v.contrast_ratio(v.nominal_modulation);
        let cr_half = v.contrast_ratio(v.modulation_at_scale(0.5));
        assert!(cr_full > cr_half); // lower swing, lower contrast…
        assert!(cr_half > 5.0); // …but still easily detectable
    }

    #[test]
    fn oma_positive_and_monotonic() {
        let v = laser();
        let a = v.optical_modulation_amplitude(MilliAmps::from_ma(5.0));
        let b = v.optical_modulation_amplitude(MilliAmps::from_ma(10.0));
        assert!(a.as_uw() > 0.0);
        assert!(b > a);
    }

    #[test]
    #[should_panic(expected = "bias")]
    fn bias_below_threshold_rejected() {
        let _ = Vcsel::new(
            MilliAmps::from_ma(1.0),
            0.3,
            MilliAmps::from_ma(0.5),
            MilliAmps::from_ma(10.0),
        );
    }

    #[test]
    fn driver_power_eq3() {
        // α=0.5, C=1pF, Vdd=1.8V, BR=10Gb/s → 0.5·1e-12·3.24·1e10 = 16.2 mW
        let d = InverterChainDriver::new(0.5, 1e-12, 3.5, 1e-14);
        let p = d.power(Volts::from_v(1.8), Gbps::from_gbps(10.0));
        assert!((p.as_mw() - 16.2).abs() < 1e-9, "{p}");
    }

    #[test]
    fn driver_power_scaling_trend_v2_br() {
        let d = InverterChainDriver::new(0.5, 1e-12, 3.5, 1e-14);
        let full = d.power(Volts::from_v(1.8), Gbps::from_gbps(10.0));
        let half = d.power(Volts::from_v(0.9), Gbps::from_gbps(5.0));
        // V²·BR trend: (1/2)²·(1/2) = 1/8
        assert!((half.as_mw() - full.as_mw() / 8.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_driver_hits_target() {
        let d = InverterChainDriver::calibrated(
            MilliWatts::from_mw(10.0),
            Volts::from_v(1.8),
            Gbps::from_gbps(10.0),
            0.5,
        );
        let p = d.power(Volts::from_v(1.8), Gbps::from_gbps(10.0));
        assert!((p.as_mw() - 10.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn stage_count_grows_with_load() {
        let small = InverterChainDriver::new(0.5, 1e-13, 3.5, 1e-14);
        let large = InverterChainDriver::new(0.5, 1e-11, 3.5, 1e-14);
        assert!(large.stage_count() > small.stage_count());
        assert!(small.stage_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "switching activity")]
    fn bad_activity_rejected() {
        let _ = InverterChainDriver::new(1.5, 1e-12, 3.5, 1e-14);
    }
}

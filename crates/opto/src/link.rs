//! Whole-link calibrated power model (paper Table 2).
//!
//! The network simulator integrates link power from this model: each
//! component carries its measured power at the calibration operating point
//! (10 Gb/s, 1.8 V in the paper) plus a [`ScalingTrend`], and the link sums
//! component powers at whatever operating point the power-aware policy has
//! currently set.

use crate::scaling::ScalingTrend;
use crate::units::{Gbps, MilliWatts, Volts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a link component in power breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentId {
    /// The VCSEL laser diode.
    Vcsel,
    /// The VCSEL's inverter-chain driver.
    VcselDriver,
    /// The MQW modulator's inverter-chain driver.
    ModulatorDriver,
    /// The transimpedance amplifier.
    Tia,
    /// The clock-and-data-recovery circuit.
    Cdr,
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentId::Vcsel => "VCSEL",
            ComponentId::VcselDriver => "VCSEL driver",
            ComponentId::ModulatorDriver => "Modulator driver",
            ComponentId::Tia => "TIA",
            ComponentId::Cdr => "CDR",
        };
        f.write_str(s)
    }
}

/// Which transmitter technology a link uses (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransmitterKind {
    /// Directly-modulated VCSEL: both bit rate and voltage scale.
    Vcsel,
    /// External laser + MQW modulator: driver supply is fixed; optical
    /// power is stepped by external attenuators.
    MqwModulator,
}

impl fmt::Display for TransmitterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransmitterKind::Vcsel => f.write_str("VCSEL"),
            TransmitterKind::MqwModulator => f.write_str("MQW modulator"),
        }
    }
}

/// A link operating point: bit rate plus the (scaled) supply voltage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    bit_rate: Gbps,
    vdd: Volts,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if the bit rate or voltage is not strictly positive.
    pub fn new(bit_rate: Gbps, vdd: Volts) -> Self {
        assert!(bit_rate.as_gbps() > 0.0, "bit rate must be positive");
        assert!(vdd.as_v() > 0.0, "supply voltage must be positive");
        OperatingPoint { bit_rate, vdd }
    }

    /// The paper's maximum operating point: 10 Gb/s at 1.8 V.
    pub fn paper_max() -> Self {
        OperatingPoint::new(Gbps::from_gbps(10.0), Volts::from_v(1.8))
    }

    /// The paper's voltage-scaling rule: Vdd tracks bit rate linearly
    /// (1.8 V at 10 Gb/s → 0.9 V at 5 Gb/s).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn paper_at_gbps(gbps: f64) -> Self {
        assert!(gbps > 0.0, "bit rate must be positive");
        OperatingPoint::new(Gbps::from_gbps(gbps), Volts::from_v(1.8 * gbps / 10.0))
    }

    /// The bit rate.
    pub fn bit_rate(&self) -> Gbps {
        self.bit_rate
    }

    /// The supply voltage.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.bit_rate, self.vdd)
    }
}

/// One calibrated component: nominal power at the calibration point plus
/// its scaling trend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibratedComponent {
    id: ComponentId,
    nominal: MilliWatts,
    trend: ScalingTrend,
}

impl CalibratedComponent {
    /// Creates a calibrated component.
    ///
    /// # Panics
    ///
    /// Panics if the nominal power is negative.
    pub(crate) fn new(id: ComponentId, nominal: MilliWatts, trend: ScalingTrend) -> Self {
        assert!(nominal.as_mw() >= 0.0, "nominal power must be non-negative");
        CalibratedComponent { id, nominal, trend }
    }

    /// The component's identity.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Nominal power at the calibration point.
    pub fn nominal(&self) -> MilliWatts {
        self.nominal
    }

    /// The scaling trend.
    pub fn trend(&self) -> ScalingTrend {
        self.trend
    }

    /// Power at voltage/bit-rate ratios relative to the calibration point.
    pub(crate) fn power_at_ratio(&self, v: f64, b: f64) -> MilliWatts {
        self.nominal * self.trend.factor(v, b)
    }
}

/// A whole link's calibrated power model: transmitter + receiver component
/// stack, anchored at a calibration operating point.
///
/// # Example
///
/// Evaluate the paper's Table 2 VCSEL link at full rate and at a scaled
/// operating point, and split the total into per-component terms (the
/// breakdown the `lumen-core` telemetry trace exports every window):
///
/// ```
/// use lumen_opto::link::OperatingPoint;
/// use lumen_opto::presets::paper_vcsel_link;
///
/// let model = paper_vcsel_link();
/// let full = model.max_power();
/// let scaled = model.power(OperatingPoint::paper_at_gbps(2.5));
/// // Rate + voltage scaling shrinks link power super-linearly (V²B terms
/// // dominate at the top of the ladder), but never to zero: the
/// // receiver's bias-style terms scale weakly (paper §2.3).
/// assert!(scaled.as_mw() < 0.25 * full.as_mw());
/// assert!(scaled.as_mw() > 0.01 * full.as_mw());
///
/// // The component breakdown always sums back to the total.
/// let parts = model.breakdown(model.calibration());
/// let sum: f64 = parts.iter().map(|(_, p)| p.as_mw()).sum();
/// assert!((sum - full.as_mw()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkPowerModel {
    transmitter: TransmitterKind,
    calibration: OperatingPoint,
    components: Vec<CalibratedComponent>,
}

impl LinkPowerModel {
    /// Creates a link model from its component stack.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub(crate) fn new(
        transmitter: TransmitterKind,
        calibration: OperatingPoint,
        components: Vec<CalibratedComponent>,
    ) -> Self {
        assert!(
            !components.is_empty(),
            "a link needs at least one component"
        );
        LinkPowerModel {
            transmitter,
            calibration,
            components,
        }
    }

    /// The calibration operating point.
    pub fn calibration(&self) -> OperatingPoint {
        self.calibration
    }

    /// The component stack.
    pub fn components(&self) -> &[CalibratedComponent] {
        &self.components
    }

    /// Ratios (voltage, bit rate) of an operating point relative to the
    /// calibration point.
    fn ratios(&self, op: OperatingPoint) -> (f64, f64) {
        (
            op.vdd() / self.calibration.vdd(),
            op.bit_rate() / self.calibration.bit_rate(),
        )
    }

    /// Total link power at an operating point.
    pub fn power(&self, op: OperatingPoint) -> MilliWatts {
        let (v, b) = self.ratios(op);
        self.components.iter().map(|c| c.power_at_ratio(v, b)).sum()
    }

    /// Power at the calibration (maximum) point — the non-power-aware
    /// baseline per link.
    pub fn max_power(&self) -> MilliWatts {
        self.power(self.calibration)
    }

    /// Per-component power breakdown at an operating point.
    pub fn breakdown(&self, op: OperatingPoint) -> Vec<(ComponentId, MilliWatts)> {
        let (v, b) = self.ratios(op);
        self.components
            .iter()
            .map(|c| (c.id(), c.power_at_ratio(v, b)))
            .collect()
    }

    /// Power of a single component at an operating point, if present.
    /// Test-only: the reference for the paper's transmitter/receiver split
    /// (`presets::tests::tx_rx_split_matches_paper`).
    #[cfg(test)]
    pub(crate) fn component_power(
        &self,
        id: ComponentId,
        op: OperatingPoint,
    ) -> Option<MilliWatts> {
        let (v, b) = self.ratios(op);
        self.components
            .iter()
            .find(|c| c.id() == id)
            .map(|c| c.power_at_ratio(v, b))
    }

    /// Fraction of the maximum power consumed at `op` (the paper's
    /// normalized-power metric, per link).
    pub fn normalized_power(&self, op: OperatingPoint) -> f64 {
        self.power(op) / self.max_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn operating_point_paper_rule() {
        let op = OperatingPoint::paper_at_gbps(5.0);
        assert!((op.vdd().as_v() - 0.9).abs() < 1e-12);
        assert!((op.bit_rate().as_gbps() - 5.0).abs() < 1e-12);
        let max = OperatingPoint::paper_max();
        assert!((max.vdd().as_v() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn vcsel_link_table2_total() {
        let link = presets::paper_vcsel_link();
        assert!((link.max_power().as_mw() - 290.0).abs() < 1e-9);
    }

    #[test]
    fn modulator_link_table2_total() {
        let link = presets::paper_modulator_link();
        assert!((link.max_power().as_mw() - 290.0).abs() < 1e-9);
    }

    #[test]
    fn vcsel_link_half_rate_near_paper_value() {
        // Paper §4.1: ~61.25 mW at 5 Gb/s (our exact Table-2 arithmetic
        // gives 60.0; see DESIGN.md calibration note).
        let link = presets::paper_vcsel_link();
        let p = link.power(OperatingPoint::paper_at_gbps(5.0));
        assert!((p.as_mw() - 60.0).abs() < 1e-9, "{p}");
        // ≈80% savings as the paper states.
        let savings = 1.0 - link.normalized_power(OperatingPoint::paper_at_gbps(5.0));
        assert!(savings > 0.75 && savings < 0.85, "savings {savings}");
    }

    #[test]
    fn vcsel_link_at_3_3_gbps_over_90pct_savings() {
        // Paper §4.3.1: >90% savings achievable with a 3.3 Gb/s floor.
        let link = presets::paper_vcsel_link();
        let norm = link.normalized_power(OperatingPoint::paper_at_gbps(3.3));
        assert!(norm < 0.10, "normalized power {norm}");
    }

    #[test]
    fn modulator_link_scales_worse_than_vcsel() {
        // The fixed-supply modulator driver only scales with BR, so the
        // MQW link retains more power at low rates (paper Fig. 6(d)).
        let v = presets::paper_vcsel_link();
        let m = presets::paper_modulator_link();
        let op = OperatingPoint::paper_at_gbps(5.0);
        assert!(m.normalized_power(op) > v.normalized_power(op));
    }

    #[test]
    fn breakdown_sums_to_total() {
        let link = presets::paper_vcsel_link();
        let op = OperatingPoint::paper_at_gbps(7.0);
        let sum: MilliWatts = link.breakdown(op).into_iter().map(|(_, p)| p).sum();
        assert!((sum.as_mw() - link.power(op).as_mw()).abs() < 1e-9);
    }

    #[test]
    fn component_power_lookup() {
        let link = presets::paper_vcsel_link();
        let op = OperatingPoint::paper_max();
        let cdr = link.component_power(ComponentId::Cdr, op).unwrap();
        assert!((cdr.as_mw() - 150.0).abs() < 1e-9);
        assert!(link
            .component_power(ComponentId::ModulatorDriver, op)
            .is_none());
    }

    #[test]
    fn normalized_power_at_max_is_one() {
        let link = presets::paper_modulator_link();
        assert!((link.normalized_power(OperatingPoint::paper_max()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn property_power_monotone_in_rate_and_voltage() {
        // At the paper's linear voltage rule, link power must rise
        // strictly with bit rate for both technologies.
        for link in [presets::paper_vcsel_link(), presets::paper_modulator_link()] {
            let mut last = -1.0;
            let mut g = 3.3;
            while g <= 10.0 {
                let p = link.power(OperatingPoint::paper_at_gbps(g)).as_mw();
                assert!(p > last, "{} not monotone at {g} Gb/s", link.transmitter);
                last = p;
                g += 0.05;
            }
        }
    }

    #[test]
    fn property_component_sum_never_exceeds_max() {
        for link in [presets::paper_vcsel_link(), presets::paper_modulator_link()] {
            let max = link.max_power().as_mw();
            let mut g = 3.3;
            while g <= 10.0 {
                let p = link.power(OperatingPoint::paper_at_gbps(g)).as_mw();
                assert!(p <= max + 1e-9);
                assert!(p > 0.0);
                g += 0.1;
            }
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(TransmitterKind::Vcsel.to_string(), "VCSEL");
        assert_eq!(ComponentId::Tia.to_string(), "TIA");
        let op = OperatingPoint::paper_max();
        assert!(op.to_string().contains("Gb/s"));
    }
}

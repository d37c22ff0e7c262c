//! Whole-system configuration.

use crate::fault::FaultConfig;
use lumen_noc::NocConfig;
use lumen_opto::link::TransmitterKind;
use lumen_opto::presets;
use lumen_opto::LinkPowerModel;
use lumen_policy::PolicyConfig;
use serde::{Deserialize, Serialize};

/// Configuration of one complete power-aware opto-electronic networked
/// system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Network geometry and router microarchitecture.
    pub noc: NocConfig,
    /// Power-control policy (ladder, thresholds, timing, optical mode).
    pub policy: PolicyConfig,
    /// Link transmitter technology.
    pub transmitter: TransmitterKind,
    /// Whether the power-aware machinery runs at all. `false` models the
    /// non-power-aware baseline: every link pinned at the maximum rate.
    pub power_aware: bool,
    /// Master random seed; every run with the same config and seed is
    /// bit-identical.
    pub seed: u64,
    /// Link fault injection (outages, laser dropouts). Disabled by
    /// default; a disabled configuration is guaranteed bit-identical to a
    /// build without the fault machinery.
    pub faults: FaultConfig,
}

impl SystemConfig {
    /// The paper's evaluation system: 64 racks × 8 nodes, MQW-modulator
    /// links, 5–10 Gb/s ladder, Table 1 thresholds, Tw = 1000, power-aware.
    pub fn paper_default() -> Self {
        SystemConfig {
            noc: NocConfig::paper_default(),
            policy: PolicyConfig::paper_default(),
            transmitter: TransmitterKind::MqwModulator,
            power_aware: true,
            seed: 1,
            faults: FaultConfig::disabled(),
        }
    }

    /// The same system without power awareness (the normalization
    /// baseline).
    pub fn non_power_aware(mut self) -> Self {
        self.power_aware = false;
        self
    }

    /// Switches the transmitter technology.
    pub fn with_transmitter(mut self, t: TransmitterKind) -> Self {
        self.transmitter = t;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables link fault injection with the given schedule parameters.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The calibrated link power model for the chosen technology.
    pub fn link_model(&self) -> LinkPowerModel {
        presets::paper_link(self.transmitter)
    }

    /// Validates all parts.
    ///
    /// # Panics
    ///
    /// Panics on any inconsistency, including a ladder whose maximum rate
    /// differs from the network's link rate.
    pub fn validate(&self) {
        self.noc.validate();
        self.policy.validate();
        self.faults.validate();
        let ladder_max = self.policy.ladder.max_rate().as_gbps();
        let noc_max = self.noc.max_rate.as_gbps();
        assert!(
            (ladder_max - noc_max).abs() < 1e-9,
            "ladder max {ladder_max} Gb/s must equal network max {noc_max} Gb/s"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_opto::Gbps;
    use lumen_opto::Volts;
    use lumen_policy::BitRateLadder;

    #[test]
    fn paper_default_is_valid() {
        let c = SystemConfig::paper_default();
        c.validate();
        assert!(c.power_aware);
        assert_eq!(c.transmitter, TransmitterKind::MqwModulator);
        assert!((c.link_model().max_power().as_mw() - 290.0).abs() < 1e-9);
    }

    #[test]
    fn builders() {
        let c = SystemConfig::paper_default()
            .non_power_aware()
            .with_transmitter(TransmitterKind::Vcsel)
            .with_seed(9);
        assert!(!c.power_aware);
        assert_eq!(c.transmitter, TransmitterKind::Vcsel);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn config_with_faults_round_trips() {
        let c = SystemConfig::paper_default().with_faults(crate::fault::FaultConfig {
            outage_mtbf_cycles: 50_000,
            outage_mean_duration_cycles: 2_000,
            ..crate::fault::FaultConfig::disabled()
        });
        c.validate();
        assert!(c.faults.enabled());
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "must equal network max")]
    fn mismatched_ladder_rejected() {
        let mut c = SystemConfig::paper_default();
        c.policy.ladder = BitRateLadder::evenly_spaced(
            Gbps::from_gbps(2.0),
            Gbps::from_gbps(8.0),
            4,
            Volts::from_v(1.8),
        );
        c.validate();
    }
}

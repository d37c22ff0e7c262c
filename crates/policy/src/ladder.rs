//! Discrete bit-rate levels and the voltage rule.

use lumen_opto::link::OperatingPoint;
use lumen_opto::{Gbps, Volts};
use serde::{Deserialize, Serialize};

/// The ordered set of bit-rate levels a power-aware link can occupy,
/// together with the supply-voltage rule (paper §3.2.1: Vdd scales
/// linearly with bit rate, anchored at `vdd_max` for `max_rate`).
///
/// # Example
///
/// ```
/// use lumen_policy::BitRateLadder;
/// let ladder = BitRateLadder::paper_5_to_10();
/// assert_eq!(ladder.level_count(), 6);
/// assert_eq!(ladder.top_level(), 5);
/// assert!((ladder.rate_at(0).as_gbps() - 5.0).abs() < 1e-9);
/// assert!((ladder.vdd_at(5).as_v() - 1.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitRateLadder {
    rates: Vec<Gbps>,
    vdd_max: Volts,
}

impl BitRateLadder {
    /// Creates a ladder from strictly-increasing rates; `vdd_max` applies
    /// at the highest rate and scales linearly downwards.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 levels are given, rates are not strictly
    /// increasing/positive, or `vdd_max` is not positive.
    pub fn new(rates: Vec<Gbps>, vdd_max: Volts) -> Self {
        assert!(rates.len() >= 2, "a ladder needs at least two levels");
        assert!(rates[0].as_gbps() > 0.0, "rates must be positive");
        assert!(
            rates.windows(2).all(|w| w[0].as_gbps() < w[1].as_gbps()),
            "rates must be strictly increasing"
        );
        assert!(vdd_max.as_v() > 0.0, "vdd_max must be positive");
        BitRateLadder { rates, vdd_max }
    }

    /// `levels` evenly-spaced rates spanning `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `min >= max`.
    pub fn evenly_spaced(min: Gbps, max: Gbps, levels: usize, vdd_max: Volts) -> Self {
        assert!(levels >= 2, "a ladder needs at least two levels");
        assert!(min.as_gbps() < max.as_gbps(), "min must be below max");
        let step = (max.as_gbps() - min.as_gbps()) / (levels - 1) as f64;
        let rates = (0..levels)
            .map(|i| Gbps::from_gbps(min.as_gbps() + step * i as f64))
            .collect();
        BitRateLadder::new(rates, vdd_max)
    }

    /// The paper's primary configuration: 6 levels, 5–10 Gb/s, 1.8 V max
    /// (supply scales 1.8 V → 0.9 V).
    pub fn paper_5_to_10() -> Self {
        BitRateLadder::evenly_spaced(
            Gbps::from_gbps(5.0),
            Gbps::from_gbps(10.0),
            6,
            Volts::from_v(1.8),
        )
    }

    /// The paper's wider alternative: 6 levels, 3.3–10 Gb/s.
    pub fn paper_3_3_to_10() -> Self {
        BitRateLadder::evenly_spaced(
            Gbps::from_gbps(3.3),
            Gbps::from_gbps(10.0),
            6,
            Volts::from_v(1.8),
        )
    }

    /// A degenerate "ladder" pinning the link at a single static rate is
    /// not representable (two levels minimum); static configurations are
    /// modeled by never issuing transitions instead.
    ///
    /// Number of levels.
    pub fn level_count(&self) -> usize {
        self.rates.len()
    }

    /// The index of the highest level.
    pub fn top_level(&self) -> usize {
        self.rates.len() - 1
    }

    /// The bit rate at a level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn rate_at(&self, level: usize) -> Gbps {
        self.rates[level]
    }

    /// The supply voltage at a level: `vdd_max · rate / max_rate`.
    pub fn vdd_at(&self, level: usize) -> Volts {
        let ratio = self.rates[level] / self.rates[self.top_level()];
        self.vdd_max * ratio
    }

    /// The full operating point at a level.
    pub fn point_at(&self, level: usize) -> OperatingPoint {
        OperatingPoint::new(self.rate_at(level), self.vdd_at(level))
    }

    /// The maximum rate (the non-power-aware baseline rate).
    pub fn max_rate(&self) -> Gbps {
        self.rates[self.top_level()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_5_to_10_levels() {
        let l = BitRateLadder::paper_5_to_10();
        assert_eq!(l.level_count(), 6);
        for (i, expect) in [5.0, 6.0, 7.0, 8.0, 9.0, 10.0].iter().enumerate() {
            assert!((l.rate_at(i).as_gbps() - expect).abs() < 1e-9);
        }
        assert!((l.vdd_at(5).as_v() - 1.8).abs() < 1e-9);
        assert!((l.vdd_at(0).as_v() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn paper_3_3_ladder_spans_range() {
        let l = BitRateLadder::paper_3_3_to_10();
        assert!((l.rate_at(0).as_gbps() - 3.3).abs() < 1e-9);
        assert!((l.max_rate().as_gbps() - 10.0).abs() < 1e-9);
        assert_eq!(l.level_count(), 6);
    }

    #[test]
    fn operating_points_scale_linearly() {
        let l = BitRateLadder::paper_5_to_10();
        let p = l.point_at(0);
        assert!((p.bit_rate().as_gbps() - 5.0).abs() < 1e-9);
        assert!((p.vdd().as_v() - 0.9).abs() < 1e-9);
        // Voltage ratio equals rate ratio at every level.
        for level in 0..l.level_count() {
            let r_ratio = l.rate_at(level) / l.max_rate();
            let v_ratio = l.vdd_at(level) / l.vdd_at(l.top_level());
            assert!((r_ratio - v_ratio).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_rates_rejected() {
        let _ = BitRateLadder::new(
            vec![Gbps::from_gbps(10.0), Gbps::from_gbps(5.0)],
            Volts::from_v(1.8),
        );
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn single_level_rejected() {
        let _ = BitRateLadder::new(vec![Gbps::from_gbps(10.0)], Volts::from_v(1.8));
    }
}

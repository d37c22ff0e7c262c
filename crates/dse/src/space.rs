//! The searchable policy knobs and their encoding.
//!
//! The optimizer works in the unit hypercube `[0,1]^D`: every knob is one
//! dimension with a declared scale (linear, logarithmic, integer, or
//! categorical), and [`SearchSpace::decode`] maps a cube point to a
//! concrete [`PolicyDraw`] that is valid *by construction* — threshold
//! pairs are encoded as `TL` plus a positive gap (so `TL < TH` always
//! holds), the ladder's top rate is pinned to the network's 10 Gb/s link
//! rate (a `SystemConfig::validate` requirement), and integer knobs round
//! half-away from the boundaries so every cube point decodes without
//! panicking. Keeping validity in the encoding, rather than
//! rejection-sampling, is what keeps the sampler deterministic: every RNG
//! draw becomes exactly one trial.

use lumen_core::SystemConfig;
use lumen_desim::Picos;
use lumen_opto::{Gbps, Volts};
use lumen_policy::{BitRateLadder, OpticalMode, ThresholdTable};
use serde::{Deserialize, Serialize};

/// How a unit-cube coordinate maps to a knob value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// `lo + u · (hi − lo)`.
    Linear {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// `exp(ln lo + u · (ln hi − ln lo))` — for timescales spanning
    /// decades.
    Log {
        /// Lower bound (positive).
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Integers `lo..=hi`, uniformly binned over the coordinate.
    Integer {
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// `n` unordered choices, uniformly binned.
    Categorical {
        /// Number of choices.
        n: usize,
    },
}

impl Scale {
    /// Decodes a cube coordinate to the knob's numeric value (the choice
    /// index for categorical dimensions).
    pub fn decode(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match *self {
            Scale::Linear { lo, hi } => lo + u * (hi - lo),
            Scale::Log { lo, hi } => (lo.ln() + u * (hi.ln() - lo.ln())).exp(),
            Scale::Integer { lo, hi } => {
                let span = (hi - lo + 1) as f64;
                (lo + ((u * span) as i64).min(hi - lo)) as f64
            }
            Scale::Categorical { n } => ((u * n as f64) as usize).min(n - 1) as f64,
        }
    }

    /// Whether nearby cube coordinates mean nearby values (false for
    /// categorical dimensions, whose kernel must be a histogram).
    pub fn is_ordered(&self) -> bool {
        !matches!(self, Scale::Categorical { .. })
    }
}

/// One searchable dimension: a name for reports and a scale.
#[derive(Debug, Clone)]
pub struct Dim {
    /// Stable knob name (appears in the Pareto JSON).
    pub name: &'static str,
    /// Coordinate mapping.
    pub scale: Scale,
}

/// The fixed 10-knob search space of the `ext_dse` harness: the paper's
/// Table 1 thresholds (as `TL` + gap per congestion state), the §3.3
/// window timescales, the ladder shape, and the §3.2.2 laser-controller
/// knobs.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    dims: Vec<Dim>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace::paper_policy()
    }
}

impl SearchSpace {
    /// The policy-knob space searched by `ext_dse`.
    pub fn paper_policy() -> Self {
        SearchSpace {
            dims: vec![
                Dim { name: "tl_uncongested", scale: Scale::Linear { lo: 0.10, hi: 0.60 } },
                Dim { name: "th_gap_uncongested", scale: Scale::Linear { lo: 0.05, hi: 0.35 } },
                Dim { name: "tl_congested", scale: Scale::Linear { lo: 0.20, hi: 0.80 } },
                Dim { name: "th_gap_congested", scale: Scale::Linear { lo: 0.05, hi: 0.30 } },
                Dim { name: "tw_cycles", scale: Scale::Log { lo: 100.0, hi: 8000.0 } },
                Dim { name: "n_windows", scale: Scale::Integer { lo: 1, hi: 8 } },
                Dim { name: "ladder_levels", scale: Scale::Integer { lo: 2, hi: 8 } },
                Dim { name: "ladder_min_gbps", scale: Scale::Linear { lo: 3.0, hi: 8.0 } },
                Dim { name: "laser_decision_us", scale: Scale::Log { lo: 50.0, hi: 400.0 } },
                Dim { name: "optical_mode", scale: Scale::Categorical { n: 2 } },
            ],
        }
    }

    /// The dimensions, in cube-coordinate order.
    pub fn dims(&self) -> &[Dim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// Whether the space is empty (never, for the built-in space).
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Decodes a unit-cube point into a concrete policy draw.
    ///
    /// # Panics
    ///
    /// Panics if `u` has the wrong dimensionality.
    pub fn decode(&self, u: &[f64]) -> PolicyDraw {
        assert_eq!(u.len(), self.dims.len(), "cube point dimensionality");
        let v: Vec<f64> = u
            .iter()
            .zip(&self.dims)
            .map(|(&x, d)| d.scale.decode(x))
            .collect();
        // TH = TL + gap, clamped so the table always validates (TL < TH
        // ≤ 1); the gap floor of the scale keeps the pair non-degenerate.
        let tl_unc = v[0];
        let th_unc = (tl_unc + v[1]).min(0.99);
        let tl_con = v[2];
        let th_con = (tl_con + v[3]).min(0.995);
        PolicyDraw {
            tl_uncongested: tl_unc,
            th_uncongested: th_unc,
            tl_congested: tl_con,
            th_congested: th_con,
            tw_cycles: (v[4].round() as u64).max(1),
            n_windows: v[5] as usize,
            ladder_levels: v[6] as usize,
            ladder_min_gbps: v[7],
            laser_decision_us: v[8],
            three_level_optics: v[9] as usize == 1,
        }
    }
}

/// A concrete, always-valid assignment of the searched knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyDraw {
    /// `TL` when uncongested.
    pub tl_uncongested: f64,
    /// `TH` when uncongested (strictly above `TL`).
    pub th_uncongested: f64,
    /// `TL` when congested.
    pub tl_congested: f64,
    /// `TH` when congested.
    pub th_congested: f64,
    /// Sampling window `Tw`, core cycles.
    pub tw_cycles: u64,
    /// Sliding-average history length (Eq. 11's `N`).
    pub n_windows: usize,
    /// Number of bit-rate ladder levels.
    pub ladder_levels: usize,
    /// Lowest ladder rate, Gb/s (the top is pinned at the link rate).
    pub ladder_min_gbps: f64,
    /// External-laser-controller decision period, µs.
    pub laser_decision_us: f64,
    /// Whether the three-level optical mode (attenuator-stepped laser
    /// power) is enabled instead of a single fixed level.
    pub three_level_optics: bool,
}

impl PolicyDraw {
    /// The paper's Table 1 + §4.1 configuration, expressed as a draw (the
    /// reference row of every comparison table).
    pub fn paper_table1() -> Self {
        PolicyDraw {
            tl_uncongested: 0.4,
            th_uncongested: 0.6,
            tl_congested: 0.6,
            th_congested: 0.7,
            tw_cycles: 1000,
            n_windows: 4,
            ladder_levels: 6,
            ladder_min_gbps: 5.0,
            laser_decision_us: 200.0,
            three_level_optics: false,
        }
    }

    /// Applies the draw to a system configuration (policy knobs only; the
    /// geometry, traffic, and seed stay the caller's).
    pub fn apply(&self, config: &mut SystemConfig) {
        config.policy.thresholds = ThresholdTable {
            low_uncongested: self.tl_uncongested,
            high_uncongested: self.th_uncongested,
            low_congested: self.tl_congested,
            high_congested: self.th_congested,
            congestion_level: 0.5,
        };
        config.policy.timing.tw_cycles = self.tw_cycles;
        config.policy.timing.n_windows = self.n_windows;
        config.policy.timing.laser_decision_period = Picos::from_us(self.laser_decision_us as u64);
        // The top rung must equal the network link rate; only the floor
        // and the rung count are searched.
        let max = config.noc.max_rate;
        config.policy.ladder = BitRateLadder::evenly_spaced(
            Gbps::from_gbps(self.ladder_min_gbps.min(max.as_gbps() - 0.5)),
            max,
            self.ladder_levels.max(2),
            Volts::from_v(1.8),
        );
        config.policy.optical_mode = if self.three_level_optics {
            OpticalMode::ThreeLevel
        } else {
            OpticalMode::SingleLevel
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_decode_endpoints() {
        let lin = Scale::Linear { lo: 2.0, hi: 4.0 };
        assert_eq!(lin.decode(0.0), 2.0);
        assert_eq!(lin.decode(1.0), 4.0);
        let log = Scale::Log { lo: 100.0, hi: 8000.0 };
        assert!((log.decode(0.0) - 100.0).abs() < 1e-9);
        assert!((log.decode(1.0) - 8000.0).abs() < 1e-6);
        let int = Scale::Integer { lo: 1, hi: 8 };
        assert_eq!(int.decode(0.0), 1.0);
        assert_eq!(int.decode(0.999), 8.0);
        assert_eq!(int.decode(1.0), 8.0);
        let cat = Scale::Categorical { n: 2 };
        assert_eq!(cat.decode(0.49), 0.0);
        assert_eq!(cat.decode(0.51), 1.0);
        assert!(!cat.is_ordered());
        assert!(int.is_ordered());
    }

    #[test]
    fn every_cube_corner_decodes_to_a_valid_system() {
        // Exhaustive corners of the 10-cube (1024 points): every decode
        // must produce a configuration SystemConfig::validate accepts.
        let space = SearchSpace::paper_policy();
        for mask in 0u32..(1 << space.len()) {
            let u: Vec<f64> = (0..space.len())
                .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                .collect();
            let draw = space.decode(&u);
            let mut config = SystemConfig::paper_default();
            draw.apply(&mut config);
            config.validate();
            assert!(draw.th_uncongested > draw.tl_uncongested);
            assert!(draw.th_congested > draw.tl_congested);
        }
    }

    #[test]
    fn paper_table1_draw_matches_paper_default() {
        let mut config = SystemConfig::paper_default();
        let reference = config.clone();
        PolicyDraw::paper_table1().apply(&mut config);
        assert_eq!(config.policy.thresholds, reference.policy.thresholds);
        assert_eq!(config.policy.ladder, reference.policy.ladder);
        assert_eq!(config.policy.timing.tw_cycles, reference.policy.timing.tw_cycles);
        assert_eq!(config.policy.optical_mode, reference.policy.optical_mode);
    }

    #[test]
    fn mid_cube_decode_is_reasonable() {
        let space = SearchSpace::paper_policy();
        let draw = space.decode(&vec![0.5; space.len()]);
        assert!(draw.tw_cycles >= 100 && draw.tw_cycles <= 8000);
        assert!(draw.ladder_levels >= 2 && draw.ladder_levels <= 8);
        assert!(draw.laser_decision_us >= 50.0 && draw.laser_decision_us <= 400.0);
    }
}

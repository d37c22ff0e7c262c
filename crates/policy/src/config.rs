//! Policy configuration.

use crate::ladder::BitRateLadder;
use crate::onoff::OnOffConfig;
use crate::thresholds::ThresholdTable;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize};

/// Timing parameters of the power-control machinery, in router-core cycles
/// and absolute time (paper §3.2–3.3, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Sampling window `Tw`, in core cycles (paper default 1000).
    pub tw_cycles: u64,
    /// Number of windows in the sliding average (Eq. 11).
    pub n_windows: usize,
    /// Bit-rate transition delay `Tbr`, in core cycles: the link is
    /// disabled this long after every frequency hop (paper: 20).
    pub tbr_cycles: u64,
    /// Voltage transition time `Tv`, in core cycles: the supply ramp
    /// duration, during which the link keeps operating (paper: 100).
    pub tv_cycles: u64,
    /// External-laser-controller decision period (paper: 200 µs).
    pub laser_decision_period: Picos,
    /// Attenuator transition/response time (paper: ~100 µs).
    pub attenuator_transition: Picos,
}

impl TimingConfig {
    /// The paper's evaluation timing.
    pub fn paper_default() -> Self {
        TimingConfig {
            tw_cycles: 1000,
            n_windows: 4,
            tbr_cycles: 20,
            tv_cycles: 100,
            laser_decision_period: Picos::from_us(200),
            attenuator_transition: Picos::from_us(100),
        }
    }

    /// The first tick index `k >= from` at which a §3.3 policy window
    /// closes, i.e. the smallest `k >= from` with `(k + 1) % tw_cycles ==
    /// 0`. Window `w` spans ticks `[w·Tw, (w+1)·Tw)` and its controller
    /// decision fires on the window's *last* tick, which is why the
    /// closing condition is on `k + 1`. The sharded backend uses this to
    /// clamp stretched barrier windows so a DVS boundary can never fall
    /// mid-window: `Tw` need not divide (or even share a factor with) the
    /// barrier window length — the barrier schedule bends to `Tw`, not
    /// the other way around.
    ///
    /// ```
    /// use lumen_policy::TimingConfig;
    /// let mut t = TimingConfig::paper_default();
    /// t.tw_cycles = 7;
    /// assert_eq!(t.next_window_close(0), 6);
    /// assert_eq!(t.next_window_close(6), 6); // a close is its own next
    /// assert_eq!(t.next_window_close(7), 13);
    /// ```
    pub fn next_window_close(&self, from: u64) -> u64 {
        (from + 1).div_ceil(self.tw_cycles) * self.tw_cycles - 1
    }

    /// The transition-delay ablation of Fig. 6(b): zero `Tv` and/or `Tbr`.
    pub fn with_zeroed_delays(mut self, zero_tv: bool, zero_tbr: bool) -> Self {
        if zero_tv {
            self.tv_cycles = 0;
        }
        if zero_tbr {
            self.tbr_cycles = 0;
        }
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero window or zero sliding-window length.
    pub(crate) fn validate(&self) {
        assert!(self.tw_cycles > 0, "Tw must be positive");
        assert!(
            self.n_windows > 0,
            "sliding window needs at least one entry"
        );
    }
}

/// How optical power is managed on MQW-modulator links (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpticalMode {
    /// A fixed optical power level: no external laser controller needed
    /// (and the configuration VCSEL links always use — their light scales
    /// with the driver supply automatically).
    SingleLevel,
    /// Three coarse levels (`Plow/Pmid/Phigh`), stepped by attenuators.
    ThreeLevel,
}

/// How the controller aggregates per-window utilization history into the
/// value compared against the thresholds (paper Eq. 11 uses the sliding
/// mean; EWMA is a natural alternative that weights recent windows more).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Predictor {
    /// Arithmetic mean of the last `n_windows` windows (the paper's Eq. 11).
    SlidingMean,
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha ∈ (0, 1]` (1 = react to the latest window only).
    Ewma(f64),
}

impl Predictor {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if an EWMA factor is outside `(0, 1]`.
    pub(crate) fn validate(&self) {
        if let Predictor::Ewma(a) = self {
            assert!(
                *a > 0.0 && *a <= 1.0,
                "EWMA alpha must be in (0,1], got {a}"
            );
        }
    }
}

/// Which power-management discipline the links run (paper §3.3 vs the
/// on/off alternative of its ref. \[26\]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyMode {
    /// The paper's DVS bit-rate ladder with Table-1 thresholds.
    DvsLadder,
    /// Full-rate links gated completely off when idle.
    OnOff(OnOffConfig),
}

/// Everything the power-aware layer needs to control one system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Bit-rate levels and voltage rule.
    pub ladder: BitRateLadder,
    /// Link-utilization thresholds.
    pub thresholds: ThresholdTable,
    /// Timing parameters.
    pub timing: TimingConfig,
    /// Optical power management mode.
    pub optical_mode: OpticalMode,
    /// Power-management discipline.
    pub mode: PolicyMode,
    /// Utilization history aggregation.
    pub predictor: Predictor,
}

impl PolicyConfig {
    /// The paper's default: 5–10 Gb/s ladder, Table 1 thresholds, Tw=1000,
    /// single optical level.
    pub fn paper_default() -> Self {
        PolicyConfig {
            ladder: BitRateLadder::paper_5_to_10(),
            thresholds: ThresholdTable::paper_default(),
            timing: TimingConfig::paper_default(),
            optical_mode: OpticalMode::SingleLevel,
            mode: PolicyMode::DvsLadder,
            predictor: Predictor::SlidingMean,
        }
    }

    /// Switches to the on/off gating discipline of the paper's ref. \[26\].
    pub fn with_onoff(mut self, onoff: OnOffConfig) -> Self {
        self.mode = PolicyMode::OnOff(onoff);
        self
    }

    /// Validates all parts.
    ///
    /// # Panics
    ///
    /// Panics on any invalid sub-configuration.
    pub fn validate(&self) {
        self.thresholds.validate();
        self.timing.validate();
        if let PolicyMode::OnOff(c) = self.mode {
            c.validate();
        }
        self.predictor.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = PolicyConfig::paper_default();
        c.validate();
        assert_eq!(c.timing.tw_cycles, 1000);
        assert_eq!(c.timing.tbr_cycles, 20);
        assert_eq!(c.timing.tv_cycles, 100);
        assert_eq!(c.timing.n_windows, 4);
        assert_eq!(c.timing.laser_decision_period, Picos::from_us(200));
        assert_eq!(c.optical_mode, OpticalMode::SingleLevel);
    }

    #[test]
    fn zeroed_delays() {
        let t = TimingConfig::paper_default().with_zeroed_delays(true, false);
        assert_eq!(t.tv_cycles, 0);
        assert_eq!(t.tbr_cycles, 20);
        let t2 = TimingConfig::paper_default().with_zeroed_delays(true, true);
        assert_eq!(t2.tbr_cycles, 0);
    }

    #[test]
    fn next_window_close_lands_on_every_boundary() {
        // Exhaustive cross-check against the closing condition itself,
        // including Tw values coprime to typical barrier-window lengths.
        for tw in [1u64, 2, 3, 7, 100, 1000] {
            let mut t = TimingConfig::paper_default();
            t.tw_cycles = tw;
            for from in 0..3 * tw + 5 {
                let k = t.next_window_close(from);
                assert!(k >= from);
                assert_eq!((k + 1) % tw, 0, "tw {tw} from {from} gave {k}");
                // Minimality: no close in [from, k).
                assert!((from..k).all(|j| (j + 1) % tw != 0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "Tw must be positive")]
    fn zero_window_rejected() {
        let mut t = TimingConfig::paper_default();
        t.tw_cycles = 0;
        t.validate();
    }
}

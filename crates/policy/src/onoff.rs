//! On/off link power gating — the alternative power-aware discipline the
//! paper positions itself against (its ref. \[26\], Soteriou & Peh,
//! "Design-space exploration of power-aware on/off interconnection
//! networks").
//!
//! Instead of descending a bit-rate ladder, an on/off network runs every
//! link at full rate but *turns links completely off* when their measured
//! utilization stays below a threshold, and wakes them — after a
//! re-acquisition penalty covering laser bias settling and CDR lock —
//! when demand reappears. Compared with DVS links this saves more power
//! on a truly idle link (off ≈ 0 rather than the ladder floor ≈ 21%) but
//! pays a much larger latency penalty on the first packet after an idle
//! period, and loses the ability to match intermediate load levels.
//!
//! [`OnOffController`] mirrors the window interface of
//! [`crate::LinkPolicyController`] so the simulation layer can drive
//! either discipline; `lumen-bench`'s `ablation_onoff` binary compares
//! them head-to-head.

use lumen_desim::Picos;
use lumen_stats::SlidingWindow;
use serde::{Deserialize, Serialize};

/// Configuration of the on/off discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnOffConfig {
    /// Utilization below which an On link turns off (after the sliding
    /// window fills).
    pub off_threshold: f64,
    /// Core cycles needed to wake a sleeping link (laser bias + CDR lock).
    pub wake_penalty_cycles: u64,
    /// Fraction of full link power still drawn while off (receiver
    /// keep-alive); 0 models ideal gating.
    pub off_power_fraction: f64,
    /// Sliding-window length for the utilization average.
    pub n_windows: usize,
}

impl OnOffConfig {
    /// Parameters in the spirit of the paper's ref. \[26\]: links wake in
    /// ~1000 cycles and draw nothing while off.
    pub fn reference_default() -> Self {
        OnOffConfig {
            off_threshold: 0.05,
            wake_penalty_cycles: 1_000,
            off_power_fraction: 0.0,
            n_windows: 4,
        }
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range thresholds or fractions.
    pub(crate) fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.off_threshold),
            "off threshold must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.off_power_fraction),
            "off power fraction must be in [0,1]"
        );
        assert!(
            self.n_windows > 0,
            "sliding window needs at least one entry"
        );
    }
}

/// The link's gating state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum GateState {
    /// Link running at full rate.
    On,
    /// Link powered down.
    Off,
    /// Link re-acquiring after a wake order; usable at `until`.
    Waking {
        /// When the link becomes usable again.
        until: Picos,
    },
}

/// An order the simulation layer must apply to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateAction {
    /// Disable the link indefinitely and drop its power draw.
    SleepNow,
    /// Re-enable the link at the contained time and restore full power
    /// from now (the wake circuitry burns power while locking).
    WakeAt(Picos),
}

/// Per-link on/off policy controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnOffController {
    config: OnOffConfig,
    wake_penalty: Picos,
    state: GateState,
    window: SlidingWindow,
    /// Sleeps ordered.
    pub sleeps: u64,
    /// Wakes ordered.
    pub wakes: u64,
}

impl OnOffController {
    /// Creates a controller for a link that starts on.
    ///
    /// `cycle` is the core-clock period used to convert the wake penalty.
    pub fn new(config: OnOffConfig, cycle: Picos) -> Self {
        config.validate();
        OnOffController {
            config,
            wake_penalty: cycle * config.wake_penalty_cycles,
            state: GateState::On,
            window: SlidingWindow::new(config.n_windows),
            sleeps: 0,
            wakes: 0,
        }
    }

    /// Feeds one window's utilization; may order a sleep.
    pub fn on_window(&mut self, _now: Picos, lu: f64) -> Option<GateAction> {
        self.window.push(lu.clamp(0.0, 1.0));
        if let GateState::Waking { until } = self.state {
            if _now >= until {
                self.state = GateState::On;
            }
        }
        if self.state == GateState::On
            && self.window.is_full()
            && self.window.mean() < self.config.off_threshold
        {
            self.state = GateState::Off;
            self.sleeps += 1;
            self.window.clear();
            return Some(GateAction::SleepNow);
        }
        None
    }

    /// Notifies the controller that a sleeping link has pending demand;
    /// orders the wake sequence.
    ///
    /// Returns `None` if the link is not off (spurious call).
    pub fn on_demand(&mut self, now: Picos) -> Option<GateAction> {
        if self.state != GateState::Off {
            return None;
        }
        let until = now + self.wake_penalty;
        self.state = GateState::Waking { until };
        self.wakes += 1;
        Some(GateAction::WakeAt(until))
    }

    /// The fraction of full power drawn while off.
    pub fn off_power_fraction(&self) -> f64 {
        self.config.off_power_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> OnOffController {
        OnOffController::new(
            OnOffConfig {
                off_threshold: 0.1,
                wake_penalty_cycles: 100,
                off_power_fraction: 0.0,
                n_windows: 2,
            },
            Picos::from_ps(1600),
        )
    }

    #[test]
    fn sleeps_after_sustained_idle() {
        let mut c = ctl();
        assert_eq!(c.on_window(Picos::ZERO, 0.0), None); // window not full
        assert_eq!(
            c.on_window(Picos::from_us(1), 0.05),
            Some(GateAction::SleepNow)
        );
        assert_eq!(c.state, GateState::Off);
        assert_eq!(c.sleeps, 1);
    }

    #[test]
    fn busy_link_stays_on() {
        let mut c = ctl();
        for i in 0..10 {
            assert_eq!(c.on_window(Picos::from_us(i), 0.5), None);
        }
        assert_eq!(c.state, GateState::On);
        assert_eq!(c.sleeps, 0);
    }

    #[test]
    fn demand_wakes_with_penalty() {
        let mut c = ctl();
        c.on_window(Picos::ZERO, 0.0);
        c.on_window(Picos::ZERO, 0.0);
        assert_eq!(c.state, GateState::Off);
        let action = c.on_demand(Picos::from_us(10)).expect("wake");
        let expect = Picos::from_us(10) + Picos::from_ps(1600) * 100;
        assert_eq!(action, GateAction::WakeAt(expect));
        assert_eq!(c.state, GateState::Waking { until: expect });
        assert_eq!(c.wakes, 1);
        // Further demand while waking is ignored.
        assert_eq!(c.on_demand(Picos::from_us(11)), None);
    }

    #[test]
    fn waking_returns_to_on_at_window() {
        let mut c = ctl();
        c.on_window(Picos::ZERO, 0.0);
        c.on_window(Picos::ZERO, 0.0);
        c.on_demand(Picos::from_us(1));
        // A window boundary after the wake time flips the state to On.
        assert_eq!(c.on_window(Picos::from_us(5), 0.8), None);
        assert_eq!(c.state, GateState::On);
    }

    #[test]
    fn sleep_clears_history() {
        // After waking, the link must observe a full window of idleness
        // again before re-sleeping (no instant flap).
        let mut c = ctl();
        c.on_window(Picos::ZERO, 0.0);
        c.on_window(Picos::ZERO, 0.0);
        c.on_demand(Picos::from_us(1));
        assert_eq!(c.on_window(Picos::from_us(5), 0.0), None); // window refilling
        assert!(matches!(
            c.on_window(Picos::from_us(7), 0.0),
            Some(GateAction::SleepNow)
        ));
        assert_eq!(c.sleeps, 2);
    }

    #[test]
    fn demand_on_running_link_is_noop() {
        let mut c = ctl();
        assert_eq!(c.on_demand(Picos::from_us(1)), None);
        assert_eq!(c.wakes, 0);
    }

    #[test]
    #[should_panic(expected = "off threshold")]
    fn bad_threshold_rejected() {
        let _ = OnOffController::new(
            OnOffConfig {
                off_threshold: 1.5,
                wake_penalty_cycles: 10,
                off_power_fraction: 0.0,
                n_windows: 1,
            },
            Picos::from_ps(1600),
        );
    }
}

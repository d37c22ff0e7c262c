//! The external laser source controller (paper §3.3).
//!
//! For MQW-modulator systems with multiple optical power levels, a
//! controller per link tracks long-timescale traffic trends and steps the
//! link's attenuator between the coarse levels of §3.2.2. Attenuators are
//! slow (~100 µs), so:
//!
//! - **`Pinc` is expedited**: the moment the link policy wants a bit rate
//!   the current light level cannot support, the optical power is ordered
//!   up and the electrical transition *waits* for it (the latency spike of
//!   Fig. 6(c)).
//! - **`Pdec` is lazy**: only if the bit rate stayed within a lower band
//!   for an entire 200 µs decision period does the light step down (no
//!   link interruption — the remaining light still supports the current
//!   rate).

use crate::config::{OpticalMode, TimingConfig};
use lumen_desim::Picos;
use lumen_opto::optics::OpticalLevel;
use lumen_opto::Gbps;
use serde::{Deserialize, Serialize};

/// Whether an electrical rate increase may proceed immediately or must
/// wait for light.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpticalGate {
    /// The current optical level supports the requested rate.
    Ready,
    /// The optical level is being raised; the rate change may start at the
    /// contained time.
    WaitUntil(Picos),
}

/// A completed optical level change (for logging/energy bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaserUpdate {
    /// The new optical level.
    pub new_level: OpticalLevel,
    /// When the attenuator finishes moving.
    pub effective_at: Picos,
}

/// Per-link external-laser-source policy controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LaserSourceController {
    mode: OpticalMode,
    level: OpticalLevel,
    transition_until: Picos,
    max_required_in_period: OpticalLevel,
    /// Expedited power increases issued.
    pub pincs: u64,
    /// Lazy power decreases issued.
    pub pdecs: u64,
    attenuator_transition: Picos,
    /// The decision period (200 µs in the paper).
    decision_period: Picos,
}

impl LaserSourceController {
    /// Creates a controller. In [`OpticalMode::SingleLevel`] it pins the
    /// light at `High` and never gates anything.
    pub fn new(mode: OpticalMode, timing: &TimingConfig) -> Self {
        LaserSourceController {
            mode,
            level: OpticalLevel::High,
            transition_until: Picos::ZERO,
            max_required_in_period: OpticalLevel::Low,
            pincs: 0,
            pdecs: 0,
            attenuator_transition: timing.attenuator_transition,
            decision_period: timing.laser_decision_period,
        }
    }

    /// Observes the link running at `rate` (called at least once per
    /// policy window so the period tracker sees the full history).
    pub fn note_rate(&mut self, rate: Gbps) {
        let need = OpticalLevel::required_for_gbps(rate.as_gbps());
        self.max_required_in_period = self.max_required_in_period.max(need);
    }

    /// Gates an electrical rate increase to `desired_rate`: if more light
    /// is needed, orders the increase and returns when it completes.
    pub fn request_increase(&mut self, now: Picos, desired_rate: Gbps) -> OpticalGate {
        if self.mode == OpticalMode::SingleLevel {
            return OpticalGate::Ready;
        }
        self.note_rate(desired_rate);
        let need = OpticalLevel::required_for_gbps(desired_rate.as_gbps());
        if need <= self.level {
            return OpticalGate::Ready;
        }
        // Expedited Pinc: possibly several doubling steps, each one
        // attenuator transition long, serialized after any in-flight move.
        let mut steps = 0u64;
        let mut level = self.level;
        while level < need {
            level = level.step_up();
            steps += 1;
        }
        let start = now.max(self.transition_until);
        let done = start + self.attenuator_transition * steps;
        self.level = need;
        self.transition_until = done;
        self.pincs += steps;
        OpticalGate::WaitUntil(done)
    }

    /// Evaluates the lazy `Pdec` rule at a 200 µs decision boundary.
    /// Returns the level change, if one is ordered.
    pub fn on_decision_period(&mut self, now: Picos) -> Option<LaserUpdate> {
        let observed = std::mem::replace(&mut self.max_required_in_period, OpticalLevel::Low);
        if self.mode == OpticalMode::SingleLevel {
            return None;
        }
        if now < self.transition_until {
            return None; // attenuator still moving; skip this period
        }
        if observed < self.level {
            self.level = self.level.step_down();
            self.transition_until = now + self.attenuator_transition;
            self.pdecs += 1;
            Some(LaserUpdate {
                new_level: self.level,
                effective_at: self.transition_until,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_level() -> LaserSourceController {
        LaserSourceController::new(OpticalMode::ThreeLevel, &TimingConfig::paper_default())
    }

    #[test]
    fn single_level_never_gates() {
        let mut c =
            LaserSourceController::new(OpticalMode::SingleLevel, &TimingConfig::paper_default());
        assert_eq!(
            c.request_increase(Picos::ZERO, Gbps::from_gbps(10.0)),
            OpticalGate::Ready
        );
        c.note_rate(Gbps::from_gbps(3.0));
        assert_eq!(c.on_decision_period(Picos::from_us(200)), None);
        assert_eq!(c.level, OpticalLevel::High);
    }

    #[test]
    fn supported_rate_is_ready() {
        let mut c = three_level();
        assert_eq!(
            c.request_increase(Picos::ZERO, Gbps::from_gbps(8.0)),
            OpticalGate::Ready
        );
        assert_eq!(c.pincs, 0);
    }

    #[test]
    fn pdec_after_quiet_period_then_pinc_gates() {
        let mut c = three_level();
        // A full period at 5 Gb/s (Mid band) while at High → step down.
        c.note_rate(Gbps::from_gbps(5.0));
        let upd = c.on_decision_period(Picos::from_us(200)).expect("Pdec");
        assert_eq!(upd.new_level, OpticalLevel::Mid);
        assert_eq!(upd.effective_at, Picos::from_us(300));
        assert_eq!(c.pdecs, 1);
        // Now a rate in the High band must wait for light.
        let gate = c.request_increase(Picos::from_us(400), Gbps::from_gbps(7.0));
        assert_eq!(gate, OpticalGate::WaitUntil(Picos::from_us(500)));
        assert_eq!(c.level, OpticalLevel::High);
        assert_eq!(c.pincs, 1);
    }

    #[test]
    fn pinc_across_two_bands_takes_two_steps() {
        let mut c = three_level();
        c.note_rate(Gbps::from_gbps(3.0));
        assert!(c.on_decision_period(Picos::from_us(200)).is_some()); // High→Mid
        c.note_rate(Gbps::from_gbps(3.0));
        assert!(c.on_decision_period(Picos::from_us(400)).is_some()); // Mid→Low
        assert_eq!(c.level, OpticalLevel::Low);
        // Jumping straight to the High band needs two attenuator moves.
        let gate = c.request_increase(Picos::from_us(600), Gbps::from_gbps(9.0));
        assert_eq!(gate, OpticalGate::WaitUntil(Picos::from_us(800)));
        assert_eq!(c.pincs, 2);
    }

    #[test]
    fn pdec_blocked_during_transition() {
        let mut c = three_level();
        c.note_rate(Gbps::from_gbps(5.0));
        assert!(c.on_decision_period(Picos::from_us(200)).is_some()); // Mid at 300µs
                                                                      // The next boundary lands mid-transition if < 300 µs: skipped.
        c.note_rate(Gbps::from_gbps(3.0));
        assert_eq!(c.on_decision_period(Picos::from_us(250)), None);
        // A boundary after the move completes may decrement again.
        c.note_rate(Gbps::from_gbps(3.0));
        assert!(c.on_decision_period(Picos::from_us(600)).is_some());
        assert_eq!(c.level, OpticalLevel::Low);
    }

    #[test]
    fn busy_period_prevents_pdec() {
        let mut c = three_level();
        c.note_rate(Gbps::from_gbps(5.0));
        c.note_rate(Gbps::from_gbps(9.5)); // one spike into the High band
        assert_eq!(c.on_decision_period(Picos::from_us(200)), None);
        assert_eq!(c.level, OpticalLevel::High);
    }
}

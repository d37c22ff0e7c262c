//! Self-similar (long-range-dependent) traffic generation.
//!
//! The paper's motivation leans on the observation that "real-life network
//! traffic exhibits substantial temporal and spatial variance", citing
//! Leland et al.'s classic self-similar Ethernet study (its ref. \[14\]).
//! This module provides a generator in that spirit: each node is an
//! independent ON/OFF source whose sojourn times are Pareto-distributed
//! with infinite variance (`1 < α < 2`). The superposition of many such
//! sources is asymptotically self-similar with Hurst parameter
//! `H = (3 − α) / 2` (Taqqu's theorem) — burstiness persists across
//! timescales, unlike Poisson traffic which smooths out.
//!
//! Use [`SelfSimilarSource`] anywhere a
//! [`crate::source::TrafficSource`] is accepted to stress power-aware
//! policies with realistic long-memory load swings.

use crate::pattern::Pattern;
use crate::source::{PacketSize, TrafficSource};
use lumen_desim::{Picos, Rng};
use lumen_noc::config::NocConfig;
use lumen_noc::flit::Packet;
use lumen_noc::ids::{NodeId, PacketId};
use serde::{Deserialize, Serialize};

/// Parameters of the Pareto ON/OFF model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelfSimilarConfig {
    /// Pareto shape `α` for both sojourn distributions; `1 < α < 2` gives
    /// infinite variance and long-range dependence (1.5 ⇒ H = 0.75, close
    /// to measured Ethernet traffic).
    pub alpha: f64,
    /// Mean ON period, in cycles.
    pub mean_on_cycles: f64,
    /// Mean OFF period, in cycles.
    pub mean_off_cycles: f64,
    /// Per-node packet injection probability per cycle *while ON*.
    pub on_rate: f64,
}

impl SelfSimilarConfig {
    /// An Ethernet-flavoured default: `α = 1.5` (H ≈ 0.75), 400-cycle mean
    /// bursts, 3600-cycle mean gaps (10% duty), moderate in-burst rate.
    pub fn ethernet_like() -> Self {
        SelfSimilarConfig {
            alpha: 1.5,
            mean_on_cycles: 400.0,
            mean_off_cycles: 3_600.0,
            on_rate: 0.05,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if `α ∉ (1, 2]`, a mean is non-positive, or the rate is
    /// outside `(0, 1]`.
    pub(crate) fn validate(&self) {
        assert!(
            self.alpha > 1.0 && self.alpha <= 2.0,
            "alpha must be in (1,2], got {}",
            self.alpha
        );
        assert!(self.mean_on_cycles > 0.0, "mean ON must be positive");
        assert!(self.mean_off_cycles > 0.0, "mean OFF must be positive");
        assert!(
            self.on_rate > 0.0 && self.on_rate <= 1.0,
            "on_rate must be in (0,1]"
        );
    }

    /// The long-run fraction of time a source is ON.
    pub fn duty_cycle(&self) -> f64 {
        self.mean_on_cycles / (self.mean_on_cycles + self.mean_off_cycles)
    }

    /// The asymptotic Hurst parameter `H = (3 − α) / 2`.
    pub fn hurst(&self) -> f64 {
        (3.0 - self.alpha) / 2.0
    }
}

/// Draws a Pareto-distributed sojourn with shape `alpha` and the given
/// mean: scale `xm = mean · (α − 1) / α`.
fn pareto(rng: &mut Rng, alpha: f64, mean: f64) -> f64 {
    let xm = mean * (alpha - 1.0) / alpha;
    let u = 1.0 - rng.next_f64(); // (0, 1]
    xm / u.powf(1.0 / alpha)
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct NodeState {
    on: bool,
    /// Cycle at which the current sojourn ends.
    until: u64,
}

/// A superposition of per-node Pareto ON/OFF sources.
#[derive(Debug, Clone)]
pub struct SelfSimilarSource {
    noc: NocConfig,
    config: SelfSimilarConfig,
    pattern: Pattern,
    size: PacketSize,
    rng: Rng,
    states: Vec<NodeState>,
    next_id: u64,
    generated: u64,
}

impl SelfSimilarSource {
    /// Creates the source; node phases are randomized so the aggregate
    /// starts in steady state rather than synchronized.
    pub fn new(
        noc: &NocConfig,
        config: SelfSimilarConfig,
        pattern: Pattern,
        size: PacketSize,
        mut rng: Rng,
    ) -> Self {
        config.validate();
        let states = (0..noc.node_count())
            .map(|_| {
                let on = rng.chance(config.duty_cycle());
                let mean = if on {
                    config.mean_on_cycles
                } else {
                    config.mean_off_cycles
                };
                // Residual sojourn: uniform fraction of a fresh draw.
                let len = pareto(&mut rng, config.alpha, mean) * rng.next_f64();
                NodeState {
                    on,
                    until: len as u64,
                }
            })
            .collect();
        SelfSimilarSource {
            noc: noc.clone(),
            config,
            pattern,
            size,
            rng,
            states,
            next_id: 0,
            generated: 0,
        }
    }

    /// The model parameters.
    pub fn config(&self) -> &SelfSimilarConfig {
        &self.config
    }
}

impl TrafficSource for SelfSimilarSource {
    fn packets_for_cycle(&mut self, cycle: u64, now: Picos, out: &mut Vec<Packet>) {
        for src in 0..self.states.len() {
            let state = &mut self.states[src];
            if cycle >= state.until {
                state.on = !state.on;
                let mean = if state.on {
                    self.config.mean_on_cycles
                } else {
                    self.config.mean_off_cycles
                };
                let len = pareto(&mut self.rng, self.config.alpha, mean).max(1.0);
                state.until = cycle + len as u64;
            }
            if !self.states[src].on || !self.rng.chance(self.config.on_rate) {
                continue;
            }
            let Some(dst) = self
                .pattern
                .pick(&self.noc, NodeId(src as u32), &mut self.rng)
            else {
                continue;
            };
            let size = self.size.draw(&mut self.rng);
            let id = PacketId(self.next_id);
            self.next_id += 1;
            self.generated += 1;
            out.push(Packet::new(id, NodeId(src as u32), dst, size, now));
        }
    }

    fn generated(&self) -> u64 {
        self.generated
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        let state = SelfSimilarState {
            rng: self.rng.clone(),
            states: self.states.clone(),
            next_id: self.next_id,
            generated: self.generated,
        };
        Some(state.serialize_value())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let state: SelfSimilarState = serde::from_value(state)?;
        if state.states.len() != self.states.len() {
            return Err(serde::Error::custom(format!(
                "checkpoint has {} node states, this network has {}",
                state.states.len(),
                self.states.len()
            )));
        }
        self.rng = state.rng;
        self.states = state.states;
        self.next_id = state.next_id;
        self.generated = state.generated;
        Ok(())
    }
}

/// The checkpointed state of a [`SelfSimilarSource`].
#[derive(Serialize, Deserialize)]
struct SelfSimilarState {
    rng: Rng,
    states: Vec<NodeState>,
    next_id: u64,
    generated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(seed: u64) -> SelfSimilarSource {
        SelfSimilarSource::new(
            &NocConfig::paper_default(),
            SelfSimilarConfig::ethernet_like(),
            Pattern::Uniform,
            PacketSize::Fixed(5),
            Rng::seed_from(seed),
        )
    }

    #[test]
    fn config_derived_quantities() {
        let c = SelfSimilarConfig::ethernet_like();
        c.validate();
        assert!((c.duty_cycle() - 0.1).abs() < 1e-12);
        assert!((c.hurst() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pareto_mean_approximately_correct() {
        let mut rng = Rng::seed_from(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| pareto(&mut rng, 1.9, 100.0)).sum::<f64>() / n as f64;
        // Heavy tail: generous tolerance, but the location must be right.
        assert!((mean - 100.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn long_run_rate_near_prediction() {
        let mut src = source(7);
        // The long-run mean: nodes × ON duty cycle × ON-state rate.
        let predicted = src.noc.node_count() as f64 * src.config.duty_cycle() * src.config.on_rate;
        let mut out = Vec::new();
        let cycles = 300_000u64;
        for c in 0..cycles {
            src.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
        }
        let measured = out.len() as f64 / cycles as f64;
        // Long-range dependence makes convergence slow; accept ±40%.
        assert!(
            (measured / predicted - 1.0).abs() < 0.4,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn burstier_than_poisson_across_timescales() {
        // Index of dispersion (var/mean of per-window counts) for Poisson
        // is ~1 at every timescale; self-similar traffic's grows with the
        // window size.
        let mut src = source(11);
        let mut out = Vec::new();
        let window = 2_000u64;
        let windows = 150u64;
        let mut counts = vec![0f64; windows as usize];
        for c in 0..window * windows {
            out.clear();
            src.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
            counts[(c / window) as usize] += out.len() as f64;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / counts.len() as f64;
        let idi = var / mean;
        assert!(idi > 3.0, "index of dispersion {idi} too Poisson-like");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let run = |seed| {
            let mut s = source(seed);
            let mut out = Vec::new();
            for c in 0..5_000 {
                s.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
            }
            out.len()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn active_sources_near_duty_cycle() {
        let src = source(13);
        let active = src.states.iter().filter(|s| s.on).count();
        let frac = active as f64 / 512.0;
        assert!(frac > 0.02 && frac < 0.35, "active fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_out_of_range_rejected() {
        let mut c = SelfSimilarConfig::ethernet_like();
        c.alpha = 2.5;
        c.validate();
    }
}

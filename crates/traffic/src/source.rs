//! Packet sources: synthetic generation and trace replay.

use crate::pattern::Pattern;
use crate::profile::RateProfile;
use crate::trace::{Trace, TraceRecord};
use lumen_desim::{Picos, Rng};
use lumen_noc::config::NocConfig;
use lumen_noc::flit::Packet;
use lumen_noc::ids::{NodeId, PacketId};
use serde::{Deserialize, Serialize};

/// Packet length distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketSize {
    /// Every packet has the same length.
    Fixed(u32),
    /// Uniform between the bounds (inclusive).
    Uniform(u32, u32),
}

impl PacketSize {
    /// Draws a packet length.
    ///
    /// # Panics
    ///
    /// Panics on a zero length or inverted bounds.
    pub fn draw(self, rng: &mut Rng) -> u32 {
        match self {
            PacketSize::Fixed(n) => {
                assert!(n >= 1, "packet size must be positive");
                n
            }
            PacketSize::Uniform(lo, hi) => {
                assert!(lo >= 1 && lo <= hi, "bad size range {lo}..={hi}");
                lo + rng.next_below((hi - lo + 1) as u64) as u32
            }
        }
    }

    /// The mean length.
    pub fn mean(self) -> f64 {
        match self {
            PacketSize::Fixed(n) => n as f64,
            PacketSize::Uniform(lo, hi) => (lo + hi) as f64 / 2.0,
        }
    }
}

/// Anything that can emit the packets entering the network each cycle.
pub trait TrafficSource {
    /// Appends the packets created during `cycle` (whose start time is
    /// `now`) to `out`.
    fn packets_for_cycle(&mut self, cycle: u64, now: Picos, out: &mut Vec<Packet>);

    /// Packets generated so far.
    fn generated(&self) -> u64;

    /// Serializes the source's *mutable* state — RNG position, counters,
    /// replay cursors, per-node gating — for a checkpoint. Returns `None`
    /// if this source kind does not support checkpointing (the default).
    /// Static parameters (pattern, profile, network shape) are not
    /// captured: resume rebuilds the source from the same experiment
    /// description and overwrites only this state.
    fn checkpoint_state(&self) -> Option<serde::Value> {
        None
    }

    /// Restores state captured by [`TrafficSource::checkpoint_state`]
    /// into a freshly constructed source of identical static parameters.
    ///
    /// # Errors
    ///
    /// Fails if the value is malformed or this source kind is not
    /// checkpointable.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Err(serde::Error::custom(
            "this traffic source is not checkpointable",
        ))
    }
}

/// Synthetic traffic: a spatial [`Pattern`] × a temporal [`RateProfile`]
/// × a [`PacketSize`], driven by a deterministic RNG.
///
/// Each node flips an independent Bernoulli coin each cycle with
/// probability `network_rate / node_count`, which makes the network-wide
/// injection a binomial process with the profile's mean — the standard
/// open-loop injection model.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    config: NocConfig,
    pattern: Pattern,
    profile: RateProfile,
    size: PacketSize,
    rng: Rng,
    next_id: u64,
    generated: u64,
}

impl SyntheticSource {
    /// Creates a synthetic source.
    pub fn new(
        config: &NocConfig,
        pattern: Pattern,
        profile: RateProfile,
        size: PacketSize,
        rng: Rng,
    ) -> Self {
        SyntheticSource {
            config: config.clone(),
            pattern,
            profile,
            size,
            rng,
            next_id: 0,
            generated: 0,
        }
    }

    /// The temporal profile.
    pub fn profile(&self) -> &RateProfile {
        &self.profile
    }

    /// The instantaneous network-wide rate at `cycle`.
    pub fn rate_at(&self, cycle: u64) -> f64 {
        self.profile.rate_at(cycle)
    }
}

impl TrafficSource for SyntheticSource {
    fn packets_for_cycle(&mut self, cycle: u64, now: Picos, out: &mut Vec<Packet>) {
        let n = self.config.node_count();
        let p = (self.profile.rate_at(cycle) / n as f64).clamp(0.0, 1.0);
        if p <= 0.0 {
            return;
        }
        // One `chance(p)` per node in node order, but jumping from hit to
        // hit: the failed coins in between are one run-length draw, with
        // the same values in the same order.
        let threshold = Rng::chance_threshold(p);
        let mut src = 0;
        while src < n {
            src += self
                .rng
                .failures_before_success(threshold, (n - src) as u64) as usize;
            if src == n {
                break;
            }
            let node = NodeId(src as u32);
            src += 1;
            let Some(dst) = self.pattern.pick(&self.config, node, &mut self.rng) else {
                continue;
            };
            let size = self.size.draw(&mut self.rng);
            let id = PacketId(self.next_id);
            self.next_id += 1;
            self.generated += 1;
            out.push(Packet::new(id, node, dst, size, now));
        }
    }

    fn generated(&self) -> u64 {
        self.generated
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        let state = SyntheticState {
            rng: self.rng.clone(),
            next_id: self.next_id,
            generated: self.generated,
        };
        Some(state.serialize_value())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let state: SyntheticState = serde::from_value(state)?;
        self.rng = state.rng;
        self.next_id = state.next_id;
        self.generated = state.generated;
        Ok(())
    }
}

/// The checkpointed state of a [`SyntheticSource`].
#[derive(Serialize, Deserialize)]
struct SyntheticState {
    rng: Rng,
    next_id: u64,
    generated: u64,
}

/// Replays a recorded [`Trace`] (packets sorted by creation time).
#[derive(Debug, Clone)]
pub struct TraceSource {
    records: Vec<TraceRecord>,
    cursor: usize,
    next_id: u64,
    generated: u64,
}

impl TraceSource {
    /// Creates a replay source from a trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by time.
    pub fn new(trace: Trace) -> Self {
        let records = trace.into_records();
        assert!(
            records.windows(2).all(|w| w[0].at_ps <= w[1].at_ps),
            "trace must be sorted by time"
        );
        TraceSource {
            records,
            cursor: 0,
            next_id: 0,
            generated: 0,
        }
    }

    /// Records remaining to replay.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.cursor
    }
}

impl TrafficSource for TraceSource {
    fn packets_for_cycle(&mut self, _cycle: u64, now: Picos, out: &mut Vec<Packet>) {
        while self.cursor < self.records.len() {
            let rec = &self.records[self.cursor];
            if Picos::from_ps(rec.at_ps) > now {
                break;
            }
            let id = PacketId(self.next_id);
            self.next_id += 1;
            self.generated += 1;
            out.push(Packet::new(
                id,
                NodeId(rec.src as u32),
                NodeId(rec.dst as u32),
                rec.size_flits,
                now,
            ));
            self.cursor += 1;
        }
    }

    fn generated(&self) -> u64 {
        self.generated
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        let state = TraceState {
            cursor: self.cursor,
            next_id: self.next_id,
            generated: self.generated,
        };
        Some(state.serialize_value())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let state: TraceState = serde::from_value(state)?;
        if state.cursor > self.records.len() {
            return Err(serde::Error::custom(format!(
                "trace cursor {} past end of {}-record trace",
                state.cursor,
                self.records.len()
            )));
        }
        self.cursor = state.cursor;
        self.next_id = state.next_id;
        self.generated = state.generated;
        Ok(())
    }
}

/// The checkpointed state of a [`TraceSource`].
#[derive(Serialize, Deserialize)]
struct TraceState {
    cursor: usize,
    next_id: u64,
    generated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::paper_default()
    }

    #[test]
    fn packet_sizes() {
        let mut rng = Rng::seed_from(1);
        assert_eq!(PacketSize::Fixed(5).draw(&mut rng), 5);
        assert_eq!(PacketSize::Fixed(5).mean(), 5.0);
        for _ in 0..1000 {
            let s = PacketSize::Uniform(2, 6).draw(&mut rng);
            assert!((2..=6).contains(&s));
        }
        assert_eq!(PacketSize::Uniform(2, 6).mean(), 4.0);
    }

    #[test]
    fn synthetic_rate_approximately_met() {
        let config = cfg();
        let mut src = SyntheticSource::new(
            &config,
            Pattern::Uniform,
            RateProfile::Constant(3.0),
            PacketSize::Fixed(5),
            Rng::seed_from(7),
        );
        let mut out = Vec::new();
        let cycles = 50_000u64;
        for c in 0..cycles {
            src.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
        }
        let rate = out.len() as f64 / cycles as f64;
        assert!((rate - 3.0).abs() < 0.1, "measured rate {rate}");
        assert_eq!(src.generated(), out.len() as u64);
        // Unique ids, timestamps match cycles.
        let mut ids: Vec<u64> = out.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len());
    }

    #[test]
    fn synthetic_zero_rate_idle() {
        let config = cfg();
        let mut src = SyntheticSource::new(
            &config,
            Pattern::Uniform,
            RateProfile::Constant(0.0),
            PacketSize::Fixed(5),
            Rng::seed_from(8),
        );
        let mut out = Vec::new();
        for c in 0..1000 {
            src.packets_for_cycle(c, Picos::ZERO, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn synthetic_deterministic_for_seed() {
        let config = cfg();
        let gen = |seed: u64| {
            let mut src = SyntheticSource::new(
                &config,
                Pattern::Uniform,
                RateProfile::Constant(2.0),
                PacketSize::Uniform(2, 8),
                Rng::seed_from(seed),
            );
            let mut out = Vec::new();
            for c in 0..2000 {
                src.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
            }
            out
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5).len(), 0);
        assert_ne!(gen(5).len(), gen(6).len());
    }

    #[test]
    fn synthetic_draws_like_one_chance_per_node() {
        // The per-node loop the run-length draw replaces, written out.
        let config = cfg();
        let n = config.node_count();
        let reference = |pattern: &Pattern, rate: f64, rng: &mut Rng, out: &mut Vec<Packet>| {
            let p = (rate / n as f64).clamp(0.0, 1.0);
            for src in 0..n {
                if p > 0.0 && rng.chance(p) {
                    let node = NodeId(src as u32);
                    if let Some(dst) = pattern.pick(&config, node, rng) {
                        let size = PacketSize::Uniform(2, 8).draw(rng);
                        out.push(Packet::new(
                            PacketId(out.len() as u64),
                            node,
                            dst,
                            size,
                            Picos::ZERO,
                        ));
                    }
                }
            }
        };
        let patterns = [
            Pattern::Uniform,
            Pattern::paper_hotspot(&config),
            Pattern::Transpose,
        ];
        for (seed, pattern) in patterns.iter().enumerate() {
            for rate in [0.3, 4.0, 60.0, n as f64, 2.0 * n as f64] {
                let rng = Rng::seed_from(seed as u64);
                let mut src = SyntheticSource::new(
                    &config,
                    pattern.clone(),
                    RateProfile::Constant(rate),
                    PacketSize::Uniform(2, 8),
                    rng.clone(),
                );
                let (mut got, mut want, mut rng) = (Vec::new(), Vec::new(), rng);
                for c in 0..200 {
                    src.packets_for_cycle(c, Picos::ZERO, &mut got);
                    reference(pattern, rate, &mut rng, &mut want);
                }
                assert_eq!(got, want, "{pattern:?} at rate {rate}");
                assert_eq!(src.rng, rng, "{pattern:?} at rate {rate}");
            }
        }
    }

    #[test]
    fn trace_replay_respects_times() {
        let trace = Trace::from_records(vec![
            TraceRecord {
                at_ps: 0,
                src: 0,
                dst: 1,
                size_flits: 4,
            },
            TraceRecord {
                at_ps: 3200,
                src: 2,
                dst: 3,
                size_flits: 2,
            },
            TraceRecord {
                at_ps: 3200,
                src: 4,
                dst: 5,
                size_flits: 1,
            },
        ]);
        let mut src = TraceSource::new(trace);
        assert_eq!(src.remaining(), 3);
        let mut out = Vec::new();
        src.packets_for_cycle(0, Picos::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        src.packets_for_cycle(1, Picos::from_ps(1600), &mut out);
        assert_eq!(out.len(), 1);
        src.packets_for_cycle(2, Picos::from_ps(3200), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(src.remaining(), 0);
        assert_eq!(src.generated(), 3);
    }

    #[test]
    fn unsorted_input_replays_in_time_order() {
        // Trace::from_records sorts, so replay order follows time even if
        // the records were captured out of order.
        let trace = Trace::from_records(vec![
            TraceRecord {
                at_ps: 100,
                src: 0,
                dst: 1,
                size_flits: 1,
            },
            TraceRecord {
                at_ps: 50,
                src: 1,
                dst: 2,
                size_flits: 1,
            },
        ]);
        let mut src = TraceSource::new(trace);
        let mut out = Vec::new();
        src.packets_for_cycle(0, Picos::from_ps(60), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, NodeId(1));
        src.packets_for_cycle(1, Picos::from_ps(200), &mut out);
        assert_eq!(out.len(), 2);
    }
}

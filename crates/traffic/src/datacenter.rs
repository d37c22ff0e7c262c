//! Datacenter-flavoured request/response traffic.
//!
//! The paper evaluates its power-aware policies on multiprocessor
//! workloads; the `ext_datacenter` extension asks how the same policies
//! behave on the traffic shape that dominates *networked systems* at
//! datacenter scale. This module synthesizes that shape from three
//! ingredients measured repeatedly in datacenter traces:
//!
//! - **Request/response structure.** The node population splits into
//!   *servers* (the first [`DatacenterConfig::servers`] node ids) and
//!   *clients* (the rest). Clients issue small requests to uniformly
//!   chosen servers; each request schedules a larger response back to its
//!   client a fixed service time later. The response path is *open-loop*:
//!   the response is scheduled from the request's generation time, not its
//!   delivery time, so the offered load stays independent of network state
//!   (the same modeling choice as [`crate::source::SyntheticSource`] —
//!   see DESIGN.md §6e for the rationale and its limits).
//! - **ON/OFF flows with a diurnal envelope.** Each client gates its
//!   request stream through an exponential ON/OFF process (flows start
//!   and stop), and the whole fabric breathes under a raised-cosine
//!   diurnal ramp between [`DatacenterConfig::diurnal_floor`] and full
//!   load — the load shape that makes ON/OFF link policies interesting
//!   at all.
//! - **Incast fan-in.** Every [`DatacenterConfig::incast_period_cycles`],
//!   a rotating aggregator client receives a synchronized burst from
//!   [`DatacenterConfig::incast_fanin`] servers — the partition/aggregate
//!   pattern whose synchronized bursts stress ejection links and buffer
//!   depth far beyond what uniform traffic reaches at the same mean rate.
//!
//! All randomness comes from the caller-provided deterministic
//! [`Rng`]; draws happen in a fixed order (pending responses, then
//! clients ascending, then the RNG-free incast schedule) so a run is a
//! pure function of its seed.
//!
//! # Example
//!
//! ```
//! use lumen_desim::{Picos, Rng};
//! use lumen_noc::NocConfig;
//! use lumen_traffic::{DatacenterConfig, DatacenterSource, TrafficSource};
//!
//! let noc = NocConfig::small_for_tests();
//! let config = DatacenterConfig::web_like(noc.node_count() / 4);
//! let mut source = DatacenterSource::new(&noc, config, Rng::seed_from(7));
//! let mut out = Vec::new();
//! for cycle in 0..20_000 {
//!     source.packets_for_cycle(cycle, Picos::from_ps(cycle * 1600), &mut out);
//! }
//! assert!(source.generated() > 0);
//! assert_eq!(source.generated(), out.len() as u64);
//! ```

use crate::source::TrafficSource;
use lumen_desim::{Picos, Rng};
use lumen_noc::config::NocConfig;
use lumen_noc::flit::Packet;
use lumen_noc::ids::{NodeId, PacketId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Parameters of the request/response datacenter model.
///
/// Rates are expressed at the *diurnal peak with every client ON*; the
/// realized long-run rate is lower by the ON duty cycle and the mean of
/// the diurnal envelope (see [`DatacenterConfig::mean_request_rate`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatacenterConfig {
    /// How many nodes act as servers: node ids `0..servers` serve, the
    /// remaining ids are clients. Must leave at least one client.
    pub servers: usize,
    /// Network-wide request injection rate at diurnal peak with all
    /// clients ON, packets/cycle (each ON client flips a Bernoulli coin
    /// with this rate divided by the client count).
    pub request_rate: f64,
    /// Flits per request packet (requests are small: an RPC header).
    pub request_flits: u32,
    /// Flits per response packet (responses carry the payload).
    pub response_flits: u32,
    /// Cycles between a request's generation and its response's
    /// injection at the server (fixed service time, open loop).
    pub service_cycles: u64,
    /// Period of the raised-cosine diurnal load envelope, in cycles
    /// (`0` disables the ramp: constant full load).
    pub diurnal_period_cycles: u64,
    /// Trough of the diurnal envelope as a fraction of peak load, in
    /// `(0, 1]` (`1.0` means a flat envelope).
    pub diurnal_floor: f64,
    /// Cycles between incast bursts (`0` disables incast).
    pub incast_period_cycles: u64,
    /// Servers participating in each incast burst (clamped to the
    /// server count).
    pub incast_fanin: u32,
    /// Flits per incast packet.
    pub incast_flits: u32,
    /// Mean ON sojourn of a client's flow gate, cycles (exponential).
    pub mean_on_cycles: f64,
    /// Mean OFF sojourn of a client's flow gate, cycles (exponential).
    pub mean_off_cycles: f64,
}

impl DatacenterConfig {
    /// A web-service-flavoured default with `servers` server nodes:
    /// 2-flit requests, 16-flit responses, 200-cycle service time,
    /// a 40 000-cycle diurnal period bottoming out at 20 % load,
    /// 8 000-cycle incasts of 16 servers × 8 flits, and flows averaging
    /// 1 500 cycles ON / 1 500 cycles OFF.
    pub fn web_like(servers: usize) -> Self {
        DatacenterConfig {
            servers,
            request_rate: 0.5,
            request_flits: 2,
            response_flits: 16,
            service_cycles: 200,
            diurnal_period_cycles: 40_000,
            diurnal_floor: 0.2,
            incast_period_cycles: 8_000,
            incast_fanin: 16,
            incast_flits: 8,
            mean_on_cycles: 1_500.0,
            mean_off_cycles: 1_500.0,
        }
    }

    /// Validates parameter ranges against a network of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the server split leaves no server or no client, a rate,
    /// size, or sojourn mean is out of range, or the diurnal floor is
    /// outside `(0, 1]`.
    pub(crate) fn validate(&self, nodes: usize) {
        assert!(
            self.servers >= 1 && self.servers < nodes,
            "servers must be in 1..{nodes}, got {}",
            self.servers
        );
        assert!(
            self.request_rate > 0.0,
            "request_rate must be positive, got {}",
            self.request_rate
        );
        assert!(self.request_flits >= 1, "request_flits must be positive");
        assert!(self.response_flits >= 1, "response_flits must be positive");
        assert!(self.service_cycles >= 1, "service_cycles must be positive");
        assert!(
            self.diurnal_floor > 0.0 && self.diurnal_floor <= 1.0,
            "diurnal_floor must be in (0,1], got {}",
            self.diurnal_floor
        );
        if self.incast_period_cycles > 0 {
            assert!(self.incast_fanin >= 1, "incast_fanin must be positive");
            assert!(self.incast_flits >= 1, "incast_flits must be positive");
        }
        assert!(self.mean_on_cycles > 0.0, "mean ON must be positive");
        assert!(self.mean_off_cycles > 0.0, "mean OFF must be positive");
    }

    /// The long-run fraction of time a client's flow gate is ON.
    pub(crate) fn duty_cycle(&self) -> f64 {
        self.mean_on_cycles / (self.mean_on_cycles + self.mean_off_cycles)
    }

    /// The time-average of the diurnal envelope: the mean of the
    /// raised cosine, `(1 + floor) / 2` (or `1` with the ramp disabled).
    pub(crate) fn diurnal_mean(&self) -> f64 {
        if self.diurnal_period_cycles == 0 {
            1.0
        } else {
            (1.0 + self.diurnal_floor) / 2.0
        }
    }

    /// The expected long-run network-wide *request* rate, packets/cycle
    /// (responses mirror it one-for-one; incast packets come on top).
    pub fn mean_request_rate(&self) -> f64 {
        self.request_rate * self.duty_cycle() * self.diurnal_mean()
    }
}

/// Draws an exponential sojourn with the given mean.
fn exponential(rng: &mut Rng, mean: f64) -> f64 {
    // 1 - next_f64() is in (0, 1], so ln() is finite.
    -mean * (1.0 - rng.next_f64()).ln()
}

/// A client's flow gate: ON/OFF state and when the current sojourn ends.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Gate {
    on: bool,
    until: u64,
}

/// A response committed at request time, due `service_cycles` later.
/// Entries are pushed with monotonically non-decreasing due cycles, so
/// the queue front is always the earliest.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PendingResponse {
    due: u64,
    server: NodeId,
    client: NodeId,
}

/// The request/response datacenter source (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct DatacenterSource {
    config: DatacenterConfig,
    rng: Rng,
    /// One gate per client, indexed by `node id - servers`.
    gates: Vec<Gate>,
    pending: VecDeque<PendingResponse>,
    next_id: u64,
    generated: u64,
}

impl DatacenterSource {
    /// Creates the source; client gate phases are randomized so the
    /// aggregate starts near steady state rather than synchronized.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails `DatacenterConfig::validate` for this
    /// network's node count.
    pub fn new(noc: &NocConfig, config: DatacenterConfig, mut rng: Rng) -> Self {
        config.validate(noc.node_count());
        let clients = noc.node_count() - config.servers;
        let gates = (0..clients)
            .map(|_| {
                let on = rng.chance(config.duty_cycle());
                let mean = if on {
                    config.mean_on_cycles
                } else {
                    config.mean_off_cycles
                };
                // Residual sojourn: uniform fraction of a fresh draw.
                let len = exponential(&mut rng, mean) * rng.next_f64();
                Gate {
                    on,
                    until: len as u64,
                }
            })
            .collect();
        DatacenterSource {
            config,
            rng,
            gates,
            pending: VecDeque::new(),
            next_id: 0,
            generated: 0,
        }
    }

    /// The model parameters.
    pub fn config(&self) -> &DatacenterConfig {
        &self.config
    }

    /// The diurnal load multiplier at `cycle`: a raised cosine from
    /// [`DatacenterConfig::diurnal_floor`] (at cycle 0) up to 1 at
    /// mid-period and back.
    pub(crate) fn diurnal_multiplier(&self, cycle: u64) -> f64 {
        let period = self.config.diurnal_period_cycles;
        if period == 0 {
            return 1.0;
        }
        let phase = (cycle % period) as f64 / period as f64;
        let floor = self.config.diurnal_floor;
        floor + (1.0 - floor) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos())
    }

    fn emit(&mut self, src: NodeId, dst: NodeId, flits: u32, now: Picos, out: &mut Vec<Packet>) {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.generated += 1;
        out.push(Packet::new(id, src, dst, flits, now));
    }
}

impl TrafficSource for DatacenterSource {
    fn packets_for_cycle(&mut self, cycle: u64, now: Picos, out: &mut Vec<Packet>) {
        // 1. Responses that have finished service.
        while let Some(front) = self.pending.front() {
            if front.due > cycle {
                break;
            }
            let r = self.pending.pop_front().expect("front checked");
            self.emit(r.server, r.client, self.config.response_flits, now, out);
        }

        // 2. New requests from ON clients, nodes ascending (fixed RNG
        //    draw order).
        let servers = self.config.servers;
        let clients = self.gates.len();
        let p = (self.config.request_rate * self.diurnal_multiplier(cycle) / clients as f64)
            .clamp(0.0, 1.0);
        for i in 0..clients {
            let gate = &mut self.gates[i];
            if cycle >= gate.until {
                gate.on = !gate.on;
                let mean = if gate.on {
                    self.config.mean_on_cycles
                } else {
                    self.config.mean_off_cycles
                };
                let len = exponential(&mut self.rng, mean).max(1.0);
                gate.until = cycle + len as u64;
            }
            if !self.gates[i].on || !self.rng.chance(p) {
                continue;
            }
            let client = NodeId((servers + i) as u32);
            let server = NodeId(self.rng.next_below(servers as u64) as u32);
            self.emit(client, server, self.config.request_flits, now, out);
            self.pending.push_back(PendingResponse {
                due: cycle + self.config.service_cycles,
                server,
                client,
            });
        }

        // 3. Incast: a synchronized server burst into one rotating
        //    aggregator client. RNG-free, so it cannot perturb the
        //    request stream's draw sequence.
        let period = self.config.incast_period_cycles;
        if period > 0 && cycle > 0 && cycle.is_multiple_of(period) {
            let round = cycle / period;
            let aggregator = NodeId((servers + (round as usize % clients)) as u32);
            let fanin = (self.config.incast_fanin as usize).min(servers);
            for k in 0..fanin {
                let server = NodeId(((round as usize + k) % servers) as u32);
                self.emit(server, aggregator, self.config.incast_flits, now, out);
            }
        }
    }

    fn generated(&self) -> u64 {
        self.generated
    }

    fn checkpoint_state(&self) -> Option<serde::Value> {
        let state = DatacenterState {
            rng: self.rng.clone(),
            gates: self.gates.clone(),
            pending: self.pending.clone(),
            next_id: self.next_id,
            generated: self.generated,
        };
        Some(state.serialize_value())
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let state: DatacenterState = serde::from_value(state)?;
        if state.gates.len() != self.gates.len() {
            return Err(serde::Error::custom(format!(
                "checkpoint has {} client gates, this network has {}",
                state.gates.len(),
                self.gates.len()
            )));
        }
        self.rng = state.rng;
        self.gates = state.gates;
        self.pending = state.pending;
        self.next_id = state.next_id;
        self.generated = state.generated;
        Ok(())
    }
}

/// The checkpointed state of a [`DatacenterSource`].
#[derive(Serialize, Deserialize)]
struct DatacenterState {
    rng: Rng,
    gates: Vec<Gate>,
    pending: VecDeque<PendingResponse>,
    next_id: u64,
    generated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> NocConfig {
        let mut noc = NocConfig::paper_default();
        noc.width = 4;
        noc.height = 4;
        noc
    }

    fn source(seed: u64) -> DatacenterSource {
        let noc = noc();
        DatacenterSource::new(
            &noc,
            DatacenterConfig::web_like(noc.node_count() / 4),
            Rng::seed_from(seed),
        )
    }

    fn drive(src: &mut DatacenterSource, cycles: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for c in 0..cycles {
            src.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
        }
        out
    }

    #[test]
    fn config_derived_quantities() {
        let c = DatacenterConfig::web_like(32);
        c.validate(128);
        assert!((c.duty_cycle() - 0.5).abs() < 1e-12);
        assert!((c.diurnal_mean() - 0.6).abs() < 1e-12);
        assert!((c.mean_request_rate() - 0.5 * 0.5 * 0.6).abs() < 1e-12);
    }

    #[test]
    fn requests_get_matching_responses() {
        let mut src = source(3);
        let out = drive(&mut src, 60_000);
        let servers = src.config().servers as u32;
        let requests = out
            .iter()
            .filter(|p| p.src.0 >= servers && p.size_flits == src.config().request_flits)
            .count();
        let responses = out
            .iter()
            .filter(|p| p.src.0 < servers && p.size_flits == src.config().response_flits)
            .count();
        assert!(requests > 100, "requests {requests}");
        // Every response answers a request; the tail of requests is
        // still in service at the horizon.
        assert!(responses <= requests);
        assert!(
            responses as f64 > 0.95 * requests as f64,
            "requests {requests} vs responses {responses}"
        );
        // Each response mirrors its request's endpoints.
        for p in &out {
            if p.src.0 < servers && p.size_flits == src.config().response_flits {
                assert!(p.dst.0 >= servers, "responses go to clients");
            }
        }
    }

    #[test]
    fn incast_bursts_land_on_schedule() {
        let mut src = source(5);
        let period = src.config().incast_period_cycles;
        let flits = src.config().incast_flits;
        let mut out = Vec::new();
        src.packets_for_cycle(period, Picos::from_ps(period * 1600), &mut out);
        let burst: Vec<&Packet> = out.iter().filter(|p| p.size_flits == flits).collect();
        assert_eq!(
            burst.len(),
            (src.config().incast_fanin as usize).min(src.config().servers)
        );
        // All into one aggregator, from distinct servers.
        let aggregator = burst[0].dst;
        assert!(burst.iter().all(|p| p.dst == aggregator));
        let mut sources: Vec<u32> = burst.iter().map(|p| p.src.0).collect();
        sources.dedup();
        assert_eq!(sources.len(), burst.len());
    }

    #[test]
    fn incast_aggregator_rotates() {
        let mut src = source(5);
        let period = src.config().incast_period_cycles;
        let flits = src.config().incast_flits;
        let mut aggs = Vec::new();
        for round in 1..=3 {
            let mut out = Vec::new();
            let cycle = round * period;
            src.packets_for_cycle(cycle, Picos::from_ps(cycle * 1600), &mut out);
            aggs.push(out.iter().find(|p| p.size_flits == flits).unwrap().dst);
        }
        assert_ne!(aggs[0], aggs[1]);
        assert_ne!(aggs[1], aggs[2]);
    }

    #[test]
    fn diurnal_envelope_shapes_the_load() {
        let mut src = source(9);
        assert!((src.diurnal_multiplier(0) - src.config().diurnal_floor).abs() < 1e-9);
        let period = src.config().diurnal_period_cycles;
        assert!((src.diurnal_multiplier(period / 2) - 1.0).abs() < 1e-9);
        // Trough halves (window around cycle 0 mod period) carry less
        // traffic than peak halves.
        let out = drive(&mut src, 2 * period);
        let quarter = period / 4;
        let near_trough = |c: u64| {
            let ph = c % period;
            ph < quarter || ph >= period - quarter
        };
        let cycle_of = |p: &Packet| p.created_at.as_ps() / 1600;
        let trough = out.iter().filter(|p| near_trough(cycle_of(p))).count();
        let peak = out.len() - trough;
        assert!(
            (peak as f64) > 1.5 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let run = |seed| {
            let mut s = source(seed);
            let out = drive(&mut s, 30_000);
            (out.len(), out.iter().map(|p| p.dst.0 as u64).sum::<u64>())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn long_run_rate_near_prediction() {
        let mut src = source(11);
        let predicted = src.config().mean_request_rate();
        let cycles = 200_000u64;
        let out = drive(&mut src, cycles);
        let requests = out
            .iter()
            .filter(|p| p.size_flits == src.config().request_flits)
            .count();
        let measured = requests as f64 / cycles as f64;
        assert!(
            (measured / predicted - 1.0).abs() < 0.25,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn servers_do_not_issue_requests() {
        let mut src = source(13);
        let out = drive(&mut src, 30_000);
        let servers = src.config().servers as u32;
        let request_flits = src.config().request_flits;
        assert!(out
            .iter()
            .filter(|p| p.size_flits == request_flits)
            .all(|p| p.src.0 >= servers && p.dst.0 < servers));
    }

    #[test]
    #[should_panic(expected = "servers must be in")]
    fn all_server_split_rejected() {
        let noc = noc();
        let config = DatacenterConfig::web_like(noc.node_count());
        DatacenterSource::new(&noc, config, Rng::seed_from(1));
    }

    #[test]
    #[should_panic(expected = "diurnal_floor")]
    fn bad_floor_rejected() {
        let mut c = DatacenterConfig::web_like(8);
        c.diurnal_floor = 0.0;
        c.validate(128);
    }
}

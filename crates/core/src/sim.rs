//! The event-driven power-aware system simulation.
//!
//! [`PowerAwareSim`] is a [`SimModel`] combining:
//!
//! - the passive network ([`lumen_noc::Network`]), ticked once per router
//!   cycle;
//! - one [`LinkPolicyController`] and one [`LaserSourceController`] per
//!   link (when power-awareness is enabled);
//! - one [`EnergyAccount`] per link, fed by the calibrated
//!   [`LinkPowerModel`] at every operating-point change, so network power
//!   is integrated exactly.
//!
//! Event choreography per §3.2 of the paper: policy windows fire every
//! `Tw` cycles; an up-transition raises the rail immediately (higher power
//! from `interim_at`), hops the frequency `Tv` later with the link disabled
//! for `Tbr`; a down-transition hops the frequency immediately and banks
//! the voltage saving only after `Tbr + Tv`. On three-optical-level MQW
//! systems, rate increases that cross an optical band are *delayed* until
//! the external laser's attenuator finishes moving.

use crate::config::SystemConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::shard::{Local, Region, Route};
use crate::telemetry::{
    LinkWindowRow, MetricsRegistry, TelemetryCollector, TelemetryConfig, TelemetryReport,
    TRACE_SCHEMA,
};
use lumen_desim::{Engine, EventQueue, Picos, SimModel};
use lumen_noc::flit::Flit;
use lumen_noc::ids::{LinkId, VcId};
use lumen_noc::network::Effect;
use lumen_noc::{Network, Packet, RouteTable};
use lumen_opto::link::OperatingPoint;
use lumen_opto::{Gbps, LinkPowerModel, MilliWatts};
use lumen_policy::{
    GateAction, LaserSourceController, LinkPolicyController, OnOffController, OpticalGate,
    PolicyMode,
};
use lumen_stats::{EnergyAccount, Histogram, Summary, TimeSeries};
use lumen_traffic::TrafficSource;
use serde::{Deserialize, Serialize, Sink, Source, Token};
use std::sync::Arc;

/// The simulation's event alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// One router-core clock edge (self-perpetuating).
    CoreTick,
    /// A flit finishes traversing a link.
    FlitArrive {
        /// The link traversed.
        link: LinkId,
        /// The VC the flit occupies downstream.
        vc: VcId,
        /// The flit.
        flit: Flit,
    },
    /// A credit returns to a link's upstream endpoint.
    CreditArrive {
        /// The link whose upstream regains a slot.
        link: LinkId,
        /// The credited VC.
        vc: VcId,
    },
    /// A planned frequency hop takes effect (link disabled for `disable`).
    RateChange {
        /// The link.
        link: LinkId,
        /// The new bit rate.
        rate: Gbps,
        /// The CDR relock window.
        disable: Picos,
        /// The link epoch the hop was planned under; stale hops (link
        /// pinned by a fault since) are discarded.
        epoch: u64,
    },
    /// A link's power-accounting operating point changes.
    PowerPoint {
        /// The link.
        link: LinkId,
        /// The new operating point.
        point: OperatingPoint,
        /// The link epoch the change was planned under.
        epoch: u64,
    },
    /// A link's policy controller finishes its transition.
    TransitionComplete {
        /// The link.
        link: LinkId,
        /// The link epoch the transition was planned under.
        epoch: u64,
    },
    /// A fault window opens on a link.
    FaultBegin {
        /// The link.
        link: LinkId,
        /// Outage or laser dropout.
        kind: FaultKind,
    },
    /// A fault window closes on a link.
    FaultEnd {
        /// The link.
        link: LinkId,
        /// Outage or laser dropout.
        kind: FaultKind,
    },
    /// The external-laser controllers evaluate their lazy `Pdec` rule
    /// (every 200 µs; self-perpetuating).
    LaserDecision,
}

/// Memoized link power: the policy ladder is a small discrete set, and
/// every operating point a transition can visit — including the voltage-
/// first / frequency-first interim points — is a cross-product of ladder
/// rates and ladder rails. Built once at sim start so the per-transition
/// hot path replaces the full Eqs. 1–9 component walk with a table scan;
/// points constructed from the same ladder values compare bitwise-equal,
/// so hits are exact and anything else falls back to the analytical model.
#[derive(Debug, Clone)]
pub(crate) struct PowerLut {
    entries: Vec<(OperatingPoint, MilliWatts)>,
}

impl PowerLut {
    /// Builds the table over every `(rate, vdd)` ladder cross-product.
    pub(crate) fn build(model: &LinkPowerModel, ladder: &lumen_policy::BitRateLadder) -> Self {
        let n = ladder.level_count();
        let mut entries = Vec::with_capacity(n * n);
        for vdd_level in 0..n {
            for rate_level in 0..n {
                let point =
                    OperatingPoint::new(ladder.rate_at(rate_level), ladder.vdd_at(vdd_level));
                if !entries.iter().any(|(p, _)| *p == point) {
                    entries.push((point, model.power(point)));
                }
            }
        }
        PowerLut { entries }
    }

    /// Looks up `point`, falling back to the analytical model on a miss.
    pub(crate) fn power(&self, model: &LinkPowerModel, point: OperatingPoint) -> MilliWatts {
        for (p, w) in &self.entries {
            if *p == point {
                return *w;
            }
        }
        model.power(point)
    }
}

/// What a run measures: per-packet latency since measurement began and
/// the sampled time series. The sequential engine records into its own.
/// On the sharded engine, worker 0's coordinator records into one from
/// ordered delivery replays and summed energy snapshots, and the merged
/// sim takes it over; both engines run this code, so their f64 results
/// are equal by construction.
#[derive(Debug, Clone)]
pub(crate) struct Recorder {
    pub(crate) measure_from: Picos,
    pub(crate) latency: Summary,
    pub(crate) latency_hist: Histogram,
    pub(crate) bucket_latency: Summary,
    pub(crate) bucket_injected: u64,
    pub(crate) last_sample_time: Picos,
    pub(crate) last_sample_energy_nj: f64,
    pub(crate) latency_series: TimeSeries,
    pub(crate) power_series: TimeSeries,
    pub(crate) injection_series: TimeSeries,
}

impl Recorder {
    /// Measuring from time 0, nothing recorded.
    pub(crate) fn new() -> Self {
        Recorder {
            measure_from: Picos::ZERO,
            latency: Summary::new(),
            latency_hist: Histogram::new(10.0, 2_000),
            bucket_latency: Summary::new(),
            bucket_injected: 0,
            last_sample_time: Picos::ZERO,
            last_sample_energy_nj: 0.0,
            latency_series: TimeSeries::default(),
            power_series: TimeSeries::default(),
            injection_series: TimeSeries::default(),
        }
    }

    /// Restarts measurement at `now`: the latency statistics and the
    /// sample bucket start empty; the series keep what they hold.
    pub(crate) fn begin(&mut self, now: Picos) {
        self.measure_from = now;
        self.latency = Summary::new();
        self.latency_hist = Histogram::new(10.0, 2_000);
        self.bucket_latency = Summary::new();
        self.bucket_injected = 0;
        self.last_sample_time = now;
        self.last_sample_energy_nj = 0.0;
    }

    /// Counts `n` packets injected at `now` into the sample bucket if
    /// measurement has begun by then, and says whether it had.
    pub(crate) fn note_injected(&mut self, now: Picos, n: u64) -> bool {
        let measured = now >= self.measure_from;
        if measured {
            self.bucket_injected += n;
        }
        measured
    }

    /// Records the latency, in cycles of `cycle`, of a packet created at
    /// `created_at` and delivered at `at`, unless it was created before
    /// measurement began.
    pub(crate) fn record_delivery(&mut self, created_at: Picos, at: Picos, cycle: Picos) {
        if created_at < self.measure_from {
            return;
        }
        let cycles = (at - created_at).as_ps() as f64 / cycle.as_ps() as f64;
        self.latency.record(cycles);
        self.latency_hist.record(cycles);
        self.bucket_latency.record(cycles);
    }

    /// Closes a sample period of `every` cycles at `now`: the power since
    /// the last sample, from the network's energy `energy_nj` (summed in
    /// link order) and normalized to `baseline_mw`; the bucket's mean
    /// latency; and its injection rate.
    pub(crate) fn take_sample(&mut self, now: Picos, every: u64, energy_nj: f64, baseline_mw: f64) {
        let dt_ps = (now - self.last_sample_time).as_ps() as f64;
        if dt_ps > 0.0 {
            let power_mw = (energy_nj - self.last_sample_energy_nj) / dt_ps * 1e6;
            self.power_series.record(now, power_mw / baseline_mw);
            self.last_sample_energy_nj = energy_nj;
            self.last_sample_time = now;
        }
        if !self.bucket_latency.is_empty() {
            self.latency_series.record(now, self.bucket_latency.mean());
        }
        self.injection_series
            .record(now, self.bucket_injected as f64 / every as f64);
        self.bucket_latency = Summary::new();
        self.bucket_injected = 0;
    }
}

/// The complete simulated system.
pub struct PowerAwareSim {
    pub(crate) config: SystemConfig,
    pub(crate) net: Network,
    pub(crate) model: LinkPowerModel,
    pub(crate) lut: PowerLut,
    pub(crate) controllers: Vec<LinkPolicyController>,
    pub(crate) onoff: Vec<OnOffController>,
    pub(crate) sleeping: Vec<LinkId>,
    pub(crate) lasers: Vec<LaserSourceController>,
    pub(crate) accounts: Vec<EnergyAccount>,
    pub(crate) current_point: Vec<OperatingPoint>,
    pub(crate) source: Box<dyn TrafficSource + Send>,
    pub(crate) cycle: Picos,
    pub(crate) cycle_index: u64,
    pub(crate) tw_cycles: u64,
    // Fault injection (None when disabled: no events, no RNG draws).
    pub(crate) faults: Option<FaultPlan>,
    // Per-link transition epoch: bumped when a fault pins a link, so
    // transition events planned before the pin are discarded on arrival.
    pub(crate) link_epoch: Vec<u64>,
    // Measurement state: latencies and series in the recorder, counters
    // as this engine counted them (a shard replica counts its own
    // region's; the merge sums them).
    pub(crate) measure: Recorder,
    pub(crate) packets_injected_measured: u64,
    pub(crate) packets_dropped_at_measure: u64,
    pub(crate) flits_dropped_at_measure: u64,
    pub(crate) flits_corrupted_at_measure: u64,
    pub(crate) faults_at_measure: u64,
    // Optional time-series sampling period.
    pub(crate) sample_every: Option<u64>,
    // Scratch buffers.
    pub(crate) effects: Vec<Effect>,
    pub(crate) packets: Vec<Packet>,
    // Parallel-shard context: `Some` only on a shard replica driven by
    // `crate::shard::run_sharded_with`; `None` on the sequential engine.
    pub(crate) shard: Option<Box<crate::shard::ShardCtx>>,
    // Telemetry recording state: `None` when disabled, so the only cost on
    // the disabled path is this Option check at policy-window boundaries.
    // Purely observational — draws no RNG, schedules no events.
    pub(crate) telemetry: Option<Box<TelemetryCollector>>,
}

impl PowerAwareSim {
    /// Builds the system and its driving [`Engine`], with the first core
    /// tick (and, for three-level MQW systems, the first laser decision)
    /// already scheduled.
    pub fn build_engine(
        config: SystemConfig,
        source: Box<dyn TrafficSource + Send>,
        sample_every: Option<u64>,
    ) -> Engine<PowerAwareSim> {
        Self::build_engine_telemetry(config, source, sample_every, TelemetryConfig::default())
    }

    /// [`PowerAwareSim::build_engine`] with telemetry recording enabled per
    /// `telemetry`. Used by [`crate::Experiment`]; recording arms itself at
    /// [`PowerAwareSim::begin_measurement`].
    pub fn build_engine_telemetry(
        config: SystemConfig,
        source: Box<dyn TrafficSource + Send>,
        sample_every: Option<u64>,
        telemetry: TelemetryConfig,
    ) -> Engine<PowerAwareSim> {
        Self::build_engine_inner(config, source, sample_every, telemetry, None, None)
    }

    /// The one engine builder. The sharded backend builds each replica
    /// here with `Some` of both: the run's one shared `route_table`, and
    /// the `shard` context of the region the replica ticks, polices and
    /// fault-schedules (it holds the full network image). `None` for both
    /// is the sequential engine.
    pub(crate) fn build_engine_inner(
        config: SystemConfig,
        source: Box<dyn TrafficSource + Send>,
        sample_every: Option<u64>,
        telemetry: TelemetryConfig,
        route_table: Option<Arc<RouteTable>>,
        shard: Option<Box<crate::shard::ShardCtx>>,
    ) -> Engine<PowerAwareSim> {
        config.validate();
        let net = match route_table {
            Some(table) => Network::with_route_table(&config.noc, table),
            None => Network::new(&config.noc),
        };
        let model = config.link_model();
        let cycle = config.noc.cycle();
        let link_count = net.link_count();
        let top = config.policy.ladder.top_level();
        let initial_point = config.policy.ladder.point_at(top);
        let (controllers, onoff, lasers) = if config.power_aware {
            match config.policy.mode {
                PolicyMode::DvsLadder => (
                    vec![LinkPolicyController::new(&config.policy, top); link_count],
                    Vec::new(),
                    vec![LaserSourceController::default(); link_count],
                ),
                PolicyMode::OnOff(_) => (
                    Vec::new(),
                    vec![OnOffController::default(); link_count],
                    Vec::new(),
                ),
            }
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let lut = PowerLut::build(&model, &config.policy.ladder);
        let initial_power = lut.power(&model, initial_point);
        let accounts = (0..link_count)
            .map(|_| EnergyAccount::new(Picos::ZERO, initial_power))
            .collect();
        let tw_cycles = config.policy.timing.tw_cycles;
        let three_level = config.power_aware
            && config.policy.optical_mode == lumen_policy::OpticalMode::ThreeLevel;
        let laser_period = config.policy.timing.laser_decision_period;

        // Fault onsets. Dropouts model the shared external laser
        // sagging, so they only exist on MQW-modulator systems.
        let faults = config.faults.enabled().then(|| {
            FaultPlan::new(
                &config.faults,
                config.seed,
                link_count,
                cycle,
                config.noc.flit_bits,
            )
        });
        let mut onset_kinds = Vec::new();
        if config.faults.outages_enabled() {
            onset_kinds.push(FaultKind::Outage);
        }
        if config.faults.dropouts_enabled()
            && config.transmitter == lumen_opto::link::TransmitterKind::MqwModulator
        {
            onset_kinds.push(FaultKind::LaserDropout);
        }

        let sim = PowerAwareSim {
            net,
            model,
            lut,
            controllers,
            onoff,
            sleeping: Vec::new(),
            lasers,
            accounts,
            current_point: vec![initial_point; link_count],
            source,
            cycle,
            cycle_index: 0,
            tw_cycles,
            faults,
            link_epoch: vec![0; link_count],
            measure: Recorder::new(),
            packets_injected_measured: 0,
            packets_dropped_at_measure: 0,
            flits_dropped_at_measure: 0,
            flits_corrupted_at_measure: 0,
            faults_at_measure: 0,
            sample_every,
            effects: Vec::new(),
            packets: Vec::new(),
            shard,
            telemetry: telemetry
                .enabled()
                .then(|| Box::new(TelemetryCollector::new(telemetry, link_count))),
            config,
        };
        // Calendar sizing: each link can have a flit and a credit in
        // flight per cycle, spread over a few cycles of serialization
        // fan-out, plus the tick/policy/laser/fault tail. Lanes are an
        // eighth of a cycle wide (128 ps at 625 MHz), narrower than the
        // gap between the instants ticks, flits and credits land on, so a
        // lane nearly always holds one instant and loads without a sort.
        let capacity = link_count * 8 + 64;
        let lane = (cycle / 8).max(Picos::from_ps(1));
        let queue = EventQueue::with_capacity_and_width(capacity, lane);
        let mut engine = Engine::with_queue(sim, queue);
        engine.queue_mut().schedule(Picos::ZERO, SimEvent::CoreTick);
        if three_level {
            engine
                .queue_mut()
                .schedule(laser_period, SimEvent::LaserDecision);
        }
        // Each engine schedules (and later processes) fault events only
        // for the links it owns; per-link RNG streams make a shard
        // replica's skipped draws invisible to the owned ones.
        let (sim, queue) = engine.model_and_queue_mut();
        let owned = sim.owned();
        if let Some(plan) = sim.faults.as_mut() {
            for l in owned.links() {
                let link = LinkId(l as u32);
                for &kind in &onset_kinds {
                    let at = plan.next_begin(Picos::ZERO, l, kind);
                    queue.schedule(at, SimEvent::FaultBegin { link, kind });
                }
            }
        }
        engine
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The underlying network (for inspection).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the underlying network, e.g. to force link rates
    /// from external (non-policy) control loops.
    ///
    /// Note: rate changes made this way bypass the policy controllers'
    /// power accounting; use it for flow-control experiments, not for
    /// energy comparisons.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Resets all measurement state at `now`: latency statistics restart
    /// and every link's energy account reopens at its current power.
    pub fn begin_measurement(&mut self, now: Picos) {
        self.measure.begin(now);
        self.packets_injected_measured = 0;
        self.packets_dropped_at_measure = self.net.packets_dropped();
        self.flits_dropped_at_measure = self.net.flits_dropped();
        self.flits_corrupted_at_measure = self.net.flits_corrupted();
        self.faults_at_measure = self.faults.as_ref().map_or(0, FaultPlan::faults_injected);
        for (l, acct) in self.accounts.iter_mut().enumerate() {
            *acct = EnergyAccount::new(now, self.lut.power(&self.model, self.current_point[l]));
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.reset();
        }
    }

    /// Per-packet latency statistics (cycles) since measurement began.
    pub fn latency_summary(&self) -> &Summary {
        &self.measure.latency
    }

    /// Latency histogram (bucketed in 10-cycle bins).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.measure.latency_hist
    }

    /// Packets injected since measurement began.
    pub fn packets_injected_measured(&self) -> u64 {
        self.packets_injected_measured
    }

    /// Packets dropped at sinks (end-to-end corruption detection) since
    /// measurement began.
    pub fn packets_dropped_measured(&self) -> u64 {
        self.net.packets_dropped() - self.packets_dropped_at_measure
    }

    /// Flits belonging to dropped packets since measurement began.
    pub fn flits_dropped_measured(&self) -> u64 {
        self.net.flits_dropped() - self.flits_dropped_at_measure
    }

    /// Flits that reached sinks with the corruption flag set since
    /// measurement began.
    pub fn flits_corrupted_measured(&self) -> u64 {
        self.net.flits_corrupted() - self.flits_corrupted_at_measure
    }

    /// Fault windows (outages + dropouts) begun since measurement began.
    pub fn link_faults_measured(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultPlan::faults_injected) - self.faults_at_measure
    }

    /// Fault windows begun over the whole run, all links.
    pub fn faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, FaultPlan::faults_injected)
    }

    /// Total network energy since measurement began, in nanojoules.
    pub fn energy_nj(&self, now: Picos) -> f64 {
        self.accounts.iter().map(|a| a.energy_nj_at(now)).sum()
    }

    /// Average network power since measurement began.
    pub fn average_power(&self, now: Picos) -> MilliWatts {
        let dt = (now - self.measure.measure_from).as_ps() as f64;
        if dt == 0.0 {
            return MilliWatts::ZERO;
        }
        MilliWatts::from_mw(self.energy_nj(now) / dt * 1e6)
    }

    /// The non-power-aware network's constant power: every link at the
    /// maximum operating point.
    pub(crate) fn baseline_power(&self) -> MilliWatts {
        self.model.max_power() * self.net.link_count() as f64
    }

    /// Average power as a fraction of the non-power-aware baseline.
    pub fn normalized_power(&self, now: Picos) -> f64 {
        self.average_power(now) / self.baseline_power()
    }

    /// Total power-state transitions issued by all link controllers
    /// (ladder level changes in DVS mode; sleeps + wakes in on/off mode).
    pub fn transitions(&self) -> u64 {
        let dvs: u64 = self.controllers.iter().map(|c| c.transitions()).sum();
        let gate: u64 = self.onoff.iter().map(|c| c.sleeps + c.wakes).sum();
        dvs + gate
    }

    /// The recorded time series (empty unless sampling was enabled).
    pub fn series(&self) -> (&TimeSeries, &TimeSeries, &TimeSeries) {
        (
            &self.measure.latency_series,
            &self.measure.power_series,
            &self.measure.injection_series,
        )
    }

    /// The routers, nodes and links this engine steps, polices and
    /// fault-schedules: the whole fabric on the sequential engine, the
    /// shard's band on a replica.
    pub(crate) fn owned(&self) -> Region {
        match self.shard.as_deref() {
            Some(ctx) => ctx.spec.region.clone(),
            None => Region::whole(&self.net),
        }
    }

    fn on_core_tick(&mut self, now: Picos, queue: &mut EventQueue<SimEvent>) {
        // 1. Traffic generation and injection.
        self.packets.clear();
        self.source
            .packets_for_cycle(self.cycle_index, now, &mut self.packets);
        let injected = self.packets.len() as u64;
        if self.measure.note_injected(now, injected) {
            self.packets_injected_measured += injected;
        }
        for pkt in self.packets.drain(..) {
            self.net.inject(pkt);
        }

        // 2. One cycle of every owned source node and router. A shard
        // replica's context leaves `self` for the call, so the handler
        // can borrow both.
        let owned = self.owned();
        match self.shard.take() {
            None => self.tick_and_drain(&mut Local, owned, now, queue),
            Some(mut ctx) => {
                self.tick_and_drain(&mut *ctx, owned, now, queue);
                self.shard = Some(ctx);
            }
        }

        // 3. Power management: wake sleeping links the moment demand
        // appears (on/off mode), then run the window policies.
        self.cycle_index += 1;
        if !self.sleeping.is_empty() {
            self.wake_demanded_links(now);
        }
        if self.cycle_index.is_multiple_of(self.tw_cycles) {
            if !self.controllers.is_empty() {
                match self.shard.as_deref_mut() {
                    // DVS windows need cross-shard buffer occupancy; the
                    // runtime injects it at the barrier and then calls
                    // `run_deferred_policy` — still at this tick's time,
                    // still before the next CoreTick, like the sequential
                    // engine.
                    Some(ctx) => ctx.policy_pending = true,
                    None => self.run_policy_windows(now, queue),
                }
            } else if !self.onoff.is_empty()
                || self
                    .telemetry
                    .as_deref()
                    .is_some_and(|t| t.config.link_series)
            {
                self.run_gate_windows(now);
            }
        }

        // 4. Time-series sampling (sharded runs sample at the coordinator,
        // which owns the merged measurement state), then the next tick.
        match self.shard.as_deref() {
            None => {
                if let Some(every) = self.sample_every {
                    if self.cycle_index.is_multiple_of(every) {
                        let energy = self.energy_nj(now);
                        let baseline = self.baseline_power().as_mw();
                        self.measure.take_sample(now, every, energy, baseline);
                    }
                }
            }
            // Sharded: ticks up to the window stop self-schedule exactly
            // like the sequential engine (so the tick handler's calendar
            // inserts land *before* the next CoreTick at equal
            // timestamps); the runtime schedules the first tick of each
            // new window after the barrier (and after any deferred
            // policy), preserving the rule that the tick is the last
            // same-time event. `cycle_index` was incremented above, so it
            // names the *next* tick here.
            Some(ctx) if self.cycle_index > ctx.window_stop => return,
            Some(_) => {}
        }
        queue.schedule(now + self.cycle, SimEvent::CoreTick);
    }

    /// One cycle of the `owned` sources and routers. Each launch's
    /// corruption is drawn, and `route` sends each effect on its way.
    /// Drains by index (Effect is Copy) to keep the buffer's capacity
    /// across cycles.
    fn tick_and_drain<R: Route>(
        &mut self,
        route: &mut R,
        owned: Region,
        now: Picos,
        queue: &mut EventQueue<SimEvent>,
    ) {
        route.begin_tick();
        self.net
            .tick_range(now, &mut self.effects, owned.routers, owned.nodes);
        for i in 0..self.effects.len() {
            let (at, event) = match self.effects[i] {
                Effect::Flit {
                    link,
                    vc,
                    mut flit,
                    at,
                } => {
                    // Flits launched while a laser dropout starves the
                    // link's light risk bit errors at the current rate.
                    // The draw happens on the link owner's engine: the
                    // same per-link RNG stream, in the same per-link
                    // order, on either engine.
                    if let Some(plan) = self.faults.as_mut() {
                        if plan.dropout_active(link.index(), now) {
                            let p = plan.corruption_probability(self.net.link(link).rate());
                            if plan.draw_corruption(link.index(), p) {
                                flit.corrupted = true;
                            }
                        }
                    }
                    (at, SimEvent::FlitArrive { link, vc, flit })
                }
                Effect::Credit { link, vc, at } => (at, SimEvent::CreditArrive { link, vc }),
                Effect::Ejected { .. } => unreachable!("only a flit arrival ejects a packet"),
            };
            route.send(at, event, self.cycle_index, queue);
        }
        self.effects.clear();
    }

    /// A flit arrival, booked and its ejection delivered by `route`. On a
    /// shard replica, an arrival on a link another shard owns is counted
    /// for the merge instead of on the link, and an ejection goes to the
    /// coordinator's ordered replay instead of into this replica's
    /// (unused) recorder. Drains by index (Effect is Copy): this runs once
    /// per flit hop.
    #[inline]
    fn on_flit_arrive<R: Route>(
        &mut self,
        route: &mut R,
        now: Picos,
        link: LinkId,
        vc: VcId,
        flit: Flit,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let (owned, key) = route.arrival(link);
        self.net
            .flit_arrived(now, link, vc, flit, owned, &mut self.effects);
        for i in 0..self.effects.len() {
            match self.effects[i] {
                // A sink's credit returns on its ejection link, whose
                // router is on this engine.
                Effect::Credit { link, vc, at } => {
                    queue.schedule(at, SimEvent::CreditArrive { link, vc });
                }
                Effect::Ejected { created_at, at, .. } => {
                    route.deliver(&mut self.measure, self.cycle, created_at, at, key);
                }
                Effect::Flit { .. } => {
                    unreachable!("flit arrival cannot launch a flit")
                }
            }
        }
        self.effects.clear();
    }

    /// Takes link `id`'s window counters and returns its `Lu`: the
    /// fraction of the window the link was serving or wanted by traffic.
    /// The demand term keeps saturation visible through allocator and
    /// flow-control overheads (DESIGN.md note).
    fn take_window_lu(&mut self, id: LinkId) -> f64 {
        let tw_duration = self.cycle * self.tw_cycles;
        let link = self.net.link_mut(id);
        let busy = link.take_window_busy();
        let demand = link.take_window_demand();
        (busy.as_ps() as f64 / tw_duration.as_ps() as f64)
            .max(demand as f64 / self.tw_cycles as f64)
            .min(1.0)
    }

    /// Runs the DVS window policy on the owned links. Per-link decisions
    /// are independent, and the events different links schedule at equal
    /// times commute, so a shard's pass reproduces the sequential outcome
    /// exactly on the links it owns.
    fn run_policy_windows(&mut self, now: Picos, queue: &mut EventQueue<SimEvent>) {
        let buffer_cap =
            (self.config.noc.depth_per_vc() as u64 * self.config.noc.vcs as u64) as f64;
        for l in self.owned().links() {
            let id = LinkId(l as u32);
            let lu = self.take_window_lu(id);
            let bu = self
                .net
                .take_downstream_occupancy(id, self.tw_cycles)
                .map(|occ| (occ / buffer_cap).min(1.0))
                .unwrap_or(0.0);
            let current_rate = self.net.link(id).rate();
            self.lasers[l].note_rate(current_rate);
            let policy = &self.config.policy;
            let decision = self.controllers[l].on_window(policy, self.cycle, now, lu, bu);
            if self.telemetry.is_some() {
                // Row reflects the state the decision was made *from*:
                // recorded before any transition this window plans.
                let lu_avg = self.controllers[l].last_predicted();
                self.telemetry_push(now, l, lu, lu_avg, bu, false);
            }
            let Some(mut tr) = decision else {
                continue;
            };
            // Rate increases on three-level MQW systems may need to wait
            // for the external laser to raise the light level first.
            if tr.new_rate.as_gbps() > current_rate.as_gbps() {
                if let OpticalGate::WaitUntil(ready) =
                    self.lasers[l].request_increase(&self.config.policy, now, tr.new_rate)
                {
                    tr = tr.delayed_by(ready - now);
                }
            }
            // Interim power point (voltage-first on the way up,
            // frequency-first on the way down).
            let epoch = self.link_epoch[l];
            if tr.interim_at <= now {
                self.apply_power_point(now, id, tr.interim_point);
            } else {
                queue.schedule(
                    tr.interim_at,
                    SimEvent::PowerPoint {
                        link: id,
                        point: tr.interim_point,
                        epoch,
                    },
                );
            }
            // The frequency hop itself.
            if tr.rate_change_at <= now {
                self.net
                    .link_mut(id)
                    .begin_rate_change(now, tr.new_rate, tr.disable_for);
            } else {
                queue.schedule(
                    tr.rate_change_at,
                    SimEvent::RateChange {
                        link: id,
                        rate: tr.new_rate,
                        disable: tr.disable_for,
                        epoch,
                    },
                );
            }
            queue.schedule(
                tr.final_at,
                SimEvent::PowerPoint {
                    link: id,
                    point: tr.final_point,
                    epoch,
                },
            );
            queue.schedule(
                tr.complete_at,
                SimEvent::TransitionComplete { link: id, epoch },
            );
        }
    }

    /// The window pass without a DVS policy, on the owned links: on/off
    /// gating evaluates each link's sleep rule, and on a non-power-aware
    /// system, where no policy consumes the window counters, a
    /// telemetry-only pass reads them. Both read only per-link window
    /// counters, which accumulate on the owner's engine. There is no `Bu`
    /// input (the occupancy exchange is a DVS-barrier service) and no
    /// predictor, so the telemetry row records 0 for `Bu` and repeats the
    /// raw `Lu` as the smoothed one.
    fn run_gate_windows(&mut self, now: Picos) {
        let gate = match self.config.policy.mode {
            PolicyMode::OnOff(gate) if !self.onoff.is_empty() => Some(gate),
            _ => None,
        };
        for l in self.owned().links() {
            let id = LinkId(l as u32);
            let lu = self.take_window_lu(id);
            if self.telemetry.is_some() {
                self.telemetry_push(now, l, lu, lu, 0.0, false);
            }
            let Some(gate) = gate else {
                continue;
            };
            if let Some(GateAction::SleepNow) = self.onoff[l].on_window(&gate, now, lu) {
                self.net.link_mut(id).power_gate_off();
                let off = self.model.max_power() * gate.off_power_fraction;
                self.accounts[l].set_power(now, off);
                self.sleeping.push(id);
            }
        }
    }

    /// On/off mode: a sleeping link with pending demand starts waking; it
    /// burns full power from the wake order (lock circuitry active) and
    /// becomes usable after the wake penalty.
    fn wake_demanded_links(&mut self, now: Picos) {
        let PolicyMode::OnOff(gate) = self.config.policy.mode else {
            unreachable!("sleeping links without on/off gating");
        };
        let mut i = 0;
        while i < self.sleeping.len() {
            let id = self.sleeping[i];
            // An immutable read, though the upstream router may be
            // stalled with ticks unapplied: gating this link went through
            // `link_mut`, which ended that stall, and a router that
            // requests the link again noted demand in the real tick before
            // it stalled, so whether the count is zero is already settled.
            if self.net.link(id).window_demand() > 0 {
                if let Some(GateAction::WakeAt(ready)) =
                    self.onoff[id.index()].on_demand(&gate, self.cycle, now)
                {
                    self.net.link_mut(id).power_gate_wake(ready);
                    // A wake mid-outage must not re-enable the link
                    // before the fault clears.
                    if let Some(plan) = &self.faults {
                        let until = plan.outage_until(id.index());
                        if until > now {
                            self.net.link_mut(id).disable_until(until);
                        }
                    }
                    self.accounts[id.index()].set_power(now, self.model.max_power());
                }
                self.sleeping.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    fn apply_power_point(&mut self, now: Picos, link: LinkId, point: OperatingPoint) {
        self.current_point[link.index()] = point;
        self.accounts[link.index()].set_power(now, self.lut.power(&self.model, point));
    }

    /// A fault window opens: record it, disable the link for outages, and
    /// — in DVS mode, on the first overlapping fault — pin the link's
    /// controller to the safe bottom rate.
    fn on_fault_begin(
        &mut self,
        now: Picos,
        link: LinkId,
        kind: FaultKind,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let plan = self.faults.as_mut().expect("fault event without a plan");
        let (until, newly_faulted) = plan.begin(now, link.index(), kind);
        if kind == FaultKind::Outage {
            self.net.link_mut(link).disable_until(until);
        }
        queue.schedule(until, SimEvent::FaultEnd { link, kind });
        if newly_faulted && !self.controllers.is_empty() {
            self.pin_link_safe(now, link);
        }
    }

    /// A fault window closes: schedule the next onset of the same kind
    /// and, once no fault of either kind remains, release the controller
    /// to re-ramp through the ladder.
    fn on_fault_end(
        &mut self,
        now: Picos,
        link: LinkId,
        kind: FaultKind,
        queue: &mut EventQueue<SimEvent>,
    ) {
        let plan = self.faults.as_mut().expect("fault event without a plan");
        let (next, now_clear) = plan.end(now, link.index(), kind);
        queue.schedule(next, SimEvent::FaultBegin { link, kind });
        if now_clear && !self.controllers.is_empty() {
            self.controllers[link.index()].unpin();
        }
    }

    /// Pins a link to the ladder's safe bottom level: orphans any
    /// in-flight transition events via the epoch bump, freezes the
    /// controller, hops the rate down immediately (no extra disable — the
    /// outage window, if any, already covers relock), and charges the
    /// bottom operating point.
    fn pin_link_safe(&mut self, now: Picos, link: LinkId) {
        self.link_epoch[link.index()] += 1;
        let ladder = &self.config.policy.ladder;
        self.controllers[link.index()].pin_to_level(ladder, 0);
        let point = ladder.point_at(0);
        self.net
            .link_mut(link)
            .begin_rate_change(now, point.bit_rate(), Picos::ZERO);
        self.apply_power_point(now, link, point);
    }

    /// Records one per-link telemetry row at a window boundary (or the
    /// closing flush). No-op unless the link series is enabled and
    /// measurement has begun. Reads only values the policy path already
    /// computed — never perturbs simulation state.
    fn telemetry_push(
        &mut self,
        now: Picos,
        l: usize,
        lu: f64,
        lu_avg: f64,
        bu: f64,
        closing: bool,
    ) {
        let Some(t) = self.telemetry.as_deref() else {
            return;
        };
        if !t.config.link_series || !t.active {
            return;
        }
        let id = LinkId(l as u32);
        let energy = self.accounts[l].energy_nj_at(now);
        let rate_gbps = self.net.link(id).rate().as_gbps();
        let power_mw = self.accounts[l].current_power().as_mw();
        let components_mw: Vec<f64> = self
            .model
            .breakdown(self.current_point[l])
            .into_iter()
            .map(|(_, p)| p.as_mw())
            .collect();
        let cycle = self.cycle_index;
        let t = self.telemetry.as_deref_mut().expect("checked above");
        let energy_nj = energy - t.last_energy_nj[l];
        t.last_energy_nj[l] = energy;
        t.push_row(LinkWindowRow {
            cycle,
            t_ps: now.as_ps(),
            link: l as u32,
            closing,
            lu,
            lu_avg,
            bu,
            rate_gbps,
            power_mw,
            energy_nj,
            components_mw,
            decimated: false,
        });
    }

    /// Emits one final `closing` row per link at `end` so the energy
    /// column telescopes to the total measured energy.
    fn telemetry_flush(&mut self, end: Picos) {
        if self.telemetry.is_none() {
            return;
        }
        for l in 0..self.net.link_count() {
            self.telemetry_push(end, l, 0.0, 0.0, 0.0, true);
        }
    }

    /// Sums the end-of-run counter registry from state the simulator (and
    /// network) already keeps. Counters cover the whole run, warmup
    /// included — they are conservation totals, not measurement-window
    /// rates. All are shard-invariant except `events` (see its docs).
    fn collect_registry(&self, events: u64) -> MetricsRegistry {
        let mut m = MetricsRegistry {
            events,
            packets_delivered: self.net.packets_delivered(),
            packets_dropped: self.net.packets_dropped(),
            flits_injected: self.net.flits_injected(),
            flits_dropped: self.net.flits_dropped(),
            flits_corrupted: self.net.flits_corrupted(),
            faults_injected: self.faults_injected(),
            ..MetricsRegistry::default()
        };
        for r in self.net.routers() {
            m.alloc_won += r.flits_switched;
            m.alloc_lost += r.sa_denials();
        }
        for l in 0..self.net.link_count() {
            let link = self.net.link(LinkId(l as u32));
            m.flits_sent += link.flits_sent();
            m.rate_changes += link.rate_changes();
        }
        for c in &self.controllers {
            m.dvs_decisions += c.decisions;
            m.dvs_ups += c.ups;
            m.dvs_downs += c.downs;
        }
        for c in &self.onoff {
            m.onoff_sleeps += c.sleeps;
            m.onoff_wakes += c.wakes;
        }
        for laser in &self.lasers {
            m.laser_pincs += laser.pincs;
            m.laser_pdecs += laser.pdecs;
        }
        m
    }

    /// Finalizes telemetry into a [`TelemetryReport`]: flushes the closing
    /// rows, sorts the (possibly shard-concatenated) series into the
    /// sequential engine's deterministic `(time, link)` emission order,
    /// and collects the counter registry. Returns `None` when telemetry
    /// was disabled. `events` is the engine's processed-event count.
    pub fn take_telemetry_report(&mut self, end: Picos, events: u64) -> Option<TelemetryReport> {
        self.telemetry.as_deref()?;
        // The registry reads router denial counts: apply skipped ticks.
        self.net.settle_all();
        self.telemetry_flush(end);
        let mut t = *self.telemetry.take().expect("checked above");
        let counters = if t.config.counters {
            self.collect_registry(events)
        } else {
            MetricsRegistry::default()
        };
        let mut rows = t.take_rows();
        rows.sort_by_key(|a| (a.t_ps, a.link, a.closing));
        Some(TelemetryReport {
            schema: TRACE_SCHEMA.to_string(),
            tw_cycles: self.tw_cycles,
            links: self.net.link_count() as u32,
            components: self
                .model
                .components()
                .iter()
                .map(|c| c.id().to_string())
                .collect(),
            rows,
            counters,
            end_t_ps: end.as_ps(),
            energy_nj: self.energy_nj(end),
        })
    }

    /// Runs the DVS window deferred by [`PowerAwareSim::on_core_tick`] on
    /// a shard replica, once the runtime has injected cross-shard buffer
    /// occupancy. `now` is the tick the window closed at.
    /// No-op unless a window is waiting on the barrier exchange.
    pub(crate) fn run_deferred_policy(&mut self, now: Picos, queue: &mut EventQueue<SimEvent>) {
        let ctx = self.shard.as_deref_mut().expect("deferred policy on shard");
        if std::mem::take(&mut ctx.policy_pending) {
            self.run_policy_windows(now, queue);
        }
    }

    /// Adopts `donor`'s owned `region` — network state, per-link policy
    /// controllers, lasers, energy accounts, operating points, epochs, and
    /// fault state — and folds in its owned counters, reassembling the
    /// sequential engine's state from per-shard replicas.
    pub(crate) fn merge_shard(&mut self, donor: &mut PowerAwareSim, region: &Region) {
        self.net.adopt_region(
            &mut donor.net,
            region.routers.clone(),
            region.nodes.clone(),
            [region.ir_links.clone(), region.node_links.clone()],
        );
        for l in region.clone().links() {
            if !self.controllers.is_empty() {
                self.controllers[l] = donor.controllers[l].clone();
            }
            if !self.onoff.is_empty() {
                self.onoff[l] = donor.onoff[l].clone();
            }
            if !self.lasers.is_empty() {
                self.lasers[l] = donor.lasers[l].clone();
            }
            self.accounts[l] = donor.accounts[l].clone();
            self.current_point[l] = donor.current_point[l];
            self.link_epoch[l] = donor.link_epoch[l];
        }
        if let (Some(mine), Some(theirs)) = (self.faults.as_mut(), donor.faults.as_ref()) {
            mine.adopt_links(theirs, region.ir_links.clone());
            mine.adopt_links(theirs, region.node_links.clone());
            mine.add_faults_injected(theirs.faults_injected());
        }
        if let (Some(mine), Some(theirs)) =
            (self.telemetry.as_deref_mut(), donor.telemetry.as_deref())
        {
            // Rows are concatenated here and sorted into the sequential
            // (time, link) emission order by `take_telemetry_report`; the
            // energy baselines move with the links' energy accounts.
            mine.rows.extend(theirs.rows.iter().cloned());
            for l in region.clone().links() {
                mine.last_energy_nj[l] = theirs.last_energy_nj[l];
            }
        }
        self.sleeping.extend(donor.sleeping.iter().copied());
        self.packets_injected_measured += donor.packets_injected_measured;
        self.packets_dropped_at_measure += donor.packets_dropped_at_measure;
        self.flits_dropped_at_measure += donor.flits_dropped_at_measure;
        self.flits_corrupted_at_measure += donor.flits_corrupted_at_measure;
        self.faults_at_measure += donor.faults_at_measure;
    }

    /// Restores the state [`PowerAwareSim`]'s [`Serialize`] impl wrote
    /// into a freshly built sim of the *same* [`SystemConfig`], reading
    /// the checkpoint stream in place; both tick counters resume after the
    /// save cycle `cycle`. Refuses per-link vectors of another length,
    /// sleeping links and DVS levels this system lacks, a DVS or on/off
    /// utilization average over more windows than configured, and a fault
    /// plan, telemetry or retention configured otherwise, instead of
    /// silently corrupting state. On an error the sim is partly restored
    /// and must be discarded.
    pub(crate) fn restore<S: Source>(
        &mut self,
        src: &mut S,
        cycle: u64,
    ) -> Result<(), serde::Error> {
        assert!(
            self.shard.is_none(),
            "checkpoints restore onto the sequential engine, not shard replicas"
        );
        const TY: &str = "PowerAwareSim";
        let links = self.net.link_count();
        self.cycle_index = cycle + 1;
        src.map_of(25, TY)?;
        src.expect_key("net", TY)?;
        self.net.restore(src, cycle + 1)?;
        src.field_into("controllers", &mut self.controllers, TY)?;
        let levels = self.config.policy.ladder.level_count();
        // A window holding more samples than the average spans stays that
        // long: each push evicts only one.
        let windows = self.config.policy.timing.n_windows;
        for (l, c) in self.controllers.iter().enumerate() {
            if c.level() >= levels {
                return Err(serde::Error::custom(format!(
                    "l{l}'s DVS controller is at level {}, past the {levels}-level ladder",
                    c.level()
                )));
            }
            if c.window_samples() > windows {
                return Err(serde::Error::custom(format!(
                    "l{l}'s DVS controller averages {} windows, more than its {windows}",
                    c.window_samples()
                )));
            }
        }
        src.field_into("onoff", &mut self.onoff, TY)?;
        if let PolicyMode::OnOff(gate) = self.config.policy.mode {
            let windows = gate.n_windows;
            if let Some(l) = self.onoff.iter().position(|c| c.window_samples() > windows) {
                return Err(serde::Error::custom(format!(
                    "l{l}'s on/off controller averages {} windows, more than its {windows}",
                    self.onoff[l].window_samples()
                )));
            }
        }
        self.sleeping = src.field("sleeping", TY)?;
        if let Some(id) = self.sleeping.iter().find(|id| id.index() >= links) {
            return Err(serde::Error::custom(format!(
                "sleeping link {id} is not one of the {links} links"
            )));
        }
        src.field_into("lasers", &mut self.lasers, TY)?;
        src.field_into("accounts", &mut self.accounts, TY)?;
        src.field_into("current_point", &mut self.current_point, TY)?;
        src.expect_key("faults", TY)?;
        match (self.faults.as_mut(), src.peek_null()?) {
            (Some(plan), false) => plan.restore(src)?,
            (None, true) => drop(src.token()?),
            _ => {
                return Err(serde::Error::custom(
                    "checkpoint fault plan presence does not match this configuration",
                ))
            }
        }
        src.field_into("link_epoch", &mut self.link_epoch, TY)?;
        let m = &mut self.measure;
        m.measure_from = src.field("measure_from", TY)?;
        m.latency = src.field("latency", TY)?;
        m.latency_hist = src.field("latency_hist", TY)?;
        self.packets_injected_measured = src.field("packets_injected_measured", TY)?;
        self.packets_dropped_at_measure = src.field("packets_dropped_at_measure", TY)?;
        self.flits_dropped_at_measure = src.field("flits_dropped_at_measure", TY)?;
        self.flits_corrupted_at_measure = src.field("flits_corrupted_at_measure", TY)?;
        self.faults_at_measure = src.field("faults_at_measure", TY)?;
        let m = &mut self.measure;
        m.bucket_latency = src.field("bucket_latency", TY)?;
        m.bucket_injected = src.field("bucket_injected", TY)?;
        m.last_sample_time = src.field("last_sample_time", TY)?;
        m.last_sample_energy_nj = src.field("last_sample_energy_nj", TY)?;
        m.latency_series = src.field("latency_series", TY)?;
        m.power_series = src.field("power_series", TY)?;
        m.injection_series = src.field("injection_series", TY)?;
        src.expect_key("telemetry", TY)?;
        match (self.telemetry.as_deref_mut(), src.peek_null()?) {
            (Some(t), false) => t.restore(src),
            (None, true) => src.token().map(drop),
            (mine, _) => Err(serde::Error::custom(format!(
                "checkpoint telemetry presence does not match this configuration \
                 (collector enabled here: {})",
                mine.is_some()
            ))),
        }
    }
}

/// The sim's complete mutable state: the `sim` section of a checkpoint.
///
/// Serializes exactly the state that evolves during a run; everything
/// derivable from [`SystemConfig`] (the power model, the LUT, cycle and
/// window constants, routing tables, policy parameters) is rebuilt on
/// restore, and the tick counters come from the checkpoint's cycle. The traffic
/// source is *not* included — it lives beside the sim in the checkpoint
/// because it is a trait object the sim does not own the concrete type
/// of.
///
/// Call [`Network::settle_all`] on [`PowerAwareSim::network_mut`] first,
/// as [`crate::Experiment::save_at`] does: a stalled router's counters
/// are only complete once its skipped ticks are applied.
///
/// # Panics
///
/// Panics on a shard replica: checkpoints capture the sequential engine
/// only (see `CHECKPOINTS.md`).
impl Serialize for PowerAwareSim {
    fn serialize<S: Sink>(&self, out: &mut S) {
        assert!(
            self.shard.is_none(),
            "checkpoints capture the sequential engine, not shard replicas"
        );
        out.token(Token::Map(25));
        out.field("net", &self.net);
        out.field("controllers", &self.controllers);
        out.field("onoff", &self.onoff);
        out.field("sleeping", &self.sleeping);
        out.field("lasers", &self.lasers);
        out.field("accounts", &self.accounts);
        out.field("current_point", &self.current_point);
        out.field("faults", &self.faults);
        out.field("link_epoch", &self.link_epoch);
        let m = &self.measure;
        out.field("measure_from", &m.measure_from);
        out.field("latency", &m.latency);
        out.field("latency_hist", &m.latency_hist);
        out.field("packets_injected_measured", &self.packets_injected_measured);
        out.field(
            "packets_dropped_at_measure",
            &self.packets_dropped_at_measure,
        );
        out.field("flits_dropped_at_measure", &self.flits_dropped_at_measure);
        out.field(
            "flits_corrupted_at_measure",
            &self.flits_corrupted_at_measure,
        );
        out.field("faults_at_measure", &self.faults_at_measure);
        out.field("bucket_latency", &m.bucket_latency);
        out.field("bucket_injected", &m.bucket_injected);
        out.field("last_sample_time", &m.last_sample_time);
        out.field("last_sample_energy_nj", &m.last_sample_energy_nj);
        out.field("latency_series", &m.latency_series);
        out.field("power_series", &m.power_series);
        out.field("injection_series", &m.injection_series);
        out.field("telemetry", &self.telemetry);
    }
}

impl SimModel for PowerAwareSim {
    type Event = SimEvent;

    fn handle(&mut self, now: Picos, event: SimEvent, queue: &mut EventQueue<SimEvent>) {
        match event {
            SimEvent::CoreTick => self.on_core_tick(now, queue),
            SimEvent::FlitArrive { link, vc, flit } => match self.shard.take() {
                None => self.on_flit_arrive(&mut Local, now, link, vc, flit, queue),
                Some(mut ctx) => {
                    self.on_flit_arrive(&mut *ctx, now, link, vc, flit, queue);
                    self.shard = Some(ctx);
                }
            },
            SimEvent::CreditArrive { link, vc } => {
                self.net.credit_arrived(link, vc);
            }
            SimEvent::RateChange {
                link,
                rate,
                disable,
                epoch,
            } => {
                if epoch == self.link_epoch[link.index()] {
                    self.net
                        .link_mut(link)
                        .begin_rate_change(now, rate, disable);
                }
            }
            SimEvent::PowerPoint { link, point, epoch } => {
                if epoch == self.link_epoch[link.index()] {
                    self.apply_power_point(now, link, point);
                }
            }
            SimEvent::TransitionComplete { link, epoch } => {
                if epoch == self.link_epoch[link.index()] {
                    self.controllers[link.index()].transition_complete();
                }
            }
            SimEvent::FaultBegin { link, kind } => {
                self.on_fault_begin(now, link, kind, queue);
            }
            SimEvent::FaultEnd { link, kind } => {
                self.on_fault_end(now, link, kind, queue);
            }
            SimEvent::LaserDecision => {
                // On/off systems have no lasers to decide for.
                if !self.lasers.is_empty() {
                    for l in self.owned().links() {
                        self.lasers[l].on_decision_period(&self.config.policy, now);
                    }
                }
                let period = self.config.policy.timing.laser_decision_period;
                queue.schedule(now + period, SimEvent::LaserDecision);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_desim::Rng;
    use lumen_noc::NocConfig;
    use lumen_traffic::{PacketSize, Pattern, RateProfile, SyntheticSource};

    fn small_config(power_aware: bool) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.noc = NocConfig::small_for_tests();
        c.power_aware = power_aware;
        // Shorter windows so the policy acts within test horizons.
        c.policy.timing.tw_cycles = 200;
        c
    }

    fn uniform_source(config: &SystemConfig, rate: f64) -> Box<dyn TrafficSource + Send> {
        Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(rate),
            PacketSize::Fixed(4),
            Rng::seed_from(config.seed),
        ))
    }

    fn run_cycles(engine: &mut Engine<PowerAwareSim>, cycles: u64) -> Picos {
        let cycle = engine.model().cycle;
        let horizon = cycle * cycles;
        engine.run_until(horizon);
        horizon
    }

    #[test]
    fn non_power_aware_stays_at_baseline() {
        let config = small_config(false);
        let source = uniform_source(&config, 0.1);
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        let now = run_cycles(&mut engine, 5_000);
        let sim = engine.model();
        assert!(sim.latency_summary().count() > 0, "packets must deliver");
        let norm = sim.normalized_power(now);
        assert!((norm - 1.0).abs() < 1e-9, "baseline normalized {norm}");
        assert_eq!(sim.transitions(), 0);
    }

    #[test]
    fn power_aware_saves_power_at_light_load() {
        let config = small_config(true);
        let source = uniform_source(&config, 0.05);
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        run_cycles(&mut engine, 2_000);
        let now = engine.now();
        engine.model_mut().begin_measurement(now);
        let end = run_cycles(&mut engine, 12_000);
        let sim = engine.model();
        assert!(sim.latency_summary().count() > 0);
        let norm = sim.normalized_power(end);
        // Lightly loaded links descend the ladder: well below baseline,
        // bounded below by the 5 Gb/s floor (≈0.21 for VCSEL, ≈0.23 MQW).
        assert!(norm < 0.6, "normalized power {norm}");
        assert!(norm > 0.15, "normalized power {norm} below physical floor");
        assert!(sim.transitions() > 0);
    }

    #[test]
    fn wheel_and_reference_calendars_agree_bit_for_bit() {
        // The full system, faults and all, must produce identical output
        // whichever tier of the calendar holds its events. The reference
        // run moves the cold-start events onto 1 ps buckets: the 256-slot
        // wheel then spans a sixth of a cycle, so nearly every event waits
        // in the overflow heap, a plain `(time, seq)` binary heap.
        let run = |reference: bool| {
            use crate::fault::FaultConfig;
            let mut config = small_config(true);
            config.faults = FaultConfig {
                outage_mtbf_cycles: 4_000,
                outage_mean_duration_cycles: 300,
                dropout_mtbf_cycles: 5_000,
                dropout_mean_duration_cycles: 500,
                ..FaultConfig::disabled()
            };
            let source = uniform_source(&config, 0.15);
            let mut engine = PowerAwareSim::build_engine(config, source, Some(500));
            if reference {
                let pending = engine.drain_pending();
                let mut queue = EventQueue::with_bucket_width(Picos::from_ps(1));
                for (at, ev) in pending {
                    queue.schedule(at, ev);
                }
                engine = Engine::with_queue(engine.into_model(), queue);
            }
            let end = run_cycles(&mut engine, 12_000);
            let sim = engine.model();
            assert!(sim.faults_injected() > 0 && sim.transitions() > 0);
            (
                engine.processed(),
                sim.latency_summary().count(),
                sim.latency_summary().mean().to_bits(),
                sim.latency_summary().max().map(f64::to_bits),
                sim.energy_nj(end).to_bits(),
                sim.transitions(),
                sim.faults_injected(),
                sim.network().flits_corrupted(),
                sim.network().packets_delivered(),
                sim.series().1.clone(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let config = small_config(true);
            let source = uniform_source(&config, 0.1);
            let mut engine = PowerAwareSim::build_engine(config, source, None);
            let end = run_cycles(&mut engine, 8_000);
            let sim = engine.model();
            (
                sim.latency_summary().count(),
                sim.latency_summary().mean(),
                sim.energy_nj(end),
                sim.transitions(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn packets_keep_flowing_through_transitions() {
        let config = small_config(true);
        let source = uniform_source(&config, 0.3);
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        run_cycles(&mut engine, 20_000);
        let sim = engine.model();
        // Injection and delivery balance within the in-flight window.
        let delivered = sim.network().packets_delivered();
        assert!(delivered > 100, "delivered {delivered}");
        assert!(sim.transitions() > 0, "policy must have acted");
    }

    #[test]
    fn sampling_produces_series() {
        let config = small_config(true);
        let source = uniform_source(&config, 0.1);
        let mut engine = PowerAwareSim::build_engine(config, source, Some(500));
        run_cycles(&mut engine, 4_000);
        let (lat, pow, inj) = engine.model().series();
        assert!(pow.len() >= 7, "power series {}", pow.len());
        assert!(inj.len() >= 7);
        assert!(!lat.is_empty());
    }

    #[test]
    fn onoff_mode_gates_idle_links() {
        use lumen_policy::OnOffConfig;
        let mut config = small_config(true);
        config.policy = config.policy.with_onoff(OnOffConfig {
            off_threshold: 0.05,
            wake_penalty_cycles: 500,
            off_power_fraction: 0.0,
            n_windows: 2,
        });
        // A burst, then a long idle stretch, then another burst: links must
        // gate off during the idle period and wake for the second burst.
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            lumen_traffic::RateProfile::Phases(vec![
                (1_000, 0.3),
                (8_000, 0.0),
                (1_000, 0.3),
                (100_000, 0.0),
            ]),
            PacketSize::Fixed(4),
            Rng::seed_from(5),
        ));
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        // Generous horizon: on/off wake penalties stretch the drain far
        // beyond what the DVS discipline would need (the latency cost the
        // paper's ref. [26] documents).
        let end = run_cycles(&mut engine, 30_000);
        let sim = engine.model();
        // Both bursts delivered despite gating.
        assert_eq!(
            sim.network().packets_delivered(),
            sim.packets_injected_measured()
        );
        assert!(sim.network().is_quiescent());
        // Links slept and woke.
        assert!(sim.transitions() > 0, "no gate events");
        // Power well below baseline thanks to the idle stretch.
        let norm = sim.normalized_power(end);
        assert!(norm < 0.7, "normalized power {norm}");
    }

    #[test]
    fn onoff_saves_more_than_dvs_when_fully_idle() {
        use lumen_policy::OnOffConfig;
        let run = |onoff: bool| {
            let mut config = small_config(true);
            if onoff {
                config.policy = config.policy.with_onoff(OnOffConfig::reference_default());
                config.policy.timing.tw_cycles = 200;
            }
            // One tiny burst, then silence: the ideal case for gating.
            let source = Box::new(SyntheticSource::new(
                &config.noc,
                Pattern::Uniform,
                lumen_traffic::RateProfile::Phases(vec![(200, 0.2), (1_000_000, 0.0)]),
                PacketSize::Fixed(3),
                Rng::seed_from(9),
            ));
            let mut engine = PowerAwareSim::build_engine(config, source, None);
            let end = run_cycles(&mut engine, 20_000);
            engine.model().normalized_power(end)
        };
        let gated = run(true);
        let dvs = run(false);
        assert!(
            gated < dvs,
            "on/off ({gated}) must beat DVS ({dvs}) on a dead network"
        );
        // DVS is floored at the bottom of the ladder; gating goes lower.
        assert!(gated < 0.15, "gated {gated}");
    }

    #[test]
    fn outage_faults_disable_links_then_traffic_recovers() {
        use crate::fault::FaultConfig;
        let mut config = small_config(true);
        config.faults = FaultConfig {
            outage_mtbf_cycles: 3_000,
            outage_mean_duration_cycles: 400,
            ..FaultConfig::disabled()
        };
        let source = uniform_source(&config, 0.1);
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        run_cycles(&mut engine, 20_000);
        let sim = engine.model();
        assert!(sim.faults_injected() > 0, "outages must fire");
        // Outages never corrupt; they only stall. Everything injected
        // still flows once links re-enable, and conservation holds.
        assert_eq!(sim.network().packets_dropped(), 0);
        assert!(sim.network().packets_delivered() > 100);
        assert!(sim.transitions() > 0, "pin/re-ramp must issue transitions");
        lumen_noc::audit(sim.network()).assert_ok();
    }

    #[test]
    fn dropout_pinning_rescues_delivery_ratio() {
        use crate::fault::FaultConfig;
        // Heavy laser dropouts on an MQW system: at the full 10 Gb/s the
        // starved light corrupts most flits; a link pinned to the 5 Gb/s
        // safe rate keeps its eye open. The power-aware system should
        // therefore drop far fewer packets than the non-power-aware one.
        let run = |power_aware: bool| {
            let mut config = small_config(power_aware);
            config.faults = FaultConfig {
                dropout_mtbf_cycles: 2_000,
                dropout_mean_duration_cycles: 1_000,
                ..FaultConfig::disabled()
            };
            let source = uniform_source(&config, 0.1);
            let mut engine = PowerAwareSim::build_engine(config, source, None);
            run_cycles(&mut engine, 20_000);
            let sim = engine.model();
            lumen_noc::audit(sim.network()).assert_ok();
            assert!(sim.faults_injected() > 0, "dropouts must fire");
            let delivered = sim.network().packets_delivered();
            let dropped = sim.network().packets_dropped();
            (delivered, dropped)
        };
        let (base_del, base_drop) = run(false);
        let (pa_del, pa_drop) = run(true);
        assert!(base_drop > 0, "full-rate dropouts must corrupt packets");
        let base_ratio = base_del as f64 / (base_del + base_drop) as f64;
        let pa_ratio = pa_del as f64 / (pa_del + pa_drop) as f64;
        assert!(
            pa_ratio > base_ratio,
            "pinned safe rate must improve delivery: PA {pa_ratio:.4} vs base {base_ratio:.4}"
        );
        assert!(pa_ratio > 0.98, "PA delivery ratio {pa_ratio:.4}");
    }

    #[test]
    fn fault_schedules_are_deterministic() {
        use crate::fault::FaultConfig;
        let run = || {
            let mut config = small_config(true);
            config.faults = FaultConfig {
                outage_mtbf_cycles: 4_000,
                outage_mean_duration_cycles: 300,
                dropout_mtbf_cycles: 5_000,
                dropout_mean_duration_cycles: 500,
                ..FaultConfig::disabled()
            };
            let source = uniform_source(&config, 0.1);
            let mut engine = PowerAwareSim::build_engine(config, source, None);
            let end = run_cycles(&mut engine, 10_000);
            let sim = engine.model();
            (
                sim.faults_injected(),
                sim.network().flits_corrupted(),
                sim.network().packets_dropped(),
                sim.latency_summary().count(),
                sim.energy_nj(end),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn vcsel_links_have_no_laser_dropouts() {
        use crate::fault::FaultConfig;
        let mut config =
            small_config(true).with_transmitter(lumen_opto::link::TransmitterKind::Vcsel);
        config.faults = FaultConfig {
            dropout_mtbf_cycles: 1_000,
            dropout_mean_duration_cycles: 500,
            ..FaultConfig::disabled()
        };
        let source = uniform_source(&config, 0.1);
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        run_cycles(&mut engine, 8_000);
        let sim = engine.model();
        // No shared external laser, so the dropout class never fires.
        assert_eq!(sim.faults_injected(), 0);
        assert_eq!(sim.network().flits_corrupted(), 0);
    }

    #[test]
    fn vcsel_uses_less_power_than_mqw_at_low_rate() {
        let run = |tx| {
            let mut config = small_config(true).with_transmitter(tx);
            config.seed = 3;
            let source = uniform_source(&config, 0.02);
            let mut engine = PowerAwareSim::build_engine(config, source, None);
            run_cycles(&mut engine, 2_000);
            let now = engine.now();
            engine.model_mut().begin_measurement(now);
            let end = run_cycles(&mut engine, 10_000);
            engine.model().normalized_power(end)
        };
        let vcsel = run(lumen_opto::link::TransmitterKind::Vcsel);
        let mqw = run(lumen_opto::link::TransmitterKind::MqwModulator);
        assert!(
            vcsel < mqw,
            "VCSEL ({vcsel}) should beat MQW ({mqw}) at low rates"
        );
    }

    #[test]
    fn power_lut_matches_analytical_at_every_ladder_point() {
        for tx in [
            lumen_opto::link::TransmitterKind::MqwModulator,
            lumen_opto::link::TransmitterKind::Vcsel,
        ] {
            let config = SystemConfig::paper_default().with_transmitter(tx);
            let model = config.link_model();
            let ladder = &config.policy.ladder;
            let lut = PowerLut::build(&model, ladder);
            // Every point a transition can visit is a ladder cross-product
            // (voltage-first up, frequency-first down), and the LUT must
            // agree with Eqs. 1–9 bitwise at each of them.
            for vdd_level in 0..ladder.level_count() {
                for rate_level in 0..ladder.level_count() {
                    let p =
                        OperatingPoint::new(ladder.rate_at(rate_level), ladder.vdd_at(vdd_level));
                    assert!(
                        lut.power(&model, p) == model.power(p),
                        "LUT diverged from analytical model at {p:?} ({tx:?})"
                    );
                }
            }
            // Off-ladder points fall back to the analytical path.
            let off = OperatingPoint::new(Gbps::from_gbps(7.37), ladder.vdd_at(0));
            assert!(lut.power(&model, off) == model.power(off));
        }
    }
}

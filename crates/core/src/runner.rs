//! Experiment orchestration: warmup, measurement, and result collection.

use crate::checkpoint::{CheckpointError, Head, Reader, Snapshot};
use crate::config::SystemConfig;
use crate::results::RunResult;
use crate::sim::{PowerAwareSim, SimEvent};
use crate::telemetry::TelemetryConfig;
use lumen_desim::{Engine, Picos, Rng};
use lumen_traffic::{PacketSize, Pattern, RateProfile, SplashApp, SyntheticSource, TrafficSource};
use serde::{Deserialize, Value};
use std::path::{Path, PathBuf};

/// The injection rate (packets/cycle) of the near-idle run that anchors
/// the paper's saturation-throughput definition (§4.1).
pub(crate) const ZERO_LOAD_RATE: f64 = 0.01;

/// A configured experiment: one system, a warmup phase whose statistics
/// are discarded, and a measurement phase.
///
/// A run can be split anywhere with [`Experiment::save_at`] /
/// [`Experiment::resume`]; the two halves replay bit-identically to the
/// unbroken run:
///
/// ```
/// use lumen_core::prelude::*;
///
/// let mut config = SystemConfig::paper_default();
/// config.noc = NocConfig::small_for_tests();
/// let exp = Experiment::new(config).warmup_cycles(500).measure_cycles(2_000);
/// let size = PacketSize::Fixed(5);
///
/// let path = std::env::temp_dir().join(format!("lumen-doc-{}.ckpt", std::process::id()));
/// let unbroken = exp.clone().run_uniform(0.10, size);
/// exp.clone().save_at(1_200, &path).run_uniform(0.10, size);
/// let resumed = exp.resume(&path).run_uniform(0.10, size);
/// std::fs::remove_file(&path).ok();
///
/// assert!(resumed.resumed);
/// assert_eq!(unbroken.packets_delivered, resumed.packets_delivered);
/// assert_eq!(unbroken.avg_power_mw.to_bits(), resumed.avg_power_mw.to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    config: SystemConfig,
    warmup_cycles: u64,
    measure_cycles: u64,
    sample_every: Option<u64>,
    audit: bool,
    shards: usize,
    lookahead_cap: Option<u64>,
    telemetry: TelemetryConfig,
    save: Option<(u64, PathBuf)>,
    resume_from: Option<PathBuf>,
}

impl Experiment {
    /// Creates an experiment with defaults suitable for the paper's
    /// steady-state measurements (20 k warmup, 100 k measured cycles).
    /// The shard count starts at the process default (see
    /// [`crate::shard::set_default_shards`]); results are bit-identical
    /// at every shard count.
    pub fn new(config: SystemConfig) -> Self {
        Experiment {
            config,
            warmup_cycles: 20_000,
            measure_cycles: 100_000,
            sample_every: None,
            audit: false,
            shards: crate::shard::default_shards(),
            lookahead_cap: None,
            telemetry: TelemetryConfig::default(),
            save: None,
            resume_from: None,
        }
    }

    /// Saves a [`crate::Checkpoint`] to `path` when the run reaches `cycle`
    /// (counted from cycle 0, warmup included), then continues to the
    /// end. "At cycle `c`" means after core tick `c` and every event at
    /// time ≤ `c` cycles — so a later [`Experiment::resume`] continues
    /// bit-identically to the unbroken run. Saving at the final cycle is
    /// allowed (an end-of-run snapshot, used for warm-started search).
    /// Checkpointed runs execute on the sequential engine regardless of
    /// the configured shard count; shard count is a pure performance
    /// knob, so results are unchanged (see `CHECKPOINTS.md`).
    pub fn save_at(mut self, cycle: u64, path: impl Into<PathBuf>) -> Self {
        self.save = Some((cycle, path.into()));
        self
    }

    /// Resumes a run from a checkpoint file written by
    /// [`Experiment::save_at`], instead of starting from cycle 0. The
    /// checkpoint must come from an experiment with the same
    /// configuration, warmup, and sampling; the measurement horizon may
    /// differ (a warm-started run may measure longer than the run that
    /// saved). The resumed run's [`RunResult::resumed`] flag is set.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Sets the number of parallel shards the run is split into (1 =
    /// sequential engine). The count is clamped by [`effective_shards`]:
    /// to the topology's cut granularity (one mesh row or Clos leaf row
    /// per shard), capped at 16. The run uses the requested partition even
    /// when the host has fewer cores than shards, which is what
    /// differential tests want. The one host clamp is the harness CLI's:
    /// it clamps `--shards` to the host's cores.
    ///
    /// [`effective_shards`]: crate::effective_shards
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Caps the sharded engine's barrier-window length in cycles
    /// (clamped to at least 1; `Some(1)` reproduces the one-cycle-window
    /// protocol). Windows are normally sized automatically from the
    /// topology's cross-cut latency; results are bit-identical at every
    /// cap, so this only matters for perf experiments and differential
    /// tests.
    pub fn lookahead_cap(mut self, cap: u64) -> Self {
        self.lookahead_cap = Some(cap.max(1));
        self
    }

    /// Sets the warmup length.
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Sets the measurement length.
    pub fn measure_cycles(mut self, cycles: u64) -> Self {
        self.measure_cycles = cycles;
        self
    }

    /// Enables time-series sampling every `cycles` cycles (for the
    /// over-time figures).
    pub fn sample_every(mut self, cycles: u64) -> Self {
        self.sample_every = Some(cycles);
        self
    }

    /// Runs the flit/credit conservation auditor over the final network
    /// state after every run, panicking on any violation. Debug builds
    /// (all `cargo test` runs) audit unconditionally; this forces the
    /// check in release harnesses too.
    pub fn audit_conservation(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Enables telemetry recording per `config` (see
    /// [`crate::telemetry`]). The run's [`RunResult::telemetry`] then
    /// carries the counter registry and per-link window series; recording
    /// is purely observational, so every other metric is bit-identical to
    /// a telemetry-off run.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// Replaces the master seed (used by the parallel executor to give
    /// each batch point its own derived stream).
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// True when this run must execute on the sequential engine:
    /// checkpoint capture/restore and bounded telemetry retention both
    /// snapshot engine-local state that the sharded backend distributes
    /// across replicas. Shard count is a pinned pure-performance knob
    /// (results are bit-identical at every count), so forcing the
    /// sequential engine changes nothing observable.
    fn needs_sequential(&self) -> bool {
        self.save.is_some() || self.resume_from.is_some() || self.telemetry.retain_windows.is_some()
    }

    /// Runs the experiment with an arbitrary traffic source, on the
    /// configured shard count (sequentially for 1 shard, or on the
    /// conservative-parallel backend otherwise — same results either
    /// way, bit for bit). Checkpointing runs ([`Experiment::save_at`] /
    /// [`Experiment::resume`]) and runs with bounded telemetry retention
    /// execute on the sequential engine.
    pub fn run(&self, source: Box<dyn TrafficSource + Send>) -> RunResult {
        assert!(
            self.resume_from.is_none() || self.save.is_none(),
            "resume + save_at in one run is not supported; resume, then save from that run"
        );
        self.config.validate(); // before the topology gives the shard count

        let (sim, end, events) = if !self.needs_sequential()
            && crate::shard::effective_shards(&self.config.noc, self.shards) > 1
        {
            let outcome = crate::shard::run_sharded_with(
                self.config.clone(),
                source,
                self.sample_every,
                self.telemetry,
                self.warmup_cycles,
                self.measure_cycles,
                self.shards,
                self.lookahead_cap,
            );
            (outcome.sim, outcome.end, outcome.events)
        } else {
            self.run_sequential(source)
        };
        self.collect(sim, end, events, self.resume_from.is_some())
    }

    /// The sequential engine's run: build the engine (restored from the
    /// checkpoint when resuming), run to the warmup boundary and begin
    /// measurement, save on the way if asked (after the boundary when both
    /// fall on one cycle), and run to the end. Returns the final system,
    /// the end time and the events processed since cycle 0.
    pub(crate) fn run_sequential(
        &self,
        source: Box<dyn TrafficSource + Send>,
    ) -> (PowerAwareSim, Picos, u64) {
        let total = self.warmup_cycles + self.measure_cycles;
        if let Some((save_cycle, _)) = self.save {
            assert!(
                save_cycle <= total,
                "checkpoint cycle {save_cycle} is beyond the run's {total}-cycle horizon"
            );
            assert!(
                source.checkpoint_state().is_some(),
                "this traffic source is not checkpointable"
            );
        }
        let mut engine = PowerAwareSim::build_engine_telemetry(
            self.config.clone(),
            source,
            self.sample_every,
            self.telemetry,
        );
        let (mut measuring, events) = match &self.resume_from {
            Some(path) => self.restore(path, &mut engine),
            None => (false, 0),
        };
        let cycle = engine.model().cycle;
        let begin = |engine: &mut Engine<PowerAwareSim>| {
            engine.run_until(cycle * self.warmup_cycles);
            let now = engine.now();
            engine.model_mut().begin_measurement(now);
        };
        if let Some((save_cycle, path)) = &self.save {
            if !measuring && *save_cycle >= self.warmup_cycles {
                begin(&mut engine);
                measuring = true;
            }
            engine.run_until(cycle * *save_cycle);
            // Stalled routers apply their skipped ticks, so the capture
            // holds what every router would have had ticking every cycle.
            engine.model_mut().network_mut().settle_all();
            // Capture non-destructively: drain the calendar, snapshot it,
            // and re-schedule in drain order — ascending insertion
            // sequence keeps same-time events in their original order.
            let pending = engine.drain_pending();
            for &(at, ev) in &pending {
                engine.queue_mut().schedule(at, ev);
            }
            let source = engine
                .model()
                .source
                .checkpoint_state()
                .expect("checked checkpointable above");
            Snapshot {
                head: Head {
                    config: self.config.clone(),
                    warmup_cycles: self.warmup_cycles,
                    measure_cycles: self.measure_cycles,
                    sample_every: self.sample_every,
                    cycle: *save_cycle,
                    events: engine.processed(),
                },
                pending: &pending,
                sim: engine.model(),
                source: &source,
            }
            .write_to(path)
            .unwrap_or_else(|e| panic!("cannot write checkpoint to {}: {e}", path.display()));
        }
        if !measuring {
            begin(&mut engine);
        }
        let end = cycle * total;
        engine.run_until(end);
        let events = events + engine.processed();
        (engine.into_model(), end, events)
    }

    /// The resume path: check the checkpoint's header against this
    /// experiment, stream the saved state into the freshly built `engine`
    /// in file order, and replay the saved calendar. Returns whether
    /// measurement had begun at the save, and the events processed before
    /// it.
    fn restore(&self, path: &Path, engine: &mut Engine<PowerAwareSim>) -> (bool, u64) {
        let fail =
            |e: CheckpointError| -> ! { panic!("cannot resume from {}: {e}", path.display()) };
        let mut reader = Reader::open(path).unwrap_or_else(|e| fail(e));
        let head = reader.head().unwrap_or_else(|e| fail(e));
        assert!(
            head.config == self.config,
            "checkpoint was saved from a different system configuration"
        );
        assert_eq!(
            head.warmup_cycles, self.warmup_cycles,
            "checkpoint warmup differs from this experiment's"
        );
        assert_eq!(
            head.sample_every, self.sample_every,
            "checkpoint sampling period differs from this experiment's"
        );
        let total = self.warmup_cycles + self.measure_cycles;
        assert!(
            head.cycle <= total,
            "checkpoint cycle {} is beyond this run's {total}-cycle horizon",
            head.cycle
        );
        // The fresh engine scheduled a cold start (tick 0, laser epoch,
        // fault onsets); the checkpoint's calendar replaces all of it.
        let _ = engine.drain_pending();
        let pending: Vec<(Picos, SimEvent)> = reader
            .section("pending", Vec::deserialize)
            .unwrap_or_else(|e| fail(e));
        reader
            .section("sim", |src| engine.model_mut().restore(src, head.cycle))
            .unwrap_or_else(|e| fail(e));
        let source: Value = reader
            .section("source", Value::deserialize)
            .unwrap_or_else(|e| fail(e));
        reader.finish().unwrap_or_else(|e| fail(e));
        engine
            .model_mut()
            .source
            .restore_state(&source)
            .unwrap_or_else(|e| panic!("checkpoint does not fit this traffic source: {e}"));
        for (at, ev) in pending {
            engine.queue_mut().schedule(at, ev);
        }
        (head.cycle >= self.warmup_cycles, head.events)
    }

    /// Audits, finalizes telemetry, and assembles the [`RunResult`] —
    /// shared by the sharded and sequential paths.
    fn collect(&self, mut sim: PowerAwareSim, end: Picos, events: u64, resumed: bool) -> RunResult {
        // Stalled routers apply their skipped ticks before anything below
        // reads the network.
        sim.network_mut().settle_all();
        // Telemetry with shards > 1 forces the audit even in release: the
        // exported counters must agree with the auditor's flit/credit
        // balance across every shard cut.
        let audit_report =
            (self.audit || cfg!(debug_assertions) || (self.telemetry.enabled() && self.shards > 1))
                .then(|| lumen_noc::audit(sim.network()));
        if let Some(report) = audit_report.as_ref() {
            report.assert_ok();
        }
        let telemetry = sim.take_telemetry_report(end, events);
        if let (Some(t), Some(report)) = (telemetry.as_ref(), audit_report.as_ref()) {
            if self.telemetry.counters {
                assert_eq!(
                    t.counters.flits_injected, report.flits_injected,
                    "telemetry flit-injection counter disagrees with the auditor"
                );
                assert_eq!(
                    t.counters.flits_dropped, report.flits_dropped,
                    "telemetry flit-drop counter disagrees with the auditor"
                );
            }
        }
        let sim = &sim;
        let summary = sim.latency_summary().clone();
        let hist = sim.latency_histogram();
        let (lat_s, pow_s, inj_s) = sim.series();
        // The p99 stays finite even when the percentile lands in the
        // histogram's overflow bucket: report the overflow edge (a lower
        // bound) and flag the saturation instead of emitting INFINITY,
        // which would poison optimizer objectives and is not valid JSON.
        let (p99, p99_saturated) = if summary.is_empty() {
            (0.0, false)
        } else {
            hist.percentile_clamped(99.0)
        };
        RunResult {
            cycles: self.measure_cycles,
            packets_injected: sim.packets_injected_measured(),
            packets_delivered: summary.count(),
            avg_latency_cycles: summary.mean(),
            p99_latency_cycles: p99,
            p99_saturated,
            max_latency_cycles: summary.max().unwrap_or(0.0),
            avg_power_mw: sim.average_power(end).as_mw(),
            baseline_power_mw: sim.baseline_power().as_mw(),
            normalized_power: sim.normalized_power(end),
            transitions: sim.transitions(),
            packets_dropped: sim.packets_dropped_measured(),
            flits_dropped: sim.flits_dropped_measured(),
            flits_corrupted: sim.flits_corrupted_measured(),
            link_faults: sim.link_faults_measured(),
            latency_summary: summary,
            latency_series: lat_s.clone(),
            power_series: pow_s.clone(),
            injection_series: inj_s.clone(),
            telemetry,
            resumed,
        }
    }

    /// Runs under uniform-random traffic at a constant network-wide rate
    /// (packets/cycle) with the given packet size.
    pub fn run_uniform(&self, rate: f64, size: PacketSize) -> RunResult {
        self.run_synthetic(Pattern::Uniform, RateProfile::Constant(rate), size)
    }

    /// Runs under the paper's time-varying hotspot workload (Fig. 6).
    pub(crate) fn run_hotspot(&self, size: PacketSize) -> RunResult {
        self.run_synthetic(
            Pattern::paper_hotspot(&self.config.noc),
            RateProfile::paper_hotspot_schedule(),
            size,
        )
    }

    /// Runs a synthetic SPLASH2-like application trace (Fig. 7, Table 3).
    pub fn run_splash(&self, app: SplashApp) -> RunResult {
        self.run_synthetic(
            Pattern::Uniform,
            RateProfile::Splash(app),
            PacketSize::Fixed(app.packet_size_flits()),
        )
    }

    /// Runs an arbitrary synthetic pattern/profile/size combination.
    pub fn run_synthetic(
        &self,
        pattern: Pattern,
        profile: RateProfile,
        size: PacketSize,
    ) -> RunResult {
        let source = SyntheticSource::new(
            &self.config.noc,
            pattern,
            profile,
            size,
            Rng::seed_from(self.config.seed),
        );
        self.run(Box::new(source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_noc::NocConfig;

    fn small(power_aware: bool) -> Experiment {
        let mut config = SystemConfig::paper_default();
        config.noc = NocConfig::small_for_tests();
        config.power_aware = power_aware;
        config.policy.timing.tw_cycles = 200;
        Experiment::new(config)
            .warmup_cycles(1_000)
            .measure_cycles(6_000)
    }

    #[test]
    fn uniform_run_produces_metrics() {
        let r = small(true).run_uniform(0.1, PacketSize::Fixed(4));
        assert!(r.packets_delivered > 50, "{r}");
        assert!(r.avg_latency_cycles > 5.0);
        assert!(r.p99_latency_cycles >= r.avg_latency_cycles);
        assert!(r.max_latency_cycles >= r.p99_latency_cycles * 0.5);
        assert!(r.normalized_power < 1.0);
        assert!(r.baseline_power_mw > 0.0);
        let rate = r.injection_rate();
        assert!((rate - 0.1).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn baseline_vs_power_aware_tradeoff() {
        let base = small(false).run_uniform(0.1, PacketSize::Fixed(4));
        let pa = small(true).run_uniform(0.1, PacketSize::Fixed(4));
        // Baseline: full power, lowest latency.
        assert!((base.normalized_power - 1.0).abs() < 1e-9);
        assert!(pa.normalized_power < 0.7);
        // PA trades some latency.
        assert!(pa.normalized_latency(&base) >= 1.0);
        // And wins on power-latency product at light load.
        assert!(pa.power_latency_product(&base) < 1.0);
    }

    #[test]
    fn zero_load_latency_is_small() {
        let z = small(false)
            .run_uniform(ZERO_LOAD_RATE, PacketSize::Fixed(4))
            .avg_latency_cycles;
        assert!(z > 5.0 && z < 60.0, "zero-load {z}");
    }

    #[test]
    fn splash_runs() {
        let r = small(true).run_splash(SplashApp::Radix);
        assert!(r.packets_delivered > 0);
    }

    #[test]
    fn sharded_experiment_matches_sequential() {
        let exp = small(true).sample_every(1_000);
        let seq = exp.clone().shards(1).run_uniform(0.1, PacketSize::Fixed(4));
        let par = exp.shards(2).run_uniform(0.1, PacketSize::Fixed(4));
        assert_eq!(par.packets_injected, seq.packets_injected);
        assert_eq!(par.packets_delivered, seq.packets_delivered);
        assert_eq!(
            par.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits()
        );
        assert_eq!(
            par.p99_latency_cycles.to_bits(),
            seq.p99_latency_cycles.to_bits()
        );
        assert_eq!(par.avg_power_mw.to_bits(), seq.avg_power_mw.to_bits());
        assert_eq!(par.transitions, seq.transitions);
    }

    #[test]
    fn hotspot_runs_with_sampling() {
        let exp = small(true).sample_every(1_000);
        let r = exp.run_hotspot(PacketSize::Fixed(4));
        assert!(r.packets_delivered > 0);
        assert!(r.power_series.len() > 3);
        assert!(r.injection_series.len() > 3);
    }
}

//! The four benchmark workloads: how each is configured from its seed,
//! one untraced iteration of it, and the engine set-up probe.

use lumen_core::exec::derive_seed;
use lumen_core::prelude::*;
use lumen_core::PowerAwareSim;
use lumen_desim::{Engine, Picos, Rng};
use lumen_dse::{run_scenario, DseConfig, DseReport, DseWorkload, PolicyDraw, Scenario};
use lumen_policy::OnOffConfig;
use lumen_traffic::{DatacenterSource, TrafficSource};
use std::path::Path;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 8×8 mesh under uniform traffic at the Fig. 5 point.
    Mesh8,
    /// The 32×32 datacenter mesh under DVS.
    Mesh32,
    /// The folded Clos with on/off gating, faults and telemetry, split
    /// mid-horizon through a checkpoint file.
    Clos,
    /// The fig5-uniform design-space search.
    Dse,
}

pub const ALL: [Workload; 4] = [
    Workload::Mesh8,
    Workload::Mesh32,
    Workload::Clos,
    Workload::Dse,
];

/// Stream key the executor derives datacenter source seeds from
/// (`Workload::Datacenter` in `lumen_core::exec`); mirrored so a default-seed
/// run drives the same traffic an executor point would.
const DATACENTER_SOURCE_STREAM: u64 = u64::MAX - 1;

/// Threads of the design-space search's executor (clamped to the host).
const DSE_JOBS: usize = 2;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh8 => "mesh8_uniform_dvs",
            Workload::Mesh32 => "mesh32_datacenter_dvs",
            Workload::Clos => "clos_faults_split",
            Workload::Dse => "dse_fig5_uniform",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed whose outputs are recorded: the seed `fig5_load` derives
    /// for its MQW-5-10 rate-4.0 point, `ext_datacenter`'s per-fabric
    /// group seeds, and `ext_dse`'s default `--seed 1`.
    pub fn default_seed(self) -> u64 {
        let base = SystemConfig::paper_default().seed;
        match self {
            Workload::Mesh8 => derive_seed(base, 5),
            Workload::Mesh32 => derive_seed(base, 0),
            Workload::Clos => derive_seed(base, 1),
            Workload::Dse => 1,
        }
    }
}

/// The traffic of one simulation, rebuilt fresh for every engine.
#[derive(Debug, Clone)]
pub enum Traffic {
    Uniform { rate: f64, seed: u64 },
    Datacenter { config: DatacenterConfig, seed: u64 },
}

/// One simulation: system, traffic, horizons and telemetry.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub config: SystemConfig,
    pub traffic: Traffic,
    pub warmup: u64,
    pub measure: u64,
    pub telemetry: TelemetryConfig,
}

impl SimSpec {
    pub fn source(&self) -> Box<dyn TrafficSource + Send> {
        let noc = &self.config.noc;
        match &self.traffic {
            Traffic::Uniform { rate, seed } => Box::new(SyntheticSource::new(
                noc,
                Pattern::Uniform,
                RateProfile::Constant(*rate),
                PacketSize::Fixed(5),
                Rng::seed_from(*seed),
            )),
            Traffic::Datacenter { config, seed } => {
                Box::new(DatacenterSource::new(noc, *config, Rng::seed_from(*seed)))
            }
        }
    }

    /// Builds the engine: config, topology, route table, power table and
    /// traffic source (the work `setup_s` times).
    pub fn build(&self) -> Engine<PowerAwareSim> {
        PowerAwareSim::build_engine_telemetry(
            self.config.clone(),
            self.source(),
            None,
            self.telemetry,
        )
    }

    pub fn experiment(&self) -> Experiment {
        Experiment::new(self.config.clone())
            .warmup_cycles(self.warmup)
            .measure_cycles(self.measure)
            .telemetry(self.telemetry)
    }

    pub fn total(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The mid-horizon cycle the split runs save at.
    pub fn mid(&self) -> u64 {
        self.total() / 2
    }

    pub fn routers(&self) -> u64 {
        self.config.noc.router_count() as u64
    }

    pub fn cycle(&self) -> Picos {
        self.config.noc.cycle()
    }

    pub fn with_telemetry(&self, telemetry: TelemetryConfig) -> SimSpec {
        SimSpec {
            telemetry,
            ..self.clone()
        }
    }
}

fn datacenter_traffic(noc: &NocConfig, diurnal: u64, incast: u64, seed: u64) -> Traffic {
    let mut dc = DatacenterConfig::web_like(noc.node_count() / 4);
    dc.request_rate = noc.node_count() as f64 * 0.004;
    dc.diurnal_period_cycles = diurnal;
    dc.incast_period_cycles = incast;
    Traffic::Datacenter {
        config: dc,
        seed: derive_seed(seed, DATACENTER_SOURCE_STREAM),
    }
}

/// The fig5-uniform scenario exactly as `ext_dse` builds it.
pub fn dse_scenario(seed: u64) -> (Scenario, DseConfig) {
    let mut config = SystemConfig::paper_default();
    config.seed = seed;
    let scenario = Scenario {
        name: "fig5-uniform".into(),
        config,
        workload: DseWorkload::Uniform { rate: 0.3 },
        group: 0,
        warmup_cycles: 10_000,
        measure_cycles: 100_000,
    };
    let dse = DseConfig {
        sampler_seed: seed,
        ..DseConfig::default()
    };
    (scenario, dse)
}

/// The simulation a workload runs. For the search workload this is its
/// full-fidelity Table 1 reference run, the single run the search
/// repeats most often at its longest horizon.
pub fn sim_spec(workload: Workload, seed: u64) -> SimSpec {
    match workload {
        Workload::Mesh8 => SimSpec {
            config: SystemConfig::paper_default().with_seed(seed),
            traffic: Traffic::Uniform { rate: 4.0, seed },
            warmup: 10_000,
            measure: 60_000,
            telemetry: TelemetryConfig::default(),
        },
        Workload::Mesh32 => {
            let mut config = SystemConfig::paper_default().with_seed(seed);
            config.noc.width = 32;
            config.noc.height = 32;
            config.noc.nodes_per_rack = 1;
            let traffic = datacenter_traffic(&config.noc, 4_000, 2_000, seed);
            SimSpec {
                config,
                traffic,
                warmup: 2_000,
                measure: 14_000,
                telemetry: TelemetryConfig::default(),
            }
        }
        Workload::Clos => {
            let mut config = SystemConfig::paper_default().with_seed(seed);
            config.noc.width = 4;
            config.noc.height = 4;
            config.noc.nodes_per_rack = 4;
            config.noc.topology = TopologyKind::FoldedClos { spines: 4 };
            config.policy = config.policy.with_onoff(OnOffConfig::reference_default());
            let config = config.with_faults(FaultConfig {
                outage_mtbf_cycles: 50_000,
                outage_mean_duration_cycles: 2_000,
                dropout_mtbf_cycles: 50_000,
                dropout_mean_duration_cycles: 2_000,
                ..FaultConfig::disabled()
            });
            let traffic = datacenter_traffic(&config.noc, 40_000, 8_000, seed);
            SimSpec {
                config,
                traffic,
                warmup: 10_000,
                measure: 400_000,
                telemetry: TelemetryConfig {
                    retain_windows: Some(8),
                    ..TelemetryConfig::full()
                },
            }
        }
        Workload::Dse => {
            let (scenario, _) = dse_scenario(seed);
            let mut config = scenario.config.clone();
            config.power_aware = true;
            PolicyDraw::paper_table1().apply(&mut config);
            let point_seed = derive_seed(seed, scenario.group);
            config.seed = point_seed;
            SimSpec {
                config,
                traffic: Traffic::Uniform {
                    rate: 0.3,
                    seed: point_seed,
                },
                warmup: scenario.warmup_cycles,
                measure: scenario.measure_cycles,
                telemetry: TelemetryConfig::default(),
            }
        }
    }
}

/// The outputs two runs of one simulation must agree on, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    pub events: u64,
    pub delivered: u64,
    pub latency_bits: u64,
    pub power_bits: u64,
    pub energy_bits: u64,
}

impl Outputs {
    pub fn of(sim: &PowerAwareSim, end: Picos, events: u64) -> Outputs {
        Outputs {
            events,
            delivered: sim.latency_summary().count(),
            latency_bits: sim.latency_summary().mean().to_bits(),
            power_bits: sim.average_power(end).as_mw().to_bits(),
            energy_bits: sim.energy_nj(end).to_bits(),
        }
    }

    /// Outputs of an [`Experiment`] run; its event count and energy come
    /// from the telemetry counters, so telemetry must be on.
    pub fn of_result(r: &RunResult) -> Outputs {
        let t = r.telemetry.as_ref().expect("telemetry is on");
        Outputs {
            events: t.counters.events,
            delivered: r.packets_delivered,
            latency_bits: r.avg_latency_cycles.to_bits(),
            power_bits: r.avg_power_mw.to_bits(),
            energy_bits: t.energy_nj.to_bits(),
        }
    }

    pub fn digest(&self) -> String {
        format!(
            "{}:{}:{:016x}:{:016x}:{:016x}",
            self.events, self.delivered, self.latency_bits, self.power_bits, self.energy_bits
        )
    }
}

/// Runs a built engine through warmup and measurement with
/// [`Engine::run_until`], as `Experiment` does on the sequential engine.
pub fn run_plain(engine: &mut Engine<PowerAwareSim>, spec: &SimSpec) -> Outputs {
    let cycle = spec.cycle();
    engine.run_until(cycle * spec.warmup);
    let now = engine.now();
    engine.model_mut().begin_measurement(now);
    let end = cycle * spec.total();
    engine.run_until(end);
    Outputs::of(engine.model(), end, engine.processed())
}

/// The split run: save at mid-horizon to `path`, then resume from it.
/// Returns the save-run's and the resumed run's results.
pub fn run_split(spec: &SimSpec, path: &Path) -> (RunResult, RunResult) {
    let exp = spec.experiment();
    let saved = exp.clone().save_at(spec.mid(), path).run(spec.source());
    let resumed = exp.resume(path).run(spec.source());
    (saved, resumed)
}

/// 64-bit FNV-1a, used to compare large outputs by digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn dse_executor() -> Executor {
    Executor::new(DSE_JOBS.min(Executor::available().jobs()))
}

/// Router-cycles the search simulates: every reference, trial and
/// survivor run's warmup plus measurement, times the fabric's routers.
fn dse_router_cycles(scenario: &Scenario, dse: &DseConfig, report: &DseReport) -> (f64, u64) {
    let (qw, qm) = dse.quick_horizons(scenario);
    let quick = qw + qm;
    let full = scenario.warmup_cycles + scenario.measure_cycles;
    let survivors = report.full_points().count() as u64;
    let runs = 4 + dse.trials as u64 + survivors;
    let cycles = 2 * quick + 2 * full + dse.trials as u64 * quick + survivors * full;
    let routers = scenario.config.noc.router_count() as f64;
    (cycles as f64 * routers, runs)
}

/// What one untraced iteration reports to the parent process.
pub struct Iteration {
    pub wall_s: f64,
    pub router_cycles: f64,
    pub runs: u64,
    pub digest: String,
    /// Split runs only: the resumed result equals the save-run's.
    pub split_ok: bool,
    /// The mesh8 workload only: its row in `fig5_load`'s CSV format.
    pub row: String,
}

/// One untraced iteration of `workload`, timed end to end.
pub fn iterate(workload: Workload, seed: u64, workdir: &Path) -> Iteration {
    let start = Instant::now();
    match workload {
        Workload::Mesh8 | Workload::Mesh32 => {
            let spec = sim_spec(workload, seed);
            let mut engine = spec.build();
            let out = run_plain(&mut engine, &spec);
            let wall_s = start.elapsed().as_secs_f64();
            let row = match workload {
                Workload::Mesh8 => format!(
                    "MQW-5-10,4.00,{:.4},{:.2},{:.4}",
                    out.delivered as f64 / spec.measure as f64,
                    f64::from_bits(out.latency_bits),
                    engine.model().normalized_power(spec.cycle() * spec.total()),
                ),
                _ => String::new(),
            };
            Iteration {
                wall_s,
                router_cycles: (spec.total() * spec.routers()) as f64,
                runs: 1,
                digest: out.digest(),
                split_ok: true,
                row,
            }
        }
        Workload::Clos => {
            let spec = sim_spec(workload, seed);
            let path = workdir.join(format!("split-{}.ckpt", std::process::id()));
            let (saved, resumed) = run_split(&spec, &path);
            let wall_s = start.elapsed().as_secs_f64();
            std::fs::remove_file(&path).ok();
            let (saved, resumed) = (Outputs::of_result(&saved), Outputs::of_result(&resumed));
            let cycles = spec.total() + spec.total() - spec.mid();
            Iteration {
                wall_s,
                router_cycles: (cycles * spec.routers()) as f64,
                runs: 2,
                digest: resumed.digest(),
                split_ok: saved == resumed,
                row: String::new(),
            }
        }
        Workload::Dse => {
            let (scenario, dse) = dse_scenario(seed);
            let report = run_scenario(&scenario, &dse, &dse_executor(), |_| {});
            let wall_s = start.elapsed().as_secs_f64();
            let (router_cycles, runs) = dse_router_cycles(&scenario, &dse, &report);
            Iteration {
                wall_s,
                router_cycles,
                runs,
                digest: format!("{:016x}", fnv64(report.to_json().as_bytes())),
                split_ok: true,
                row: String::new(),
            }
        }
    }
}

/// Engines one iteration of `workload` builds.
fn engines_per_iteration(workload: Workload) -> u64 {
    match workload {
        Workload::Mesh8 | Workload::Mesh32 => 1,
        Workload::Clos => 2,
        Workload::Dse => {
            let dse = DseConfig::default();
            (4 + dse.trials + dse.survivors) as u64
        }
    }
}

/// Set-up time of one iteration: the median of repeated engine builds
/// (up to 101, or as many as fit in about 0.3 s, at least 11), times the
/// engines an iteration builds.
pub fn setup_probe(workload: Workload, seed: u64) -> f64 {
    let spec = sim_spec(workload, seed);
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 11 || (times.len() < 101 && started.elapsed().as_secs_f64() < 0.3) {
        let start = Instant::now();
        let engine = std::hint::black_box(spec.build());
        times.push(start.elapsed().as_secs_f64());
        drop(engine);
    }
    crate::median(&mut times) * engines_per_iteration(workload) as f64
}

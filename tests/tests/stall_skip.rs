//! Stall skipping (DESIGN.md §6i) against the engine it replaced.
//!
//! A router whose switch allocation has requesters but can grant none
//! sleeps until a flit, a credit, a change to one of its output links or
//! a link-ready time can move it; its skipped ticks are applied in one
//! step before anything reads what they touch. The oracle is the same
//! engine with [`lumen_noc::Network::settle_all`] called after every
//! cycle: that ends every stall, so each router ticks for real every
//! cycle, exactly as before stall skipping existed. The two must agree
//! bit for bit on every output, on the full counter registry (denied
//! switch requests included), on the exported `lumen-trace/1` bytes, and
//! on the checkpoint bytes captured at cut points in warmup and in
//! measurement.

use lumen_core::prelude::*;
use lumen_core::{Checkpoint, MetricsRegistry};
use lumen_desim::{Engine, Rng};
use lumen_policy::OnOffConfig;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

const WARMUP: u64 = 500;
const MEASURE: u64 = 3_000;
const SAMPLE: u64 = 500;
/// Checkpoint cut points: one in warmup, two in measurement.
const CUTS: [u64; 3] = [321, 1_700, 3_099];

#[derive(Clone, Copy, Debug)]
enum Mode {
    Dvs,
    OnOff,
}

fn config_for(kind: TopologyKind, mode: Mode, faults: bool, seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.topology = kind;
    if !matches!(kind, TopologyKind::Mesh) {
        c.noc.width = 4;
        c.noc.height = 4;
        c.noc.nodes_per_rack = 2;
    }
    c.policy.timing.tw_cycles = 200;
    if let Mode::OnOff = mode {
        c.policy = c.policy.with_onoff(OnOffConfig::reference_default());
    }
    if faults {
        c.faults = FaultConfig {
            outage_mtbf_cycles: 1_500,
            outage_mean_duration_cycles: 300,
            dropout_mtbf_cycles: 2_000,
            dropout_mean_duration_cycles: 400,
            ..FaultConfig::disabled()
        };
    }
    c
}

/// What one run produced, in comparable form.
struct Trace {
    outputs: Vec<u64>,
    counters: MetricsRegistry,
    jsonl: String,
    checkpoints: Vec<Vec<u8>>,
    /// Denied switch requests that were still unapplied when the run
    /// settled at a cut or at the end (zero for the oracle).
    settled_denials: u64,
}

/// Total denied switch requests, and the rise from settling every stall.
fn settle(engine: &mut Engine<PowerAwareSim>) -> u64 {
    let denials = |e: &Engine<PowerAwareSim>| -> u64 {
        e.model().network().routers().map(|r| r.sa_denials()).sum()
    };
    let before = denials(engine);
    engine.model_mut().network_mut().settle_all();
    denials(engine) - before
}

/// The checkpoint `Experiment::save_at` would write at `cut` (less the
/// traffic source, which stalls never touch), as container bytes, so
/// floats compare by bit pattern.
fn capture(engine: &mut Engine<PowerAwareSim>, config: &SystemConfig, cut: u64) -> Vec<u8> {
    let pending = engine.drain_pending();
    for &(at, ev) in &pending {
        engine.queue_mut().schedule(at, ev);
    }
    Checkpoint {
        config: config.clone(),
        warmup_cycles: WARMUP,
        measure_cycles: MEASURE,
        sample_every: Some(SAMPLE),
        cycle: cut,
        events: engine.processed(),
        pending,
        sim: serde::Serialize::serialize_value(engine.model()),
        source: serde::Value::Null,
    }
    .to_bytes()
}

/// Runs warmup and measurement. With `oracle`, every router ticks for
/// real every cycle; otherwise the engine steps between cut points as
/// `Experiment` does.
fn drive(config: &SystemConfig, rate: f64, oracle: bool) -> Trace {
    let source = SyntheticSource::new(
        &config.noc,
        Pattern::Uniform,
        RateProfile::Constant(rate),
        PacketSize::Fixed(4),
        Rng::seed_from(config.seed),
    );
    let mut engine = PowerAwareSim::build_engine_telemetry(
        config.clone(),
        Box::new(source),
        Some(SAMPLE),
        TelemetryConfig::full(),
    );
    let cycle = config.noc.cycle();
    let total = WARMUP + MEASURE;
    let mut checkpoints = Vec::new();
    let mut settled_denials = 0;
    for k in 0..=total {
        let cut = CUTS.contains(&k);
        if oracle || cut || k == WARMUP || k == total {
            engine.run_until(cycle * k);
        }
        if oracle {
            engine.model_mut().network_mut().settle_all();
        }
        if k == WARMUP {
            let now = engine.now();
            engine.model_mut().begin_measurement(now);
        }
        if cut {
            settled_denials += settle(&mut engine);
            checkpoints.push(capture(&mut engine, config, k));
        }
    }
    settled_denials += settle(&mut engine);
    let end = cycle * total;
    let events = engine.processed();
    let sim = engine.model_mut();
    let summary = sim.latency_summary();
    // A run can deliver nothing in its window (the on/off wake-penalty
    // instability); read the p99 the way `Experiment` does then.
    let (p99, saturated) = if summary.is_empty() {
        (0.0, false)
    } else {
        sim.latency_histogram().percentile_clamped(99.0)
    };
    let (lat, pow, inj) = sim.series();
    let mut outputs = vec![
        events,
        summary.count(),
        summary.mean().to_bits(),
        summary.max().unwrap_or(0.0).to_bits(),
        p99.to_bits(),
        u64::from(saturated),
        sim.average_power(end).as_mw().to_bits(),
        sim.energy_nj(end).to_bits(),
        sim.transitions(),
        sim.packets_injected_measured(),
        sim.packets_dropped_measured(),
        sim.flits_dropped_measured(),
        sim.flits_corrupted_measured(),
        sim.link_faults_measured(),
    ];
    for series in [lat, pow, inj] {
        outputs.extend(series.iter().flat_map(|(t, v)| [t.as_ps(), v.to_bits()]));
    }
    let report = sim
        .take_telemetry_report(end, events)
        .expect("telemetry is on");
    Trace {
        outputs,
        counters: report.counters.clone(),
        jsonl: report.to_jsonl(),
        checkpoints,
        settled_denials,
    }
}

/// Asserts the stall-skipping run equals its every-cycle oracle, and
/// returns how many denied requests the skipping run had left unapplied.
fn assert_matches_oracle(config: &SystemConfig, rate: f64, tag: &str) -> u64 {
    let fast = drive(config, rate, false);
    let oracle = drive(config, rate, true);
    assert_eq!(oracle.settled_denials, 0, "{tag}: the oracle skipped ticks");
    assert_eq!(fast.outputs, oracle.outputs, "{tag}: outputs diverged");
    assert_eq!(fast.counters, oracle.counters, "{tag}: counters diverged");
    assert!(
        fast.jsonl == oracle.jsonl,
        "{tag}: lumen-trace/1 export diverged"
    );
    assert_eq!(fast.checkpoints.len(), CUTS.len());
    for (i, (a, b)) in fast.checkpoints.iter().zip(&oracle.checkpoints).enumerate() {
        assert!(a == b, "{tag}: checkpoint at cycle {} diverged", CUTS[i]);
    }
    fast.settled_denials
}

#[test]
fn clos_onoff_with_faults_sleeps_and_matches_every_cycle_ticking() {
    let config = config_for(
        TopologyKind::FoldedClos { spines: 2 },
        Mode::OnOff,
        true,
        11,
    );
    let skipped = assert_matches_oracle(&config, 0.5, "clos/onoff/faults");
    assert!(
        skipped > 0,
        "no router ever slept: the oracle compared nothing"
    );
}

#[test]
fn mesh_dvs_with_faults_sleeps_and_matches_every_cycle_ticking() {
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, true, 5);
    let skipped = assert_matches_oracle(&config, 0.6, "mesh/dvs/faults");
    assert!(
        skipped > 0,
        "no router ever slept: the oracle compared nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every fabric under both power disciplines, with and without
    /// outages and laser dropouts, over seeds and loads.
    #[test]
    fn stall_skipping_matches_every_cycle_ticking(
        seed in 0u64..1_000,
        rate in 0.05f64..0.8,
        topo_sel in 0u8..2,
        mode_sel in 0u8..2,
        faults_sel in 0u8..2,
    ) {
        let kind = match topo_sel {
            0 => TopologyKind::Mesh,
            _ => TopologyKind::FoldedClos { spines: 2 },
        };
        let mode = if mode_sel == 0 { Mode::Dvs } else { Mode::OnOff };
        let config = config_for(kind, mode, faults_sel == 1, seed);
        let tag = format!("{kind:?}/{mode:?}/faults={faults_sel}/seed={seed}/rate={rate}");
        assert_matches_oracle(&config, rate, &tag);
    }
}

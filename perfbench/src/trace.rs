//! The traced run: the benchmark drives the engine loop itself, sorts
//! each popped event by kind and times it, then measures the layers the
//! loop cannot see (route lookups, traffic generation, the search
//! sampler, checkpoint codec, telemetry export) in standalone sweeps.

use crate::workloads::{
    dse_executor, dse_scenario, run_plain, run_split, sim_spec, Outputs, SimSpec, Workload,
};
use crate::{Metric, Outcome};
use lumen_core::prelude::*;
use lumen_core::sim::SimEvent;
use lumen_core::{Checkpoint, PowerAwareSim};
use lumen_desim::{Engine, Picos, SimModel};
use lumen_dse::{run_scenario, Goal, SearchSpace, Tpe};
use lumen_noc::{NodeId, RouteTable, RouterId};
use serde::Value;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Event kinds, in `desim.events.<kind>` order. A core tick that closes
/// a policy window (every `tw_cycles`-th tick) is its own kind here and
/// is folded back into `core_tick` when counted.
const KINDS: [&str; 10] = [
    "core_tick",
    "window_tick",
    "flit_arrive",
    "credit_arrive",
    "rate_change",
    "power_point",
    "transition_complete",
    "fault_begin",
    "fault_end",
    "laser_decision",
];
const TICK: usize = 0;
const WINDOW: usize = 1;
const FLIT: usize = 2;
const CREDIT: usize = 3;
const TRANSITION: [usize; 3] = [4, 5, 6];
const FAULT: [usize; 2] = [7, 8];

/// Flit and credit arrivals, the two kinds that make up most events, and
/// calendar pops are timed one in `SAMPLE`; every other event is timed.
const SAMPLE: u64 = 8;

fn kind(event: &SimEvent) -> usize {
    match event {
        SimEvent::CoreTick => TICK,
        SimEvent::FlitArrive { .. } => FLIT,
        SimEvent::CreditArrive { .. } => CREDIT,
        SimEvent::RateChange { .. } => 4,
        SimEvent::PowerPoint { .. } => 5,
        SimEvent::TransitionComplete { .. } => 6,
        SimEvent::FaultBegin { .. } => 7,
        SimEvent::FaultEnd { .. } => 8,
        SimEvent::LaserDecision => 9,
    }
}

/// Event counts and sampled handler times of one traced run.
#[derive(Default)]
struct Budget {
    count: [u64; KINDS.len()],
    timed: [u64; KINDS.len()],
    ns: [u64; KINDS.len()],
    pops: u64,
    pops_timed: u64,
    pop_ns: u64,
    ticks: u64,
    now: Picos,
    /// Cost of one clock read, ns, taken off every timed interval.
    clock_ns: u64,
}

impl Budget {
    /// Mean handler time of a kind, ns (0 when none ran).
    fn mean(&self, k: usize) -> f64 {
        ratio(self.ns[k] as f64, self.timed[k] as f64)
    }

    /// Estimated total handler time of a kind, ns.
    fn total(&self, k: usize) -> f64 {
        self.mean(k) * self.count[k] as f64
    }

    fn pop_mean(&self) -> f64 {
        ratio(self.pop_ns as f64, self.pops_timed as f64)
    }

    /// Estimated time of everything the loop timed, ns.
    fn attributed(&self) -> f64 {
        self.pop_mean() * self.pops as f64 + (0..KINDS.len()).map(|k| self.total(k)).sum::<f64>()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pops and handles every event due at or before `horizon`, exactly as
/// [`Engine::run_until`] does on the sequential engine (which has no
/// external inbox), timing pops and handlers per [`SAMPLE`].
fn traced_loop(engine: &mut Engine<PowerAwareSim>, horizon: Picos, tw: u64, b: &mut Budget) {
    let (model, queue) = engine.model_and_queue_mut();
    loop {
        let pop_timed = b.pops.is_multiple_of(SAMPLE);
        let t0 = pop_timed.then(Instant::now);
        let Some((time, event)) = queue.pop_if_at_or_before(horizon) else {
            break;
        };
        b.pops += 1;
        let mut k = kind(&event);
        if k == TICK {
            b.ticks += 1;
            if b.ticks.is_multiple_of(tw) {
                k = WINDOW;
            }
        }
        let timed = (k != FLIT && k != CREDIT) || b.count[k].is_multiple_of(SAMPLE);
        b.count[k] += 1;
        let t1 = (pop_timed || timed).then(Instant::now);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            b.pop_ns += ((t1 - t0).as_nanos() as u64).saturating_sub(b.clock_ns);
            b.pops_timed += 1;
        }
        b.now = time;
        model.handle(time, event, queue);
        if let (true, Some(t1)) = (timed, t1) {
            b.ns[k] += (t1.elapsed().as_nanos() as u64).saturating_sub(b.clock_ns);
            b.timed[k] += 1;
        }
    }
}

struct Traced {
    outputs: Outputs,
    budget: Budget,
    loop_s: f64,
    scheduled: u64,
    transitions: u64,
    report: Option<TelemetryReport>,
}

/// The cost of one `Instant::now()`: the median gap between two
/// back-to-back reads. A timed interval spans about one read's cost on
/// top of the work it brackets.
fn clock_ns() -> u64 {
    let mut gaps: Vec<f64> = (0..1001)
        .map(|_| {
            let start = Instant::now();
            (Instant::now() - start).as_nanos() as f64
        })
        .collect();
    crate::median(&mut gaps) as u64
}

/// One traced run of `spec`: warmup, measurement start, measurement.
fn run_traced(spec: &SimSpec) -> Traced {
    let mut engine = spec.build();
    let tw = spec.config.policy.timing.tw_cycles;
    let end = spec.cycle() * spec.total();
    let mut b = Budget {
        clock_ns: clock_ns(),
        ..Budget::default()
    };
    let start = Instant::now();
    traced_loop(&mut engine, spec.cycle() * spec.warmup, tw, &mut b);
    engine.model_mut().begin_measurement(b.now);
    traced_loop(&mut engine, end, tw, &mut b);
    let loop_s = start.elapsed().as_secs_f64();
    let events = b.pops;
    let sim = engine.model_mut();
    Traced {
        outputs: Outputs::of(sim, end, events),
        transitions: sim.transitions(),
        report: sim.take_telemetry_report(end, events),
        scheduled: engine.queue().scheduled_total(),
        budget: b,
        loop_s,
    }
}

/// Whether an `Experiment` result carries `expected`'s outputs (event
/// count and energy only when its telemetry recorded them).
fn result_matches(expected: &Outputs, r: &RunResult) -> bool {
    let same = expected.delivered == r.packets_delivered
        && expected.latency_bits == r.avg_latency_cycles.to_bits()
        && expected.power_bits == r.avg_power_mw.to_bits();
    match &r.telemetry {
        Some(t) if t.counters.events > 0 => {
            same && expected.events == t.counters.events
                && expected.energy_bits == t.energy_nj.to_bits()
        }
        _ => same,
    }
}

/// The traced run of `workload`: its per-layer metrics and the outcome
/// of its fidelity checks. `reference` is the recorded digest for the
/// default seed, if any.
pub fn trace(workload: Workload, seed: u64, workdir: &Path, reference: Option<String>) -> Outcome {
    let spec = sim_spec(workload, seed);
    let mut checks = Outcome::default();
    let mut m = Vec::new();

    // The untraced reference: the same simulation on `Engine::run_until`,
    // twice; times are the faster of the two, so one burst of host noise
    // does not decide a ratio.
    let mut untraced_s = f64::INFINITY;
    let mut expected = None;
    for _ in 0..2 {
        let mut engine = spec.build();
        let start = Instant::now();
        let out = run_plain(&mut engine, &spec);
        untraced_s = untraced_s.min(start.elapsed().as_secs_f64());
        checks.check(
            expected.is_none_or(|e| e == out),
            "Engine::run_until repeats",
        );
        expected = Some(out);
    }
    let expected = expected.expect("two reference runs");
    if let Some(digest) = reference {
        checks.check(
            expected.digest() == digest,
            "outputs equal the recorded digest",
        );
    }

    // Traced runs with the workload's telemetry setting and with it
    // toggled, alternated; each setting's time is its faster run.
    let toggled = spec.with_telemetry(if spec.telemetry.enabled() {
        TelemetryConfig::default()
    } else {
        TelemetryConfig::full()
    });
    let runs: Vec<Traced> = [&spec, &toggled, &spec, &toggled]
        .into_iter()
        .map(|s| {
            let t = run_traced(s);
            checks.check(t.outputs == expected, "traced run equals Engine::run_until");
            t
        })
        .collect();
    let traced = &runs[0];
    let own_s = runs[0].loop_s.min(runs[2].loop_s);
    let toggled_s = runs[1].loop_s.min(runs[3].loop_s);
    let (on, on_s, off_s) = if spec.telemetry.enabled() {
        (&runs[0], own_s, toggled_s)
    } else {
        (&runs[1], toggled_s, own_s)
    };

    let b = &traced.budget;
    let wall_ns = traced.loop_s * 1e9;
    let share = |ns: f64| ns / wall_ns;
    let routers = spec.routers() as f64;
    let all_ticks = (b.count[TICK] + b.count[WINDOW]) as f64;
    for (k, name) in KINDS.iter().enumerate() {
        let count = match k {
            WINDOW => continue,
            TICK => all_ticks as u64,
            _ => b.count[k],
        };
        m.push(Metric::new(
            &format!("desim.events.{name}"),
            count as f64,
            "count",
        ));
    }
    m.push(Metric::new(
        "desim.scheduled",
        traced.scheduled as f64,
        "count",
    ));
    m.push(Metric::new(
        "desim.events_per_s",
        b.pops as f64 / untraced_s,
        "1/s",
    ));
    m.push(Metric::new("desim.pop_ns", b.pop_mean(), "ns"));
    m.push(Metric::new(
        "desim.pop_share",
        share(b.pop_mean() * b.pops as f64),
        "share",
    ));
    m.push(Metric::new(
        "noc.tick_ns_per_router_cycle",
        b.mean(TICK) / routers,
        "ns",
    ));
    m.push(Metric::new(
        "noc.tick_share",
        share(b.mean(TICK) * all_ticks),
        "share",
    ));
    m.push(Metric::new("noc.flit_arrive_ns", b.mean(FLIT), "ns"));
    m.push(Metric::new(
        "noc.flit_arrive_share",
        share(b.total(FLIT)),
        "share",
    ));
    m.push(Metric::new("noc.credit_arrive_ns", b.mean(CREDIT), "ns"));
    m.push(Metric::new(
        "noc.credit_arrive_share",
        share(b.total(CREDIT)),
        "share",
    ));
    m.push(Metric::new(
        "noc.route_lookup_ns",
        route_lookup_ns(&spec),
        "ns",
    ));
    m.push(Metric::new(
        "traffic.gen_ns_per_cycle",
        traffic_ns_per_cycle(&spec),
        "ns",
    ));
    let window_excess = b.mean(WINDOW) - b.mean(TICK);
    m.push(Metric::new("policy.window_ns", window_excess, "ns"));
    m.push(Metric::new(
        "policy.window_share",
        share(window_excess * b.count[WINDOW] as f64),
        "share",
    ));
    m.push(Metric::new(
        "policy.windows",
        b.count[WINDOW] as f64,
        "count",
    ));
    let transition_ns: f64 = TRANSITION.iter().map(|&k| b.total(k)).sum();
    m.push(Metric::new(
        "policy.transition_share",
        share(transition_ns),
        "share",
    ));
    m.push(Metric::new(
        "policy.transitions",
        traced.transitions as f64,
        "count",
    ));
    let fault_events: u64 = FAULT.iter().map(|&k| b.count[k]).sum();
    let fault_ns: f64 = FAULT.iter().map(|&k| b.total(k)).sum();
    m.push(Metric::new("fault.events", fault_events as f64, "count"));
    m.push(Metric::new("fault.share", share(fault_ns), "share"));

    let report = on.report.as_ref().expect("telemetry-on run has a report");
    let start = Instant::now();
    let jsonl = black_box(report.to_jsonl());
    let export_s = start.elapsed().as_secs_f64();
    drop(jsonl);
    m.push(Metric::new("telemetry.overhead_s", on_s - off_s, "s"));
    m.push(Metric::new(
        "telemetry.rows_retained",
        report.rows.len() as f64,
        "count",
    ));
    m.push(Metric::new("telemetry.export_s", export_s, "s"));

    m.extend(checkpoint_metrics(&spec, &expected, workdir, &mut checks));
    m.extend(dse_metrics(workload, seed, &mut checks));

    m.push(Metric::new(
        "trace.coverage",
        b.attributed() / wall_ns,
        "ratio",
    ));
    m.push(Metric::new("trace.overhead", own_s / untraced_s, "ratio"));
    checks.metrics = m;
    checks
}

/// Splits the run at mid-horizon through a checkpoint file, checks the
/// resumed run against the unbroken one, and times the checkpoint codec
/// on the file the split wrote.
fn checkpoint_metrics(
    spec: &SimSpec,
    expected: &Outputs,
    workdir: &Path,
    checks: &mut Outcome,
) -> Vec<Metric> {
    let path = workdir.join(format!("trace-{}.ckpt", std::process::id()));
    let copy = workdir.join(format!("trace-{}-copy.ckpt", std::process::id()));
    let (saved, resumed) = run_split(spec, &path);
    checks.check(
        result_matches(expected, &saved),
        "save-run equals the unbroken run",
    );
    checks.check(
        result_matches(expected, &resumed),
        "resumed run equals the unbroken run",
    );

    let start = Instant::now();
    let ckpt = Checkpoint::read_from(&path).expect("the split run's checkpoint reads back");
    let read_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let bytes = ckpt.to_bytes();
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let decoded = black_box(Checkpoint::from_bytes(&bytes).expect("checkpoint decodes"));
    let decode_s = start.elapsed().as_secs_f64();
    drop(decoded);
    let start = Instant::now();
    ckpt.write_to(&copy).expect("checkpoint writes");
    let write_s = start.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&copy).ok();

    // A section's size: the encoding shrinks by this much without it.
    let total = bytes.len() as f64;
    let without = |edit: &dyn Fn(&mut Checkpoint)| {
        let mut c = ckpt.clone();
        edit(&mut c);
        total - c.to_bytes().len() as f64
    };
    vec![
        Metric::new("ckpt.bytes", total, "bytes"),
        Metric::new("ckpt.bytes.sim", without(&|c| c.sim = Value::Null), "bytes"),
        Metric::new(
            "ckpt.bytes.source",
            without(&|c| c.source = Value::Null),
            "bytes",
        ),
        Metric::new(
            "ckpt.bytes.pending",
            without(&|c| c.pending.clear()),
            "bytes",
        ),
        Metric::new("ckpt.pending_events", ckpt.pending.len() as f64, "count"),
        Metric::new("ckpt.encode_s", encode_s, "s"),
        Metric::new("ckpt.decode_s", decode_s, "s"),
        Metric::new("ckpt.write_s", write_s, "s"),
        Metric::new("ckpt.read_s", read_s, "s"),
    ]
}

/// Mean time of one `RouteTable::candidates` lookup, sweeping every
/// (router, destination node) pair of the workload's fabric.
fn route_lookup_ns(spec: &SimSpec) -> f64 {
    const LOOKUPS: usize = 4_000_000;
    let noc = &spec.config.noc;
    let table = RouteTable::build(noc, noc.routing);
    let (routers, nodes) = (noc.router_count(), noc.node_count());
    let rounds = LOOKUPS.div_ceil(routers * nodes);
    let mut ports = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        for r in 0..routers as u32 {
            for n in 0..nodes as u32 {
                ports += black_box(table.candidates(RouterId(r), NodeId(n))).len();
            }
        }
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    black_box(ports);
    elapsed / (rounds * routers * nodes) as f64
}

/// Mean time the workload's traffic source takes to generate one cycle,
/// replayed open-loop over the whole horizon with the same seed.
fn traffic_ns_per_cycle(spec: &SimSpec) -> f64 {
    let mut source = spec.source();
    let cycle = spec.cycle();
    let mut packets = Vec::new();
    let start = Instant::now();
    for c in 0..spec.total() {
        source.packets_for_cycle(c, cycle * c, &mut packets);
        packets.clear();
    }
    start.elapsed().as_nanos() as f64 / spec.total() as f64
}

/// The search's sampler on its own, and for the search workload the
/// time spent in each phase of one search.
fn dse_metrics(workload: Workload, seed: u64, checks: &mut Outcome) -> Vec<Metric> {
    let (scenario, dse) = dse_scenario(seed);
    let mut tpe = Tpe::new(SearchSpace::paper_policy(), dse.sampler_seed);
    let (mut suggest_ns, mut observe_ns) = (0u128, 0u128);
    for _ in 0..dse.trials {
        let start = Instant::now();
        let u = tpe.suggest();
        suggest_ns += start.elapsed().as_nanos();
        let goal = Goal {
            power: u[0],
            avg_latency: 50.0 + 50.0 * u[1],
            p99_latency: 100.0 + 100.0 * u[2],
            violation: 0.0,
        };
        let start = Instant::now();
        tpe.observe(u, goal);
        observe_ns += start.elapsed().as_nanos();
    }
    let per_trial_us = |ns: u128| ns as f64 / dse.trials as f64 / 1e3;

    let mut phases = [0.0; 3];
    if workload == Workload::Dse {
        let start = Instant::now();
        let mut marks = [None, None];
        let report = run_scenario(&scenario, &dse, &dse_executor(), |msg| {
            let phase = if msg.contains("quick generation") {
                0
            } else if msg.contains("full fidelity") {
                1
            } else {
                return;
            };
            marks[phase].get_or_insert(start.elapsed().as_secs_f64());
        });
        let total = start.elapsed().as_secs_f64();
        let quick = marks[0].expect("the search reports its quick phase");
        let full = marks[1].expect("the search reports its full phase");
        phases = [
            quick / total,
            (full - quick) / total,
            (total - full) / total,
        ];
        if seed == workload.default_seed() {
            let recorded = std::fs::read(crate::DSE_RESULT).unwrap_or_default();
            checks.check(
                report.to_json().as_bytes() == recorded.as_slice(),
                "search JSON equals the recorded result",
            );
        }
    }
    vec![
        Metric::new("dse.phase.reference_share", phases[0], "share"),
        Metric::new("dse.phase.quick_share", phases[1], "share"),
        Metric::new("dse.phase.full_share", phases[2], "share"),
        Metric::new("dse.tpe_suggest_us", per_trial_us(suggest_ns), "us"),
        Metric::new("dse.tpe_observe_us", per_trial_us(observe_ns), "us"),
    ]
}

//! Telemetry subsystem contracts.
//!
//! Three properties under test:
//!
//! 1. **Observation only** — enabling telemetry changes no simulation
//!    output: packets, latency bits, energy bits, transitions are all
//!    identical to a telemetry-off run (spot checks plus a proptest sweep
//!    over random small meshes).
//! 2. **Shard independence** — the exported trace (JSONL and CSV) is
//!    byte-identical between `shards = 1` and `shards = 2`, in every
//!    policy mode (DVS, on/off gating, non-power-aware).
//! 3. **Accounting closure** — the per-link `energy_nj` column telescopes
//!    to the run's total measured energy within 1e-9 relative, and the
//!    counter registry agrees with the conservation auditor (asserted
//!    inside `Experiment::run` whenever telemetry runs sharded).

use lumen_core::prelude::*;
use lumen_core::TRACE_SCHEMA;
use lumen_policy::OnOffConfig;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// The three policy disciplines a link can run under.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Dvs,
    OnOff,
    NonPa,
}

fn config_for(mode: Mode, seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.policy.timing.tw_cycles = 200;
    match mode {
        Mode::Dvs => {}
        Mode::OnOff => c.policy = c.policy.with_onoff(OnOffConfig::reference_default()),
        Mode::NonPa => c.power_aware = false,
    }
    c
}

fn experiment(mode: Mode, seed: u64) -> Experiment {
    Experiment::new(config_for(mode, seed))
        .warmup_cycles(600)
        .measure_cycles(4_000)
}

#[test]
fn telemetry_off_by_default() {
    let r = experiment(Mode::Dvs, 7).run_uniform(0.1, PacketSize::Fixed(4));
    assert!(r.telemetry.is_none());
}

#[test]
fn telemetry_is_purely_observational() {
    for mode in [Mode::Dvs, Mode::OnOff, Mode::NonPa] {
        let exp = experiment(mode, 11);
        let plain = exp.clone().run_uniform(0.15, PacketSize::Fixed(4));
        let traced = exp
            .telemetry(TelemetryConfig::full())
            .run_uniform(0.15, PacketSize::Fixed(4));
        assert_eq!(traced.packets_injected, plain.packets_injected, "{mode:?}");
        assert_eq!(
            traced.packets_delivered, plain.packets_delivered,
            "{mode:?}"
        );
        assert_eq!(
            traced.avg_latency_cycles.to_bits(),
            plain.avg_latency_cycles.to_bits(),
            "{mode:?}"
        );
        assert_eq!(
            traced.avg_power_mw.to_bits(),
            plain.avg_power_mw.to_bits(),
            "{mode:?}"
        );
        assert_eq!(traced.transitions, plain.transitions, "{mode:?}");
        assert!(plain.telemetry.is_none());
        let t = traced.telemetry.expect("telemetry recorded");
        assert!(!t.rows.is_empty(), "{mode:?} recorded no windows");
    }
}

proptest! {
    /// Random small meshes and rates: telemetry on vs off stays
    /// bit-identical in packets and energy.
    #[test]
    fn telemetry_identity_random_meshes(
        seed in 0u64..1_000,
        width in 1u8..4,
        height in 1u8..4,
        pa in 0u8..2,
        rate in 0.02f64..0.4,
    ) {
        let mut c = config_for(if pa == 1 { Mode::Dvs } else { Mode::NonPa }, seed);
        c.noc.width = width;
        c.noc.height = height;
        let exp = Experiment::new(c).warmup_cycles(300).measure_cycles(1_500);
        let plain = exp.clone().run_uniform(rate, PacketSize::Fixed(4));
        let traced = exp
            .telemetry(TelemetryConfig::full())
            .run_uniform(rate, PacketSize::Fixed(4));
        prop_assert_eq!(traced.packets_delivered, plain.packets_delivered);
        prop_assert_eq!(
            traced.avg_power_mw.to_bits(),
            plain.avg_power_mw.to_bits()
        );
        prop_assert_eq!(
            traced.avg_latency_cycles.to_bits(),
            plain.avg_latency_cycles.to_bits()
        );
    }
}

#[test]
fn trace_byte_identical_across_shards() {
    for mode in [Mode::Dvs, Mode::OnOff, Mode::NonPa] {
        let exp = experiment(mode, 23).telemetry(TelemetryConfig::full());
        let seq = exp
            .clone()
            .shards(1)
            .run_uniform(0.12, PacketSize::Fixed(4));
        let par = exp.shards(2).run_uniform(0.12, PacketSize::Fixed(4));
        let ts = seq.telemetry.expect("sequential trace");
        let tp = par.telemetry.expect("sharded trace");
        assert_eq!(
            ts.to_jsonl(),
            tp.to_jsonl(),
            "{mode:?}: JSONL trace differs between 1 and 2 shards"
        );
        assert_eq!(
            ts.to_csv(),
            tp.to_csv(),
            "{mode:?}: CSV trace differs between 1 and 2 shards"
        );
        // Every counter except the shard-dependent `events` agrees too.
        let mut cp = tp.counters.clone();
        cp.events = ts.counters.events;
        assert_eq!(ts.counters, cp, "{mode:?}: counters differ");
    }
}

#[test]
fn trace_schema_and_energy_closure() {
    for mode in [Mode::Dvs, Mode::OnOff] {
        let r = experiment(mode, 31)
            .telemetry(TelemetryConfig::full())
            .run_uniform(0.1, PacketSize::Fixed(4));
        let t = r.telemetry.expect("trace");
        assert_eq!(t.schema, TRACE_SCHEMA);
        let text = t.to_jsonl();
        let header = text.lines().next().unwrap();
        assert!(header.contains(TRACE_SCHEMA), "{header}");
        assert!(
            !text.contains("\"events\""),
            "{mode:?}: shard-dependent event count leaked into the trace"
        );
        // The per-link energy deltas telescope to the run's total energy.
        let sum = t.rows_energy_nj();
        let err = (sum - t.energy_nj).abs() / t.energy_nj.max(1e-12);
        assert!(
            err < 1e-9,
            "{mode:?}: energy column sums to {sum} nJ, run total {} nJ (rel {err:e})",
            t.energy_nj
        );
        // And the total matches what the run reported as average power:
        // avg_power = energy / measured time (`end_t_ps` includes warmup,
        // so use the experiment's 4 000 measured cycles).
        let cycle_ps = config_for(mode, 31).noc.cycle().as_ps();
        let duration_s = (4_000 * cycle_ps) as f64 * 1e-12;
        let avg_mw = t.energy_nj * 1e-9 / duration_s * 1e3;
        let rel = (avg_mw - r.avg_power_mw).abs() / r.avg_power_mw;
        assert!(rel < 1e-9, "{mode:?}: {avg_mw} vs {} mW", r.avg_power_mw);
    }
}

#[test]
fn counters_track_conservation_totals() {
    // Telemetry + shards > 1 forces the auditor inside Experiment::run,
    // which cross-checks flits_injected/flits_dropped against the
    // telemetry registry — reaching the end of this test is the proof.
    let r = experiment(Mode::Dvs, 41)
        .shards(2)
        .telemetry(TelemetryConfig::full())
        .run_uniform(0.2, PacketSize::Fixed(4));
    let t = r.telemetry.expect("trace");
    let c = &t.counters;
    assert!(c.flits_injected > 0);
    assert!(c.flits_sent >= c.flits_injected);
    assert!(c.alloc_won > 0, "routers switched no flits?");
    // Counters are whole-run conservation totals; RunResult metrics are
    // measured-phase only, so the registry can only be larger.
    assert!(c.packets_delivered >= r.packets_delivered);
    assert!(c.dvs_decisions > 0);
    // Every applied rate change traces back to a policy move; moves
    // decided near the end of the run may not have applied yet.
    assert!(c.rate_changes > 0);
    assert!(c.rate_changes <= c.dvs_ups + c.dvs_downs + c.onoff_sleeps + c.onoff_wakes);
}

#[test]
fn counters_only_mode_skips_series() {
    let cfg = TelemetryConfig {
        counters: true,
        link_series: false,
        retain_windows: None,
    };
    let r = experiment(Mode::Dvs, 47)
        .telemetry(cfg)
        .run_uniform(0.1, PacketSize::Fixed(4));
    let t = r.telemetry.expect("trace");
    assert!(
        t.rows.is_empty(),
        "series recorded despite link_series=false"
    );
    assert!(t.counters.flits_injected > 0);
}

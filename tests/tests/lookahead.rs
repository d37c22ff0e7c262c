//! Differential tests for lookahead-stretched barrier windows.
//!
//! The sharded backend sizes its barrier windows from the topology's
//! minimum cross-cut flit latency and a per-window credit-slack bound
//! (see `lumen-core/src/shard.rs` and DESIGN.md §6f). The contract under
//! test: window length is a pure performance knob — for every topology,
//! shard count, and lookahead cap, deliveries, latencies, energy, and
//! the exported telemetry trace bytes are **bit-identical** to the
//! sequential engine. A forced `lookahead_cap(1)` run pins the original
//! one-cycle-window protocol as a regression anchor. Routing is an input
//! too: adaptive west-first routing reads raw credit values, so its
//! windows stay pinned to the knowledge horizon unless every boundary VC
//! is fully accounted.

use lumen_core::prelude::*;
use lumen_noc::routing::RoutingAlgorithm;
use lumen_noc::TopologyKind;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// A small fabric of the given kind on the unit-test clock envelope.
fn config_for(
    kind: u8,
    seed: u64,
    width: u8,
    height: u8,
    vcs: u8,
    pa: bool,
    routing: RoutingAlgorithm,
) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.width = width;
    c.noc.height = height;
    c.noc.nodes_per_rack = 2;
    c.noc.vcs = vcs;
    c.noc.buffer_depth = 4 * u16::from(vcs);
    c.noc.topology = match kind % 2 {
        0 => TopologyKind::Mesh,
        _ => TopologyKind::FoldedClos { spines: 2 },
    };
    c.noc.routing = routing;
    c.power_aware = pa;
    c.policy.timing.tw_cycles = 200;
    c
}

/// Runs `config` sequentially and sharded-with-cap, then asserts the
/// two runs are indistinguishable: same deliveries and drops, bit-equal
/// latency/power summaries, and byte-equal telemetry trace exports.
fn assert_cap_invariant(config: SystemConfig, shards: usize, cap: u64, rate: f64) {
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(2_000)
        .audit_conservation()
        .telemetry(TelemetryConfig::full());
    let eff = lumen_core::effective_shards(&exp.config().noc, shards);
    if eff == 1 {
        return; // nothing to split
    }
    let seq = exp
        .clone()
        .shards(1)
        .run_uniform(rate, PacketSize::Fixed(4));
    let par = exp
        .shards(shards)
        .lookahead_cap(cap)
        .run_uniform(rate, PacketSize::Fixed(4));
    let tag = format!("shards {shards} (eff {eff}), cap {cap}");
    assert_eq!(par.packets_injected, seq.packets_injected, "{tag}");
    assert_eq!(par.packets_delivered, seq.packets_delivered, "{tag}");
    assert_eq!(par.packets_dropped, seq.packets_dropped, "{tag}");
    assert_eq!(par.flits_dropped, seq.flits_dropped, "{tag}");
    assert_eq!(
        par.avg_latency_cycles.to_bits(),
        seq.avg_latency_cycles.to_bits(),
        "{tag}: {} vs {}",
        par.avg_latency_cycles,
        seq.avg_latency_cycles
    );
    assert_eq!(
        par.p99_latency_cycles.to_bits(),
        seq.p99_latency_cycles.to_bits(),
        "{tag}"
    );
    assert_eq!(
        par.avg_power_mw.to_bits(),
        seq.avg_power_mw.to_bits(),
        "{tag}: {} vs {}",
        par.avg_power_mw,
        seq.avg_power_mw
    );
    assert_eq!(par.transitions, seq.transitions, "{tag}");
    let ts = seq.telemetry.expect("sequential trace");
    let tp = par.telemetry.expect("sharded trace");
    assert_eq!(
        ts.to_jsonl(),
        tp.to_jsonl(),
        "{tag}: JSONL trace bytes differ"
    );
    assert_eq!(ts.to_csv(), tp.to_csv(), "{tag}: CSV trace bytes differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random topology × shard count × lookahead cap, each under XY and
    /// west-first routing: the stretched protocol is bit-identical to the
    /// sequential engine. Caps above the static bound clamp to it, so
    /// high caps exercise the automatic window sizing and cap 1 the
    /// degenerate protocol.
    #[test]
    fn stretched_windows_match_sequential_everywhere(
        seed in 0u64..1_000,
        kind in 0u8..2,
        width in 2u8..4,
        height in 2u8..4,
        vcs in 1u8..3,
        shards in 2usize..5,
        cap in 1u64..8,
        rate_milli in 20u64..250,
        pa in 0u8..2,
    ) {
        for routing in [RoutingAlgorithm::XY, RoutingAlgorithm::WestFirst] {
            let config = config_for(kind, seed, width, height, vcs, pa == 1, routing);
            assert_cap_invariant(config, shards, cap, rate_milli as f64 / 1_000.0);
        }
    }
}

/// Adaptive routing past saturation: west-first scores raw credit
/// counts, and at this load boundary credits are still in flight at most
/// window ends, so only the adaptive window rule — windows pinned to the
/// knowledge horizon unless every boundary VC is fully accounted — keeps
/// the sharded run exact.
#[test]
fn saturated_west_first_matches_sequential() {
    for (width, height, pa, seed) in [(4, 4, true, 1), (4, 4, true, 2), (3, 3, false, 1)] {
        let config = config_for(0, seed, width, height, 2, pa, RoutingAlgorithm::WestFirst);
        assert_cap_invariant(config, 2, 8, 1.0);
    }
}

/// Regression anchor: `lookahead_cap(1)` reproduces the original
/// one-cycle-window protocol, and the automatic scheduler matches it
/// bit for bit — including sampled time series — so stretching can
/// never drift from the pinned behavior.
#[test]
fn forced_single_cycle_windows_pin_the_old_protocol() {
    let config = config_for(0, 7, 3, 4, 2, true, RoutingAlgorithm::XY);
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .sample_every(500)
        .audit_conservation();
    let seq = exp
        .clone()
        .shards(1)
        .run_uniform(0.12, PacketSize::Fixed(4));
    let capped = exp
        .clone()
        .shards(2)
        .lookahead_cap(1)
        .run_uniform(0.12, PacketSize::Fixed(4));
    let auto = exp.shards(2).run_uniform(0.12, PacketSize::Fixed(4));
    for (tag, run) in [("cap 1", &capped), ("auto", &auto)] {
        assert_eq!(run.packets_delivered, seq.packets_delivered, "{tag}");
        assert_eq!(
            run.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits(),
            "{tag}"
        );
        assert_eq!(
            run.avg_power_mw.to_bits(),
            seq.avg_power_mw.to_bits(),
            "{tag}"
        );
        assert_eq!(run.transitions, seq.transitions, "{tag}");
        assert_eq!(run.latency_series, seq.latency_series, "{tag}");
        assert_eq!(run.power_series, seq.power_series, "{tag}");
        assert_eq!(run.injection_series, seq.injection_series, "{tag}");
    }
}

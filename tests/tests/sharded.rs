//! Differential tests for the sharded conservative-parallel backend.
//!
//! The contract under test: for every configuration and shard count, the
//! sharded engine produces results **bit-identical** to the sequential
//! engine — same deliveries, same latencies, same energy, same policy
//! transitions. These tests sweep random small meshes and traffic and
//! compare shard counts {1, 2, 4} (clamped to the mesh height) against
//! the sequential run, plus a fault-injection run whose outages span
//! shard boundaries, with the flit/credit conservation auditor on.

use lumen_core::prelude::*;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// A small mesh with randomized geometry, derived from the unit-test
/// config so clocks and delays stay in the tested envelope.
fn mesh_config(seed: u64, width: u8, height: u8, npr: u8, vcs: u8, pa: bool) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.width = width;
    c.noc.height = height;
    c.noc.nodes_per_rack = npr;
    c.noc.vcs = vcs;
    c.noc.buffer_depth = 4 * u16::from(vcs);
    c.power_aware = pa;
    c.policy.timing.tw_cycles = 200;
    c
}

/// Runs `config` under uniform traffic at every shard count in
/// {1, 2, 4} (clamped to the mesh height) and asserts each sharded
/// result is bit-identical to the sequential one. Debug builds (all
/// `cargo test` runs) also run the conservation auditor on every run.
fn assert_shard_invariant(config: SystemConfig, rate: f64) {
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(2_500)
        .audit_conservation();
    let seq = exp
        .clone()
        .shards(1)
        .run_uniform(rate, PacketSize::Fixed(4));
    let height = exp.config().noc.height;
    for shards in [2usize, 4] {
        let eff = lumen_core::effective_shards(&exp.config().noc, shards);
        if eff == 1 {
            continue; // single-row mesh: nothing to split
        }
        let par = exp
            .clone()
            .shards(shards)
            .run_uniform(rate, PacketSize::Fixed(4));
        let tag = format!("shards {shards} (eff {eff}, height {height})");
        assert_eq!(par.packets_injected, seq.packets_injected, "{tag}");
        assert_eq!(par.packets_delivered, seq.packets_delivered, "{tag}");
        assert_eq!(par.packets_dropped, seq.packets_dropped, "{tag}");
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random small meshes + traffic: sharded == sequential, bit for bit.
    #[test]
    fn sharded_matches_sequential_on_random_meshes(
        seed in 0u64..1_000,
        width in 2u8..4,
        height in 2u8..5,
        npr in 1u8..3,
        vcs in 1u8..3,
        rate_milli in 20u64..300,
        pa in 0u8..2,
    ) {
        let config = mesh_config(seed, width, height, npr, vcs, pa == 1);
        assert_shard_invariant(config, rate_milli as f64 / 1_000.0);
    }
}

/// Time-series sampling crosses the merge too: the sampled series must
/// be identical, not just the end-of-run summaries.
#[test]
fn sharded_time_series_match_sequential() {
    let config = mesh_config(7, 2, 4, 2, 1, true);
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .sample_every(500)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.1, PacketSize::Fixed(4));
    let par = exp.shards(4).run_uniform(0.1, PacketSize::Fixed(4));
    assert_eq!(par.latency_series, seq.latency_series);
    assert_eq!(par.power_series, seq.power_series);
    assert_eq!(par.injection_series, seq.injection_series);
}

/// Fault injection with outages that span shard boundaries: faults fire
/// on links crossing the row-band cut, flits are dropped mid-route, and
/// the merged network must still pass the flit/credit conservation audit
/// while matching the sequential run exactly.
#[test]
fn sharded_faults_across_boundaries_match_and_conserve() {
    let mut config = mesh_config(11, 3, 4, 2, 1, true);
    config.faults = FaultConfig {
        outage_mtbf_cycles: 600,
        outage_mean_duration_cycles: 40,
        ..FaultConfig::disabled()
    };
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(4_000)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.1, PacketSize::Fixed(4));
    // Faults must actually occur for this test to mean anything.
    assert!(seq.link_faults > 0, "no faults fired; tighten mtbf");
    for shards in [2usize, 4] {
        let par = exp
            .clone()
            .shards(shards)
            .run_uniform(0.1, PacketSize::Fixed(4));
        assert_eq!(par.link_faults, seq.link_faults, "shards {shards}");
        assert_eq!(par.flits_dropped, seq.flits_dropped, "shards {shards}");
        assert_eq!(par.packets_dropped, seq.packets_dropped, "shards {shards}");
        assert_eq!(
            par.packets_delivered, seq.packets_delivered,
            "shards {shards}"
        );
        assert_eq!(
            par.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits(),
            "shards {shards}"
        );
        assert_eq!(
            par.avg_power_mw.to_bits(),
            seq.avg_power_mw.to_bits(),
            "shards {shards}"
        );
    }
}

/// The whole result, not a chosen few fields: on/off gating, outages and
/// laser dropouts, time-series sampling and full telemetry together, at
/// 1, 2 and 4 shards. Every field `RunResult` serializes must agree —
/// series, p99, fault counters, the telemetry trace and its counters —
/// except the engine's event count, which counts each core tick once per
/// shard.
#[test]
fn sharded_whole_result_matches_sequential_under_gating_and_faults() {
    let mut config = mesh_config(5, 3, 4, 2, 1, true);
    config.policy = config
        .policy
        .with_onoff(lumen_policy::OnOffConfig::reference_default());
    config.faults = FaultConfig {
        outage_mtbf_cycles: 700,
        outage_mean_duration_cycles: 40,
        dropout_mtbf_cycles: 900,
        dropout_mean_duration_cycles: 150,
        ..FaultConfig::disabled()
    };
    let exp = Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .sample_every(250)
        .telemetry(TelemetryConfig::full())
        .audit_conservation();
    let run = |shards: usize| {
        let mut r = exp
            .clone()
            .shards(shards)
            .run_uniform(0.1, PacketSize::Fixed(4));
        r.telemetry.as_mut().expect("telemetry").counters.events = 0;
        let text = serde_json::to_string(&r).expect("a finite result");
        (r, text)
    };
    let (seq, want) = run(1);
    // Each mechanism must act for the comparison to cover it.
    assert!(seq.link_faults > 0, "no faults fired");
    assert!(seq.flits_corrupted > 0, "no dropout corrupted a flit");
    assert!(seq.transitions > 0, "no link slept or woke");
    assert!(seq.power_series.len() >= 12, "too few samples");
    for shards in [2usize, 4] {
        assert_eq!(run(shards).1, want, "shards {shards}");
    }
}

/// The sequential fallback: shard counts above the mesh height clamp
/// rather than panic, and `--shards 1` is exactly the sequential engine.
#[test]
fn shard_counts_clamp_to_mesh_height() {
    let config = mesh_config(3, 2, 2, 1, 1, false);
    assert_eq!(lumen_core::effective_shards(&config.noc, 64), 2);
    assert_eq!(lumen_core::effective_shards(&config.noc, 0), 1);
    let exp = Experiment::new(config)
        .warmup_cycles(200)
        .measure_cycles(1_000);
    let seq = exp.clone().shards(1).run_uniform(0.2, PacketSize::Fixed(4));
    let par = exp.shards(64).run_uniform(0.2, PacketSize::Fixed(4));
    assert_eq!(par.packets_delivered, seq.packets_delivered);
    assert_eq!(
        par.avg_latency_cycles.to_bits(),
        seq.avg_latency_cycles.to_bits()
    );
}

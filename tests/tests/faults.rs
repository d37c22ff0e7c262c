//! Integration tests for link fault injection and graceful degradation,
//! exercised through the public `Experiment`/`Executor` API exactly the
//! way the `ext_faults` harness drives it.

use lumen_core::prelude::*;

fn small(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.policy.timing.tw_cycles = 200;
    c
}

fn faulted(outage_mtbf: u64, dropout_mtbf: u64) -> FaultConfig {
    FaultConfig {
        outage_mtbf_cycles: outage_mtbf,
        outage_mean_duration_cycles: 1_000,
        dropout_mtbf_cycles: dropout_mtbf,
        dropout_mean_duration_cycles: 1_000,
        ..FaultConfig::disabled()
    }
}

fn run(config: SystemConfig) -> RunResult {
    Experiment::new(config)
        .warmup_cycles(500)
        .measure_cycles(6_000)
        .audit_conservation()
        .run_uniform(0.15, PacketSize::Fixed(4))
}

#[test]
fn disabled_faults_are_inert() {
    // A config with the fault machinery explicitly disabled must be
    // bit-identical to one that never mentions faults: same traffic, same
    // policy decisions, same power — and every fault counter zero.
    let plain = run(small(21));
    let explicit = run(small(21).with_faults(FaultConfig::disabled()));
    assert_eq!(plain.packets_injected, explicit.packets_injected);
    assert_eq!(plain.packets_delivered, explicit.packets_delivered);
    assert_eq!(plain.avg_latency_cycles, explicit.avg_latency_cycles);
    assert_eq!(plain.avg_power_mw, explicit.avg_power_mw);
    assert_eq!(plain.transitions, explicit.transitions);
    assert_eq!(plain.link_faults, 0);
    assert_eq!(plain.flits_corrupted, 0);
    assert_eq!(plain.packets_dropped, 0);
    assert_eq!(plain.flits_dropped, 0);
    assert!((plain.delivery_ratio() - 1.0).abs() < 1e-12);
}

#[test]
fn degradation_is_graceful_under_shared_fault_realization() {
    // The headline property of the extension: under laser dropouts the
    // power-aware system (which pins faulted links to the safe bottom
    // rate, where the starved light still meets the receiver sensitivity)
    // delivers more packets intact than the fixed-10 Gb/s baseline. The
    // pair shares a comparison group so both see one fault realization.
    let faults = faulted(0, 4_000);
    let mk = |c: SystemConfig| {
        Experiment::new(c.with_faults(faults))
            .warmup_cycles(500)
            .measure_cycles(8_000)
            .audit_conservation()
    };
    let workload = Workload::Uniform {
        rate: 0.15,
        size: PacketSize::Fixed(4),
    };
    let points = [
        Point::new("base", mk(small(5).non_power_aware()), workload.clone()).in_group(0),
        Point::new("PA", mk(small(5)), workload).in_group(0),
    ];
    let results = Executor::new(2).run(&points);
    let base = results[0].expect_ok();
    let pa = results[1].expect_ok();
    assert_eq!(base.link_faults, pa.link_faults, "pair must share the plan");
    assert!(base.link_faults > 0, "no dropouts injected");
    assert!(
        base.packets_dropped > 0,
        "baseline at 10 Gb/s should corrupt under starved light"
    );
    assert!(
        pa.delivery_ratio() > base.delivery_ratio(),
        "PA {} <= baseline {}",
        pa.delivery_ratio(),
        base.delivery_ratio()
    );
    assert!(
        pa.delivery_ratio() > 0.97,
        "PA delivery {}",
        pa.delivery_ratio()
    );
}

#[test]
fn conservation_holds_under_heavy_mixed_faults() {
    // Outages and dropouts together at high intensity: the run must
    // complete with the flit/credit audit clean (audit_conservation
    // panics otherwise) and sane accounting.
    let r = run(small(8).with_faults(faulted(3_000, 3_000)));
    assert!(r.link_faults > 0);
    assert!(r.delivery_ratio() <= 1.0);
    assert!(
        r.packets_delivered + r.packets_dropped <= r.packets_injected + 1_000,
        "resolved more packets than injected"
    );
}

#[test]
fn faults_inside_a_stretched_window_match_sequential() {
    // The sharded engine stretches barrier windows to the cross-cut
    // lookahead (3 cycles on the test fabric), so a two-cycle fault
    // frequently begins *and* ends between two barriers. Fault effects
    // are local to the owning shard and must replay at exact event
    // times regardless of window framing: every corruption/drop counter
    // and bit of the latency/power summaries must match the sequential
    // engine, with the conservation audit clean. The run is
    // non-power-aware so dropouts actually corrupt (a DVS controller
    // would pin faulted links to the safe bottom rate).
    let mut config = small(13).non_power_aware();
    config.faults = FaultConfig {
        outage_mtbf_cycles: 150,
        outage_mean_duration_cycles: 2,
        dropout_mtbf_cycles: 150,
        dropout_mean_duration_cycles: 2,
        ..FaultConfig::disabled()
    };
    let exp = Experiment::new(config)
        .warmup_cycles(500)
        .measure_cycles(6_000)
        .audit_conservation();
    let seq = exp.clone().shards(1).run_uniform(0.3, PacketSize::Fixed(4));
    assert!(seq.link_faults > 0, "no faults fired; tighten mtbf");
    assert!(
        seq.flits_corrupted > 0 && seq.flits_dropped > 0,
        "faults never caught a flit (corrupted {}, dropped {})",
        seq.flits_corrupted,
        seq.flits_dropped
    );
    for shards in [2usize, 4] {
        let par = exp
            .clone()
            .shards(shards)
            .run_uniform(0.3, PacketSize::Fixed(4));
        let tag = format!("shards {shards}");
        assert_eq!(par.link_faults, seq.link_faults, "{tag}");
        assert_eq!(par.flits_corrupted, seq.flits_corrupted, "{tag}");
        assert_eq!(par.flits_dropped, seq.flits_dropped, "{tag}");
        assert_eq!(par.packets_dropped, seq.packets_dropped, "{tag}");
        assert_eq!(par.packets_delivered, seq.packets_delivered, "{tag}");
        assert_eq!(
            par.avg_latency_cycles.to_bits(),
            seq.avg_latency_cycles.to_bits(),
            "{tag}"
        );
        assert_eq!(
            par.avg_power_mw.to_bits(),
            seq.avg_power_mw.to_bits(),
            "{tag}"
        );
    }
}

#[test]
fn vcsel_links_never_see_laser_dropouts() {
    // Dropouts model sag in the shared external laser of an MQW system; a
    // VCSEL generates its own light per link, so a dropout-only schedule
    // must inject nothing.
    let r = run(small(3)
        .with_transmitter(TransmitterKind::Vcsel)
        .with_faults(faulted(0, 2_000)));
    assert_eq!(r.link_faults, 0);
    assert_eq!(r.flits_corrupted, 0);
    assert_eq!(r.packets_dropped, 0);
    assert!((r.delivery_ratio() - 1.0).abs() < 1e-12);
}

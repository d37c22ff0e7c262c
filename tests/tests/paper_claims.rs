//! The paper's qualitative claims, checked on the full-scale (64-rack,
//! 512-node) system with shortened horizons. These are the invariants the
//! benchmark harnesses reproduce quantitatively; here they gate CI.

use lumen_core::prelude::*;

fn experiment(config: SystemConfig) -> Experiment {
    Experiment::new(config)
        .warmup_cycles(4_000)
        .measure_cycles(12_000)
}

#[test]
fn light_load_saves_over_70_percent() {
    // §1 / §4.3: "more than 75% savings in power consumption" — at light
    // uniform load the network parks near the 5 Gb/s floor (norm ≈ 0.22).
    // The shortened horizon leaves some descent transient, so gate at 70%.
    let pa = experiment(SystemConfig::paper_default()).run_uniform(1.25, PacketSize::Fixed(5));
    assert!(
        pa.normalized_power < 0.30,
        "normalized power {} too high",
        pa.normalized_power
    );
    assert!(pa.transitions > 0);
}

#[test]
fn latency_cost_under_double_at_light_load() {
    // Table 3 headline: less-than-doubled latency for the savings.
    let pa = experiment(SystemConfig::paper_default()).run_uniform(1.25, PacketSize::Fixed(5));
    let base = experiment(SystemConfig::paper_default().non_power_aware())
        .run_uniform(1.25, PacketSize::Fixed(5));
    let nl = pa.normalized_latency(&base);
    assert!(nl < 2.0, "normalized latency {nl}");
    assert!(
        nl >= 1.0,
        "power-aware cannot be faster than baseline: {nl}"
    );
    assert!(pa.power_latency_product(&base) < 0.7);
}

#[test]
fn vcsel_beats_mqw_on_power() {
    // Fig. 5(h) / Fig. 6(d) / §5: VCSEL-based links consistently turn in
    // slightly better power (laser scales with the rail; the modulator
    // driver's supply is pinned).
    let mqw = experiment(SystemConfig::paper_default()).run_uniform(2.0, PacketSize::Fixed(5));
    let vcsel = experiment(SystemConfig::paper_default().with_transmitter(TransmitterKind::Vcsel))
        .run_uniform(2.0, PacketSize::Fixed(5));
    assert!(
        vcsel.normalized_power < mqw.normalized_power,
        "VCSEL {} vs MQW {}",
        vcsel.normalized_power,
        mqw.normalized_power
    );
}

#[test]
fn power_aware_keeps_up_at_medium_load() {
    // Fig. 5(g): the 5–10 Gb/s power-aware network does not lose
    // throughput at pre-saturation loads.
    let pa = experiment(SystemConfig::paper_default()).run_uniform(3.0, PacketSize::Fixed(5));
    let rate = pa.throughput();
    assert!(rate > 2.8, "throughput {rate} fell behind offered 3.0");
}

#[test]
fn more_power_saved_at_light_than_medium_load() {
    // Fig. 5(h): power rises with injected traffic before saturation.
    let light = experiment(SystemConfig::paper_default()).run_uniform(0.5, PacketSize::Fixed(5));
    let medium = experiment(SystemConfig::paper_default()).run_uniform(3.0, PacketSize::Fixed(5));
    assert!(
        light.normalized_power < medium.normalized_power,
        "light {} vs medium {}",
        light.normalized_power,
        medium.normalized_power
    );
}

#[test]
fn wider_ladder_saves_more_at_light_load() {
    // §4.3.1: with a 3.3 Gb/s floor, >90% savings are achievable.
    let mut config = SystemConfig::paper_default().with_transmitter(TransmitterKind::Vcsel);
    config.policy.ladder = BitRateLadder::paper_3_3_to_10();
    let wide = experiment(config).run_uniform(0.3, PacketSize::Fixed(5));
    let narrow = experiment(SystemConfig::paper_default().with_transmitter(TransmitterKind::Vcsel))
        .run_uniform(0.3, PacketSize::Fixed(5));
    assert!(
        wide.normalized_power < narrow.normalized_power,
        "3.3-floor {} vs 5-floor {}",
        wide.normalized_power,
        narrow.normalized_power
    );
    assert!(
        wide.normalized_power < 0.15,
        "wide ladder {} not <15%",
        wide.normalized_power
    );
}

#[test]
fn zeroed_transition_delays_do_not_hurt() {
    // Fig. 6(b): transition penalties cost latency; removing them helps
    // (slightly) and never hurts.
    let full = experiment(SystemConfig::paper_default()).run_uniform(2.0, PacketSize::Fixed(5));
    let mut config = SystemConfig::paper_default();
    config.policy.timing = config.policy.timing.with_zeroed_delays(true, true);
    let zeroed = experiment(config).run_uniform(2.0, PacketSize::Fixed(5));
    assert!(
        zeroed.avg_latency_cycles <= full.avg_latency_cycles * 1.05,
        "zeroed {} vs full {}",
        zeroed.avg_latency_cycles,
        full.avg_latency_cycles
    );
}

#[test]
fn splash_power_near_floor() {
    // Table 3: all three traces land near the ladder floor on average.
    let r = Experiment::new(SystemConfig::paper_default())
        .warmup_cycles(4_000)
        .measure_cycles(25_000)
        .run_splash(SplashApp::Radix);
    assert!(
        r.normalized_power < 0.35,
        "radix power {}",
        r.normalized_power
    );
    assert!(r.packets_delivered > 0);
}

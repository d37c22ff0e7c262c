//! Regression tests classifying the on/off discipline's full-horizon
//! behavior (the `ablation_onoff` deviation note in EXPERIMENTS.md).
//!
//! Verdict, pinned here so it cannot silently regress or get re-mislabeled:
//! the latency blow-up at full-scale horizons is **genuine policy-induced
//! instability**, not a statistics artifact. With the reference 1000-cycle
//! wake penalty, sparse traffic serializes a wake penalty per sleeping hop,
//! the effective service rate falls below the offered rate, queues grow for
//! as long as injection continues, and mean latency therefore grows with
//! the measurement window. It is *not* a deadlock — remove the load and the
//! network drains completely — and it is threshold behavior: short wake
//! penalties are stable at the same load.

use lumen_core::prelude::*;
use lumen_desim::{Picos, Rng};
use lumen_policy::OnOffConfig;
use lumen_traffic::SyntheticSource;

/// Sparse uniform load (packets/cycle network-wide) at which the
/// instability manifests on the small test network.
const SPARSE: f64 = 0.05;

fn onoff_config(seed: u64, wake_penalty_cycles: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.policy.timing.tw_cycles = 200;
    c.policy = c.policy.with_onoff(OnOffConfig {
        wake_penalty_cycles,
        ..OnOffConfig::reference_default()
    });
    c
}

fn run(config: SystemConfig, horizon: u64) -> RunResult {
    Experiment::new(config)
        .warmup_cycles(1_000)
        .measure_cycles(horizon)
        .run_uniform(SPARSE, PacketSize::Fixed(5))
}

#[test]
fn reference_wake_penalty_is_unstable_at_sparse_load() {
    // Quick-scale pin of the instability signature. The simulator is
    // deterministic, so the delivered counts are exact; the bounds state
    // the property those counts witness.
    let short = run(onoff_config(17, 1_000), 6_000);
    let long = run(onoff_config(17, 1_000), 24_000);
    // Injection keeps pace with the offered rate...
    assert!(
        short.packets_injected > 250,
        "inj {}",
        short.packets_injected
    );
    assert!(
        long.packets_injected > 1_100,
        "inj {}",
        long.packets_injected
    );
    // ...but delivery does not: the overwhelming majority of measured
    // packets are still queued when the horizon ends.
    assert!(
        (short.packets_delivered as f64) < 0.2 * short.packets_injected as f64,
        "short horizon delivered {}/{}",
        short.packets_delivered,
        short.packets_injected
    );
    assert!(
        (long.packets_delivered as f64) < 0.2 * long.packets_injected as f64,
        "long horizon delivered {}/{}",
        long.packets_delivered,
        long.packets_injected
    );
    // The smoking gun for instability (and against a stats artifact):
    // mean latency scales with the measurement window, because queues
    // grow for the whole horizon.
    assert!(
        long.avg_latency_cycles > 2.0 * short.avg_latency_cycles,
        "latency did not grow with horizon: {} -> {}",
        short.avg_latency_cycles,
        long.avg_latency_cycles
    );
}

#[test]
fn short_wake_penalties_are_stable_at_the_same_load() {
    // Same network, same load, wake penalty cut to 200 cycles (the
    // idle-detection window scale): throughput keeps up and latency is
    // horizon-independent — the instability is threshold behavior in the
    // wake penalty, not an artifact of the workload or the simulator.
    let short = run(onoff_config(17, 200), 6_000);
    let long = run(onoff_config(17, 200), 24_000);
    assert!(
        (short.packets_delivered as f64) > 0.9 * short.packets_injected as f64,
        "short delivered {}/{}",
        short.packets_delivered,
        short.packets_injected
    );
    assert!(
        (long.packets_delivered as f64) > 0.9 * long.packets_injected as f64,
        "long delivered {}/{}",
        long.packets_delivered,
        long.packets_injected
    );
    let ratio = long.avg_latency_cycles / short.avg_latency_cycles;
    assert!(
        (0.8..1.25).contains(&ratio),
        "stable config latency varied with horizon: {} -> {}",
        short.avg_latency_cycles,
        long.avg_latency_cycles
    );
}

#[test]
fn unstable_onoff_network_still_drains_when_load_stops() {
    // Not a deadlock: with the reference wake penalty, stop injecting and
    // every queued packet eventually delivers (each sleeping hop wakes on
    // demand; progress is slow but monotone).
    let config = onoff_config(17, 1_000);
    let source = Box::new(SyntheticSource::new(
        &config.noc,
        Pattern::Uniform,
        RateProfile::Phases(vec![(4_000, SPARSE), (400_000, 0.0)]),
        PacketSize::Fixed(5),
        Rng::seed_from(17),
    ));
    let mut engine = PowerAwareSim::build_engine(config, source, None);
    engine.run_until(Picos::from_ps(1600 * 150_000));
    let net = engine.model().network();
    assert!(net.is_quiescent(), "on/off backlog never drained");
    assert_eq!(
        net.packets_delivered(),
        engine.model().packets_injected_measured()
    );
    lumen_noc::audit_quiescent(net).assert_ok();
}

#[test]
fn dvs_is_stable_at_the_same_load_and_horizons() {
    // The control arm: the paper's ladder at the identical workload is
    // flat in the horizon and delivers everything — the instability
    // belongs to the on/off discipline, not the surrounding system.
    let mut dvs = SystemConfig::paper_default().with_seed(17);
    dvs.noc = NocConfig::small_for_tests();
    dvs.policy.timing.tw_cycles = 200;
    let short = run(dvs.clone(), 6_000);
    let long = run(dvs, 24_000);
    assert!((short.packets_delivered as f64) > 0.95 * short.packets_injected as f64);
    assert!((long.packets_delivered as f64) > 0.95 * long.packets_injected as f64);
    let ratio = long.avg_latency_cycles / short.avg_latency_cycles;
    assert!(
        (0.9..1.1).contains(&ratio),
        "DVS latency varied with horizon: {} -> {}",
        short.avg_latency_cycles,
        long.avg_latency_cycles
    );
}

//! Reproducibility: identical configurations and seeds must produce
//! bit-identical results across the whole stack, and configurations must
//! survive serde round trips.

use lumen_core::prelude::*;

fn config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.policy.timing.tw_cycles = 200;
    c
}

fn fingerprint(seed: u64, transmitter: TransmitterKind) -> (u64, u64, f64, f64, u64) {
    let r = Experiment::new(config(seed).with_transmitter(transmitter))
        .warmup_cycles(500)
        .measure_cycles(4_000)
        .run_uniform(0.3, PacketSize::Uniform(2, 8));
    (
        r.packets_injected,
        r.packets_delivered,
        r.avg_latency_cycles,
        r.avg_power_mw,
        r.transitions,
    )
}

#[test]
fn identical_seeds_identical_runs() {
    assert_eq!(
        fingerprint(42, TransmitterKind::MqwModulator),
        fingerprint(42, TransmitterKind::MqwModulator)
    );
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1, TransmitterKind::MqwModulator);
    let b = fingerprint(2, TransmitterKind::MqwModulator);
    assert_ne!(a, b);
}

#[test]
fn transmitter_changes_power_not_traffic() {
    // The transmitter technology affects only the power model: packet
    // flow, latency and transition decisions are identical. (Transition
    // decisions depend on utilization, which is technology-independent.)
    let mqw = fingerprint(7, TransmitterKind::MqwModulator);
    let vcsel = fingerprint(7, TransmitterKind::Vcsel);
    assert_eq!(mqw.0, vcsel.0);
    assert_eq!(mqw.1, vcsel.1);
    assert_eq!(mqw.2, vcsel.2);
    assert_ne!(mqw.3, vcsel.3, "power models must differ");
    assert_eq!(mqw.4, vcsel.4);
}

#[test]
fn executor_batch_parallel_matches_serial_fields() {
    // The executor's contract: thread count must not change any result
    // bit. Run the same batch serially and on four workers and compare
    // every scalar field of RunResult.
    let points: Vec<Point> = [0.1, 0.3, 0.5]
        .iter()
        .map(|&rate| {
            Point::new(
                format!("rate {rate}"),
                Experiment::new(config(7))
                    .warmup_cycles(500)
                    .measure_cycles(4_000),
                Workload::Uniform {
                    rate,
                    size: PacketSize::Fixed(4),
                },
            )
        })
        .collect();
    let serial = Executor::new(1).run(&points);
    let parallel = Executor::new(4).run(&points);
    for (s, p) in serial.iter().zip(&parallel) {
        let (s, p) = (s.expect_ok(), p.expect_ok());
        assert_eq!(s.cycles, p.cycles);
        assert_eq!(s.packets_injected, p.packets_injected);
        assert_eq!(s.packets_delivered, p.packets_delivered);
        assert_eq!(s.avg_latency_cycles, p.avg_latency_cycles);
        assert_eq!(s.p99_latency_cycles, p.p99_latency_cycles);
        assert_eq!(s.max_latency_cycles, p.max_latency_cycles);
        assert_eq!(s.avg_power_mw, p.avg_power_mw);
        assert_eq!(s.baseline_power_mw, p.baseline_power_mw);
        assert_eq!(s.normalized_power, p.normalized_power);
        assert_eq!(s.transitions, p.transitions);
    }
}

#[test]
fn grouped_pairs_share_traffic_at_any_thread_count() {
    // Comparison groups (common random numbers for paired points) must
    // both share the traffic stream within a group and stay bit-identical
    // across thread counts.
    let pa = Experiment::new(config(11))
        .warmup_cycles(500)
        .measure_cycles(4_000);
    let base = Experiment::new(config(11).non_power_aware())
        .warmup_cycles(500)
        .measure_cycles(4_000);
    let points: Vec<Point> = [0.1, 0.4]
        .iter()
        .enumerate()
        .flat_map(|(g, &rate)| {
            let workload = Workload::Uniform {
                rate,
                size: PacketSize::Fixed(4),
            };
            [
                Point::new(format!("PA {rate}"), pa.clone(), workload.clone()).in_group(g as u64),
                Point::new(format!("base {rate}"), base.clone(), workload).in_group(g as u64),
            ]
        })
        .collect();
    let serial = Executor::new(1).run(&points);
    let parallel = Executor::new(4).run(&points);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.expect_ok().packets_injected,
            p.expect_ok().packets_injected
        );
        assert_eq!(
            s.expect_ok().avg_latency_cycles,
            p.expect_ok().avg_latency_cycles
        );
    }
    // Within each group the pair sees identical offered traffic...
    assert_eq!(
        serial[0].expect_ok().packets_injected,
        serial[1].expect_ok().packets_injected
    );
    assert_eq!(
        serial[2].expect_ok().packets_injected,
        serial[3].expect_ok().packets_injected
    );
    // ...and distinct groups see distinct streams (different rates anyway,
    // but the seeds must differ too).
    assert_ne!(
        lumen_core::exec::derive_seed(11, 0),
        lumen_core::exec::derive_seed(11, 1)
    );
}

#[test]
fn fault_schedules_deterministic_across_jobs_and_order() {
    // The ext_faults harness shape: paired baseline/power-aware points
    // with fault injection on, sharing a comparison group. The fault
    // realization (outage onsets, dropout onsets, corruption draws) must
    // be bit-identical across thread counts AND across submission order —
    // it is derived from the group seed, never from scheduling.
    let faults = FaultConfig {
        outage_mtbf_cycles: 20_000,
        outage_mean_duration_cycles: 1_000,
        dropout_mtbf_cycles: 20_000,
        dropout_mean_duration_cycles: 1_000,
        ..FaultConfig::disabled()
    };
    let mk = |power_aware: bool| {
        let c = if power_aware {
            config(13)
        } else {
            config(13).non_power_aware()
        };
        Experiment::new(c.with_faults(faults))
            .warmup_cycles(500)
            .measure_cycles(6_000)
            .audit_conservation()
    };
    let workload = Workload::Uniform {
        rate: 0.15,
        size: PacketSize::Fixed(4),
    };
    let pa = Point::new("PA", mk(true), workload.clone()).in_group(0);
    let base = Point::new("base", mk(false), workload).in_group(0);

    let fault_print = |r: &RunResult| {
        (
            r.link_faults,
            r.flits_corrupted,
            r.packets_dropped,
            r.flits_dropped,
            r.packets_injected,
        )
    };
    let forward = [base.clone(), pa.clone()];
    let reversed = [pa, base];
    let serial = Executor::new(1).run(&forward);
    let parallel = Executor::new(4).run(&forward);
    let swapped = Executor::new(4).run(&reversed);

    // jobs=1 vs jobs=4: every fault-path counter identical per point.
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(fault_print(s.expect_ok()), fault_print(p.expect_ok()));
        assert_eq!(
            s.expect_ok().avg_latency_cycles,
            p.expect_ok().avg_latency_cycles
        );
    }
    // Submission order: the same point gets the same realization wherever
    // it sits in the batch (group seed, not batch index).
    assert_eq!(
        fault_print(serial[0].expect_ok()),
        fault_print(swapped[1].expect_ok())
    );
    assert_eq!(
        fault_print(serial[1].expect_ok()),
        fault_print(swapped[0].expect_ok())
    );
    // Common random numbers: the paired points share one fault plan, so
    // the injected-fault count matches across baseline and power-aware.
    assert_eq!(
        serial[0].expect_ok().link_faults,
        serial[1].expect_ok().link_faults
    );
    assert!(serial[0].expect_ok().link_faults > 0, "no faults injected");
}

#[test]
fn system_config_serde_round_trip() {
    let c = config(9);
    let json = serde_json::to_string(&c).expect("serialize");
    let back: SystemConfig = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, c);
}

#[test]
fn run_result_serializes() {
    let r = Experiment::new(config(3))
        .warmup_cycles(200)
        .measure_cycles(1_000)
        .run_uniform(0.2, PacketSize::Fixed(3));
    let json = serde_json::to_string(&r).expect("serialize result");
    let back: RunResult = serde_json::from_str(&json).expect("parse result");
    assert_eq!(back.packets_delivered, r.packets_delivered);
    assert_eq!(back.normalized_power, r.normalized_power);
}

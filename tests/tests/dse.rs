//! Integration tests for the `lumen-dse` search: seed-reproducible
//! reports, bit-identical full-fidelity re-evaluation of every reported
//! point, and quick-vs-full agreement on the delivery constraint.

use lumen_core::prelude::*;
use lumen_dse::{
    run_scenario, DseConfig, DseReport, DseWorkload, Goal, PolicyDraw, Scenario, SearchSpace,
    DSE_SCHEMA,
};
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

fn scenario(seed: u64) -> Scenario {
    let mut config = SystemConfig::paper_default().with_seed(seed);
    config.noc = NocConfig::small_for_tests();
    Scenario {
        name: "it-uniform".into(),
        config,
        workload: DseWorkload::Uniform { rate: 0.2 },
        group: 0,
        warmup_cycles: 500,
        measure_cycles: 6_000,
    }
}

fn dse() -> DseConfig {
    DseConfig {
        trials: 6,
        survivors: 2,
        batch: 3,
        quick_divisor: 3,
        ..DseConfig::default()
    }
}

/// Same seed, different thread counts: the `lumen-dse/1` JSON must come
/// out byte-identical — the contract the CI smoke job re-checks on every
/// push.
#[test]
fn report_json_is_byte_identical_across_reruns_and_thread_counts() {
    let a = run_scenario(&scenario(11), &dse(), &Executor::new(1), |_| {});
    let b = run_scenario(&scenario(11), &dse(), &Executor::new(3), |_| {});
    assert_eq!(a.schema, DSE_SCHEMA);
    assert_eq!(a.to_json(), b.to_json());

    let c = run_scenario(&scenario(12), &dse(), &Executor::new(1), |_| {});
    assert_ne!(a.to_json(), c.to_json(), "seed must matter");
}

/// Every full-fidelity point in a report re-evaluates bit-identically
/// when its recorded knobs are replayed through a fresh experiment at
/// the report's full horizons (the property that makes the
/// Pareto front auditable).
#[test]
fn reported_full_points_replay_bit_identically() {
    let scenario = scenario(21);
    let report = run_scenario(&scenario, &dse(), &Executor::new(2), |_| {});
    let full: Vec<_> = report.full_points().collect();
    assert!(!full.is_empty());
    for p in full {
        let mut config = scenario.config.clone();
        config.power_aware = true;
        p.params.apply(&mut config);
        let point = Point::new(
            "replay",
            Experiment::new(config)
                .warmup_cycles(report.full.warmup_cycles)
                .measure_cycles(report.full.measure_cycles),
            scenario
                .workload
                .workload(&scenario.config.noc, report.full.measure_cycles),
        )
        .in_group(scenario.group);
        let results = Executor::new(1).run(&[point]);
        let replayed = results[0].expect_ok().objectives().unwrap();
        assert_eq!(replayed, p.objectives, "trial {} diverged on replay", p.id);
    }
}

/// The reference rows bracket the search: the non-power-aware baseline
/// burns full power, Table 1 saves against it, and everything delivers.
#[test]
fn reference_rows_are_sane() {
    let report = run_scenario(&scenario(31), &dse(), &Executor::new(2), |_| {});
    assert!(report.baseline_non_pa.full.normalized_power > 0.9);
    assert!(report.table1.full.normalized_power < report.baseline_non_pa.full.normalized_power);
    assert_eq!(report.table1.full.delivery_ratio, 1.0);
    assert!(report
        .points
        .iter()
        .all(|p| p.objectives.delivery_ratio > 0.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Quick and full fidelity may disagree on *how good* a policy is,
    /// but never on whether it passes the delivery constraint for the
    /// same seed: fault-free runs deliver every resolved packet at any
    /// horizon, so pruning at quick fidelity cannot discard a policy
    /// that would have been feasible at full fidelity (or keep one that
    /// wouldn't).
    #[test]
    fn quick_and_full_fidelity_agree_on_the_delivery_constraint(
        seed in 0u64..1000,
        u0 in 0.0f64..1.0,
        u1 in 0.0f64..1.0,
        u2 in 0.0f64..1.0,
        u3 in 0.0f64..1.0,
    ) {
        let space = SearchSpace::paper_policy();
        // Vary the four threshold knobs; hold the rest mid-cube.
        let mut cube = vec![0.5; space.len()];
        cube[..4].copy_from_slice(&[u0, u1, u2, u3]);
        let draw = space.decode(&cube);

        let scenario = scenario(seed);
        let run = |warmup: u64, measure: u64| {
            let mut config = scenario.config.clone();
            draw.apply(&mut config);
            let point = Point::new(
                "fidelity",
                Experiment::new(config).warmup_cycles(warmup).measure_cycles(measure),
                scenario.workload.workload(&scenario.config.noc, measure),
            )
            .in_group(scenario.group);
            let results = Executor::new(1).run(&[point]);
            let obj = results[0].expect_ok().objectives().unwrap();
            Goal::new(&obj, 0.99)
        };
        let quick = run(200, 2_000);
        let full = run(scenario.warmup_cycles, scenario.measure_cycles);
        prop_assert_eq!(
            quick.feasible(),
            full.feasible(),
            "fidelities disagree on the constraint: quick violation {} vs full {} \
             (seed {}, draw {:?})",
            quick.violation,
            full.violation,
            seed,
            draw
        );
    }
}

/// Objective extraction composes with the search exactly as the unit
/// tests promise: the paper's own Table 1 draw decodes, validates, and
/// yields finite objectives on the paper mesh.
#[test]
fn table1_draw_round_trips_through_the_objective_path() {
    let mut config = SystemConfig::paper_default();
    config.noc = NocConfig::small_for_tests();
    PolicyDraw::paper_table1().apply(&mut config);
    config.validate();
    let r = Experiment::new(config)
        .warmup_cycles(500)
        .measure_cycles(5_000)
        .run_uniform(0.2, PacketSize::Fixed(5));
    let obj = r.objectives().unwrap();
    assert!(obj.normalized_power.is_finite());
    assert!(obj.p99_latency_cycles.is_finite());
    assert_eq!(obj.delivery_ratio, 1.0);
}

#[test]
fn recorded_reports_read_back_byte_identically() {
    // The recorded Pareto reports parse through the JSON reader and
    // re-serialize to the same bytes.
    for scenario in ["dc-folded-clos", "fig5-uniform", "fig6-hotspot"] {
        let path = format!(
            "{}/../results/dse_{scenario}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let json = std::fs::read_to_string(&path).expect("recorded report");
        let report: DseReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(report.schema, DSE_SCHEMA);
        assert!(report.to_json() == json, "{scenario}: bytes differ");
    }
}

//! Property-based integration tests: randomized workloads and
//! configurations against whole-system invariants.

use lumen_core::prelude::*;
use lumen_desim::{Picos, Rng};
use lumen_noc::ids::NodeId;
use lumen_policy::{LinkPolicyController, ThresholdTable};
use lumen_traffic::TrafficSource;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

fn small_config(seed: u64, vcs: u8, tw: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.vcs = vcs;
    c.policy.timing.tw_cycles = tw;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bursts_always_drain(
        seed in 0u64..1000,
        rate in 0.05f64..1.5,
        size in 1u32..10,
        vcs in 1u8..3,
    ) {
        let config = small_config(seed, vcs, 200);
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Phases(vec![(1_000, rate), (200_000, 0.0)]),
            PacketSize::Fixed(size),
            Rng::seed_from(seed),
        ));
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        engine.run_until(Picos::from_ps(1600 * 21_000));
        let net = engine.model().network();
        prop_assert!(net.is_quiescent(), "undrained network (seed {seed})");
        prop_assert_eq!(
            net.packets_delivered(),
            engine.model().packets_injected_measured()
        );
    }

    #[test]
    fn power_always_within_physical_bounds(
        seed in 0u64..1000,
        rate in 0.01f64..0.8,
        tw in 100u64..600,
    ) {
        let config = small_config(seed, 1, tw);
        let floor = config
            .link_model()
            .normalized_power(config.policy.ladder.point_at(0));
        let r = Experiment::new(config)
            .warmup_cycles(500)
            .measure_cycles(3_000)
            .run_uniform(rate, PacketSize::Fixed(4));
        prop_assert!(r.normalized_power >= floor - 1e-9);
        prop_assert!(r.normalized_power <= 1.0 + 1e-9);
        prop_assert!(r.avg_latency_cycles >= 0.0);
    }

    #[test]
    fn generated_packets_are_well_formed(
        seed in 0u64..10_000,
        rate in 0.0f64..4.0,
    ) {
        let config = SystemConfig::paper_default();
        let mut source = SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(rate),
            PacketSize::Uniform(1, 64),
            Rng::seed_from(seed),
        );
        let mut out = Vec::new();
        for c in 0..200u64 {
            source.packets_for_cycle(c, Picos::from_ps(c * 1600), &mut out);
        }
        let n = config.noc.node_count();
        for p in &out {
            prop_assert!(p.src.index() < n);
            prop_assert!(p.dst.index() < n);
            prop_assert_ne!(p.src, p.dst);
            prop_assert!(p.size_flits >= 1 && p.size_flits <= 64);
        }
    }

    #[test]
    fn hotspot_weights_never_target_source(seed in 0u64..500) {
        let config = SystemConfig::paper_default();
        let pattern = Pattern::paper_hotspot(&config.noc);
        let mut rng = Rng::seed_from(seed);
        // The hot node itself sends: it must never pick itself.
        let hot = NodeId(348);
        for _ in 0..200 {
            if let Some(dst) = pattern.pick(&config.noc, hot, &mut rng) {
                prop_assert_ne!(dst, hot);
            }
        }
    }

    #[test]
    fn splash_profiles_in_unit_range(cycle in 0u64..10_000_000) {
        for app in SplashApp::ALL {
            let r = RateProfile::Splash(app).rate_at(cycle);
            prop_assert!(r > 0.0 && r < 1.0, "{} rate {} at {}", app, r, cycle);
        }
    }

    // Hysteresis well-formedness: any table built from the Fig. 5(d-f)
    // sweep parameterization validates, and both congestion branches keep
    // TL strictly below TH inside [0, 1].
    #[test]
    fn threshold_tables_are_well_formed(
        avg in 0.2f64..0.8,
        gap in 0.02f64..0.35,
        bu in 0.0f64..1.0,
    ) {
        let t = ThresholdTable::uniform(avg, gap);
        t.validate();
        for probe in [0.0, bu, 1.0] {
            let (lo, hi) = t.select(probe);
            prop_assert!(lo < hi, "TL {lo} >= TH {hi} at Bu {probe}");
            prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    // Hysteresis stability: a constant utilization input must never make
    // the controller oscillate. The level ramps monotonically to its fixed
    // point and stays there — any config where ups and downs are both
    // nonzero under constant input has a broken TL/TH band.
    #[test]
    fn constant_utilization_never_oscillates(
        lu in 0.0f64..1.0,
        bu in 0.0f64..1.0,
        avg in 0.2f64..0.8,
        gap in 0.02f64..0.35,
        n_windows in 1usize..6,
        start_level in 0usize..4,
    ) {
        let mut config = PolicyConfig::paper_default();
        config.thresholds = ThresholdTable::uniform(avg, gap);
        config.timing.n_windows = n_windows;
        let cycle = Picos::from_ps(1600);
        let tw = cycle * config.timing.tw_cycles;
        let start = start_level.min(config.ladder.top_level());
        let mut c = LinkPolicyController::new(&config, cycle, start);
        let mut now = Picos::ZERO;
        for _ in 0..48 {
            if let Some(t) = c.on_window(now, lu, bu) {
                now = t.complete_at;
                c.transition_complete();
            }
            now += tw;
        }
        prop_assert!(
            c.ups == 0 || c.downs == 0,
            "oscillation under constant lu {lu}: {} ups, {} downs", c.ups, c.downs
        );
        // The fixed point really is fixed: further windows decide nothing.
        let settled = c.level();
        for _ in 0..8 {
            prop_assert!(c.on_window(now, lu, bu).is_none());
            now += tw;
        }
        prop_assert_eq!(c.level(), settled);
    }
}

/// Conservation: every spatial traffic pattern, run as a burst and then
/// drained with faults off, must leave the network quiescent with the
/// flit/credit audit clean (injected == delivered, credits at rest).
#[test]
fn all_patterns_drain_and_conserve_flits() {
    let geometry = small_config(0, 2, 200).noc;
    let patterns = [
        ("uniform", Pattern::Uniform),
        ("hotspot", Pattern::paper_hotspot(&geometry)),
        ("transpose", Pattern::Transpose),
        ("bit-complement", Pattern::BitComplement),
        ("tornado", Pattern::Tornado),
    ];
    for (i, (name, pattern)) in patterns.into_iter().enumerate() {
        let config = small_config(70 + i as u64, 2, 200);
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            pattern,
            RateProfile::Phases(vec![(2_000, 0.3), (200_000, 0.0)]),
            PacketSize::Uniform(1, 8),
            Rng::seed_from(70 + i as u64),
        ));
        let mut engine = PowerAwareSim::build_engine(config, source, None);
        engine.run_until(Picos::from_ps(1600 * 40_000));
        let net = engine.model().network();
        assert!(net.is_quiescent(), "{name}: network did not drain");
        lumen_noc::audit_quiescent(net).assert_ok();
        assert_eq!(
            net.packets_delivered(),
            engine.model().packets_injected_measured(),
            "{name}: delivered != injected"
        );
    }
}

/// The same conservation check under a time-varying rate profile with the
/// non-power-aware baseline (exercises the fixed-rate path of the audit).
#[test]
fn baseline_bursty_profile_drains_and_conserves() {
    let config = small_config(99, 1, 200).non_power_aware();
    let source = Box::new(SyntheticSource::new(
        &config.noc,
        Pattern::Uniform,
        RateProfile::Phases(vec![(500, 0.6), (500, 0.05), (500, 0.6), (200_000, 0.0)]),
        PacketSize::Fixed(5),
        Rng::seed_from(99),
    ));
    let mut engine = PowerAwareSim::build_engine(config, source, None);
    engine.run_until(Picos::from_ps(1600 * 40_000));
    let net = engine.model().network();
    assert!(net.is_quiescent(), "baseline burst did not drain");
    lumen_noc::audit_quiescent(net).assert_ok();
}

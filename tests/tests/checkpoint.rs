//! Checkpoint/restore contracts (`CHECKPOINTS.md`).
//!
//! The determinism contract under test: a run split at a checkpoint —
//! saved to disk, process state discarded, resumed from the file — is
//! **bit-identical** to the unbroken run. Replay counters match exactly,
//! every floating-point metric matches by `.to_bits()`, and the exported
//! `lumen-trace/1` JSONL/CSV traces match byte for byte. Because shard
//! count is itself a pinned pure-performance knob (see
//! `tests/tests/lookahead.rs`), the unbroken side runs at shard counts
//! {1, 2, 4}: split-sequential must equal every one of them. Every
//! checkpointable traffic source takes its turn as the split run's input.
//!
//! A second battery checks rejection: corrupted, truncated, foreign, and
//! mismatched checkpoint files must fail with the right typed
//! [`CheckpointError`] — through the inspection view and through
//! `Experiment::resume`, which streams the file into a live engine —
//! never an index or allocation panic or garbage state.
//!
//! A third part pins the bytes. The recursive tree codec the library
//! used before save and resume streamed lives on here as the reference:
//! the one streaming codec must write its bytes and read them back bit
//! for bit, and a real checkpoint file is pinned to the size and hash the
//! tree codec gave it.

use lumen_core::prelude::*;
use lumen_core::{Checkpoint, CheckpointError};
use lumen_desim::Rng;
use lumen_policy::OnOffConfig;
use lumen_traffic::{
    DatacenterSource, SelfSimilarConfig, SelfSimilarSource, Trace, TraceRecord, TraceSource,
    TrafficSource,
};
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

const WARMUP: u64 = 600;
const MEASURE: u64 = 4_000;

/// The three policy disciplines a link can run under.
#[derive(Clone, Copy, Debug)]
enum Mode {
    Dvs,
    OnOff,
    NonPa,
}

fn config_for(kind: TopologyKind, mode: Mode, faults: bool, seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_default().with_seed(seed);
    c.noc = NocConfig::small_for_tests();
    c.noc.topology = kind;
    if !matches!(kind, TopologyKind::Mesh) {
        // Give non-mesh fabrics a couple of racks per leaf so the
        // folded-Clos spine fan-in is exercised.
        c.noc.width = 4;
        c.noc.height = 4;
        c.noc.nodes_per_rack = 2;
    }
    c.policy.timing.tw_cycles = 200;
    match mode {
        Mode::Dvs => {}
        Mode::OnOff => c.policy = c.policy.with_onoff(OnOffConfig::reference_default()),
        Mode::NonPa => c.power_aware = false,
    }
    if faults {
        c.faults = FaultConfig {
            outage_mtbf_cycles: 3_000,
            outage_mean_duration_cycles: 300,
            dropout_mtbf_cycles: 4_000,
            dropout_mean_duration_cycles: 400,
            ..FaultConfig::disabled()
        };
    }
    c
}

fn experiment(config: SystemConfig) -> Experiment {
    Experiment::new(config)
        .warmup_cycles(WARMUP)
        .measure_cycles(MEASURE)
        .sample_every(500)
        .audit_conservation()
        .telemetry(TelemetryConfig::full())
}

/// A unique scratch path for one checkpoint file.
fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lumen-ckpt-test-{}-{tag}.ckpt", std::process::id()))
}

/// Everything the determinism contract promises, in comparable form:
/// exact counters, float bits, and the exported trace bytes.
fn fingerprint(r: &RunResult) -> (Vec<u64>, String, String) {
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    (
        vec![
            r.packets_injected,
            r.packets_delivered,
            r.avg_latency_cycles.to_bits(),
            r.p99_latency_cycles.to_bits(),
            r.max_latency_cycles.to_bits(),
            r.avg_power_mw.to_bits(),
            r.normalized_power.to_bits(),
            r.transitions,
            r.packets_dropped,
            r.flits_dropped,
            r.flits_corrupted,
            r.link_faults,
            r.power_series.len() as u64,
        ],
        t.to_jsonl(),
        t.to_csv(),
    )
}

/// Builds a fresh traffic source for one run of `config`.
type SourceFn<'a> = &'a dyn Fn(&SystemConfig) -> Box<dyn TrafficSource + Send>;

/// Uniform-random traffic at `rate` packets/cycle.
fn uniform(rate: f64) -> impl Fn(&SystemConfig) -> Box<dyn TrafficSource + Send> {
    move |c: &SystemConfig| {
        Box::new(SyntheticSource::new(
            &c.noc,
            Pattern::Uniform,
            RateProfile::Constant(rate),
            PacketSize::Fixed(4),
            Rng::seed_from(c.seed),
        ))
    }
}

/// Runs the experiment unbroken and split-at-`save_cycle` (through a real
/// file), asserting the split run reproduces the unbroken run bit for bit
/// at every requested shard count.
fn assert_split_invariant(
    config: SystemConfig,
    save_cycle: u64,
    source: SourceFn,
    shard_counts: &[usize],
    tag: &str,
) {
    let exp = experiment(config);
    let run = |exp: Experiment| exp.run(source(exp.config()));
    let unbroken = run(exp.clone());
    let want = fingerprint(&unbroken);
    assert!(!unbroken.resumed);
    assert!(unbroken.packets_delivered > 0, "{tag}: no traffic to split");

    for &s in shard_counts {
        let sharded = run(exp.clone().shards(s));
        assert_eq!(
            fingerprint(&sharded),
            want,
            "{tag}: unbroken shards={s} diverged from sequential"
        );
    }

    let path = ckpt_path(tag);
    let first = run(exp.clone().save_at(save_cycle, &path));
    assert_eq!(
        fingerprint(&first),
        want,
        "{tag}: the saving run itself diverged"
    );
    assert_reencodes(&std::fs::read(&path).expect("checkpoint written"), tag);
    let resumed = run(exp.resume(&path));
    std::fs::remove_file(&path).ok();
    assert!(resumed.resumed, "{tag}: provenance flag missing");
    assert_eq!(
        fingerprint(&resumed),
        want,
        "{tag}: resumed run diverged from unbroken (saved at cycle {save_cycle})"
    );
}

#[test]
fn split_matches_unbroken_on_every_fabric() {
    for (kind, tag) in [
        (TopologyKind::Mesh, "mesh"),
        (TopologyKind::FoldedClos { spines: 2 }, "clos"),
    ] {
        // Mid-measurement save, faults on, DVS policy — the hard case:
        // RNG streams, fault windows, in-flight transitions, and
        // telemetry retention all cross the checkpoint boundary.
        let config = config_for(kind, Mode::Dvs, true, 33);
        assert_split_invariant(
            config,
            WARMUP + MEASURE / 2,
            &uniform(0.15),
            &[1, 2, 4],
            tag,
        );
    }
}

#[test]
fn split_inside_warmup_matches_unbroken() {
    // Saving before `begin_measurement` exercises the resume path that
    // must still run the warmup boundary itself.
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 7);
    assert_split_invariant(config, WARMUP / 2, &uniform(0.2), &[2], "warmup-split");
}

#[test]
fn split_under_onoff_gating_matches_unbroken() {
    // Sleeping links, pending wakes, and gate counters cross the save.
    let config = config_for(TopologyKind::Mesh, Mode::OnOff, false, 19);
    assert_split_invariant(config, WARMUP + MEASURE / 3, &uniform(0.05), &[2], "onoff");
}

#[test]
fn split_non_power_aware_matches_unbroken() {
    let config = config_for(TopologyKind::Mesh, Mode::NonPa, true, 23);
    assert_split_invariant(config, WARMUP + MEASURE / 2, &uniform(0.25), &[4], "nonpa");
}

#[test]
fn split_matches_unbroken_for_every_checkpointable_source() {
    // Each source carries its own state across the save: RNG streams,
    // burst phases (self-similar), client flows and pending responses
    // (datacenter), the replay cursor (trace). The hotspot and SPLASH
    // schedules change rate with the cycle, so a resumed source picks up
    // mid-schedule.
    let trace = {
        let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 0);
        let mut synth = uniform(0.2)(&config);
        let cycle = config.noc.cycle();
        let mut packets = Vec::new();
        for c in 0..WARMUP + MEASURE {
            synth.packets_for_cycle(c, cycle * c, &mut packets);
        }
        Trace::from_records(
            packets
                .iter()
                .map(|p| TraceRecord {
                    at_ps: p.created_at.as_ps(),
                    src: p.src.index(),
                    dst: p.dst.index(),
                    size_flits: p.size_flits,
                })
                .collect(),
        )
    };
    let synthetic = |pattern: fn(&SystemConfig) -> Pattern, profile: RateProfile, size: u32| {
        move |c: &SystemConfig| -> Box<dyn TrafficSource + Send> {
            Box::new(SyntheticSource::new(
                &c.noc,
                pattern(c),
                profile.clone(),
                PacketSize::Fixed(size),
                Rng::seed_from(c.seed),
            ))
        }
    };
    let datacenter = |c: &SystemConfig| -> Box<dyn TrafficSource + Send> {
        let dc = DatacenterConfig {
            diurnal_period_cycles: 2_000,
            incast_period_cycles: 500,
            incast_fanin: 4,
            ..DatacenterConfig::web_like(2)
        };
        Box::new(DatacenterSource::new(&c.noc, dc, Rng::seed_from(c.seed)))
    };
    let self_similar = |c: &SystemConfig| -> Box<dyn TrafficSource + Send> {
        let burst = SelfSimilarConfig {
            mean_off_cycles: 400.0,
            on_rate: 0.1,
            ..SelfSimilarConfig::ethernet_like()
        };
        Box::new(SelfSimilarSource::new(
            &c.noc,
            burst,
            Pattern::Uniform,
            PacketSize::Fixed(4),
            Rng::seed_from(c.seed),
        ))
    };
    let replay = |_: &SystemConfig| -> Box<dyn TrafficSource + Send> {
        Box::new(TraceSource::new(trace.clone()))
    };
    let hotspot = synthetic(
        |c| Pattern::paper_hotspot(&c.noc),
        RateProfile::paper_hotspot_schedule(),
        4,
    );
    let app = SplashApp::Radix;
    let splash = synthetic(
        |_| Pattern::Uniform,
        RateProfile::Splash(app),
        app.packet_size_flits(),
    );
    let sources: [(&str, SourceFn); 5] = [
        ("datacenter", &datacenter),
        ("self-similar", &self_similar),
        ("trace", &replay),
        ("hotspot", &hotspot),
        ("splash", &splash),
    ];
    for (tag, source) in sources {
        let config = config_for(TopologyKind::Mesh, Mode::Dvs, true, 43);
        assert_split_invariant(config, WARMUP + MEASURE / 2, source, &[2], tag);
    }
}

#[test]
fn source_state_restores_with_its_keys_reordered() {
    // A source reads its checkpoint entry by field name: the tree with
    // its keys reversed restores the same state.
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 5);
    let cycle = config.noc.cycle();
    let run = |source: &mut dyn TrafficSource, cycles: std::ops::Range<u64>| {
        let mut packets = Vec::new();
        for c in cycles {
            source.packets_for_cycle(c, cycle * c, &mut packets);
        }
    };
    let trace = Trace::from_records(
        (0..200)
            .map(|i| TraceRecord {
                at_ps: (cycle * (i * 5)).as_ps(),
                src: (i % 8) as usize,
                dst: ((i * 3 + 1) % 8) as usize,
                size_flits: 4,
            })
            .collect(),
    );
    let replay = |_: &SystemConfig| -> Box<dyn TrafficSource + Send> {
        Box::new(TraceSource::new(trace.clone()))
    };
    let self_similar = |c: &SystemConfig| -> Box<dyn TrafficSource + Send> {
        Box::new(SelfSimilarSource::new(
            &c.noc,
            SelfSimilarConfig::ethernet_like(),
            Pattern::Uniform,
            PacketSize::Fixed(4),
            Rng::seed_from(c.seed),
        ))
    };
    let datacenter = |c: &SystemConfig| -> Box<dyn TrafficSource + Send> {
        let dc = DatacenterConfig::web_like(2);
        Box::new(DatacenterSource::new(&c.noc, dc, Rng::seed_from(c.seed)))
    };
    let sources: [(&str, SourceFn); 4] = [
        ("synthetic", &uniform(0.3)),
        ("trace", &replay),
        ("self-similar", &self_similar),
        ("datacenter", &datacenter),
    ];
    for (tag, make) in sources {
        let mut source = make(&config);
        run(source.as_mut(), 0..500);
        let Some(serde::Value::Map(mut entries)) = source.checkpoint_state() else {
            panic!("{tag}: the state is a map");
        };
        entries.reverse();
        let mut restored = make(&config);
        restored
            .restore_state(&serde::Value::Map(entries))
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        let state = |s: &dyn TrafficSource| s.checkpoint_state();
        assert_eq!(state(restored.as_ref()), state(source.as_ref()), "{tag}");
        run(source.as_mut(), 500..1_000);
        run(restored.as_mut(), 500..1_000);
        assert_eq!(state(restored.as_ref()), state(source.as_ref()), "{tag}");
    }
}

/// A field of a checkpoint's schema tree.
fn field<'v>(v: &'v serde::Value, name: &str) -> &'v serde::Value {
    let entries = v.as_map().expect("a map");
    let (_, value) = entries
        .iter()
        .find(|(k, _)| k == name)
        .expect("field present");
    value
}

/// The u64 field of a checkpoint's schema tree.
fn count(v: &serde::Value, name: &str) -> u64 {
    match field(v, name) {
        serde::Value::U64(n) => *n,
        other => panic!("{name} is not a count: {other:?}"),
    }
}

#[test]
fn split_with_busy_sources_and_routers_matches_unbroken() {
    // The network steps only its active sources and routers (DESIGN.md
    // §6j), and the sets are derived state outside the checkpoint: resume
    // and shard merges rebuild them from component state. Cut where both
    // sets are non-empty, so a rebuild that missed a member would stop it.
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 41);
    let (cut, rate) = (WARMUP + MEASURE / 2, 0.6);
    let path = ckpt_path("active-sets");
    experiment(config.clone())
        .save_at(cut, &path)
        .run_uniform(rate, PacketSize::Fixed(4));
    let ckpt = Checkpoint::read_from(&path).expect("checkpoint written");
    std::fs::remove_file(&path).ok();
    let net = field(&ckpt.sim, "net");
    let sources = field(net, "sources").as_seq().expect("sources");
    let queued = sources
        .iter()
        .filter(|s| !field(s, "queue").as_seq().expect("queue").is_empty())
        .count();
    let routers = field(net, "routers").as_seq().expect("routers");
    let busy = routers
        .iter()
        .filter(|r| {
            let queues = field(r, "queues").as_seq().expect("queues");
            let states = field(r, "vc_state").as_seq().expect("vc_state");
            queues
                .iter()
                .any(|q| !q.as_seq().expect("a queue").is_empty())
                || states.iter().any(|s| s.as_str() != Some("Idle"))
        })
        .count();
    assert!(queued > 0, "no source has queued flits at cycle {cut}");
    assert!(busy > 0, "every router is idle at cycle {cut}");
    assert_split_invariant(config, cut, &uniform(rate), &[1, 2, 4], "active-sets");
}

#[test]
fn split_under_three_level_optics_matches_unbroken() {
    // Three optical levels run a laser controller per link, whose mode
    // and attenuator timing the file does not hold. Decisions every 300
    // cycles and a 200-cycle attenuator put the cut (100 cycles after the
    // sixth decision) where lasers sit at mixed levels and an attenuator
    // is still moving.
    let mut config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 13);
    let cycle = config.noc.cycle();
    config.policy.optical_mode = lumen_policy::OpticalMode::ThreeLevel;
    config.policy.timing.laser_decision_period = cycle * 300;
    config.policy.timing.attenuator_transition = cycle * 200;
    let (cut, rate) = (1_900, 0.4);
    let path = ckpt_path("three-level");
    experiment(config.clone())
        .save_at(cut, &path)
        .run_uniform(rate, PacketSize::Fixed(4));
    let ckpt = Checkpoint::read_from(&path).expect("checkpoint written");
    std::fs::remove_file(&path).ok();
    let lasers = field(&ckpt.sim, "lasers").as_seq().expect("lasers");
    let levels: std::collections::BTreeSet<&str> = lasers
        .iter()
        .map(|l| field(l, "level").as_str().expect("a level"))
        .collect();
    let at_cut = (cycle * cut).as_ps();
    let moving = lasers
        .iter()
        .filter(|l| count(l, "transition_until") > at_cut)
        .count();
    assert!(levels.len() > 1, "lasers all at {levels:?} at cycle {cut}");
    assert!(moving > 0, "no attenuator moving at cycle {cut}");
    assert!(lasers.iter().map(|l| count(l, "pdecs")).sum::<u64>() > 0);
    assert_split_invariant(config, cut, &uniform(rate), &[1, 2], "three-level");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized split points, seeds, loads, and policy modes: the
    /// split-vs-unbroken equality must hold at *every* cycle, not just
    /// the friendly mid-horizon ones.
    #[test]
    fn split_anywhere_matches_unbroken(
        seed in 0u64..1_000,
        cut in 1u64..(WARMUP + MEASURE),
        rate in 0.05f64..0.4,
        mode_sel in 0u8..3,
        faults_sel in 0u8..2,
    ) {
        let faults = faults_sel == 1;
        let mode = match mode_sel {
            0 => Mode::Dvs,
            1 => Mode::OnOff,
            _ => Mode::NonPa,
        };
        let config = config_for(TopologyKind::Mesh, mode, faults, seed);
        let exp = experiment(config);
        let unbroken = exp.clone().run_uniform(rate, PacketSize::Fixed(4));
        let path = ckpt_path(&format!("prop-{seed}-{cut}"));
        let saved = exp.clone().save_at(cut, &path).run_uniform(rate, PacketSize::Fixed(4));
        let resumed = exp.resume(&path).run_uniform(rate, PacketSize::Fixed(4));
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(fingerprint(&saved), fingerprint(&unbroken));
        prop_assert_eq!(fingerprint(&resumed), fingerprint(&unbroken));
        prop_assert!(resumed.resumed);
    }
}

// --- rejection battery -----------------------------------------------------

/// The battery's configuration (DVS on the small mesh, no faults).
fn battery_config() -> SystemConfig {
    config_for(TopologyKind::Mesh, Mode::Dvs, false, 3)
}

/// Writes a real checkpoint of [`battery_config`] to disk and returns its
/// bytes.
fn valid_checkpoint_bytes(tag: &str) -> Vec<u8> {
    checkpoint_bytes(battery_config(), tag)
}

/// Writes a real checkpoint of `config`'s run, saved at the end of its
/// warmup, to disk and returns its bytes.
fn checkpoint_bytes(config: SystemConfig, tag: &str) -> Vec<u8> {
    let path = ckpt_path(tag);
    experiment(config)
        .save_at(WARMUP, &path)
        .run_uniform(0.1, PacketSize::Fixed(4));
    let bytes = std::fs::read(&path).expect("checkpoint written");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn corrupted_and_truncated_checkpoints_are_rejected_with_typed_errors() {
    let bytes = valid_checkpoint_bytes("reject");
    // The pristine file parses.
    Checkpoint::from_bytes(&bytes).expect("valid checkpoint must parse");

    // Not a checkpoint at all.
    assert!(matches!(
        Checkpoint::from_bytes(b"{\"kind\":\"header\"}"),
        Err(CheckpointError::BadMagic)
    ));

    // Magic intact, version from the future.
    let mut v = bytes.clone();
    v[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        Checkpoint::from_bytes(&v),
        Err(CheckpointError::UnsupportedVersion(7))
    ));

    // Every prefix of the file fails cleanly (no panic, no OOM), with a
    // typed error.
    for cut in [0, 4, 12, 13, bytes.len() / 2, bytes.len() - 1] {
        let err = Checkpoint::from_bytes(&bytes[..cut]).expect_err("prefix must fail");
        assert!(
            matches!(
                err,
                CheckpointError::Truncated
                    | CheckpointError::BadMagic
                    | CheckpointError::Corrupt(_)
            ),
            "cut {cut}: unexpected {err}"
        );
    }

    // Flipping a tag byte inside the tree is caught structurally.
    let mut c = bytes.clone();
    c[12] = 0xEE;
    assert!(matches!(
        Checkpoint::from_bytes(&c),
        Err(CheckpointError::Corrupt(_) | CheckpointError::Truncated)
    ));

    // Trailing garbage is not silently ignored.
    let mut t = bytes.clone();
    t.extend_from_slice(b"tail");
    assert!(matches!(
        Checkpoint::from_bytes(&t),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn resume_refuses_corrupted_files_with_typed_errors() {
    // `Experiment::resume` streams untrusted bytes straight into a live
    // engine. Every bad file must stop it with the checkpoint error the
    // inspection view reports for the same bytes, never an index,
    // capacity or allocation panic from half-read state.
    let bytes = valid_checkpoint_bytes("resume-reject");
    let config = battery_config();
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&7u32.to_le_bytes());
    let mut flipped = bytes.clone();
    flipped[12] = 0xEE;
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"tail");
    let mut bad = vec![
        ("future version".to_string(), future),
        ("flipped tag".to_string(), flipped),
        ("trailing bytes".to_string(), trailing),
        (
            "foreign bytes".to_string(),
            b"{\"kind\":\"header\"}".to_vec(),
        ),
    ];
    for cut in [0, 4, 12, 13, bytes.len() / 2, bytes.len() - 1] {
        bad.push((format!("prefix of {cut} bytes"), bytes[..cut].to_vec()));
    }
    for (what, file) in bad {
        let want = Checkpoint::from_bytes(&file)
            .expect_err("a bad file")
            .to_string();
        let path = ckpt_path("resume-reject-file");
        std::fs::write(&path, &file).expect("write the bad file");
        let result = std::panic::catch_unwind(|| {
            experiment(config.clone())
                .resume(&path)
                .run_uniform(0.1, PacketSize::Fixed(4))
        });
        std::fs::remove_file(&path).ok();
        let msg = panic_message(result.expect_err("a bad file must refuse"));
        assert!(
            msg.starts_with("cannot resume from") && msg.ends_with(&want),
            "{what}: expected the checkpoint error {want:?}, got the panic {msg:?}"
        );
        assert!(
            [
                "checkpoint file is truncated",
                "corrupt checkpoint",
                "not a lumen checkpoint",
                "unsupported checkpoint container version",
            ]
            .iter()
            .any(|text| msg.contains(text)),
            "{what}: {msg}"
        );
    }
}

/// The entry `name` of a map in a checkpoint tree, to edit.
fn field_mut<'v>(v: &'v mut serde::Value, name: &str) -> &'v mut serde::Value {
    let serde::Value::Map(entries) = v else {
        panic!("{name}: not in a map");
    };
    let (_, value) = entries
        .iter_mut()
        .find(|(k, _)| k == name)
        .expect("field present");
    value
}

/// Element `i` of a sequence in a checkpoint tree, to edit.
fn item_mut(v: &mut serde::Value, i: usize) -> &mut serde::Value {
    let serde::Value::Seq(items) = v else {
        panic!("item {i}: not in a sequence");
    };
    &mut items[i]
}

/// Resumes from `file` and returns the panic message it refuses with.
fn resume_refusal(config: &SystemConfig, file: &[u8], tag: &str) -> String {
    let path = ckpt_path(tag);
    std::fs::write(&path, file).expect("write the file");
    let result = std::panic::catch_unwind(|| {
        experiment(config.clone())
            .resume(&path)
            .run_uniform(0.1, PacketSize::Fixed(4))
    });
    std::fs::remove_file(&path).ok();
    panic_message(result.expect_err("a file that does not fit must refuse"))
}

#[test]
fn resume_refuses_a_router_queue_deeper_than_its_vc() {
    // Router restore reads into the flat rings the network built, so a
    // queue longer than its VC must stop the read, not overrun a ring.
    let config = battery_config();
    let depth = usize::from(config.noc.depth_per_vc());
    let flit = serde::Serialize::serialize_value(&lumen_noc::Flit {
        packet: lumen_noc::PacketId(1),
        kind: lumen_noc::flit::FlitKind::Body,
        seq: 1,
        src: lumen_noc::NodeId(0),
        dst: lumen_noc::NodeId(1),
        size_flits: 4,
        created_at: lumen_desim::Picos::ZERO,
        corrupted: false,
    });
    assert_router_refused("deep-queue", |router| {
        let serde::Value::Seq(queue) = item_mut(field_mut(router, "queues"), 0) else {
            panic!("a queue");
        };
        queue.resize(depth + 1, flit);
        format!(
            "p0 vc0 queues {} flits, deeper than its {depth}-flit VC",
            depth + 1
        )
    });
}

/// Breaks the `sim` section of `bytes`, a file `config`'s experiment
/// saved, with `edit` through the reference codec, and checks that resume
/// refuses the result: the file does not fit this run, for the reason
/// `edit` returns.
fn assert_sim_refused(
    config: &SystemConfig,
    bytes: &[u8],
    tag: &str,
    edit: impl FnOnce(&mut serde::Value) -> String,
) {
    let mut tree = reference::decode(bytes).expect("the reference codec reads the file");
    let misfit = edit(field_mut(&mut tree, "sim"));
    let file = reference::encode(&tree);
    Checkpoint::from_bytes(&file).expect("the broken file is well-formed");
    let msg = resume_refusal(config, &file, tag);
    let want = format!("checkpoint does not fit this run: {misfit}");
    assert!(
        msg.starts_with("cannot resume from") && msg.ends_with(&want),
        "unexpected refusal {msg:?}, wanted {want:?}"
    );
}

/// Resumes the battery's file with one source's entry broken by `edit`
/// through the reference codec, and checks that resume refuses it, naming
/// the source and the misfit `edit` returns. `busy` picks the one source
/// whose queue holds a packet mid-way through (the battery's file has
/// exactly one); otherwise source 0, whose queue is empty.
fn assert_source_refused(tag: &str, busy: bool, edit: impl FnOnce(&mut serde::Value) -> String) {
    assert_sim_refused(
        &battery_config(),
        &valid_checkpoint_bytes(tag),
        tag,
        |sim| {
            let serde::Value::Seq(sources) = field_mut(field_mut(sim, "net"), "sources") else {
                panic!("sources");
            };
            let queued =
                |source: &serde::Value| field(source, "queue").as_seq().expect("queue").len();
            let n = if busy {
                let busy: Vec<usize> = (0..sources.len())
                    .filter(|&n| queued(&sources[n]) > 0)
                    .collect();
                assert_eq!(busy.len(), 1, "one source holds a packet");
                assert!(
                    count(&sources[busy[0]], "head_sent") > 0,
                    "it is mid-packet"
                );
                busy[0]
            } else {
                assert_eq!(queued(&sources[0]), 0);
                0
            };
            format!("source n{n} does not fit: {}", edit(&mut sources[n]))
        },
    );
}

/// Resumes the battery's file with router 0's entry broken by `edit`
/// through the reference codec, and checks that resume refuses it, naming
/// the router and the misfit `edit` returns.
fn assert_router_refused(tag: &str, edit: impl FnOnce(&mut serde::Value) -> String) {
    assert_sim_refused(
        &battery_config(),
        &valid_checkpoint_bytes(tag),
        tag,
        |sim| {
            let routers = field_mut(field_mut(sim, "net"), "routers");
            format!("router r0 does not fit: {}", edit(item_mut(routers, 0)))
        },
    );
}

#[test]
fn resume_refuses_source_credits_for_other_vcs() {
    assert_source_refused("source-credit-vcs", false, |source| {
        let serde::Value::Seq(credits) = field_mut(source, "credits") else {
            panic!("credits");
        };
        let vcs = credits.len();
        credits.push(serde::Value::U64(1));
        format!("credits for {} VCs, built with {vcs}", vcs + 1)
    });
}

#[test]
fn resume_refuses_a_source_credit_above_its_vc_depth() {
    // A credit above the VC's depth would let the source overrun the
    // router's ring downstream.
    let depth = battery_config().noc.depth_per_vc();
    assert_source_refused("source-credit-depth", false, |source| {
        *item_mut(field_mut(source, "credits"), 0) = serde::Value::U64(u64::from(depth) + 1);
        format!("vc0 holds {} credits, above its {depth}-flit VC", depth + 1)
    });
}

#[test]
fn resume_refuses_a_source_active_vc_it_does_not_have() {
    let vcs = battery_config().noc.vcs;
    assert_source_refused("source-active-vc", false, |source| {
        *field_mut(source, "active_vc") = serde::Value::U64(u64::from(vcs));
        format!("active vc{vcs}, built with {vcs} VCs")
    });
}

#[test]
fn resume_refuses_a_queued_packet_from_another_node() {
    assert_source_refused("source-packet-src", true, |source| {
        let packet = item_mut(field_mut(source, "queue"), 0);
        let [id, src, dst, size] = ["id", "src", "dst", "size_flits"].map(|f| count(packet, f));
        *field_mut(packet, "src") = serde::Value::U64(src + 1);
        format!(
            "queued packet pkt{id}[n{}→n{dst}, {size} flits] is from n{}",
            src + 1,
            src + 1
        )
    });
}

#[test]
fn resume_refuses_a_queued_packet_with_no_flits() {
    assert_source_refused("source-packet-empty", true, |source| {
        let packet = item_mut(field_mut(source, "queue"), 0);
        *field_mut(packet, "size_flits") = serde::Value::U64(0);
        format!("queued packet pkt{} has no flits", count(packet, "id"))
    });
}

#[test]
fn resume_refuses_a_head_count_not_below_the_head_packet_size() {
    // The source builds flit `head_sent` of its head packet next, so the
    // count must name one of the packet's flits.
    assert_source_refused("source-head-sent", true, |source| {
        let packet = item_mut(field_mut(source, "queue"), 0);
        let [id, src, dst, size] = ["id", "src", "dst", "size_flits"].map(|f| count(packet, f));
        *field_mut(source, "head_sent") = serde::Value::U64(size);
        format!("{size} flits of head packet pkt{id}[n{src}→n{dst}, {size} flits] sent")
    });
    // With no packet queued, no flit can have been sent.
    assert_source_refused("source-head-sent-idle", false, |source| {
        *field_mut(source, "head_sent") = serde::Value::U64(1);
        "1 flits sent with no packet queued".to_string()
    });
}

#[test]
fn resume_refuses_an_arbiter_priority_past_its_requesters() {
    // A pointer at or past the requesters is refused as it is read, for
    // every arbiter in the file: source 0's over its VCs, and router 0's
    // over its slots.
    let config = battery_config();
    let vcs = u64::from(config.noc.vcs);
    let bytes = valid_checkpoint_bytes("arbiter-next");
    assert_sim_refused(&config, &bytes, "arbiter-next", |sim| {
        let sources = field_mut(field_mut(sim, "net"), "sources");
        let arbiter = field_mut(item_mut(sources, 0), "vc_arbiter");
        *field_mut(arbiter, "next") = serde::Value::U64(vcs);
        format!("arbiter priority {vcs} is not one of its {vcs} requesters")
    });
    for key in ["sa_next", "va_next"] {
        assert_sim_refused(&config, &bytes, "arbiter-next", |sim| {
            let routers = field_mut(field_mut(sim, "net"), "routers");
            let router = item_mut(routers, 0);
            let slots = field(router, "vc_state").as_seq().expect("vc_state").len();
            *item_mut(field_mut(router, key), 0) = serde::Value::U64(slots as u64);
            format!("arbiter priority {slots} is not one of its {slots} requesters")
        });
    }
}

/// A VC state as the checkpoint writes it.
fn vc_state(variant: &str, fields: &[(&str, u64)]) -> serde::Value {
    let fields = fields
        .iter()
        .map(|&(k, v)| (k.to_string(), serde::Value::U64(v)))
        .collect();
    serde::Value::Map(vec![(variant.to_string(), serde::Value::Map(fields))])
}

/// The port count of a router entry: one `Bu` accumulator per port.
fn ports(router: &serde::Value) -> u64 {
    field(router, "occupancy_accum")
        .as_seq()
        .expect("occupancy_accum")
        .len() as u64
}

#[test]
fn resume_refuses_a_vc_routed_past_the_router_ports() {
    assert_router_refused("router-out-port", |router| {
        let ports = ports(router);
        *item_mut(field_mut(router, "vc_state"), 0) = vc_state("VcAlloc", &[("out_port", ports)]);
        format!("p0 vc0 is routed to p{ports}, past its {ports} ports")
    });
}

#[test]
fn resume_refuses_a_vc_holding_an_output_vc_past_its_vcs() {
    let vcs = u64::from(battery_config().noc.vcs);
    assert_router_refused("router-out-vc", |router| {
        *item_mut(field_mut(router, "vc_state"), 0) =
            vc_state("Active", &[("out_port", 0), ("out_vc", vcs)]);
        format!("p0 vc0 holds output vc{vcs}, past its {vcs} VCs")
    });
}

#[test]
fn resume_refuses_an_output_vc_held_by_an_input_the_router_lacks() {
    let vcs = u64::from(battery_config().noc.vcs);
    for (tag, past_port) in [("router-owner-port", true), ("router-owner-vc", false)] {
        assert_router_refused(tag, |router| {
            let ports = ports(router);
            let (in_port, in_vc) = if past_port { (ports, 0) } else { (0, vcs) };
            *item_mut(field_mut(router, "vc_owner"), 0) =
                serde::Value::Seq(vec![serde::Value::U64(in_port), serde::Value::U64(in_vc)]);
            format!(
                "p0 vc0 is held by p{in_port} vc{in_vc}, not one of its {ports} ports × {vcs} VCs"
            )
        });
    }
}

#[test]
fn resume_refuses_a_switch_priority_past_the_router_ports() {
    // Switch allocation starts its scan of the output ports at
    // `sa_rotate`, so it must name one of them.
    assert_router_refused("router-sa-rotate", |router| {
        let ports = ports(router);
        *field_mut(router, "sa_rotate") = serde::Value::U64(ports);
        format!("switch priority {ports} is not one of its {ports} ports")
    });
}

#[test]
fn resume_refuses_an_output_credit_above_its_vc_depth() {
    // A credit above the downstream VC's depth would let the router
    // overrun the ring it feeds.
    let config = battery_config();
    let (vcs, depth) = (u64::from(config.noc.vcs), config.noc.depth_per_vc());
    assert_router_refused("router-credit", |router| {
        let slot = vcs as usize; // output p1 vc0, an ejection port
        *item_mut(field_mut(router, "credits"), slot) = serde::Value::U64(u64::from(depth) + 1);
        format!(
            "output p1 vc0 holds {} credits, above its {depth}-flit VC",
            depth + 1
        )
    });
}

#[test]
fn resume_refuses_a_link_rate_that_is_not_positive_and_finite() {
    // The flit time is computed from the restored rate, which must be one
    // a link can serialize at.
    let bytes = valid_checkpoint_bytes("link-rate");
    for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        assert_sim_refused(&battery_config(), &bytes, "link-rate", |sim| {
            let links = field_mut(field_mut(sim, "net"), "links");
            *field_mut(item_mut(links, 0), "rate") = serde::Value::F64(rate);
            format!("link l0 does not fit: a rate of {rate} Gb/s is not positive and finite")
        });
    }
}

#[test]
fn resume_refuses_a_dvs_level_past_the_ladder() {
    // Controllers read their ladder from the configuration, so a level
    // the file holds must be one of its rungs.
    let config = battery_config();
    let levels = config.policy.ladder.level_count() as u64;
    assert_sim_refused(
        &config,
        &valid_checkpoint_bytes("dvs-level"),
        "dvs-level",
        |sim| {
            let serde::Value::Seq(controllers) = field_mut(sim, "controllers") else {
                panic!("controllers");
            };
            for c in controllers {
                *field_mut(c, "level") = serde::Value::U64(levels);
            }
            format!("l0's DVS controller is at level {levels}, past the {levels}-level ladder")
        },
    );
}

/// A sliding window holding `n` samples, as the checkpoint writes it.
fn window_of(n: usize) -> serde::Value {
    serde::Value::Map(vec![
        (
            "items".to_string(),
            serde::Value::Seq(vec![serde::Value::F64(0.5); n]),
        ),
        ("sum".to_string(), serde::Value::F64(0.5 * n as f64)),
    ])
}

#[test]
fn resume_refuses_a_dvs_average_over_more_windows_than_configured() {
    // Each window evicts only one sample, so a window holding more than
    // the configured average spans would average over too many for the
    // rest of the run.
    let config = battery_config();
    let windows = config.policy.timing.n_windows;
    assert_sim_refused(
        &config,
        &valid_checkpoint_bytes("dvs-window"),
        "dvs-window",
        |sim| {
            let serde::Value::Seq(controllers) = field_mut(sim, "controllers") else {
                panic!("controllers");
            };
            for c in controllers {
                *field_mut(c, "sliding") = window_of(3 * windows);
            }
            format!(
                "l0's DVS controller averages {} windows, more than its {windows}",
                3 * windows
            )
        },
    );
}

#[test]
fn resume_refuses_an_onoff_average_over_more_windows_than_configured() {
    let config = config_for(TopologyKind::Mesh, Mode::OnOff, false, 3);
    let windows = OnOffConfig::reference_default().n_windows;
    let bytes = checkpoint_bytes(config.clone(), "onoff-window");
    assert_sim_refused(&config, &bytes, "onoff-window", |sim| {
        let serde::Value::Seq(gates) = field_mut(sim, "onoff") else {
            panic!("onoff");
        };
        *field_mut(&mut gates[1], "window") = window_of(windows + 1);
        format!(
            "l1's on/off controller averages {} windows, more than its {windows}",
            windows + 1
        )
    });
}

#[test]
fn resume_refuses_a_sleeping_link_past_the_link_count() {
    let config = config_for(TopologyKind::Mesh, Mode::OnOff, false, 3);
    let bytes = checkpoint_bytes(config.clone(), "sleeping");
    assert_sim_refused(&config, &bytes, "sleeping", |sim| {
        let links = field(field(sim, "net"), "links")
            .as_seq()
            .expect("links")
            .len();
        *field_mut(sim, "sleeping") = serde::Value::Seq(vec![serde::Value::U64(99_999)]);
        format!("sleeping link l99999 is not one of the {links} links")
    });
}

#[test]
fn resume_refuses_a_configuration_copy_put_back_into_the_file() {
    // What the configuration gives is not in the file, so an edited copy
    // cannot be adopted: the reader refuses the key as one field too many.
    let config = battery_config();
    let bytes = valid_checkpoint_bytes("copy");
    type Edit = fn(&mut serde::Value) -> &mut serde::Value;
    let entries: [(&str, Edit, &str, usize); 4] = [
        ("cycle_index", |sim| sim, "PowerAwareSim", 25),
        ("ticks", |sim| field_mut(sim, "net"), "Network", 4),
        (
            "propagation",
            |sim| item_mut(field_mut(field_mut(sim, "net"), "links"), 0),
            "Link",
            8,
        ),
        (
            "thresholds",
            |sim| item_mut(field_mut(sim, "controllers"), 0),
            "LinkPolicyController",
            9,
        ),
    ];
    for (key, entry, ty, fields) in entries {
        assert_sim_refused(&config, &bytes, "copy", |sim| {
            let serde::Value::Map(map) = entry(sim) else {
                panic!("{key}: not a map");
            };
            map.push((key.to_string(), serde::Value::U64(5)));
            format!("expected {fields} fields for {ty}, got {}", fields + 1)
        });
    }
}

#[test]
fn resume_refuses_a_lumen_ckpt_4_file_with_the_schema_error() {
    // The schema id is read before any other field, so a `/4` file —
    // sources queueing flits — or a `/5` one — links, routers, controllers
    // and the fault plan holding configuration copies and caches — is
    // refused as a schema mismatch, whatever its body holds.
    let bytes = valid_checkpoint_bytes("schema-4");
    for schema in ["lumen-ckpt/4", "lumen-ckpt/5"] {
        let mut tree = reference::decode(&bytes).expect("the reference codec reads the file");
        *field_mut(&mut tree, "schema") = serde::Value::Str(schema.to_string());
        let file = reference::encode(&tree);
        assert!(matches!(
            Checkpoint::from_bytes(&file),
            Err(CheckpointError::Mismatch(_))
        ));
        let msg = resume_refusal(&battery_config(), &file, "schema-4");
        let want = format!(
            "checkpoint mismatch: checkpoint schema \"{schema}\", \
             this build reads \"lumen-ckpt/6\""
        );
        assert!(
            msg.starts_with("cannot resume from") && msg.ends_with(&want),
            "unexpected refusal {msg:?}"
        );
    }
}

#[test]
fn resume_into_a_different_configuration_panics() {
    let path = ckpt_path("mismatch");
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 11);
    experiment(config)
        .save_at(WARMUP + 100, &path)
        .run_uniform(0.1, PacketSize::Fixed(4));
    // Same geometry, different seed: a different experiment entirely.
    let other = config_for(TopologyKind::Mesh, Mode::Dvs, false, 12);
    let result = std::panic::catch_unwind(|| {
        experiment(other)
            .resume(&path)
            .run_uniform(0.1, PacketSize::Fixed(4))
    });
    std::fs::remove_file(&path).ok();
    let msg = panic_message(result.expect_err("mismatched resume must refuse"));
    assert!(
        msg.contains("different system configuration"),
        "unexpected panic message: {msg}"
    );
}

/// The text of a caught panic.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn resume_refuses_a_different_telemetry_retention() {
    // The file carries the saving run's retention state. Adopting it
    // under another `retain_windows` would export a trace that neither
    // configuration produces, so resume refuses, naming both.
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 29);
    let exp = |retain_windows: Option<u32>| {
        Experiment::new(config.clone())
            .warmup_cycles(WARMUP)
            .measure_cycles(MEASURE)
            .telemetry(TelemetryConfig {
                retain_windows,
                ..TelemetryConfig::full()
            })
    };
    let describe = |retain: Option<u32>| match retain {
        Some(n) => format!("a {n}-window retention cap"),
        None => "no retention cap".to_string(),
    };
    for (saved, resumed) in [(Some(4), None), (None, Some(4)), (Some(4), Some(8))] {
        let path = ckpt_path(&format!("retention-{saved:?}-{resumed:?}"));
        exp(saved)
            .save_at(WARMUP + MEASURE / 2, &path)
            .run_uniform(0.15, PacketSize::Fixed(4));
        let result = std::panic::catch_unwind(|| {
            exp(resumed)
                .resume(&path)
                .run_uniform(0.15, PacketSize::Fixed(4))
        });
        std::fs::remove_file(&path).ok();
        let msg = panic_message(result.expect_err("a different retention must refuse"));
        assert!(
            msg.contains("telemetry retention differs")
                && msg.contains(&format!("the checkpoint has {}", describe(saved)))
                && msg.contains(&format!("this run has {}", describe(resumed))),
            "{saved:?} -> {resumed:?}: unexpected panic message: {msg}"
        );
    }
}

#[test]
fn bounded_retention_is_split_safe_and_flags_decimated_rows() {
    // Retention keeps collector memory flat; the retained + decimated
    // row set must still be identical between split and unbroken runs.
    let mut config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 29);
    config.policy.timing.tw_cycles = 100; // more windows per run
    let telemetry = TelemetryConfig {
        retain_windows: Some(4),
        ..TelemetryConfig::full()
    };
    let exp = Experiment::new(config)
        .warmup_cycles(WARMUP)
        .measure_cycles(3 * MEASURE)
        .telemetry(telemetry);
    let unbroken = exp.clone().run_uniform(0.15, PacketSize::Fixed(4));
    let t = unbroken.telemetry.as_ref().expect("trace");
    let windows: std::collections::BTreeSet<u64> = t
        .rows
        .iter()
        .filter(|r| !r.closing)
        .map(|r| r.cycle)
        .collect();
    let full_windows = (WARMUP + 3 * MEASURE - WARMUP) / 100;
    assert!(
        (windows.len() as u64) < full_windows / 2,
        "retention kept {} of {} windows — not bounded",
        windows.len(),
        full_windows
    );
    assert!(
        t.rows.iter().any(|r| r.decimated),
        "long retained run must contain decimated rows"
    );
    assert!(
        t.to_jsonl().contains("\"decimated\":true"),
        "decimated rows must be marked in the export"
    );

    let path = ckpt_path("retention");
    exp.clone()
        .save_at(WARMUP + MEASURE, &path)
        .run_uniform(0.15, PacketSize::Fixed(4));
    let resumed = exp.resume(&path).run_uniform(0.15, PacketSize::Fixed(4));
    std::fs::remove_file(&path).ok();
    assert_eq!(
        resumed.telemetry.as_ref().expect("trace").to_jsonl(),
        t.to_jsonl(),
        "retained trace diverged across the split"
    );
}

// --- the reference codec and the byte pins ----------------------------------

/// The recursive tree codec the library used before save and resume
/// streamed: a whole [`serde::Value`] tree to the binary codec and back.
/// It is the reference the one streaming codec must agree with.
mod reference {
    use lumen_core::CheckpointError;
    use serde::Value;

    const TAG_NULL: u8 = 0;
    const TAG_BOOL: u8 = 1;
    const TAG_U64: u8 = 2;
    const TAG_I64: u8 = 3;
    const TAG_F64: u8 = 4;
    const TAG_STR: u8 = 5;
    const TAG_SEQ: u8 = 6;
    const TAG_MAP: u8 = 7;
    const MAX_DEPTH: u32 = 64;

    /// The 12-byte container header: magic and version word.
    pub const HEADER: &[u8; 12] = b"LUMENCK\n\x01\0\0\0";

    /// A container holding `tree`.
    pub fn encode(tree: &Value) -> Vec<u8> {
        let mut out = HEADER.to_vec();
        encode_value(tree, &mut out);
        out
    }

    /// The tree in a container, which must end with it.
    pub fn decode(bytes: &[u8]) -> Result<Value, CheckpointError> {
        let mut cursor = bytes
            .strip_prefix(HEADER)
            .ok_or(CheckpointError::BadMagic)?;
        let tree = decode_value(&mut cursor, 0)?;
        match cursor.len() {
            0 => Ok(tree),
            n => Err(CheckpointError::Corrupt(format!("{n} trailing bytes"))),
        }
    }

    pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(*b));
            }
            Value::U64(x) => {
                out.push(TAG_U64);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::I64(x) => {
                out.push(TAG_I64);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::F64(x) => {
                out.push(TAG_F64);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Seq(items) => {
                out.push(TAG_SEQ);
                out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                for item in items {
                    encode_value(item, out);
                }
            }
            Value::Map(entries) => {
                out.push(TAG_MAP);
                out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                for (k, val) in entries {
                    out.extend_from_slice(&(k.len() as u64).to_le_bytes());
                    out.extend_from_slice(k.as_bytes());
                    encode_value(val, out);
                }
            }
        }
    }

    fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
        if cursor.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = cursor.split_at(n);
        *cursor = tail;
        Ok(head)
    }

    fn take_u64(cursor: &mut &[u8]) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            take(cursor, 8)?.try_into().expect("8 bytes"),
        ))
    }

    fn take_len(cursor: &mut &[u8]) -> Result<usize, CheckpointError> {
        let len = take_u64(cursor)?;
        if len > cursor.len() as u64 {
            return Err(CheckpointError::Corrupt(format!(
                "length {len} exceeds the {} remaining bytes",
                cursor.len()
            )));
        }
        Ok(len as usize)
    }

    fn take_string(cursor: &mut &[u8]) -> Result<String, CheckpointError> {
        let len = take_len(cursor)?;
        let bytes = take(cursor, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("string is not valid UTF-8".to_string()))
    }

    pub fn decode_value(cursor: &mut &[u8], depth: u32) -> Result<Value, CheckpointError> {
        if depth > MAX_DEPTH {
            return Err(CheckpointError::Corrupt(format!(
                "nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        let tag = take(cursor, 1)?[0];
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => match take(cursor, 1)?[0] {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(CheckpointError::Corrupt(format!("bool byte {b:#04x}"))),
            },
            TAG_U64 => Ok(Value::U64(take_u64(cursor)?)),
            TAG_I64 => Ok(Value::I64(take_u64(cursor)? as i64)),
            TAG_F64 => Ok(Value::F64(f64::from_bits(take_u64(cursor)?))),
            TAG_STR => Ok(Value::Str(take_string(cursor)?)),
            TAG_SEQ => {
                let len = take_len(cursor)?;
                let mut items = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    items.push(decode_value(cursor, depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let len = take_len(cursor)?;
                let mut entries = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    let key = take_string(cursor)?;
                    let val = decode_value(cursor, depth + 1)?;
                    entries.push((key, val));
                }
                Ok(Value::Map(entries))
            }
            other => Err(CheckpointError::Corrupt(format!(
                "unknown value tag {other:#04x}"
            ))),
        }
    }
}

/// Compares trees with floats by bit pattern (NaN-safe, `-0.0 != 0.0`).
fn bits_eq(a: &serde::Value, b: &serde::Value) -> bool {
    use serde::Value;
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| bits_eq(a, b))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && bits_eq(va, vb))
        }
        _ => a == b,
    }
}

/// A checkpoint file re-encodes byte for byte through the reference
/// codec and through the inspection view.
fn assert_reencodes(bytes: &[u8], tag: &str) {
    let tree = reference::decode(bytes).expect("the reference codec reads the file");
    assert!(
        reference::encode(&tree) == bytes,
        "{tag}: reference re-encode differs"
    );
    let view = Checkpoint::from_bytes(bytes).expect("the view reads the file");
    assert!(view.to_bytes() == bytes, "{tag}: view re-encode differs");
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn checkpoint_bytes_are_pinned_to_the_tree_codec() {
    // The rejection battery's file, written by the engine's streaming
    // path, has the size and hash of the `lumen-ckpt/5` file for the same
    // run (84,241 bytes, FNV-1a `ca1fab991f77fb43`) decoded by the
    // reference codec and re-encoded with: `cycle_index` and the
    // network's `ticks` deleted (the header's `cycle` + 1); each of the 24
    // links' `id`, `from`, `to`, `flit_bits`, `propagation` and `flit_ps`;
    // each of the 8 sources' `id`, `inj_link` and its VC arbiter's `n`;
    // each of the 8 sinks' `id` and `ej_link`; each of the 24 DVS
    // controllers' `ladder`, `thresholds`, `tbr`, `tv`, `predictor` and
    // sliding window `capacity`; each of the 24 laser controllers' `mode`
    // and `attenuator_transition`; each of the 4 routers flattened to
    // `queues` and `vc_state` per input slot, `occupancy_accum` per port,
    // `credits` and `vc_owner` per output slot, the arbiters' pointers as
    // `sa_next` and `va_next` per port, then `sa_rotate`, `flits_switched`
    // and `sa_denials` (its ids, depth, wiring, port counts, arbiter
    // sizes, `flits_accepted`, buffered and active counts and stage masks
    // dropped); and the `lumen-ckpt/6` schema id. The `/5` file in turn
    // was the `/4` file (86,526 bytes) with each source's flit queue
    // turned into its packets and a `head_sent` count, and the sources'
    // `scratch_eligible`, the routers' `scratch_port_mask`, the links'
    // `kind`, the laser controllers' `decision_period` and the series'
    // `name` entries deleted.
    let bytes = valid_checkpoint_bytes("pin");
    assert_eq!(bytes.len(), 56_431);
    assert_eq!(format!("{:016x}", fnv64(&bytes)), "1d45c29ea7e58ca9");
    assert_reencodes(&bytes, "pin");
}

/// A random tree at most `depth` containers deep, biased towards the
/// awkward cases: NaN payloads, infinities, negative zero, multi-byte
/// strings and empty containers.
fn random_tree(rng: &mut Rng, depth: u32) -> serde::Value {
    use serde::Value;
    const FLOATS: [f64; 6] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        0.1 + 0.2,
    ];
    const WORDS: [&str; 5] = ["", "rate", "λ-link", "日本", "\u{1F600}"];
    match rng.index(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::U64(rng.next_u64()),
        3 => Value::I64(rng.next_u64() as i64 | i64::MIN),
        4 if rng.chance(0.5) => Value::F64(FLOATS[rng.index(FLOATS.len())]),
        4 => Value::F64(f64::from_bits(rng.next_u64())),
        5 => Value::Str(WORDS[rng.index(WORDS.len())].repeat(rng.index(3))),
        6 => Value::Seq(
            (0..rng.index(4))
                .map(|_| random_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.index(4))
                .map(|_| {
                    let key = WORDS[rng.index(WORDS.len())].to_string();
                    (key, random_tree(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

#[test]
fn the_one_codec_matches_the_reference_on_random_trees() {
    use serde::{Serialize, Value};
    let mut rng = Rng::seed_from(0x0C_0DEC);
    let config = SystemConfig::paper_default();
    for case in 0..300 {
        let ckpt = Checkpoint {
            config: config.clone(),
            warmup_cycles: rng.next_below(1 << 20),
            measure_cycles: rng.next_u64(),
            sample_every: rng.chance(0.5).then(|| rng.next_u64()),
            cycle: rng.next_u64(),
            events: rng.next_u64(),
            pending: Vec::new(),
            sim: random_tree(&mut rng, 6),
            source: random_tree(&mut rng, 3),
        };
        // The tree the library's tree codec used to encode.
        let tree = Value::Map(vec![
            ("schema".into(), Value::Str(lumen_core::CKPT_SCHEMA.into())),
            ("config".into(), ckpt.config.serialize_value()),
            ("warmup_cycles".into(), Value::U64(ckpt.warmup_cycles)),
            ("measure_cycles".into(), Value::U64(ckpt.measure_cycles)),
            (
                "sample_every".into(),
                ckpt.sample_every.map_or(Value::Null, Value::U64),
            ),
            ("cycle".into(), Value::U64(ckpt.cycle)),
            ("events".into(), Value::U64(ckpt.events)),
            ("pending".into(), Value::Seq(Vec::new())),
            ("sim".into(), ckpt.sim.clone()),
            ("source".into(), ckpt.source.clone()),
        ]);
        let bytes = ckpt.to_bytes();
        assert!(
            bytes == reference::encode(&tree),
            "case {case}: bytes differ"
        );
        let decoded = reference::decode(&bytes).expect("the reference reads it");
        assert!(
            bits_eq(&decoded, &tree),
            "case {case}: reference round trip"
        );
        let back = Checkpoint::from_bytes(&bytes).expect("the one codec reads it");
        assert!(bits_eq(&back.sim, &ckpt.sim), "case {case}: sim round trip");
        assert!(
            bits_eq(&back.source, &ckpt.source),
            "case {case}: source round trip"
        );
        assert!(
            bits_eq(&back.serialize_value(), &tree),
            "case {case}: view tree"
        );
    }
    // Both codecs cap nesting at the same depth.
    for levels in [62, 63, 64] {
        let mut sim = Value::Null;
        for _ in 0..levels {
            sim = Value::Seq(vec![sim]);
        }
        let bytes = reference::encode(&Value::Map(vec![("sim".into(), sim.clone())]));
        let streamed = Checkpoint {
            config: config.clone(),
            warmup_cycles: 0,
            measure_cycles: 0,
            sample_every: None,
            cycle: 0,
            events: 0,
            pending: Vec::new(),
            sim,
            source: Value::Null,
        }
        .to_bytes();
        let ok = |r: Result<(), CheckpointError>| match r {
            Ok(()) => true,
            Err(CheckpointError::Corrupt(msg)) if msg.contains("depth") => false,
            Err(e) => panic!("{levels} levels: {e}"),
        };
        let reference_ok = ok(reference::decode(&bytes).map(drop));
        let streamed_ok = ok(Checkpoint::from_bytes(&streamed).map(drop));
        assert_eq!(reference_ok, streamed_ok, "{levels} levels");
        assert_eq!(reference_ok, levels < 64, "{levels} levels");
    }
}

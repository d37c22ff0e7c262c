//! Checkpoint/restore contracts (`CHECKPOINTS.md`).
//!
//! The determinism contract under test: a run split at a checkpoint —
//! saved to disk, process state discarded, resumed from the file — is
//! **bit-identical** to the unbroken run. Replay counters match exactly,
//! every floating-point metric matches by `.to_bits()`, and the exported
//! `lumen-trace/1` JSONL/CSV traces match byte for byte. Because shard
//! count is itself a pinned pure-performance knob (see
//! `tests/tests/lookahead.rs`), the unbroken side runs at shard counts
//! {1, 2, 4}: split-sequential must equal every one of them.
//!
//! A second battery checks rejection: corrupted, truncated, foreign, and
//! mismatched checkpoint files must fail with the right typed
//! [`CheckpointError`], never a panic or garbage state.

use lumen_core::prelude::*;
use lumen_core::{Checkpoint, CheckpointError};
use lumen_policy::OnOffConfig;
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

/// Runs the experiment unbroken and split-at-`save_cycle` (through a real
/// file), asserting the split run reproduces the unbroken run bit for bit
/// at every requested shard count.
fn assert_split_invariant(
    config: SystemConfig,
    save_cycle: u64,
    rate: f64,
    shard_counts: &[usize],
    tag: &str,
) {
    let exp = experiment(config);
    let unbroken = exp.clone().run_uniform(rate, PacketSize::Fixed(4));
    let want = fingerprint(&unbroken);
    // Under LUMEN_TEST_CHECKPOINT=1 even the "unbroken" reference run
    // is routed through an in-memory save/resume split, so its
    // provenance flag is legitimately set.
    let env_split = std::env::var("LUMEN_TEST_CHECKPOINT").is_ok_and(|v| v == "1");
    assert_eq!(unbroken.resumed, env_split);

    for &s in shard_counts {
        let sharded = exp.clone().shards(s).run_uniform(rate, PacketSize::Fixed(4));
        assert_eq!(
            fingerprint(&sharded),
            want,
            "{tag}: unbroken shards={s} diverged from sequential"
        );
    }

    let path = ckpt_path(tag);
    let first = exp
        .clone()
        .save_at(save_cycle, &path)
        .run_uniform(rate, PacketSize::Fixed(4));
    assert_eq!(
        fingerprint(&first),
        want,
        "{tag}: the saving run itself diverged"
    );
    let resumed = exp.resume(&path).run_uniform(rate, PacketSize::Fixed(4));
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
        (TopologyKind::Torus, "torus"),
        (TopologyKind::FoldedClos { spines: 2 }, "clos"),
    ] {
        // Mid-measurement save, faults on, DVS policy — the hard case:
        // RNG streams, fault windows, in-flight transitions, and
        // telemetry retention all cross the checkpoint boundary.
        let config = config_for(kind, Mode::Dvs, true, 33);
        assert_split_invariant(config, WARMUP + MEASURE / 2, 0.15, &[1, 2, 4], tag);
    }
}

#[test]
fn split_inside_warmup_matches_unbroken() {
    // Saving before `begin_measurement` exercises the resume path that
    // must still run the warmup boundary itself.
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 7);
    assert_split_invariant(config, WARMUP / 2, 0.2, &[2], "warmup-split");
}

#[test]
fn split_under_onoff_gating_matches_unbroken() {
    // Sleeping links, pending wakes, and gate counters cross the save.
    let config = config_for(TopologyKind::Mesh, Mode::OnOff, false, 19);
    assert_split_invariant(config, WARMUP + MEASURE / 3, 0.05, &[2], "onoff");
}

#[test]
fn split_non_power_aware_matches_unbroken() {
    let config = config_for(TopologyKind::Mesh, Mode::NonPa, true, 23);
    assert_split_invariant(config, WARMUP + MEASURE / 2, 0.25, &[4], "nonpa");
}

/// A field of a checkpoint's schema tree.
fn field<'v>(v: &'v serde::Value, name: &str) -> &'v serde::Value {
    serde::map_field(v.as_map().expect("a map"), name, "checkpoint tree").expect("field present")
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
        .filter(|r| count(r, "buffered_flits") + count(r, "active_vcs") > 0)
        .count();
    assert!(queued > 0, "no source has queued flits at cycle {cut}");
    assert!(busy > 0, "every router is idle at cycle {cut}");
    assert_split_invariant(config, cut, rate, &[1, 2, 4], "active-sets");
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

/// Writes a real checkpoint to disk and returns its bytes.
fn valid_checkpoint_bytes(tag: &str) -> Vec<u8> {
    let path = ckpt_path(tag);
    let config = config_for(TopologyKind::Mesh, Mode::Dvs, false, 3);
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
    let err = result.expect_err("mismatched resume must refuse");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("different system configuration"),
        "unexpected panic message: {msg}"
    );
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

//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (see DESIGN.md for the index) and prints
//! both a human-readable table and CSV rows. All binaries accept
//! `--quick` to shrink the simulated horizon (useful for CI smoke runs)
//! and `--jobs N` / `-j N` to fan simulation points across N worker
//! threads (default: all available cores); full runs use the paper-scale
//! horizons. Unknown flags are rejected with a usage message so a typo
//! (`--qiuck`) cannot silently trigger a full-scale run.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};

use lumen_core::prelude::*;

/// Run-length scaling picked from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Paper-scale horizons (the default).
    Full,
    /// ~10× shorter horizons for smoke runs (`--quick`).
    Quick,
}

impl RunScale {
    /// Scales a cycle count.
    pub fn cycles(self, full: u64) -> u64 {
        match self {
            RunScale::Full => full,
            RunScale::Quick => (full / 10).max(2_000),
        }
    }
}

/// The command-line options shared by every harness binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Horizon scaling (`--quick` for smoke runs).
    pub scale: RunScale,
    /// Worker threads for the point executor (`--jobs N`, default: all
    /// available cores).
    pub jobs: usize,
    /// Shards per simulation (`--shards N`, default 1 = sequential).
    /// Results are bit-identical at every shard count; shards trade
    /// point-level parallelism (`--jobs`) for within-point parallelism.
    pub shards: usize,
    /// Telemetry trace output path (`--trace PATH`). `None` (the default)
    /// leaves telemetry off entirely; a `.csv` suffix selects CSV, any
    /// other suffix JSON Lines (see OBSERVABILITY.md for the schema).
    pub trace: Option<String>,
    /// Fabric geometry override (`--topology mesh|folded-clos[:S]`,
    /// default `None` = keep each harness's configured topology — the
    /// paper's mesh for the figure/table harnesses). `folded-clos`
    /// defaults to 4 spine routers; `folded-clos:S` selects `S`. Only
    /// harnesses that call [`BenchArgs::apply_topology`] honour it; see
    /// TOPOLOGIES.md for what each geometry means.
    pub topology: Option<TopologyKind>,
    /// Mid-run checkpointing (`--checkpoint PATH@CYCLE`): every point
    /// saves a `lumen-ckpt/4` snapshot at the given router cycle and then
    /// runs to completion. Multi-point sweeps write one file per point
    /// (`PATH.<label>`); a single-point run uses `PATH` verbatim. Only
    /// harnesses that call [`BenchArgs::apply_run_control`] honour it;
    /// see CHECKPOINTS.md.
    pub checkpoint: Option<(String, u64)>,
    /// Resume source (`--resume PATH`): every point restores the snapshot
    /// a previous `--checkpoint` run wrote (same per-point path rule) and
    /// replays from there — bit-identical to the unbroken run. Mutually
    /// exclusive with `--checkpoint`.
    pub resume: Option<String>,
}

impl BenchArgs {
    /// Parses the process arguments, exiting with a usage message on any
    /// unknown or malformed flag (exit code 2) or after `--help` (0).
    /// Also installs the parsed shard count as the process default so
    /// every [`Experiment`] the harness builds inherits it.
    pub fn parse() -> BenchArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::try_parse(&argv) {
            Ok(args) => {
                let host = Executor::available().jobs();
                lumen_core::set_default_shards(args.resolved_shards(host));
                args
            }
            Err(ParseOutcome::Help) => {
                println!("{}", Self::usage());
                std::process::exit(0);
            }
            Err(ParseOutcome::Error(msg)) => {
                eprintln!("error: {msg}\n\n{}", Self::usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument list (without the program name). Returns the
    /// options, or a help/error outcome the caller must surface.
    pub(crate) fn try_parse(argv: &[String]) -> Result<BenchArgs, ParseOutcome> {
        let (args, extras) = Self::try_parse_partial(argv)?;
        if let Some(first) = extras.first() {
            return Err(ParseOutcome::Error(format!("unknown flag `{first}`")));
        }
        Ok(args)
    }

    /// Like `BenchArgs::try_parse`, but returns arguments this parser
    /// does not recognise (in their original order) instead of rejecting
    /// them, so a harness with extra flags (`ext_dse --trials 24`) can
    /// layer its own strict parser on top of the shared one. Malformed
    /// *known* flags still error here; the caller must reject any
    /// leftover it does not understand itself, or typo-safety is lost.
    pub fn try_parse_partial(argv: &[String]) -> Result<(BenchArgs, Vec<String>), ParseOutcome> {
        let mut scale = RunScale::Full;
        let mut jobs = Executor::available().jobs();
        let mut shards = 1usize;
        let mut trace = None;
        let mut topology = None;
        let mut checkpoint = None;
        let mut resume = None;
        let mut extras = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(ParseOutcome::Help),
                "--quick" => scale = RunScale::Quick,
                "--jobs" | "-j" => {
                    let value = it.next().ok_or_else(|| {
                        ParseOutcome::Error(format!("`{arg}` needs a thread count"))
                    })?;
                    jobs = parse_jobs(value)?;
                }
                "--shards" | "-s" => {
                    let value = it.next().ok_or_else(|| {
                        ParseOutcome::Error(format!("`{arg}` needs a shard count"))
                    })?;
                    shards = parse_shards(value)?;
                }
                "--trace" => {
                    let value = it
                        .next()
                        .ok_or_else(|| ParseOutcome::Error("`--trace` needs a path".into()))?;
                    trace = Some(parse_trace(value)?);
                }
                "--topology" => {
                    let value = it.next().ok_or_else(|| {
                        ParseOutcome::Error("`--topology` needs a geometry name".into())
                    })?;
                    topology = Some(parse_topology(value)?);
                }
                "--checkpoint" => {
                    let value = it.next().ok_or_else(|| {
                        ParseOutcome::Error("`--checkpoint` needs PATH@CYCLE".into())
                    })?;
                    checkpoint = Some(parse_checkpoint(value)?);
                }
                "--resume" => {
                    let value = it.next().ok_or_else(|| {
                        ParseOutcome::Error("`--resume` needs a checkpoint path".into())
                    })?;
                    resume = Some(parse_resume(value)?);
                }
                other => {
                    if let Some(value) = other.strip_prefix("--jobs=") {
                        jobs = parse_jobs(value)?;
                    } else if let Some(value) = other.strip_prefix("--shards=") {
                        shards = parse_shards(value)?;
                    } else if let Some(value) = other.strip_prefix("--trace=") {
                        trace = Some(parse_trace(value)?);
                    } else if let Some(value) = other.strip_prefix("--topology=") {
                        topology = Some(parse_topology(value)?);
                    } else if let Some(value) = other.strip_prefix("--checkpoint=") {
                        checkpoint = Some(parse_checkpoint(value)?);
                    } else if let Some(value) = other.strip_prefix("--resume=") {
                        resume = Some(parse_resume(value)?);
                    } else {
                        extras.push(other.to_string());
                    }
                }
            }
        }
        if checkpoint.is_some() && resume.is_some() {
            return Err(ParseOutcome::Error(
                "`--checkpoint` and `--resume` cannot be combined in one run; \
                 save first, then resume"
                    .into(),
            ));
        }
        Ok((
            BenchArgs {
                scale,
                jobs,
                shards,
                trace,
                topology,
                checkpoint,
                resume,
            },
            extras,
        ))
    }

    /// Applies the `--topology` override (if any) to a NoC configuration,
    /// returning whether it changed. Harnesses that support alternative
    /// geometries call this on each scenario's config; harnesses pinned
    /// to the paper's mesh simply never call it, and the flag parses but
    /// has no effect there (their banner output stays comparable).
    pub fn apply_topology(&self, noc: &mut NocConfig) -> bool {
        match self.topology {
            Some(kind) if noc.topology != kind => {
                noc.topology = kind;
                true
            }
            _ => false,
        }
    }

    /// Applies `--checkpoint PATH@CYCLE` / `--resume PATH` to every point
    /// of a sweep (a no-op when neither flag was given). Multi-point
    /// sweeps derive one checkpoint file per point by appending the
    /// point's slugged label to `PATH`; a single-point run uses `PATH`
    /// verbatim, so a `--checkpoint` run and the matching `--resume` run
    /// agree on the files as long as the harness invocation is the same.
    /// Checkpointed and resumed points run on the sequential engine (see
    /// CHECKPOINTS.md); results stay bit-identical to any `--shards N`.
    pub fn apply_run_control(&self, points: &mut [Point]) {
        if self.checkpoint.is_none() && self.resume.is_none() {
            return;
        }
        let solo = points.len() == 1;
        for point in points.iter_mut() {
            let exp = point.experiment.clone();
            point.experiment = if let Some((base, cycle)) = &self.checkpoint {
                exp.save_at(*cycle, point_ckpt(base, &point.label, solo))
            } else if let Some(base) = &self.resume {
                exp.resume(point_ckpt(base, &point.label, solo))
            } else {
                unreachable!("guarded above")
            };
        }
    }

    /// The telemetry configuration implied by the flags: full recording
    /// when `--trace` was given, off otherwise. Pass this to
    /// [`Experiment::telemetry`] on every point so a traced sweep records
    /// and an untraced one pays nothing.
    pub fn telemetry(&self) -> TelemetryConfig {
        if self.trace.is_some() {
            TelemetryConfig::full()
        } else {
            TelemetryConfig::default()
        }
    }

    /// The shard count a run on a `host`-core machine should actually
    /// use: `--shards` clamped to the cores (the only host clamp on the
    /// shard count). Shards are a pure performance knob (results are
    /// bit-identical at every count), so an oversubscribed request like
    /// `--jobs 4 --shards 2` on a 1-core host must *degrade* — fewer
    /// shards, fewer jobs — never error and never time-slice shard
    /// workers against each other.
    pub fn resolved_shards(&self, host: usize) -> usize {
        self.shards.clamp(1, host.max(1))
    }

    /// The executor sized by `--jobs`, capped so `jobs ×` resolved
    /// shards does not oversubscribe the host (each point occupies one
    /// thread per shard).
    pub fn executor(&self) -> Executor {
        self.executor_for(Executor::available().jobs())
    }

    /// [`BenchArgs::executor`] for an explicit host core count; the cap
    /// uses [`BenchArgs::resolved_shards`], so both knobs degrade
    /// together on small hosts instead of the raw `--shards` value
    /// starving `--jobs` down to 1 while each point still oversubscribes.
    pub(crate) fn executor_for(&self, host: usize) -> Executor {
        let cap = (host.max(1) / self.resolved_shards(host)).max(1);
        Executor::new(self.jobs.min(cap).max(1))
    }

    /// The usage text shared by every harness binary.
    pub fn usage() -> String {
        format!(
            "usage: <harness> [--quick] [--jobs N] [--shards N] [--trace PATH] [--topology T] \
             [--checkpoint P@C | --resume P] [--help]\n\
             \n\
             options:\n\
             \x20 --quick          ~10x shorter horizons (smoke/CI runs)\n\
             \x20 --jobs N, -j N   worker threads for simulation points\n\
             \x20                  (default: all available cores, here {};\n\
             \x20                  capped so jobs x shards <= cores)\n\
             \x20 --shards N, -s N parallel shards within each simulation\n\
             \x20                  (default 1 = sequential; results are\n\
             \x20                  bit-identical at every shard count)\n\
             \x20 --trace PATH     record per-link telemetry for every point\n\
             \x20                  and write a merged trace (JSONL; CSV if\n\
             \x20                  PATH ends in .csv) — see OBSERVABILITY.md\n\
             \x20 --topology T     fabric geometry for harnesses that\n\
             \x20                  support it: mesh or\n\
             \x20                  folded-clos[:spines] (see TOPOLOGIES.md)\n\
             \x20 --checkpoint P@C save a lumen-ckpt/4 snapshot of every\n\
             \x20                  point at router cycle C to path P, then\n\
             \x20                  run to completion (see CHECKPOINTS.md)\n\
             \x20 --resume P       restore every point from the snapshot a\n\
             \x20                  --checkpoint run wrote to P and replay —\n\
             \x20                  bit-identical to the unbroken run\n\
             \x20 --help, -h       show this message",
            Executor::available().jobs()
        )
    }
}

/// Why `BenchArgs::try_parse` did not return options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// `--help` was requested.
    Help,
    /// A flag was unknown or malformed.
    Error(String),
}

fn parse_jobs(value: &str) -> Result<usize, ParseOutcome> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ParseOutcome::Error(format!(
            "`--jobs` needs a positive integer, got `{value}`"
        ))),
    }
}

fn parse_shards(value: &str) -> Result<usize, ParseOutcome> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ParseOutcome::Error(format!(
            "`--shards` needs a positive integer, got `{value}`"
        ))),
    }
}

fn parse_topology(value: &str) -> Result<TopologyKind, ParseOutcome> {
    match value {
        "mesh" => Ok(TopologyKind::Mesh),
        "folded-clos" => Ok(TopologyKind::FoldedClos { spines: 4 }),
        other => {
            if let Some(spec) = other.strip_prefix("folded-clos:") {
                match spec.parse::<u8>() {
                    Ok(spines) if spines >= 1 => return Ok(TopologyKind::FoldedClos { spines }),
                    _ => {}
                }
            }
            Err(ParseOutcome::Error(format!(
                "`--topology` needs mesh or folded-clos[:spines], got `{other}`"
            )))
        }
    }
}

fn parse_checkpoint(value: &str) -> Result<(String, u64), ParseOutcome> {
    let bad = || {
        ParseOutcome::Error(format!(
            "`--checkpoint` needs PATH@CYCLE with a positive cycle, got `{value}`"
        ))
    };
    // Split at the *last* `@` so paths containing `@` still work.
    let (path, cycle) = value.rsplit_once('@').ok_or_else(bad)?;
    if path.is_empty() || path.starts_with('-') {
        return Err(bad());
    }
    match cycle.parse::<u64>() {
        Ok(c) if c >= 1 => Ok((path.to_string(), c)),
        _ => Err(bad()),
    }
}

fn parse_resume(value: &str) -> Result<String, ParseOutcome> {
    if value.is_empty() || value.starts_with('-') {
        Err(ParseOutcome::Error(format!(
            "`--resume` needs a checkpoint path, got `{value}`"
        )))
    } else {
        Ok(value.to_string())
    }
}

/// The checkpoint file for one point of a sweep: the base path verbatim
/// for a single-point run, `BASE.<slugged-label>` otherwise.
fn point_ckpt(base: &str, label: &str, solo: bool) -> std::path::PathBuf {
    if solo {
        return base.into();
    }
    let slug: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!("{base}.{slug}").into()
}

fn parse_trace(value: &str) -> Result<String, ParseOutcome> {
    if value.is_empty() || value.starts_with('-') {
        Err(ParseOutcome::Error(format!(
            "`--trace` needs an output path, got `{value}`"
        )))
    } else {
        Ok(value.to_string())
    }
}

/// Writes the telemetry traces of a finished sweep to the `--trace` path,
/// if one was given (a no-op otherwise). Points are concatenated in
/// submission order; JSONL output separates them with a
/// `{"kind":"point","label":...}` record, CSV output prefixes every row
/// with a `label` column. Points whose experiment did not record
/// telemetry are skipped.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_trace(args: &BenchArgs, points: &[Point], results: &[RunResult]) {
    let Some(path) = args.trace.as_deref() else {
        return;
    };
    let csv = path.ends_with(".csv");
    // Records stream straight into the file: no point's trace is held
    // in memory as text.
    let write = || -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut traced = 0usize;
        for (point, result) in points.iter().zip(results) {
            let Some(report) = result.telemetry.as_ref() else {
                continue;
            };
            if csv {
                // One header, on the first point.
                report.write_csv(&mut out, Some(&point.label), traced == 0)?;
            } else {
                // `{:?}` on a str matches JSON string escaping for the
                // ASCII labels the harnesses use.
                writeln!(out, "{{\"kind\":\"point\",\"label\":{:?}}}", point.label)?;
                report.write_jsonl(&mut out)?;
            }
            traced += 1;
        }
        out.flush()?;
        Ok(traced)
    };
    let traced = write().expect("write --trace output");
    println!("wrote telemetry trace ({traced} points) to {path}");
}

/// Runs `points` on `executor`, printing one progress line per completed
/// point, and returns the results in submission order.
///
/// # Panics
///
/// Panics (after reporting every failure) if any point's simulation
/// panicked.
pub fn run_points(executor: &Executor, points: &[Point]) -> Vec<RunResult> {
    let done = AtomicUsize::new(0);
    let total = points.len();
    let results = executor.run_with_progress(points, |pr| {
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        let status = match pr.run_result() {
            Some(r) if r.resumed => "resumed",
            Some(_) => "ok",
            None => "FAILED",
        };
        eprintln!(
            "  [{k:>3}/{total}] {:<28} {status:>7}  {:.1}s",
            pr.label,
            pr.elapsed.as_secs_f64()
        );
    });
    let failures: Vec<String> = results
        .iter()
        .filter_map(|pr| {
            pr.outcome
                .as_ref()
                .err()
                .map(|e| format!("  {}: {e}", pr.label))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {total} points failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let results: Vec<RunResult> = results
        .into_iter()
        .map(|pr| match pr.outcome {
            Ok(r) => r,
            Err(_) => unreachable!("failures checked above"),
        })
        .collect();
    // Provenance header: recorded results/*.txt must not silently mix
    // resumed and unbroken runs (they are bit-identical, but a reader
    // comparing wall-clocks or re-running from scratch needs to know).
    let resumed = results.iter().filter(|r| r.resumed).count();
    if resumed > 0 {
        println!("provenance: {resumed} of {total} points resumed from checkpoints (--resume)");
    }
    results
}

/// The paper's defaults for synthetic uniform-random experiments.
pub mod defaults {
    /// Packet size (flits) used for the uniform-random and hotspot
    /// experiments (the SPLASH runs use 48-flit packets).
    pub const SYNTHETIC_PACKET_FLITS: u32 = 5;
    /// Warmup cycles before measurement.
    pub const WARMUP_CYCLES: u64 = 10_000;
    /// Measured cycles for steady-state points.
    pub const MEASURE_CYCLES: u64 = 100_000;
}

/// Prints a banner naming the experiment and the paper artifact it
/// regenerates.
pub fn banner(figure: &str, what: &str) {
    println!("==============================================================");
    println!("{figure} — {what}");
    println!("(Power-Aware Opto-Electronic Networked Systems, HPCA-11 2005)");
    println!("==============================================================");
}

/// Builds the paper-default power-aware experiment at a given scale.
pub fn paper_experiment(scale: RunScale) -> Experiment {
    Experiment::new(SystemConfig::paper_default())
        .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
        .measure_cycles(scale.cycles(defaults::MEASURE_CYCLES))
}

/// Builds the matching non-power-aware baseline experiment.
pub fn baseline_experiment(scale: RunScale) -> Experiment {
    Experiment::new(SystemConfig::paper_default().non_power_aware())
        .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
        .measure_cycles(scale.cycles(defaults::MEASURE_CYCLES))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_cycles() {
        assert_eq!(RunScale::Full.cycles(100_000), 100_000);
        assert_eq!(RunScale::Quick.cycles(100_000), 10_000);
        assert_eq!(RunScale::Quick.cycles(5_000), 2_000);
    }

    #[test]
    fn experiments_constructible() {
        let e = paper_experiment(RunScale::Quick);
        assert!(e.config().power_aware);
        let b = baseline_experiment(RunScale::Quick);
        assert!(!b.config().power_aware);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_defaults() {
        let a = BenchArgs::try_parse(&[]).unwrap();
        assert_eq!(a.scale, RunScale::Full);
        assert_eq!(a.jobs, Executor::available().jobs());
        assert_eq!(a.shards, 1);
        assert_eq!(a.trace, None);
        assert_eq!(a.topology, None);
        assert!(!a.telemetry().enabled(), "no --trace, no telemetry cost");
    }

    #[test]
    fn args_topology_forms() {
        for (form, want) in [
            (argv(&["--topology", "mesh"]), TopologyKind::Mesh),
            (
                argv(&["--topology", "folded-clos"]),
                TopologyKind::FoldedClos { spines: 4 },
            ),
            (
                argv(&["--topology=folded-clos:8"]),
                TopologyKind::FoldedClos { spines: 8 },
            ),
        ] {
            let a = BenchArgs::try_parse(&form).unwrap();
            assert_eq!(a.topology, Some(want), "{form:?}");
        }
    }

    #[test]
    fn apply_topology_only_changes_when_asked() {
        let mut noc = lumen_noc::NocConfig::paper_default();
        let none = BenchArgs::try_parse(&[]).unwrap();
        assert!(!none.apply_topology(&mut noc));
        assert_eq!(noc.topology, TopologyKind::Mesh);

        let clos = BenchArgs::try_parse(&argv(&["--topology", "folded-clos"])).unwrap();
        assert!(clos.apply_topology(&mut noc));
        assert_eq!(noc.topology, TopologyKind::FoldedClos { spines: 4 });
        // Idempotent: already that Clos, nothing to change.
        assert!(!clos.apply_topology(&mut noc));
    }

    #[test]
    fn args_trace_forms() {
        for form in [
            argv(&["--trace", "out.jsonl"]),
            argv(&["--trace=out.jsonl"]),
        ] {
            let a = BenchArgs::try_parse(&form).unwrap();
            assert_eq!(a.trace.as_deref(), Some("out.jsonl"), "{form:?}");
            assert_eq!(a.telemetry(), lumen_core::TelemetryConfig::full());
        }
    }

    #[test]
    fn args_checkpoint_and_resume_forms() {
        for form in [
            argv(&["--checkpoint", "state.ckpt@50000"]),
            argv(&["--checkpoint=state.ckpt@50000"]),
        ] {
            let a = BenchArgs::try_parse(&form).unwrap();
            assert_eq!(
                a.checkpoint,
                Some(("state.ckpt".into(), 50_000)),
                "{form:?}"
            );
        }
        // `@` in the directory part: split at the last `@`.
        let a = BenchArgs::try_parse(&argv(&["--checkpoint", "runs@v2/s.ckpt@9"])).unwrap();
        assert_eq!(a.checkpoint, Some(("runs@v2/s.ckpt".into(), 9)));
        for form in [
            argv(&["--resume", "state.ckpt"]),
            argv(&["--resume=state.ckpt"]),
        ] {
            let a = BenchArgs::try_parse(&form).unwrap();
            assert_eq!(a.resume.as_deref(), Some("state.ckpt"), "{form:?}");
        }
        for bad in [
            argv(&["--checkpoint"]),
            argv(&["--checkpoint", "no-cycle"]),
            argv(&["--checkpoint", "p@0"]),
            argv(&["--checkpoint", "p@x"]),
            argv(&["--checkpoint", "@5"]),
            argv(&["--resume"]),
            argv(&["--resume="]),
            argv(&["--resume", "--quick"]),
            argv(&["--checkpoint", "p@5", "--resume", "p"]),
        ] {
            assert!(
                matches!(BenchArgs::try_parse(&bad), Err(ParseOutcome::Error(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn run_control_round_trips_a_sweep() {
        let mut config = SystemConfig::paper_default();
        config.noc = lumen_noc::NocConfig::small_for_tests();
        config.policy.timing.tw_cycles = 200;
        let exp = Experiment::new(config)
            .warmup_cycles(300)
            .measure_cycles(1_500);
        let workload = Workload::Uniform {
            rate: 0.1,
            size: PacketSize::Fixed(4),
        };
        let mk_points = || {
            vec![
                Point::new("load 0.1", exp.clone(), workload.clone()),
                Point::new("load 0.1 (b)", exp.clone(), workload.clone()),
            ]
        };
        let base = std::env::temp_dir().join(format!("lumen-bench-rc-{}", std::process::id()));
        let base = base.to_str().unwrap().to_string();
        let parse = |argv_: &[String]| BenchArgs::try_parse(argv_).unwrap();

        let unbroken = run_points(&Executor::new(1), &mk_points());

        let mut saving = mk_points();
        parse(&argv(&[&format!("--checkpoint={base}@800")])).apply_run_control(&mut saving);
        let saved = run_points(&Executor::new(1), &saving);

        let mut resuming = mk_points();
        parse(&argv(&[&format!("--resume={base}")])).apply_run_control(&mut resuming);
        let resumed = run_points(&Executor::new(1), &resuming);
        // Two points → two per-label files.
        std::fs::remove_file(format!("{base}.load-0-1")).unwrap();
        std::fs::remove_file(format!("{base}.load-0-1--b-")).unwrap();

        for ((u, s), r) in unbroken.iter().zip(&saved).zip(&resumed) {
            assert!(!u.resumed && !s.resumed && r.resumed);
            assert_eq!(u.packets_delivered, s.packets_delivered);
            assert_eq!(u.packets_delivered, r.packets_delivered);
            assert_eq!(u.avg_power_mw.to_bits(), r.avg_power_mw.to_bits());
            assert_eq!(
                u.avg_latency_cycles.to_bits(),
                r.avg_latency_cycles.to_bits()
            );
        }
    }

    #[test]
    fn args_shards_forms() {
        for form in [
            argv(&["--shards", "4"]),
            argv(&["--shards=4"]),
            argv(&["-s", "4"]),
        ] {
            let a = BenchArgs::try_parse(&form).unwrap();
            assert_eq!(a.shards, 4, "{form:?}");
        }
    }

    #[test]
    fn executor_caps_jobs_times_shards() {
        let host = Executor::available().jobs();
        let a = BenchArgs::try_parse(&argv(&["--jobs", "64", "--shards", "2"])).unwrap();
        assert!(a.executor().jobs() * 2 <= host.max(2));
        // One shard leaves --jobs alone (up to the host).
        let b = BenchArgs::try_parse(&argv(&["--jobs", "2"])).unwrap();
        assert_eq!(b.executor().jobs(), 2.min(host));
    }

    #[test]
    fn oversubscribed_jobs_shards_degrade_instead_of_erroring() {
        // `--jobs 4 --shards 2` keeps parsing host-independently …
        let a = BenchArgs::try_parse(&argv(&["--jobs", "4", "--shards", "2"])).unwrap();
        assert_eq!((a.jobs, a.shards), (4, 2));
        // … and resolves gracefully at every host size: a 1-core host
        // degrades both knobs to 1 (sequential points, sequential
        // engine), a 2-core host keeps the shards and drops the jobs,
        // and an 8-core host honours the request in full.
        assert_eq!(a.resolved_shards(1), 1);
        assert_eq!(a.executor_for(1).jobs(), 1);
        assert_eq!(a.resolved_shards(2), 2);
        assert_eq!(a.executor_for(2).jobs(), 1);
        assert_eq!(a.resolved_shards(8), 2);
        assert_eq!(a.executor_for(8).jobs(), 4);
        // The paper mesh's cuts admit the 2 shards asked for, so the
        // count parse() installs there is the request clamped to the
        // host's cores alone.
        let noc = lumen_noc::NocConfig::paper_default();
        let host = Executor::available().jobs();
        assert_eq!(
            a.resolved_shards(host),
            lumen_core::effective_shards(&noc, a.shards.min(host))
        );
    }

    #[test]
    fn args_quick_and_jobs_forms() {
        for form in [
            argv(&["--quick", "--jobs", "3"]),
            argv(&["--jobs=3", "--quick"]),
            argv(&["-j", "3", "--quick"]),
        ] {
            let a = BenchArgs::try_parse(&form).unwrap();
            assert_eq!(a.scale, RunScale::Quick, "{form:?}");
            assert_eq!(a.jobs, 3, "{form:?}");
        }
    }

    #[test]
    fn args_reject_typos_and_bad_values() {
        // A typo must not silently run full-scale.
        for bad in [
            argv(&["--qiuck"]),
            argv(&["--jobs"]),
            argv(&["--jobs", "zero"]),
            argv(&["--jobs=0"]),
            argv(&["--shards"]),
            argv(&["--shards", "zero"]),
            argv(&["--shards=0"]),
            argv(&["--shard", "2"]),
            argv(&["--trace"]),
            argv(&["--trace="]),
            argv(&["--trace", "--quick"]),
            argv(&["--topology"]),
            argv(&["--topology", "ring"]),
            argv(&["--topology=folded-clos:0"]),
            argv(&["--topology=folded-clos:x"]),
            argv(&["extra"]),
        ] {
            match BenchArgs::try_parse(&bad) {
                Err(ParseOutcome::Error(_)) => {}
                other => panic!("{bad:?} parsed as {other:?}"),
            }
        }
        // A fabric that is not built in is refused, naming the ones that are.
        match BenchArgs::try_parse(&argv(&["--topology", "torus"])) {
            Err(ParseOutcome::Error(msg)) => {
                assert!(msg.contains("mesh") && msg.contains("folded-clos"), "{msg}")
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn partial_parse_returns_extras_in_order() {
        let (a, extras) = BenchArgs::try_parse_partial(&argv(&[
            "--trials", "8", "--quick", "--out", "x.json", "--jobs", "2",
        ]))
        .unwrap();
        assert_eq!(a.scale, RunScale::Quick);
        assert_eq!(a.jobs, 2);
        assert_eq!(extras, argv(&["--trials", "8", "--out", "x.json"]));
        // Malformed *known* flags still fail inside the shared parser.
        assert!(matches!(
            BenchArgs::try_parse_partial(&argv(&["--jobs=0", "--trials", "8"])),
            Err(ParseOutcome::Error(_))
        ));
        // The strict parser rejects what partial would have passed back.
        assert!(matches!(
            BenchArgs::try_parse(&argv(&["--trials", "8"])),
            Err(ParseOutcome::Error(_))
        ));
    }

    #[test]
    fn args_help() {
        assert_eq!(
            BenchArgs::try_parse(&argv(&["--help"])),
            Err(ParseOutcome::Help)
        );
        let usage = BenchArgs::usage();
        let synopsis: Vec<&str> = usage
            .lines()
            .next()
            .unwrap()
            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .collect();
        // Every flag the parser accepts, with a valid value where it takes
        // one, and its short alias if it has one: the long form must be
        // on the synopsis line, the alias in the options list.
        for (flag, short, value) in [
            ("--quick", None, None),
            ("--jobs", Some("-j"), Some("2")),
            ("--shards", Some("-s"), Some("2")),
            ("--trace", None, Some("t.jsonl")),
            ("--topology", None, Some("folded-clos")),
            ("--checkpoint", None, Some("c.ckpt@10")),
            ("--resume", None, Some("c.ckpt")),
            ("--help", Some("-h"), None),
        ] {
            for form in std::iter::once(flag).chain(short) {
                let argv: Vec<String> = std::iter::once(form)
                    .chain(value)
                    .map(String::from)
                    .collect();
                match BenchArgs::try_parse_partial(&argv) {
                    Ok((_, extras)) => assert!(extras.is_empty(), "{form} not parsed"),
                    Err(outcome) => assert_eq!(outcome, ParseOutcome::Help, "{form}"),
                }
            }
            assert!(synopsis.contains(&flag), "{flag} missing from the synopsis");
            if let Some(short) = short {
                assert!(
                    usage.contains(&format!(", {short}")),
                    "{short} undocumented"
                );
            }
        }
    }

    #[test]
    fn run_points_reports_in_order() {
        let mut config = SystemConfig::paper_default();
        config.noc = lumen_noc::NocConfig::small_for_tests();
        let exp = Experiment::new(config)
            .warmup_cycles(200)
            .measure_cycles(1_000);
        let points: Vec<Point> = (0..3)
            .map(|i| {
                Point::new(
                    format!("p{i}"),
                    exp.clone(),
                    Workload::Uniform {
                        rate: 0.05,
                        size: PacketSize::Fixed(4),
                    },
                )
            })
            .collect();
        let results = run_points(&Executor::new(2), &points);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.packets_delivered > 0));
    }

    #[test]
    fn write_trace_merges_points_in_order() {
        let mut config = SystemConfig::paper_default();
        config.noc = lumen_noc::NocConfig::small_for_tests();
        config.policy.timing.tw_cycles = 200;
        let exp = Experiment::new(config)
            .warmup_cycles(200)
            .measure_cycles(1_000)
            .telemetry(TelemetryConfig::full());
        let workload = Workload::Uniform {
            rate: 0.05,
            size: PacketSize::Fixed(4),
        };
        let points = vec![
            Point::new("alpha", exp.clone(), workload.clone()),
            Point::new("beta", exp, workload),
        ];
        let results = run_points(&Executor::new(1), &points);

        let dir = std::env::temp_dir();
        let jsonl = dir.join("lumen_bench_trace_test.jsonl");
        let args = BenchArgs {
            scale: RunScale::Quick,
            jobs: 1,
            shards: 1,
            trace: Some(jsonl.to_str().unwrap().into()),
            topology: None,
            checkpoint: None,
            resume: None,
        };
        write_trace(&args, &points, &results);
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let alpha = text
            .find("{\"kind\":\"point\",\"label\":\"alpha\"}")
            .unwrap();
        let beta = text
            .find("{\"kind\":\"point\",\"label\":\"beta\"}")
            .unwrap();
        assert!(alpha < beta, "points in submission order");
        assert_eq!(text.matches("\"kind\":\"header\"").count(), 2);
        std::fs::remove_file(&jsonl).ok();

        let csv = dir.join("lumen_bench_trace_test.csv");
        let args = BenchArgs {
            trace: Some(csv.to_str().unwrap().into()),
            ..args
        };
        write_trace(&args, &points, &results);
        let text = std::fs::read_to_string(&csv).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("label,cycle,t_ps,link"));
        assert_eq!(
            text.lines().filter(|l| l.starts_with("label,")).count(),
            1,
            "header appears once"
        );
        assert!(text.contains("\nbeta,"));
        std::fs::remove_file(&csv).ok();
    }
}

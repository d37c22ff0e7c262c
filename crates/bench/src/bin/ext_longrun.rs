//! Extension — long-horizon serving runs with flat-memory telemetry.
//!
//! Production questions (diurnal load cycles, laser aging, multi-hour
//! fault bursts) need horizons orders of magnitude past the paper's
//! ~100k-cycle evaluation runs. Two mechanisms make that tractable, and
//! this harness demonstrates both:
//!
//! 1. **Streaming statistics** — latency percentiles come from the
//!    fixed-size histogram and the per-link telemetry window series from
//!    `TelemetryConfig::retain_windows` (dense recent tail,
//!    stride-doubled decimation beyond); the harness samples no time
//!    series. Memory is flat at any horizon.
//! 2. **Checkpoint/restore** — `--checkpoint PATH@CYCLE` snapshots the
//!    long run mid-flight and `--resume PATH` replays it bit-identically
//!    (see CHECKPOINTS.md), so hour-scale runs survive preemption.
//!
//! The harness drives the paper fabric with the datacenter diurnal
//! request/response workload at 1× and 10× the paper's measurement
//! horizon. Each horizon runs in its own child process (the harness
//! re-executes itself) so the peak RSS (`VmHWM` from
//! `/proc/self/status`) is a true per-run peak, not a monotone
//! accumulation across runs. The acceptance gate is printed at the end:
//! the 10× run's peak memory must stay within 1.5× of the 1× run's, on
//! `--checkpoint`/`--resume` runs too, since checkpoints stream engine
//! state to and from the file.
//!
//! Run: `cargo run --release -p lumen-bench --bin ext_longrun
//! [--quick] [--checkpoint P@C | --resume P] [--trace PATH]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs, ParseOutcome};
use lumen_core::prelude::*;
use lumen_stats::csv::CsvBuilder;

/// The horizon multiples measured, shortest first.
const HORIZONS: &[u64] = &[1, 10];

/// Peak resident set size of this process so far, in KiB, from
/// `/proc/self/status` (`None` off Linux — the table then shows `n/a`
/// and the memory gate is skipped).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The diurnal request/response workload, sized for the paper fabric and
/// periodic well inside even the 1× measurement window.
fn diurnal_workload(noc: &NocConfig, base_cycles: u64) -> Workload {
    let mut dc = DatacenterConfig::web_like(noc.node_count() / 4);
    // Stable load for the paper fabric: at 0.004 req/node/cycle (the
    // ext_datacenter intensity on 16× larger fabrics) the 8×8 mesh
    // saturates and source backlogs grow without bound, which would
    // measure queueing overload, not telemetry retention.
    dc.request_rate = noc.node_count() as f64 * 0.001;
    dc.diurnal_period_cycles = (base_cycles / 2).max(2_000);
    dc.incast_period_cycles = (base_cycles / 12).max(500);
    Workload::Datacenter { config: dc }
}

/// Everything one child run reports back to the parent on a single
/// machine-readable stdout line (`LONGRUN k=v ...`).
struct ChildReport {
    factor: u64,
    measure: u64,
    windows: u64,
    rows_kept: u64,
    rows_dense_equiv: u64,
    decimated: u64,
    delivered: u64,
    norm_power: f64,
    peak_rss_kib: Option<u64>,
    resumed: bool,
}

impl ChildReport {
    fn to_line(&self) -> String {
        format!(
            "LONGRUN factor={} measure={} windows={} rows_kept={} dense={} \
             decimated={} delivered={} norm_power={} peak_rss_kib={} resumed={}",
            self.factor,
            self.measure,
            self.windows,
            self.rows_kept,
            self.rows_dense_equiv,
            self.decimated,
            self.delivered,
            self.norm_power,
            self.peak_rss_kib.map_or(-1i64, |k| k as i64),
            self.resumed,
        )
    }

    fn parse(line: &str) -> Option<ChildReport> {
        let mut fields = std::collections::HashMap::new();
        for kv in line.strip_prefix("LONGRUN ")?.split_whitespace() {
            let (k, v) = kv.split_once('=')?;
            fields.insert(k.to_string(), v.to_string());
        }
        let get = |k: &str| fields.get(k).cloned();
        let num = |k: &str| get(k)?.parse::<u64>().ok();
        let rss = get("peak_rss_kib")?.parse::<i64>().ok()?;
        Some(ChildReport {
            factor: num("factor")?,
            measure: num("measure")?,
            windows: num("windows")?,
            rows_kept: num("rows_kept")?,
            rows_dense_equiv: num("dense")?,
            decimated: num("decimated")?,
            delivered: num("delivered")?,
            norm_power: get("norm_power")?.parse().ok()?,
            peak_rss_kib: (rss >= 0).then_some(rss as u64),
            resumed: get("resumed")? == "true",
        })
    }
}

/// Child mode: run one horizon in this process and print the report line.
fn run_child(args: &BenchArgs, factor: u64) {
    let scale = args.scale;
    let warmup = scale.cycles(defaults::WARMUP_CYCLES);
    let base = scale.cycles(defaults::MEASURE_CYCLES);
    let measure = base * factor;

    let config = SystemConfig::paper_default();
    let workload = diurnal_workload(&config.noc, base);
    // Retention is the point of this harness: keep the last 8 windows
    // dense per link, decimate beyond, never exceed 16 windows of rows.
    let telemetry = TelemetryConfig {
        retain_windows: Some(8),
        ..TelemetryConfig::full()
    };
    let tw = config.policy.timing.tw_cycles;

    let exp = Experiment::new(config)
        .warmup_cycles(warmup)
        .measure_cycles(measure)
        .telemetry(telemetry)
        .audit_conservation();
    let mut points = vec![Point::new(format!("diurnal {factor}x"), exp, workload)];
    if factor > 1 {
        // --checkpoint / --resume target the long run: that is the one
        // worth snapshotting, and the one CI round-trips.
        args.apply_run_control(&mut points);
    }
    let result = run_points(&args.executor(), &points)
        .pop()
        .expect("one point per child");
    write_trace(args, &points, std::slice::from_ref(&result));

    let t = result.telemetry.as_ref().expect("telemetry enabled");
    let links = t
        .rows
        .iter()
        .map(|r| r.link)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    let windows = measure.div_ceil(tw);
    let report = ChildReport {
        factor,
        measure,
        windows,
        rows_kept: t.rows.len() as u64,
        rows_dense_equiv: windows * links,
        decimated: t.rows.iter().filter(|r| r.decimated).count() as u64,
        delivered: result.packets_delivered,
        norm_power: result.normalized_power,
        peak_rss_kib: peak_rss_kib(),
        resumed: result.resumed,
    };
    println!("{}", report.to_line());
}

/// Parent mode: re-exec one child per horizon, then print the
/// memory-vs-horizon table and the flat-memory gate.
fn run_parent(args: &BenchArgs, argv: &[String]) {
    banner(
        "Extension",
        "long-horizon diurnal serving with flat-memory telemetry",
    );
    let noc = NocConfig::paper_default();
    println!(
        "\nfabric: {} routers / {} nodes, retention 8 windows/link, \
         horizons {:?} x {} measured cycles; one child process per horizon\n",
        noc.router_count(),
        noc.node_count(),
        HORIZONS,
        args.scale.cycles(defaults::MEASURE_CYCLES),
    );

    let exe = std::env::current_exe().expect("own executable path");
    let mut reports = Vec::new();
    for &factor in HORIZONS {
        let out = std::process::Command::new(&exe)
            .args(argv)
            .arg(format!("--_horizon={factor}"))
            .output()
            .expect("spawn child run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // Relay the child's progress so failures are diagnosable.
        for line in stdout.lines().filter(|l| !l.starts_with("LONGRUN ")) {
            println!("  [{factor}x] {line}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        assert!(out.status.success(), "{factor}x child run failed");
        let report = stdout
            .lines()
            .rev()
            .find_map(ChildReport::parse)
            .expect("child printed a LONGRUN line");
        reports.push(report);
    }

    let mut csv = CsvBuilder::new(vec![
        "horizon".into(),
        "measure_cycles".into(),
        "windows".into(),
        "rows_kept".into(),
        "rows_dense_equiv".into(),
        "decimated".into(),
        "delivered".into(),
        "norm_power".into(),
        "peak_rss_kib".into(),
        "resumed".into(),
    ]);
    println!(
        "\n{:>8} {:>12} {:>8} {:>10} {:>12} {:>10} {:>10} {:>11} {:>9}",
        "horizon",
        "cycles",
        "windows",
        "rows kept",
        "dense equiv",
        "decimated",
        "delivered",
        "peak RSS",
        "resumed"
    );
    for r in &reports {
        println!(
            "{:>7}x {:>12} {:>8} {:>10} {:>12} {:>10} {:>10} {:>11} {:>9}",
            r.factor,
            r.measure,
            r.windows,
            r.rows_kept,
            r.rows_dense_equiv,
            r.decimated,
            r.delivered,
            r.peak_rss_kib
                .map_or("n/a".into(), |k| format!("{:.1} MiB", k as f64 / 1024.0)),
            r.resumed,
        );
        csv.row(vec![
            format!("{}x", r.factor),
            r.measure.to_string(),
            r.windows.to_string(),
            r.rows_kept.to_string(),
            r.rows_dense_equiv.to_string(),
            r.decimated.to_string(),
            r.delivered.to_string(),
            format!("{:.4}", r.norm_power),
            r.peak_rss_kib.map_or("n/a".into(), |k| k.to_string()),
            r.resumed.to_string(),
        ]);
    }

    // The acceptance gate: long-run peak memory within 1.5× of short-run,
    // on split runs too: --checkpoint/--resume stream engine state to and
    // from the file without building it in memory.
    let short = reports.first().and_then(|r| r.peak_rss_kib);
    let long = reports.last().and_then(|r| r.peak_rss_kib);
    match (short, long) {
        (Some(short), Some(long)) => {
            let ratio = long as f64 / short as f64;
            let verdict = if ratio <= 1.5 { "PASS" } else { "FAIL" };
            println!(
                "\nmemory-vs-horizon: peak RSS {:.1} MiB (1x) -> {:.1} MiB ({}x), \
                 ratio {ratio:.2} (gate <= 1.50): {verdict}",
                short as f64 / 1024.0,
                long as f64 / 1024.0,
                reports.last().map_or(0, |r| r.factor),
            );
            assert!(
                ratio <= 1.5,
                "long horizon grew peak memory {ratio:.2}x — retention is not flat"
            );
        }
        _ => println!("\nmemory-vs-horizon: /proc/self/status unavailable, gate skipped"),
    }

    println!(
        "\nReading: the retained window series stays flat while the horizon\n\
         grows 10x — the recent tail is dense, older windows survive as\n\
         stride-doubled samples marked `decimated` in the exports, and\n\
         latency percentiles stream through fixed-size estimators. The same\n\
         long run can be split anywhere with --checkpoint/--resume and\n\
         replays bit-identically (CHECKPOINTS.md documents the contract)."
    );
    println!("\nCSV:\n{}", csv.as_str());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, extras) = match BenchArgs::try_parse_partial(&argv) {
        Ok(parsed) => parsed,
        Err(ParseOutcome::Help) => {
            println!("{}", BenchArgs::usage());
            return;
        }
        Err(ParseOutcome::Error(msg)) => {
            eprintln!("error: {msg}\n\n{}", BenchArgs::usage());
            std::process::exit(2);
        }
    };
    // `--_horizon=N` is the internal parent→child handoff, not part of
    // the public CLI; anything else unknown is still a fatal typo.
    let mut horizon = None;
    for extra in &extras {
        match extra.strip_prefix("--_horizon=").map(str::parse) {
            Some(Ok(f)) => horizon = Some(f),
            _ => {
                eprintln!("error: unknown flag `{extra}`\n\n{}", BenchArgs::usage());
                std::process::exit(2);
            }
        }
    }
    lumen_core::set_default_shards(args.resolved_shards(Executor::available().jobs()));
    match horizon {
        Some(factor) => run_child(&args, factor),
        None => run_parent(&args, &argv),
    }
}

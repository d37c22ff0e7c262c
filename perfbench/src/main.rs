//! The lumen benchmark: end-to-end host throughput, set-up time and
//! memory on four workloads, and a traced per-layer budget.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. With `--trace 0` the benchmark repeats
//! untraced iterations of the workload for about `--seconds`, each in a
//! child process of its own (so its peak RSS is its own), and reports the
//! medians. With `--trace 1` it makes one traced run and reports the
//! per-layer metrics. The last line of standard output is one JSON object.
//! See `perfbench/README.md` for the workloads and metrics.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workloads::{Workload, ALL};

/// Recorded results the default seeds must reproduce.
const FIG5_RESULT: &str = "results/fig5_load.txt";
pub const DSE_RESULT: &str = "results/dse_fig5-uniform.json";

/// Scratch directory for checkpoint files, under the working directory.
const WORKDIR: &str = ".perfbench_work";

/// Output digests (`events:delivered:latency:power:energy`, see
/// [`workloads::Outputs::digest`]) of each simulation workload at its
/// default seed, recorded when the benchmark was defined. The search
/// workload is checked against `DSE_RESULT` instead.
fn recorded_digest(workload: Workload) -> Option<&'static str> {
    match workload {
        Workload::Mesh8 => {
            Some("20411674:239713:405577cc33511c85:40fe6e4b7791ae58:4166d2b899ad42c2")
        }
        Workload::Mesh32 => {
            Some("14375159:28666:408abe7a439700fd:41238949dccccaf3:416b59cdceb84f55")
        }
        Workload::Clos => Some("1974646:36301:40dd1699771e2976:40ef091d858793db:418365b27374bc69"),
        Workload::Dse => None,
    }
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    child: bool,
}

const USAGE: &str = "usage: perfbench --workload <mesh8_uniform_dvs|mesh32_datacenter_dvs|\
clos_faults_split|dse_fig5_uniform|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    ALL.to_vec()
                } else {
                    vec![Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => args.child = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Peak resident set size of this process, KiB (`VmHWM`).
fn peak_rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// Child mode: one iteration, then a set-up probe, reported as one
/// `PERFBENCH key=value ...` line. The peak RSS is read before the probe
/// builds anything.
fn run_child(workload: Workload, seed: u64) {
    let it = workloads::iterate(workload, seed, Path::new(WORKDIR));
    let rss = peak_rss_kib();
    println!(
        "PERFBENCH wall_s={} router_cycles={} runs={} digest={} split_ok={} row={} \
         peak_rss_kib={rss} setup_s={}",
        it.wall_s,
        it.router_cycles,
        it.runs,
        it.digest,
        it.split_ok,
        it.row,
        workloads::setup_probe(workload, seed)
    );
}

/// Runs one iteration in a child process and parses its report line.
fn child(workload: Workload, seed: u64) -> Result<BTreeMap<String, String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("PERFBENCH "))
        .ok_or("child printed no report")?;
    Ok(line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn num(fields: &BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    fields
        .get(key)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("child report lacks `{key}`"))
}

/// A run's checks (made and failed) and its metrics.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// The checks one iteration's report must pass; `first` is the digest
/// of the run's first successful iteration.
fn check_iteration(
    workload: Workload,
    seed: u64,
    fields: &BTreeMap<String, String>,
    first: Option<&String>,
) -> Result<(), String> {
    let digest = fields.get("digest").ok_or("child report lacks `digest`")?;
    if fields.get("split_ok").map(String::as_str) != Some("true") {
        return Err("resumed run differs from the unbroken run".into());
    }
    if first.is_some_and(|d| d != digest) {
        return Err(format!("outputs differ between iterations: {digest}"));
    }
    if seed != workload.default_seed() {
        return Ok(());
    }
    match workload {
        Workload::Dse => {
            let recorded = std::fs::read(DSE_RESULT).map_err(|e| format!("{DSE_RESULT}: {e}"))?;
            if *digest != format!("{:016x}", workloads::fnv64(&recorded)) {
                return Err(format!("search JSON differs from {DSE_RESULT}"));
            }
        }
        _ => {
            if Some(digest.as_str()) != recorded_digest(workload) {
                return Err(format!("outputs {digest} differ from the recorded digest"));
            }
        }
    }
    if workload == Workload::Mesh8 {
        let row = fields.get("row").ok_or("child report lacks `row`")?;
        let recorded =
            std::fs::read_to_string(FIG5_RESULT).map_err(|e| format!("{FIG5_RESULT}: {e}"))?;
        if !recorded.lines().any(|l| l == row) {
            return Err(format!("row {row} is not in {FIG5_RESULT}"));
        }
    }
    Ok(())
}

/// Untraced iterations for about `seconds`; each metric is the median
/// over the iterations.
fn measure(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<String> = None;
    // Per iteration: sim_cycles_per_s, trials_per_s, wall_s, setup_s, peak_rss_mib.
    let mut samples: [Vec<f64>; 5] = Default::default();
    loop {
        let it_started = Instant::now();
        attempted += 1;
        let outcome = child(workload, seed).and_then(|f| {
            check_iteration(workload, seed, &f, first.as_ref())?;
            let w = num(&f, "wall_s")?;
            let sample = [
                num(&f, "router_cycles")? / w,
                num(&f, "runs")? / w,
                w,
                num(&f, "setup_s")?,
                num(&f, "peak_rss_kib")? / 1024.0,
            ];
            Ok((sample, f["digest"].clone()))
        });
        match outcome {
            Ok((sample, digest)) => {
                eprintln!(
                    "perfbench: {} iteration {attempted}: {:.3} s",
                    workload.name(),
                    sample[2]
                );
                for (values, v) in samples.iter_mut().zip(sample) {
                    values.push(v);
                }
                first.get_or_insert(digest);
            }
            Err(msg) => {
                failed += 1;
                eprintln!(
                    "perfbench: {} iteration {attempted} failed: {msg}",
                    workload.name()
                );
            }
        }
        let last = it_started.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let [cycles, trials, wall, setup, rss] = samples.each_mut().map(|v| median(v));
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("sim_cycles_per_s", cycles, "1/s"),
            Metric::new("trials_per_s", trials, "1/s"),
            Metric::new("wall_s", wall, "s"),
            Metric::new("setup_s", setup, "s"),
            Metric::new("peak_rss_mib", rss, "MiB"),
        ],
    }
}

fn traced(workload: Workload, seed: u64) -> Outcome {
    let reference = (seed == workload.default_seed())
        .then(|| recorded_digest(workload))
        .flatten()
        .map(str::to_string);
    trace::trace(workload, seed, Path::new(WORKDIR), reference)
}

/// A JSON number; non-finite values (never expected) print as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Every engine runs sequentially, whatever the environment asks for.
    lumen_core::set_default_shards(1);
    if args.child {
        let workload = args.workloads[0];
        run_child(workload, args.seed.unwrap_or(workload.default_seed()));
        return;
    }

    let workdir = PathBuf::from(WORKDIR);
    std::fs::create_dir_all(&workdir).expect("create the scratch directory");
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let prefix = args.workloads.len() > 1;
    for &workload in &args.workloads {
        let seed = args.seed.unwrap_or(workload.default_seed());
        let outcome = if args.trace {
            traced(workload, seed)
        } else {
            measure(workload, seed, args.seconds)
        };
        println!(
            "{} (seed {seed}, {}): {} attempted, {} failed",
            workload.name(),
            if args.trace { "traced" } else { "untraced" },
            outcome.attempted,
            outcome.failed
        );
        for m in &outcome.metrics {
            println!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        metrics.extend(outcome.metrics.into_iter().map(|m| Metric {
            name: if prefix {
                format!("{}.{}", workload.name(), m.name)
            } else {
                m.name
            },
            ..m
        }));
    }
    std::fs::remove_dir_all(&workdir).ok();

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

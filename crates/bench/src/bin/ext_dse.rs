//! Extension — automated design-space exploration over the policy knobs.
//!
//! The paper hand-sweeps its Table 1 policy one axis at a time. This
//! harness replaces the hand-sweep with `lumen-dse`: a deterministic
//! multi-fidelity TPE search over TL/TH thresholds, the history window
//! `Tw` and depth `N`, the bit-rate ladder shape, and the laser
//! controller timescale, under a delivery-ratio floor. Three scenarios
//! run by default: the Fig. 5 uniform-random mesh, the Fig. 6 hotspot
//! schedule (compressed so both fidelities see all eight phases), and
//! the `ext_datacenter` folded-Clos fabric under request/response
//! traffic. Each scenario emits a schema-versioned `lumen-dse/1` Pareto
//! JSON and a table comparing the discovered front against Table 1 and
//! the non-power-aware baseline.
//!
//! Everything is seed-reproducible: the same `--seed` produces
//! byte-identical JSON at any `--jobs`/`--shards` setting (shards and
//! thread count are pure performance knobs). `--quick` shrinks both the
//! horizons and the trial budget for CI smoke runs; `--trace PATH`
//! re-runs the best discovered policy and the Table 1 reference with
//! telemetry recording and writes the merged trace; `--topology`
//! re-fabrics the two mesh scenarios (the datacenter scenario keeps its
//! folded Clos).
//!
//! Run: `cargo run --release -p lumen-bench --bin ext_dse -- [--quick]
//! [--jobs N] [--shards N] [--topology T] [--trace PATH] [--out DIR]
//! [--seed N] [--trials N] [--survivors N] [--batch N] [--min-delivery X]`

use lumen_bench::{banner, defaults, write_trace, BenchArgs, ParseOutcome, RunScale};
use lumen_core::prelude::*;
use lumen_dse::{run_scenario, DseConfig, DseReport, DseWorkload, Scenario};
use lumen_stats::csv::CsvBuilder;

/// The `ext_dse`-specific options layered over [`BenchArgs`].
#[derive(Debug, Clone)]
struct DseArgs {
    out_dir: String,
    seed: u64,
    trials: Option<usize>,
    survivors: Option<usize>,
    batch: Option<usize>,
    min_delivery: f64,
    warm_start: bool,
}

impl Default for DseArgs {
    fn default() -> Self {
        DseArgs {
            out_dir: "results".into(),
            seed: 1,
            trials: None,
            survivors: None,
            batch: None,
            min_delivery: 0.99,
            warm_start: false,
        }
    }
}

fn parse_extras(extras: &[String]) -> Result<DseArgs, String> {
    let mut args = DseArgs::default();
    let mut it = extras.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match arg.as_str() {
            "--out" => args.out_dir = value_for("--out")?,
            "--seed" => {
                args.seed = value_for("--seed")?
                    .parse()
                    .map_err(|_| "`--seed` needs an integer".to_string())?;
            }
            "--trials" => {
                args.trials = Some(parse_count("--trials", &value_for("--trials")?)?);
            }
            "--survivors" => {
                args.survivors = Some(parse_count("--survivors", &value_for("--survivors")?)?);
            }
            "--batch" => {
                args.batch = Some(parse_count("--batch", &value_for("--batch")?)?);
            }
            "--min-delivery" => {
                let v: f64 = value_for("--min-delivery")?
                    .parse()
                    .map_err(|_| "`--min-delivery` needs a number".to_string())?;
                if !(0.0..=1.0).contains(&v) {
                    return Err("`--min-delivery` must be in [0, 1]".into());
                }
                args.min_delivery = v;
            }
            "--warm-start" => args.warm_start = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("`{flag}` needs a positive integer, got `{value}`")),
    }
}

fn usage() -> String {
    format!(
        "{}\n\
         \x20 --out DIR        directory for the lumen-dse/1 JSON reports\n\
         \x20                  (default: results)\n\
         \x20 --seed N         base seed for traffic and the sampler\n\
         \x20                  (default 1; same seed => byte-identical JSON)\n\
         \x20 --trials N       quick-fidelity trials per scenario\n\
         \x20                  (default 24, or 10 under --quick)\n\
         \x20 --survivors N    trials re-evaluated at full fidelity\n\
         \x20                  (default 6, or 3 under --quick)\n\
         \x20 --batch N        TPE generation size — a search parameter,\n\
         \x20                  independent of --jobs (default 8 / 5)\n\
         \x20 --min-delivery X delivery-ratio constraint floor (default 0.99)\n\
         \x20 --warm-start     survivors resume from checkpoints saved at the\n\
         \x20                  end of their quick trial instead of replaying\n\
         \x20                  warmup; full-fidelity objectives are unchanged\n\
         \x20                  bit for bit (non-prefix workloads run cold)",
        BenchArgs::usage()
    )
}

/// The `ext_datacenter` folded-Clos fabric: 4×4 leaf racks × 4 nodes,
/// 4 spines.
fn fattree_noc() -> NocConfig {
    let mut noc = NocConfig::paper_default();
    noc.width = 4;
    noc.height = 4;
    noc.nodes_per_rack = 4;
    noc.topology = TopologyKind::FoldedClos { spines: 4 };
    noc
}

fn scenarios(args: &BenchArgs, dse_args: &DseArgs, scale: RunScale) -> Vec<Scenario> {
    let warmup = scale.cycles(defaults::WARMUP_CYCLES);
    let measure = scale.cycles(defaults::MEASURE_CYCLES);
    let mesh_config = |group: u64| {
        let mut config = SystemConfig::paper_default();
        config.seed = dse_args.seed;
        args.apply_topology(&mut config.noc);
        let _ = group;
        config
    };

    let fattree = {
        let mut config = SystemConfig::paper_default();
        config.seed = dse_args.seed;
        config.noc = fattree_noc();
        config
    };
    let mut dc = DatacenterConfig::web_like(fattree.noc.node_count() / 4);
    dc.request_rate = fattree.noc.node_count() as f64 * 0.004;
    dc.diurnal_period_cycles = scale.cycles(40_000);
    dc.incast_period_cycles = scale.cycles(8_000);

    vec![
        Scenario {
            name: "fig5-uniform".into(),
            config: mesh_config(0),
            workload: DseWorkload::Uniform { rate: 0.3 },
            group: 0,
            warmup_cycles: warmup,
            measure_cycles: measure,
        },
        Scenario {
            name: "fig6-hotspot".into(),
            config: mesh_config(1),
            workload: DseWorkload::HotspotCompressed,
            group: 1,
            warmup_cycles: warmup,
            measure_cycles: measure,
        },
        Scenario {
            name: "dc-folded-clos".into(),
            config: fattree,
            workload: DseWorkload::Datacenter { config: dc },
            group: 2,
            warmup_cycles: warmup,
            measure_cycles: scale.cycles(60_000),
        },
    ]
}

/// Index (into `report.points`) of the best discovered full-fidelity
/// point: feasible, non-dominated, minimum normalized power, ties by id.
fn best_full_point(report: &DseReport) -> Option<usize> {
    report
        .points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.fidelity == "full" && p.feasible && !p.dominated)
        .min_by(|(_, a), (_, b)| {
            a.objectives
                .normalized_power
                .total_cmp(&b.objectives.normalized_power)
                .then(a.id.cmp(&b.id))
        })
        .map(|(i, _)| i)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, extras) = match BenchArgs::try_parse_partial(&argv) {
        Ok(parsed) => parsed,
        Err(ParseOutcome::Help) => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Err(ParseOutcome::Error(msg)) => {
            eprintln!("error: {msg}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let dse_args = match parse_extras(&extras) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    let host = Executor::available().jobs();
    lumen_core::set_default_shards(args.resolved_shards(host));

    let scale = args.scale;
    banner(
        "Extension",
        "multi-fidelity design-space exploration over the policy knobs",
    );

    let quick_budget = scale == RunScale::Quick;
    let dse = DseConfig {
        trials: dse_args
            .trials
            .unwrap_or(if quick_budget { 10 } else { 24 }),
        survivors: dse_args
            .survivors
            .unwrap_or(if quick_budget { 3 } else { 6 }),
        batch: dse_args.batch.unwrap_or(if quick_budget { 5 } else { 8 }),
        min_delivery: dse_args.min_delivery,
        sampler_seed: dse_args.seed,
        quick_divisor: 10,
        warm_start: dse_args.warm_start,
    };
    dse.validate();

    let scenarios = scenarios(&args, &dse_args, scale);
    let executor = args.executor();
    println!(
        "\n{} scenarios x ({} quick trials -> {} full survivors{}), batch {}, \
         delivery floor {:.2}, seed {}, {} thread(s), {} shard(s)",
        scenarios.len(),
        dse.trials,
        dse.survivors,
        if dse.warm_start { ", warm-started" } else { "" },
        dse.batch,
        dse.min_delivery,
        dse_args.seed,
        executor.jobs(),
        args.resolved_shards(host),
    );

    std::fs::create_dir_all(&dse_args.out_dir).expect("create --out directory");

    let mut csv = CsvBuilder::new(vec![
        "scenario".into(),
        "policy".into(),
        "norm_power".into(),
        "avg_latency_cy".into(),
        "p99_latency_cy".into(),
        "delivery_ratio".into(),
        "feasible".into(),
    ]);
    let mut reports = Vec::new();
    let started = std::time::Instant::now();
    for scenario in &scenarios {
        let report = run_scenario(scenario, &dse, &executor, |msg| {
            eprintln!("  {msg}");
        });

        let path = format!(
            "{}/dse_{}.json",
            dse_args.out_dir.trim_end_matches('/'),
            report.scenario
        );
        std::fs::write(&path, report.to_json()).expect("write Pareto JSON");
        println!("\n{}: wrote {path}", report.scenario);

        let t1 = &report.table1.full;
        let base = &report.baseline_non_pa.full;
        println!(
            "  {:>16} {:>11} {:>12} {:>12} {:>9}",
            "policy", "norm power", "avg lat (cy)", "p99 lat (cy)", "delivery"
        );
        let mut row = |name: &str, o: &lumen_core::results::Objectives, feasible: bool| {
            println!(
                "  {name:>16} {:>11.4} {:>12.1} {:>12.1} {:>9.4}{}",
                o.normalized_power,
                o.avg_latency_cycles,
                o.p99_latency_cycles,
                o.delivery_ratio,
                if o.p99_saturated {
                    "  (p99 at histogram edge)"
                } else {
                    ""
                },
            );
            csv.row(vec![
                report.scenario.clone(),
                name.into(),
                format!("{:.4}", o.normalized_power),
                format!("{:.2}", o.avg_latency_cycles),
                format!("{:.2}", o.p99_latency_cycles),
                format!("{:.4}", o.delivery_ratio),
                feasible.to_string(),
            ]);
        };
        row(
            "non-PA baseline",
            base,
            base.delivery_ratio >= dse.min_delivery,
        );
        row("Table 1", t1, t1.delivery_ratio >= dse.min_delivery);
        match best_full_point(&report) {
            Some(i) => {
                let p = report.points[i].clone();
                row(&format!("found #{}", p.id), &p.objectives, p.feasible);
                println!(
                    "    knobs: TL/TH {:.2}/{:.2} (uncongested), {:.2}/{:.2} \
                     (congested), Tw {} cy, N {}, ladder {} levels from \
                     {:.1} Gb/s, laser {:.0} us, {}",
                    p.params.tl_uncongested,
                    p.params.th_uncongested,
                    p.params.tl_congested,
                    p.params.th_congested,
                    p.params.tw_cycles,
                    p.params.n_windows,
                    p.params.ladder_levels,
                    p.params.ladder_min_gbps,
                    p.params.laser_decision_us,
                    if p.params.three_level_optics {
                        "three-level optics"
                    } else {
                        "single-level optics"
                    },
                );
            }
            None => println!("  (no feasible full-fidelity point found)"),
        }
        println!(
            "  verdict: {}",
            if report.any_policy_dominates_table1() {
                "a discovered policy dominates Table 1 on (power, delivery)"
            } else {
                "no discovered policy dominates Table 1 on (power, delivery)"
            }
        );
        reports.push(report);
    }
    println!(
        "\ntotal search wall-clock: {:.1}s",
        started.elapsed().as_secs_f64()
    );

    // `--trace` composes: re-run Table 1 and the best discovered policy
    // of each scenario at full fidelity with telemetry recording, and
    // write the merged trace. (The search itself runs untraced — tracing
    // every trial would swamp the output and slow the sweep.)
    if args.trace.is_some() {
        let mut points = Vec::new();
        for (scenario, report) in scenarios.iter().zip(&reports) {
            let mut with_draw = |label: String, draw: &lumen_dse::PolicyDraw| {
                let mut config = scenario.config.clone();
                config.power_aware = true;
                draw.apply(&mut config);
                let experiment = Experiment::new(config)
                    .warmup_cycles(scenario.warmup_cycles)
                    .measure_cycles(scenario.measure_cycles)
                    .telemetry(args.telemetry());
                let workload = scenario
                    .workload
                    .workload(&scenario.config.noc, scenario.measure_cycles);
                points.push(Point::new(label, experiment, workload).in_group(scenario.group));
            };
            with_draw(
                format!("{} table1", scenario.name),
                &lumen_dse::PolicyDraw::paper_table1(),
            );
            if let Some(i) = best_full_point(report) {
                let p = &report.points[i];
                with_draw(format!("{} found-{}", scenario.name, p.id), &p.params);
            }
        }
        eprintln!("\ntracing {} policy points:", points.len());
        let results = lumen_bench::run_points(&executor, &points);
        write_trace(&args, &points, &results);
    }

    println!("\nCSV:\n{}", csv.as_str());
}

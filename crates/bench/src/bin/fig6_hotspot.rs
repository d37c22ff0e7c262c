//! Fig. 6 — behaviour under time-varying hot-spot traffic.
//!
//! The workload is the paper's Fig. 6(a) schedule: stepped network-wide
//! injection with small steps and large jumps, plus a spatial hot spot
//! (node 4 of rack (3,5) receives 4× the traffic). Four panels:
//!
//! - (a) the injection-rate schedule itself;
//! - (b) latency over time with transition delays ablated: full delays,
//!   `Tv = 0`, `Tv = Tbr = 0`, and the non-power-aware reference — the
//!   paper finds voltage-transition penalties negligible and the 20-cycle
//!   relock penalty small at Tw = 1000;
//! - (c) latency over time with a single vs three optical power levels on
//!   the MQW system — the large rate jump forces a ~100 µs attenuator wait,
//!   the small steps do not;
//! - (d) power over time for VCSEL- vs MQW-based power-aware systems,
//!   which track the workload with VCSEL slightly lower.
//!
//! Run: `cargo run --release -p lumen-bench --bin fig6_hotspot [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs, RunScale};
use lumen_core::prelude::*;
use lumen_stats::csv::CsvBuilder;
use lumen_stats::TimeSeries;

struct Panel {
    name: &'static str,
    result: RunResult,
}

fn variant_point(
    scale: RunScale,
    telemetry: TelemetryConfig,
    name: &'static str,
    tweak: &dyn Fn(&mut SystemConfig),
) -> Point {
    let mut config = SystemConfig::paper_default();
    tweak(&mut config);
    let total = scale.cycles(800_000);
    let exp = Experiment::new(config)
        .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
        .measure_cycles(total)
        .sample_every((total / 100).max(1_000))
        .telemetry(telemetry);
    // Every panel is compared against the others over the same schedule,
    // so all points share one comparison group (one traffic realization).
    Point::new(
        name,
        exp,
        Workload::Hotspot {
            size: PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS),
        },
    )
    .in_group(0)
}

fn emit_series(csv: &mut CsvBuilder, panel: &str, series_kind: &str, ts: &TimeSeries) {
    for (t, v) in ts.iter() {
        csv.row(vec![
            panel.into(),
            series_kind.into(),
            format!("{:.1}", t.as_us_f64()),
            format!("{v:.4}"),
        ]);
    }
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner("Fig 6", "time-varying hot-spot traffic");

    let names = [
        "non-power-aware",
        "PA full delays",
        "PA Tv=0",
        "PA Tv=Tbr=0",
        "PA 3-optical-levels",
        "PA VCSEL",
    ];
    let telemetry = args.telemetry();
    let points = vec![
        variant_point(scale, telemetry, names[0], &|c| c.power_aware = false),
        variant_point(scale, telemetry, names[1], &|_| {}),
        variant_point(scale, telemetry, names[2], &|c| {
            c.policy.timing = c.policy.timing.with_zeroed_delays(true, false);
        }),
        variant_point(scale, telemetry, names[3], &|c| {
            c.policy.timing = c.policy.timing.with_zeroed_delays(true, true);
        }),
        variant_point(scale, telemetry, names[4], &|c| {
            c.policy.optical_mode = OpticalMode::ThreeLevel;
        }),
        variant_point(scale, telemetry, names[5], &|c| {
            c.transmitter = TransmitterKind::Vcsel;
        }),
    ];
    println!("\n{} panels on {} threads:", points.len(), args.jobs);
    let results = run_points(&args.executor(), &points);
    write_trace(&args, &points, &results);

    println!("\nPanels (full horizon = one schedule period):");
    let panels: Vec<Panel> = names
        .into_iter()
        .zip(results)
        .map(|(name, result)| {
            println!(
                "  {name:<22} avg latency {:>8.1} cy, norm power {:.3}, transitions {}",
                result.avg_latency_cycles, result.normalized_power, result.transitions
            );
            Panel { name, result }
        })
        .collect();

    // Fig 6(b) check: transition-delay ablation should change little.
    let full = panels
        .iter()
        .find(|p| p.name == "PA full delays")
        .expect("panel exists");
    let no_delays = panels
        .iter()
        .find(|p| p.name == "PA Tv=Tbr=0")
        .expect("panel exists");
    let delay_cost = full.result.avg_latency_cycles / no_delays.result.avg_latency_cycles.max(1e-9);
    println!("\nFig 6(b): latency with full delays / with zeroed delays = {delay_cost:.3}");
    println!("(paper: voltage transitions negligible, Tbr=20 small at Tw=1000)");

    // Fig 6(c): the 3-level system pays for attenuator waits on big jumps.
    let three = panels
        .iter()
        .find(|p| p.name == "PA 3-optical-levels")
        .expect("panel exists");
    println!(
        "Fig 6(c): single-level latency {:.1} vs three-level {:.1} cycles",
        full.result.avg_latency_cycles, three.result.avg_latency_cycles
    );

    // Fig 6(d): VCSEL vs MQW power tracking.
    let vcsel = panels
        .iter()
        .find(|p| p.name == "PA VCSEL")
        .expect("panel exists");
    println!(
        "Fig 6(d): MQW norm power {:.3} vs VCSEL {:.3} (paper: VCSEL slightly lower)",
        full.result.normalized_power, vcsel.result.normalized_power
    );

    let mut csv = CsvBuilder::new(vec![
        "panel".into(),
        "series".into(),
        "time_us".into(),
        "value".into(),
    ]);
    for p in &panels {
        emit_series(
            &mut csv,
            p.name,
            "injection_rate",
            &p.result.injection_series,
        );
        emit_series(&mut csv, p.name, "latency_cycles", &p.result.latency_series);
        emit_series(&mut csv, p.name, "normalized_power", &p.result.power_series);
    }
    println!("\nCSV:\n{}", csv.as_str());
}

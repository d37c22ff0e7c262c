//! Fig. 7 — SPLASH2 application traces: injection rate and power over time.
//!
//! For each synthetic SPLASH2-like application (FFT, LU, Radix — see
//! `lumen-traffic::splash` and DESIGN.md for the trace-substitution
//! rationale), plots the network-wide injection rate over time next to the
//! power-aware (MQW-modulator) system's normalized power over time.
//!
//! Paper shapes to reproduce: the power curve tracks the workload's
//! fluctuations but is *smoother* (the policy ignores small wiggles and
//! follows sustained trends); FFT's slow phases are tracked tightly,
//! Radix's rapid spikes are low-pass filtered.
//!
//! Run: `cargo run --release -p lumen-bench --bin fig7_splash [--quick] [--jobs N]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs};
use lumen_core::prelude::*;
use lumen_stats::csv::CsvBuilder;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner(
        "Fig 7",
        "SPLASH2-like traces: injection rate and power over time",
    );

    let points: Vec<Point> = SplashApp::ALL
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            // Two periods of each application's phase structure. Grouping
            // by app keeps each trace's stream aligned with table3's runs
            // of the same application.
            let total = scale.cycles(2 * app.period_cycles());
            let exp = Experiment::new(SystemConfig::paper_default())
                .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                .measure_cycles(total)
                .sample_every((total / 120).max(500))
                .telemetry(args.telemetry());
            Point::new(app.to_string(), exp, Workload::Splash(app)).in_group(i as u64)
        })
        .collect();
    println!("\n{} traces on {} threads:", points.len(), args.jobs);
    let results = run_points(&args.executor(), &points);
    write_trace(&args, &points, &results);

    let mut csv = CsvBuilder::new(vec![
        "app".into(),
        "series".into(),
        "time_us".into(),
        "value".into(),
    ]);

    for (app, r) in SplashApp::ALL.into_iter().zip(&results) {
        println!(
            "\n{app}: injected {:.4} pkt/cycle avg (profile mean {:.4}), \
             norm power {:.3}, avg latency {:.1} cy, transitions {}",
            r.injection_rate(),
            app.mean_rate(),
            r.normalized_power,
            r.avg_latency_cycles,
            r.transitions
        );

        // Smoothness check: power tracks the workload but filters small
        // fluctuations — compare coefficient of variation.
        let inj_cv = series_cv(&r.injection_series);
        let pow_cv = series_cv(&r.power_series);
        println!("  injection CV {inj_cv:.3} vs power CV {pow_cv:.3} (power should be smoother)");

        for (t, v) in r.injection_series.iter() {
            csv.row(vec![
                app.to_string(),
                "injection_rate".into(),
                format!("{:.1}", t.as_us_f64()),
                format!("{v:.5}"),
            ]);
        }
        for (t, v) in r.power_series.iter() {
            csv.row(vec![
                app.to_string(),
                "normalized_power".into(),
                format!("{:.1}", t.as_us_f64()),
                format!("{v:.5}"),
            ]);
        }
    }
    println!("\nCSV:\n{}", csv.as_str());
}

fn series_cv(ts: &lumen_stats::TimeSeries) -> f64 {
    let s: lumen_stats::Summary = ts.iter().map(|(_, v)| v).collect();
    if s.mean() == 0.0 {
        0.0
    } else {
        s.std_dev() / s.mean()
    }
}

//! Fig. 5(a,b,c) — sensitivity to the policy sampling window `Tw`.
//!
//! Uniform-random traffic at light (1.25), medium (3.3) and heavy (5.0)
//! network-wide injection rates on the MQW-modulator system; `Tw` swept
//! from 100 to 10 000 cycles. For each point we report average latency and
//! power normalized against the non-power-aware network, plus their
//! product — the paper's three panels.
//!
//! Paper shapes to reproduce: short windows hurt both latency and power
//! (transition churn); very long windows hurt latency at medium/heavy load
//! (sluggish adaptation); ~1000 cycles is the sweet spot.
//!
//! Run: `cargo run --release -p lumen-bench --bin fig5_window [--quick] [--jobs N]`

use lumen_bench::{banner, baseline_experiment, defaults, paper_experiment, run_points, BenchArgs};
use lumen_core::prelude::*;
use lumen_stats::csv::CsvBuilder;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner(
        "Fig 5(a,b,c)",
        "latency / power / PLP vs policy window size",
    );

    let windows: &[u64] = &[100, 500, 1_000, 5_000, 10_000];
    let rates: &[f64] = &[1.25, 3.3, 5.0];
    let size = PacketSize::Fixed(defaults::SYNTHETIC_PACKET_FLITS);

    // Per rate: one baseline point, then one point per window size. The
    // baseline and every window variant at one rate share a comparison
    // group (= the rate's index), so each normalized column is measured
    // under a single traffic realization.
    let mut points = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        points.push(
            Point::new(
                format!("rate {rate} baseline"),
                baseline_experiment(scale),
                Workload::Uniform { rate, size },
            )
            .in_group(k as u64),
        );
        points.extend(windows.iter().map(|&tw| {
            let mut config = paper_experiment(scale).config().clone();
            config.policy.timing.tw_cycles = tw;
            let exp = Experiment::new(config)
                .warmup_cycles(scale.cycles(defaults::WARMUP_CYCLES))
                .measure_cycles(scale.cycles(defaults::MEASURE_CYCLES));
            Point::new(
                format!("rate {rate} Tw {tw}"),
                exp,
                Workload::Uniform { rate, size },
            )
            .in_group(k as u64)
        }));
    }
    println!("\n{} points on {} threads:", points.len(), args.jobs);
    let results = run_points(&args.executor(), &points);

    let mut csv = CsvBuilder::new(vec![
        "tw_cycles".into(),
        "rate_pkts_per_cycle".into(),
        "norm_latency".into(),
        "norm_power".into(),
        "power_latency_product".into(),
        "transitions".into(),
    ]);

    let stride = 1 + windows.len();
    for (k, &rate) in rates.iter().enumerate() {
        let baseline = &results[k * stride];
        println!(
            "\nrate {rate} pkt/cycle — baseline latency {:.1} cycles",
            baseline.avg_latency_cycles
        );
        println!(
            "  {:>9} {:>12} {:>10} {:>8} {:>11}",
            "Tw", "norm latency", "norm power", "PLP", "transitions"
        );
        for (i, &tw) in windows.iter().enumerate() {
            let r = &results[k * stride + 1 + i];
            let nl = r.normalized_latency(baseline);
            let np = r.normalized_power;
            println!(
                "  {tw:>9} {:>12.3} {:>10.3} {:>8.3} {:>11}",
                nl,
                np,
                nl * np,
                r.transitions
            );
            csv.row_f64(&[tw as f64, rate, nl, np, nl * np, r.transitions as f64]);
        }
    }
    println!("\nCSV:\n{}", csv.as_str());
}

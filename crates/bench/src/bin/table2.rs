//! Table 2 — power consumption and scaling trends of the link components.
//!
//! Reproduces the paper's Table 2 (component powers at 10 Gb/s / 1.8 V and
//! their scaling trends), the 290 mW/link total, the transmitter/receiver
//! split, the ~61 mW at 5 Gb/s claim (§4.1), and the >90% savings floor of
//! the 3.3 Gb/s ladder (§4.3.1), then sweeps the whole 3.3–10 Gb/s range
//! for both transmitter technologies.
//!
//! Run: `cargo run --release -p lumen-bench --bin table2`
//!
//! Accepts (and ignores) the shared `--quick` / `--jobs` flags so CI can
//! invoke every harness uniformly; this one evaluates closed-form link
//! models only, with no simulation runs to scale or parallelize.

use lumen_bench::{banner, BenchArgs};
use lumen_core::prelude::*;
use lumen_opto::link::OperatingPoint;
use lumen_opto::presets;
use lumen_stats::csv::CsvBuilder;

fn main() {
    let _ = BenchArgs::parse();
    banner("Table 2", "link component powers and scaling trends");

    for kind in [TransmitterKind::Vcsel, TransmitterKind::MqwModulator] {
        let link = presets::paper_link(kind);
        println!("\n{kind}-based link at 10 Gb/s / 1.8 V:");
        println!("  {:<18} {:>10}  scaling trend", "component", "power");
        for comp in link.components() {
            println!(
                "  {:<18} {:>10}  {}",
                comp.id().to_string(),
                comp.nominal().to_string(),
                comp.trend()
            );
        }
        let max = link.max_power();
        println!("  {:<18} {:>10}", "TOTAL", max.to_string());
        let at5 = link.power(OperatingPoint::paper_at_gbps(5.0));
        let at33 = link.power(OperatingPoint::paper_at_gbps(3.3));
        println!(
            "  at 5.0 Gb/s: {at5} ({:.1}% savings; paper quotes ~61.25 mW, ~80%)",
            (1.0 - at5 / max) * 100.0
        );
        println!(
            "  at 3.3 Gb/s: {at33} ({:.1}% savings; paper: >90% achievable)",
            (1.0 - at33 / max) * 100.0
        );
    }

    println!("\nFull operating-range sweep (CSV):");
    let vcsel = presets::paper_vcsel_link();
    let mqw = presets::paper_modulator_link();
    let mut csv = CsvBuilder::new(vec![
        "gbps".into(),
        "vdd_v".into(),
        "vcsel_link_mw".into(),
        "mqw_link_mw".into(),
        "vcsel_normalized".into(),
        "mqw_normalized".into(),
    ]);
    let mut g = 3.3;
    while g <= 10.0 + 1e-9 {
        let op = OperatingPoint::paper_at_gbps(g);
        csv.row_f64(&[
            g,
            op.vdd().as_v(),
            vcsel.power(op).as_mw(),
            mqw.power(op).as_mw(),
            vcsel.normalized_power(op),
            mqw.normalized_power(op),
        ]);
        g += 0.1;
    }
    print!("{}", csv.as_str());
}

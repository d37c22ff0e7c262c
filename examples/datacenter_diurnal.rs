//! Diurnal datacenter load: the paper's motivating scenario — an
//! interconnect that is provisioned for peak hours but spends most of the
//! day lightly loaded. A 24-"hour" load profile (compressed in simulated
//! time) drives the full 64-rack system; the power-aware network's draw
//! follows the curve while the baseline burns flat peak power.
//!
//! ```text
//! cargo run --release -p lumen-examples --example datacenter_diurnal
//! ```

use lumen_core::prelude::*;

/// A compressed day: each "hour" is 40 000 router cycles (64 µs); loads in
/// network-wide packets/cycle follow a classic diurnal double hump.
fn diurnal_profile() -> RateProfile {
    const HOUR: u64 = 40_000;
    let loads = [
        0.3, 0.2, 0.15, 0.1, 0.1, 0.2, // 00:00–06:00 — night
        0.6, 1.2, 2.0, 2.6, 2.8, 2.6, // 06:00–12:00 — morning ramp
        2.2, 2.4, 2.8, 3.0, 2.8, 2.4, // 12:00–18:00 — afternoon peak
        2.0, 1.6, 1.2, 0.9, 0.6, 0.4, // 18:00–24:00 — evening decay
    ];
    RateProfile::Phases(loads.iter().map(|&l| (HOUR, l)).collect())
}

fn main() {
    println!("Lumen diurnal datacenter — 24 compressed hours on 64 racks\n");
    let profile = diurnal_profile();
    let day_cycles = profile.period_cycles().expect("phased profile");
    let size = PacketSize::Fixed(5);

    let run = |config: SystemConfig| {
        Experiment::new(config)
            .warmup_cycles(10_000)
            .measure_cycles(day_cycles)
            .sample_every(day_cycles / 48)
            .run_synthetic(Pattern::Uniform, profile.clone(), size)
    };

    let pa = run(SystemConfig::paper_default());
    let base = run(SystemConfig::paper_default().non_power_aware());

    println!(
        "over one day (mean load {:.2} pkt/cycle):",
        profile.mean_rate()
    );
    println!("  baseline    : {base}");
    println!("  power-aware : {pa}");
    println!(
        "\n  energy saved: {:.1}%  |  latency cost: {:.2}x  |  PLP: {:.2}",
        (1.0 - pa.normalized_power) * 100.0,
        pa.normalized_latency(&base),
        pa.power_latency_product(&base)
    );

    println!("\nhour-by-hour (power-aware), half-hour samples:");
    println!("  {:>8} {:>12} {:>12}", "time", "load pkt/cy", "norm power");
    for ((t, load), (_, power)) in pa.injection_series.iter().zip(pa.power_series.iter()) {
        let hours = t.as_us_f64() / 64.0; // 40k cycles = 64 µs = 1 "hour"
        println!("  {hours:>7.1}h {load:>12.2} {power:>12.3}");
    }
}

//! Extension — power-aware links under datacenter-scale traffic.
//!
//! The paper's title promises *networked systems*, but its evaluation
//! stops at a 64-rack multiprocessor mesh. This extension pushes the same
//! link policies to datacenter scale and datacenter traffic shape: a
//! 32×32 mesh (1024 nodes — 16× the paper's fabric) and a two-level
//! folded-Clos fabric, both driven by request/response traffic with
//! incast fan-in, exponential ON/OFF flows, and a diurnal load ramp
//! (`lumen-traffic::datacenter`). For each fabric we compare the
//! non-power-aware baseline, the paper's DVS bit-rate ladder, and on/off
//! link gating on delivery and energy.
//!
//! Every point runs with the flit/credit conservation auditor enabled,
//! and the scenario honours `--shards N` — the 32×32 mesh under
//! `--shards 2` is the acceptance gate for topology-provided shard cuts.
//! `--topology` applies to the mesh scenario only (the folded-Clos
//! scenario always runs; see TOPOLOGIES.md).
//!
//! Run: `cargo run --release -p lumen-bench --bin ext_datacenter
//! [--quick] [--jobs N] [--shards N] [--topology T]`

use lumen_bench::{banner, defaults, run_points, write_trace, BenchArgs};
use lumen_core::prelude::*;
use lumen_policy::OnOffConfig;
use lumen_stats::csv::CsvBuilder;

/// The 32×32 single-node-per-rack mesh (`--topology` applies here).
fn scaleout_noc(args: &BenchArgs) -> NocConfig {
    let mut noc = NocConfig::paper_default();
    noc.width = 32;
    noc.height = 32;
    noc.nodes_per_rack = 1;
    args.apply_topology(&mut noc);
    noc
}

/// A small two-level fat tree: 4×4 leaf racks of 4 nodes, 4 spines.
fn fattree_noc() -> NocConfig {
    let mut noc = NocConfig::paper_default();
    noc.width = 4;
    noc.height = 4;
    noc.nodes_per_rack = 4;
    noc.topology = TopologyKind::FoldedClos { spines: 4 };
    noc
}

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    banner(
        "Extension",
        "datacenter-scale request/response traffic on large fabrics",
    );

    let measure = scale.cycles(60_000);
    let warmup = scale.cycles(defaults::WARMUP_CYCLES);
    // Scenario: (name, fabric). The workload derives from each fabric's
    // node count so both run at a comparable per-node intensity.
    let scenarios = [
        ("mesh-32x32", scaleout_noc(&args)),
        ("folded-clos", fattree_noc()),
    ];
    let dc_for = |noc: &NocConfig| {
        let mut dc = DatacenterConfig::web_like(noc.node_count() / 4);
        dc.request_rate = noc.node_count() as f64 * 0.004;
        // Keep all three mechanisms visible inside the (possibly
        // shortened) measurement window.
        dc.diurnal_period_cycles = scale.cycles(40_000);
        dc.incast_period_cycles = scale.cycles(8_000);
        dc
    };

    let mut points = Vec::new();
    for (group, (name, noc)) in scenarios.iter().enumerate() {
        let dc = dc_for(noc);
        println!(
            "\n{name}: {} routers / {} nodes, {} servers, peak {:.2} req/cycle \
             (long-run ≈ {:.2}), incast {} × {} flits every {} cycles",
            noc.router_count(),
            noc.node_count(),
            dc.servers,
            dc.request_rate,
            dc.mean_request_rate(),
            dc.incast_fanin.min(dc.servers as u32),
            dc.incast_flits,
            dc.incast_period_cycles,
        );
        let system = |noc: &NocConfig, power_aware: bool| {
            let mut config = if power_aware {
                SystemConfig::paper_default()
            } else {
                SystemConfig::paper_default().non_power_aware()
            };
            config.noc = noc.clone();
            config
        };
        let experiment = |config: SystemConfig| {
            Experiment::new(config)
                .warmup_cycles(warmup)
                .measure_cycles(measure)
                .audit_conservation()
                .telemetry(args.telemetry())
        };
        let workload = Workload::Datacenter { config: dc };
        let mut onoff = system(noc, true);
        onoff.policy = onoff.policy.with_onoff(OnOffConfig::reference_default());
        for (policy, config) in [
            ("non-PA", system(noc, false)),
            ("DVS", system(noc, true)),
            ("on/off", onoff),
        ] {
            points.push(
                Point::new(
                    format!("{name} {policy}"),
                    experiment(config),
                    workload.clone(),
                )
                .in_group(group as u64),
            );
        }
    }

    println!(
        "\n{} points on {} threads, {} shard(s) each:",
        points.len(),
        args.executor().jobs(),
        args.shards
    );
    let results = run_points(&args.executor(), &points);
    write_trace(&args, &points, &results);

    let mut csv = CsvBuilder::new(vec![
        "scenario".into(),
        "policy".into(),
        "delivered".into(),
        "delivery_ratio".into(),
        "avg_latency_cy".into(),
        "norm_latency".into(),
        "power_mw".into(),
        "norm_power".into(),
        "transitions".into(),
    ]);
    let policies = ["non-PA", "DVS", "on/off"];
    for (k, (name, _)) in scenarios.iter().enumerate() {
        let base = &results[k * policies.len()];
        println!("\n{name} (every point conservation-audited):");
        println!(
            "  {:>7} {:>10} {:>9} {:>12} {:>12} {:>10} {:>11}",
            "policy",
            "delivered",
            "latency",
            "norm latency",
            "power (mW)",
            "norm power",
            "transitions"
        );
        for (i, policy) in policies.iter().enumerate() {
            let r = &results[k * policies.len() + i];
            let nl = r.normalized_latency(base);
            println!(
                "  {policy:>7} {:>10} {:>9.1} {nl:>12.2} {:>12.1} {:>10.3} {:>11}",
                r.packets_delivered,
                r.avg_latency_cycles,
                r.avg_power_mw,
                r.normalized_power,
                r.transitions
            );
            csv.row(vec![
                (*name).into(),
                (*policy).into(),
                r.packets_delivered.to_string(),
                format!("{:.4}", r.delivery_ratio()),
                format!("{:.2}", r.avg_latency_cycles),
                format!("{nl:.4}"),
                format!("{:.2}", r.avg_power_mw),
                format!("{:.4}", r.normalized_power),
                r.transitions.to_string(),
            ]);
        }
    }

    println!(
        "\nReading: the diurnal troughs and OFF flows leave most links idle\n\
         most of the time, so the DVS ladder keeps its deep power savings at\n\
         16x the paper's scale — at a real latency cost on the long-path\n\
         mesh, where slow ramp-ups meet the server-quarter hotspot. On/off\n\
         gating pays a wake penalty on every returning flow and every incast\n\
         burst: it saves little power and loses packets' worth of window\n\
         (fewer deliveries) on both fabrics — the paper's ladder argument,\n\
         amplified by datacenter burstiness."
    );
    println!("\nCSV:\n{}", csv.as_str());
}

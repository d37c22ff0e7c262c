//! Differential and bit-identity tests for the precomputed route table.
//!
//! The [`lumen_noc::RouteTable`] is a pure performance knob: it bakes
//! `route_inter` into a dense flat array at build time so the router's
//! RC stage becomes one indexed load. These tests pin the two promises
//! that make that safe:
//!
//! - **differential** — for random mesh and Clos geometries and every
//!   routing algorithm, the table's `candidates(here, dst)` equals the
//!   on-the-fly `route_candidates` oracle for *every* `(router, node)`
//!   pair, in the same candidate order (adaptive tie-breaks select by
//!   position, so order equality — not set equality — is the contract);
//! - **bit identity** — a sharded run, whose replicas all adopt one
//!   `Arc`'d table built by the runner, produces bit-identical
//!   `RunResult`s to the sequential engine, which builds its own.

use lumen_core::prelude::*;
use lumen_noc::routing::{route_candidates, RoutingAlgorithm};
use lumen_noc::{NocConfig, NodeId, PortId, RouteTable, RouterId, TopologyKind};
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;

/// A small geometry of the given kind on the unit-test clock envelope.
fn noc(kind: TopologyKind, width: u8, height: u8, npr: u8) -> NocConfig {
    let mut c = NocConfig::small_for_tests();
    c.width = width;
    c.height = height;
    c.nodes_per_rack = npr;
    c.topology = kind;
    c
}

/// Asserts `RouteTable::build` agrees with the on-the-fly oracle for
/// every `(here, dst)` pair of `config` under each algorithm.
fn assert_table_matches_oracle(config: &NocConfig, algos: &[RoutingAlgorithm]) {
    let mut scratch: Vec<PortId> = Vec::new();
    for &algo in algos {
        let table = RouteTable::build(config, algo);
        assert!(table.matches(config, algo));
        for here in 0..config.rack_count() {
            let here = RouterId(here as u32);
            for dst in 0..config.node_count() {
                let dst = NodeId(dst as u32);
                route_candidates(config, algo, here, dst, &mut scratch);
                assert_eq!(
                    table.candidates(here, dst).as_slice(),
                    scratch.as_slice(),
                    "{algo:?} table != oracle at {here:?} -> {dst:?}"
                );
                assert_eq!(table.router_of_node(dst), config.router_of_node(dst));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random meshes: the table reproduces the oracle for all three
    /// algorithms, all routers, all destination nodes.
    #[test]
    fn mesh_table_matches_oracle(
        width in 1u8..6,
        height in 1u8..6,
        npr in 1u8..3,
    ) {
        let config = noc(TopologyKind::Mesh, width, height, npr);
        assert_table_matches_oracle(
            &config,
            &[RoutingAlgorithm::XY, RoutingAlgorithm::YX, RoutingAlgorithm::WestFirst],
        );
    }

    /// Random folded-Clos fabrics: up/down routing tables match the
    /// oracle from every leaf (spine routers never originate lookups).
    #[test]
    fn folded_clos_table_matches_oracle(
        width in 1u8..4,
        height in 1u8..3,
        spines in 1u8..4,
        npr in 1u8..3,
    ) {
        let config = noc(TopologyKind::FoldedClos { spines }, width, height, npr);
        let leaves = config.rack_count();
        let mut scratch: Vec<PortId> = Vec::new();
        for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::WestFirst] {
            let table = RouteTable::build(&config, algo);
            for here in 0..leaves {
                let here = RouterId(here as u32);
                for dst in 0..config.node_count() {
                    let dst = NodeId(dst as u32);
                    route_candidates(&config, algo, here, dst, &mut scratch);
                    prop_assert_eq!(
                        table.candidates(here, dst).as_slice(),
                        scratch.as_slice()
                    );
                }
            }
        }
    }
}

/// Asserts two runs are bit-identical in every metric the recorded
/// harnesses serialize (f64s compared by bit pattern, not value).
fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.packets_injected, b.packets_injected, "{what}: injected");
    assert_eq!(
        a.packets_delivered, b.packets_delivered,
        "{what}: delivered"
    );
    assert_eq!(a.packets_dropped, b.packets_dropped, "{what}: dropped");
    assert_eq!(
        a.avg_latency_cycles.to_bits(),
        b.avg_latency_cycles.to_bits(),
        "{what}: avg latency"
    );
    assert_eq!(
        a.p99_latency_cycles.to_bits(),
        b.p99_latency_cycles.to_bits(),
        "{what}: p99 latency"
    );
    assert_eq!(
        a.avg_power_mw.to_bits(),
        b.avg_power_mw.to_bits(),
        "{what}: power"
    );
    assert_eq!(
        a.normalized_power.to_bits(),
        b.normalized_power.to_bits(),
        "{what}: normalized power"
    );
    assert_eq!(a.transitions, b.transitions, "{what}: transitions");
}

/// A small full system (power policy on, conservation audited) for the
/// bit-identity runs below.
fn experiment(kind: TopologyKind, seed: u64) -> Experiment {
    let mut config = SystemConfig::paper_default().with_seed(seed);
    config.noc = noc(kind, 4, 4, 2);
    config.policy.timing.tw_cycles = 200;
    Experiment::new(config)
        .warmup_cycles(400)
        .measure_cycles(3_000)
        .audit_conservation()
}

/// The two ways a network acquires its table replay bit-identically: the
/// sharded engine's replicas share one `Arc`'d table built by the runner,
/// the sequential engine builds its own.
#[test]
fn table_modes_replay_bit_identically_sharded() {
    for kind in [TopologyKind::Mesh, TopologyKind::FoldedClos { spines: 2 }] {
        let exp = experiment(kind, 31);
        let shared = exp
            .clone()
            .shards(2)
            .run_uniform(0.15, PacketSize::Fixed(4));
        assert!(shared.packets_delivered > 0);
        let own = exp.shards(1).run_uniform(0.15, PacketSize::Fixed(4));
        assert_bit_identical(&shared, &own, &format!("{kind:?}: shared vs own table"));
    }
}

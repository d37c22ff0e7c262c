//! Micro-benchmark of a single router's pipeline tick under streaming
//! traffic — the per-cycle cost the whole-system simulation multiplies by
//! 64 routers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lumen_desim::Picos;
use lumen_noc::config::NocConfig;
use lumen_noc::flit::Packet;
use lumen_noc::ids::{LinkId, NodeId, PacketId, PortId, RouterId, VcId};
use lumen_noc::link::{Endpoint, Link, LinkKind};
use lumen_noc::network::Effect;
use lumen_noc::route_table::RouteTable;
use lumen_noc::router::Router;
use lumen_noc::routing::RoutingAlgorithm;
use std::hint::black_box;

/// A paper-dimension router (12 ports) with an ejection link on port 0
/// and a continuous supply of flits on input port 1.
fn harness() -> (NocConfig, RouteTable, Router, Vec<Link>) {
    let config = NocConfig::paper_default();
    let table = RouteTable::build(&config, RoutingAlgorithm::XY);
    let mut router = Router::new(RouterId(0), &config);
    let eject = Link::new(
        LinkId(0),
        LinkKind::Ejection,
        Endpoint::RouterPort {
            router: RouterId(0),
            port: PortId(0),
        },
        Endpoint::Node(NodeId(0)),
        config.flit_bits,
        config.propagation,
        config.max_rate,
    );
    router.outputs[0].link = Some(LinkId(0));
    router.inputs[1].feeder = Some(LinkId(0)); // placeholder feeder id
    (config, table, router, vec![eject])
}

fn idle_tick(c: &mut Criterion) {
    let (config, table, mut router, mut links) = harness();
    let mut effects = Vec::new();
    let mut group = c.benchmark_group("router");
    group.throughput(Throughput::Elements(1));
    group.bench_function("idle_tick", |b| {
        let mut now = Picos::ZERO;
        b.iter(|| {
            router.tick(now, &config, &table, &mut links, &mut effects);
            effects.clear();
            now += config.cycle();
            black_box(&router);
        });
    });
    group.finish();
}

fn streaming_tick(c: &mut Criterion) {
    let (config, table, mut router, mut links) = harness();
    let mut effects = Vec::new();
    let mut group = c.benchmark_group("router");
    group.throughput(Throughput::Elements(1));
    group.bench_function("streaming_tick", |b| {
        let mut now = Picos::ZERO;
        let mut pkt_id = 0u64;
        let mut pending: Vec<_> = Vec::new();
        b.iter(|| {
            // Keep input port 1 supplied with flits destined for node 0.
            if pending.is_empty() {
                pkt_id += 1;
                let pkt = Packet::new(PacketId(pkt_id), NodeId(1), NodeId(0), 5, now);
                pending.extend(pkt.into_flits());
                pending.reverse();
            }
            if let Some(&flit) = pending.last() {
                if router.inputs[1].buffer.free_slots(VcId(0)) > 0 {
                    router.accept_flit(PortId(1), VcId(0), flit);
                    pending.pop();
                }
            }
            router.tick(now, &config, &table, &mut links, &mut effects);
            // Instantly recycle credits so traffic keeps flowing.
            for eff in effects.drain(..) {
                if let Effect::Flit { vc, .. } = eff {
                    router.return_credit(PortId(0), vc, config.depth_per_vc());
                }
            }
            now += config.cycle();
            black_box(&router);
        });
    });
    group.finish();
}

criterion_group!(benches, idle_tick, streaming_tick);
criterion_main!(benches);

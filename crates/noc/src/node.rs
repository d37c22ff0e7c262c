//! Processing nodes: traffic sources and sinks.
//!
//! Each board in a rack houses one processing node connected to the rack's
//! router by a pair of power-aware opto-electronic links (paper Fig. 4(a)).
//! The source side serializes queued packets onto the injection link,
//! respecting downstream credits; the sink side reassembles packets off the
//! ejection link, returns credits, and reports per-packet latency.

use crate::arbiter::RoundRobinArbiter;
use crate::flit::{Flit, Packet};
use crate::ids::{LinkId, NodeId, PacketId, VcId};
use crate::link::Link;
use crate::network::Effect;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize, Sink, Source, Token};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A Fibonacci-multiplicative hasher for [`PacketId`] keys.
///
/// Packet ids are dense sequential integers, so the default SipHash is
/// pure overhead on the per-flit reassembly path; a single multiply
/// spreads them across buckets just as well and is deterministic across
/// runs (required for reproducibility — though nothing here iterates the
/// map in a result-affecting order anyway).
#[derive(Default)]
pub struct PacketIdHasher(u64);

impl Hasher for PacketIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PacketMap<V> = HashMap<PacketId, V, BuildHasherDefault<PacketIdHasher>>;

/// The traffic-source half of a processing node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceNode {
    id: NodeId,
    inj_link: LinkId,
    queue: VecDeque<Flit>,
    credits: Vec<u16>,
    active_vc: Option<VcId>,
    vc_arbiter: RoundRobinArbiter,
    scratch_eligible: Vec<bool>,
    /// Packets handed to this source over its lifetime.
    pub packets_queued: u64,
    /// Flits that have left on the injection link.
    pub flits_injected: u64,
}

impl SourceNode {
    /// Creates a source wired to `inj_link`, with full initial credit for
    /// a downstream buffer of `vcs` VCs × `depth_per_vc` flits.
    pub fn new(id: NodeId, inj_link: LinkId, vcs: u8, depth_per_vc: u16) -> Self {
        SourceNode {
            id,
            inj_link,
            queue: VecDeque::new(),
            credits: vec![depth_per_vc; vcs as usize],
            active_vc: None,
            vc_arbiter: RoundRobinArbiter::new(vcs as usize),
            scratch_eligible: vec![false; vcs as usize],
            packets_queued: 0,
            flits_injected: 0,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The injection link this source drives.
    pub fn injection_link(&self) -> LinkId {
        self.inj_link
    }

    /// Queues a packet for injection.
    ///
    /// # Panics
    ///
    /// Panics if the packet's source is not this node.
    pub fn enqueue(&mut self, packet: Packet) {
        assert_eq!(packet.src, self.id, "packet source mismatch");
        self.packets_queued += 1;
        self.queue.extend(packet.into_flits());
    }

    /// Flits still waiting (source queue occupancy).
    pub fn backlog_flits(&self) -> usize {
        self.queue.len()
    }

    /// Current credit balance per VC (for the conservation auditor).
    pub fn credits(&self) -> &[u16] {
        &self.credits
    }

    /// Returns one credit for the downstream VC.
    pub fn return_credit(&mut self, vc: VcId, depth_per_vc: u16) {
        let c = &mut self.credits[vc.0 as usize];
        assert!(*c < depth_per_vc, "injection credit overflow at {}", self.id);
        *c += 1;
    }

    /// One core cycle: try to put the next queued flit on the injection
    /// link.
    pub fn tick(&mut self, now: Picos, links: &mut [Link], effects: &mut Vec<Effect>) {
        let Some(front) = self.queue.front() else {
            return;
        };
        links[self.inj_link.index()].note_demand();
        if self.active_vc.is_none() {
            debug_assert!(front.kind.is_head(), "source queue must start at a head flit");
            for (v, &c) in self.credits.iter().enumerate() {
                self.scratch_eligible[v] = c > 0;
            }
            let eligible = &self.scratch_eligible;
            match self.vc_arbiter.grant(|v| eligible[v]) {
                Some(v) => self.active_vc = Some(VcId(v as u8)),
                None => return,
            }
        }
        let vc = self.active_vc.expect("set above");
        if self.credits[vc.0 as usize] == 0 {
            return;
        }
        let link = &mut links[self.inj_link.index()];
        if !link.ready_at(now) {
            return;
        }
        let flit = self.queue.pop_front().expect("checked non-empty");
        self.credits[vc.0 as usize] -= 1;
        self.flits_injected += 1;
        let at = link.start_flit(now);
        effects.push(Effect::Flit {
            link: self.inj_link,
            vc,
            flit,
            at,
        });
        if flit.kind.is_tail() {
            self.active_vc = None;
        }
    }
}

/// Reassembly state for one packet mid-flight at a sink.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PartialPacket {
    /// Flits of the packet seen so far.
    seen: u32,
    /// Whether any flit of the packet arrived corrupted. Detection is
    /// end-to-end: the whole packet is dropped at the tail.
    poisoned: bool,
}

/// The traffic-sink half of a processing node.
#[derive(Debug, Clone)]
pub struct SinkNode {
    id: NodeId,
    ej_link: LinkId,
    in_flight: PacketMap<PartialPacket>,
    /// Packets fully received.
    pub packets_received: u64,
    /// Flits received.
    pub flits_received: u64,
    /// Flits of fully delivered (uncorrupted) packets.
    pub flits_delivered: u64,
    /// Packets discarded because a flit arrived corrupted.
    pub packets_dropped: u64,
    /// Flits belonging to discarded packets.
    pub flits_dropped: u64,
    /// Flits that arrived with the corruption flag set.
    pub flits_corrupted: u64,
}

impl SinkNode {
    /// Creates a sink fed by `ej_link`.
    pub fn new(id: NodeId, ej_link: LinkId) -> Self {
        SinkNode {
            id,
            ej_link,
            in_flight: PacketMap::default(),
            packets_received: 0,
            flits_received: 0,
            flits_delivered: 0,
            packets_dropped: 0,
            flits_dropped: 0,
            flits_corrupted: 0,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The ejection link feeding this sink.
    pub fn ejection_link(&self) -> LinkId {
        self.ej_link
    }

    /// Accepts a flit off the ejection link: returns the credit upstream
    /// and, on the tail flit, either emits the packet-ejected effect
    /// carrying the end-to-end latency or — if any flit of the packet
    /// arrived corrupted — drops the packet with accounting (no effect).
    ///
    /// Corrupted flits still consume buffer slots and return credits:
    /// flow control cannot distinguish them, only the end-to-end check
    /// at reassembly can.
    ///
    /// # Panics
    ///
    /// Panics if the flit is misaddressed or packet reassembly is
    /// inconsistent (simulator invariant violations).
    pub fn receive(
        &mut self,
        now: Picos,
        vc: VcId,
        flit: Flit,
        credit_delay: Picos,
        effects: &mut Vec<Effect>,
    ) {
        assert_eq!(flit.dst, self.id, "misrouted flit {flit} at {}", self.id);
        self.flits_received += 1;
        if flit.corrupted {
            self.flits_corrupted += 1;
        }
        effects.push(Effect::Credit {
            link: self.ej_link,
            vc,
            at: now + credit_delay,
        });
        let partial = self.in_flight.entry(flit.packet).or_insert(PartialPacket {
            seen: 0,
            poisoned: false,
        });
        partial.seen += 1;
        partial.poisoned |= flit.corrupted;
        assert_eq!(
            partial.seen - 1,
            flit.seq,
            "out-of-order flit {flit} at {}",
            self.id
        );
        if flit.kind.is_tail() {
            let partial = self
                .in_flight
                .remove(&flit.packet)
                .expect("tail implies entry");
            assert_eq!(partial.seen, flit.size_flits, "short packet {flit}");
            if partial.poisoned {
                self.packets_dropped += 1;
                self.flits_dropped += u64::from(flit.size_flits);
            } else {
                self.packets_received += 1;
                self.flits_delivered += u64::from(flit.size_flits);
                effects.push(Effect::Ejected {
                    packet: flit.packet,
                    src: flit.src,
                    dst: flit.dst,
                    size_flits: flit.size_flits,
                    created_at: flit.created_at,
                    at: now,
                });
            }
        }
    }

    /// Packets currently mid-reassembly.
    pub fn partial_packets(&self) -> usize {
        self.in_flight.len()
    }

    /// Flits currently held in partially reassembled packets (for the
    /// conservation auditor).
    pub fn partial_flits(&self) -> u64 {
        self.in_flight.values().map(|p| u64::from(p.seen)).sum()
    }
}

// Hand-written: the vendored serde has no HashMap impl, and hash-map
// iteration order must not leak into serialized bytes anyway (checkpoints
// of identical states must be byte-identical). Mid-flight packets are
// written as a sequence sorted by packet id.
impl Serialize for SinkNode {
    fn serialize<S: Sink>(&self, out: &mut S) {
        let mut in_flight: Vec<(u64, u32, bool)> = self
            .in_flight
            .iter()
            .map(|(id, p)| (id.0, p.seen, p.poisoned))
            .collect();
        in_flight.sort_unstable_by_key(|&(id, ..)| id);
        out.token(Token::Map(9));
        out.field("id", &self.id);
        out.field("ej_link", &self.ej_link);
        out.field("in_flight", &in_flight);
        out.field("packets_received", &self.packets_received);
        out.field("flits_received", &self.flits_received);
        out.field("flits_delivered", &self.flits_delivered);
        out.field("packets_dropped", &self.packets_dropped);
        out.field("flits_dropped", &self.flits_dropped);
        out.field("flits_corrupted", &self.flits_corrupted);
    }
}

impl SinkNode {
    /// Reads the state its [`Serialize`] impl wrote back into this sink.
    pub(crate) fn restore<S: Source>(&mut self, src: &mut S) -> Result<(), serde::Error> {
        const TY: &str = "SinkNode";
        src.map_of(9, TY)?;
        self.id = src.field("id", TY)?;
        self.ej_link = src.field("ej_link", TY)?;
        let in_flight: Vec<(u64, u32, bool)> = src.field("in_flight", TY)?;
        self.in_flight = in_flight
            .into_iter()
            .map(|(id, seen, poisoned)| (PacketId(id), PartialPacket { seen, poisoned }))
            .collect();
        self.packets_received = src.field("packets_received", TY)?;
        self.flits_received = src.field("flits_received", TY)?;
        self.flits_delivered = src.field("flits_delivered", TY)?;
        self.packets_dropped = src.field("packets_dropped", TY)?;
        self.flits_dropped = src.field("flits_dropped", TY)?;
        self.flits_corrupted = src.field("flits_corrupted", TY)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Endpoint, LinkKind};
    use lumen_opto::Gbps;

    fn inj_link() -> Link {
        Link::new(
            LinkId(0),
            LinkKind::Injection,
            Endpoint::Node(NodeId(0)),
            Endpoint::RouterPort {
                router: crate::ids::RouterId(0),
                port: crate::ids::PortId(0),
            },
            16,
            Picos::from_ps(1600),
            Gbps::from_gbps(10.0),
        )
    }

    fn pkt(id: u64, size: u32) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(1), size, Picos::ZERO)
    }

    #[test]
    fn source_injects_at_link_rate() {
        let mut src = SourceNode::new(NodeId(0), LinkId(0), 1, 8);
        let mut links = vec![inj_link()];
        let mut effects = Vec::new();
        src.enqueue(pkt(1, 3));
        assert_eq!(src.backlog_flits(), 3);
        let cycle = Picos::from_ps(1600);
        let mut now = Picos::ZERO;
        for _ in 0..5 {
            src.tick(now, &mut links, &mut effects);
            now += cycle;
        }
        assert_eq!(src.flits_injected, 3);
        assert_eq!(src.backlog_flits(), 0);
        assert_eq!(effects.len(), 3);
    }

    #[test]
    fn source_blocks_without_credits() {
        let mut src = SourceNode::new(NodeId(0), LinkId(0), 1, 2);
        let mut links = vec![inj_link()];
        let mut effects = Vec::new();
        src.enqueue(pkt(1, 5));
        let cycle = Picos::from_ps(1600);
        let mut now = Picos::ZERO;
        for _ in 0..10 {
            src.tick(now, &mut links, &mut effects);
            now += cycle;
        }
        assert_eq!(src.flits_injected, 2); // only 2 credits available
        src.return_credit(VcId(0), 2);
        src.tick(now, &mut links, &mut effects);
        assert_eq!(src.flits_injected, 3);
    }

    #[test]
    fn source_respects_slow_link() {
        let mut src = SourceNode::new(NodeId(0), LinkId(0), 1, 8);
        let mut links = vec![inj_link()];
        links[0].begin_rate_change(Picos::ZERO, Gbps::from_gbps(5.0), Picos::ZERO);
        let mut effects = Vec::new();
        src.enqueue(pkt(1, 2));
        let cycle = Picos::from_ps(1600);
        let mut now = Picos::ZERO;
        for _ in 0..2 {
            src.tick(now, &mut links, &mut effects);
            now += cycle;
        }
        // Second flit cannot start at cycle 1: link busy until 3200 ps.
        assert_eq!(src.flits_injected, 1);
        src.tick(now, &mut links, &mut effects);
        assert_eq!(src.flits_injected, 2);
    }

    #[test]
    fn sink_reassembles_and_reports_latency() {
        let mut sink = SinkNode::new(NodeId(1), LinkId(3));
        let mut effects = Vec::new();
        let p = Packet::new(PacketId(7), NodeId(0), NodeId(1), 3, Picos::from_ns(10));
        let arrival_base = Picos::from_ns(100);
        for (i, f) in p.into_flits().enumerate() {
            sink.receive(
                arrival_base + Picos::from_ns(i as u64),
                VcId(0),
                f,
                Picos::from_ps(1600),
                &mut effects,
            );
        }
        assert_eq!(sink.packets_received, 1);
        assert_eq!(sink.flits_received, 3);
        assert_eq!(sink.partial_packets(), 0);
        let ejected: Vec<&Effect> = effects
            .iter()
            .filter(|e| matches!(e, Effect::Ejected { .. }))
            .collect();
        assert_eq!(ejected.len(), 1);
        if let Effect::Ejected { at, created_at, .. } = ejected[0] {
            assert_eq!(*at, Picos::from_ns(102));
            assert_eq!(*created_at, Picos::from_ns(10));
        }
        // One credit per flit.
        let credits = effects
            .iter()
            .filter(|e| matches!(e, Effect::Credit { .. }))
            .count();
        assert_eq!(credits, 3);
    }

    #[test]
    fn sink_drops_poisoned_packet_with_accounting() {
        let mut sink = SinkNode::new(NodeId(1), LinkId(3));
        let mut effects = Vec::new();
        let p = Packet::new(PacketId(9), NodeId(0), NodeId(1), 3, Picos::ZERO);
        for (i, mut f) in p.into_flits().enumerate() {
            if i == 1 {
                f.corrupted = true;
            }
            sink.receive(
                Picos::from_ns(i as u64),
                VcId(0),
                f,
                Picos::from_ps(1600),
                &mut effects,
            );
        }
        assert_eq!(sink.packets_received, 0);
        assert_eq!(sink.packets_dropped, 1);
        assert_eq!(sink.flits_dropped, 3);
        assert_eq!(sink.flits_corrupted, 1);
        assert_eq!(sink.flits_received, 3);
        assert_eq!(sink.flits_delivered, 0);
        assert_eq!(sink.partial_packets(), 0);
        assert_eq!(sink.partial_flits(), 0);
        // Credits still flow for every flit, but no packet is ejected.
        let credits = effects
            .iter()
            .filter(|e| matches!(e, Effect::Credit { .. }))
            .count();
        assert_eq!(credits, 3);
        assert!(!effects.iter().any(|e| matches!(e, Effect::Ejected { .. })));
    }

    #[test]
    #[should_panic(expected = "misrouted")]
    fn sink_rejects_misaddressed_flit() {
        let mut sink = SinkNode::new(NodeId(2), LinkId(3));
        let mut effects = Vec::new();
        let p = pkt(1, 1); // addressed to node 1
        for f in p.into_flits() {
            sink.receive(Picos::ZERO, VcId(0), f, Picos::ZERO, &mut effects);
        }
    }

    #[test]
    #[should_panic(expected = "packet source mismatch")]
    fn source_rejects_foreign_packet() {
        let mut src = SourceNode::new(NodeId(3), LinkId(0), 1, 8);
        src.enqueue(pkt(1, 1)); // src is node 0
    }
}

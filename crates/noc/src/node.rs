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
pub(crate) struct PacketIdHasher(u64);

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
///
/// A source queues packets, not flits: it builds each flit from the head
/// packet as the flit launches, so a backlog costs one packet entry per
/// packet instead of one flit entry per flit, and the flits on the wire
/// are those `Packet::into_flits` gives.
#[derive(Debug, Clone)]
pub(crate) struct SourceNode {
    id: NodeId,
    inj_link: LinkId,
    /// Packets waiting, the one being sent first.
    queue: VecDeque<Packet>,
    /// Flits of the head packet already sent.
    head_sent: u32,
    /// Flits still waiting: the queued packets' flits less `head_sent`.
    backlog: usize,
    credits: Vec<u16>,
    active_vc: Option<VcId>,
    vc_arbiter: RoundRobinArbiter,
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
            head_sent: 0,
            backlog: 0,
            credits: vec![depth_per_vc; vcs as usize],
            active_vc: None,
            vc_arbiter: RoundRobinArbiter::new(vcs as usize),
            packets_queued: 0,
            flits_injected: 0,
        }
    }

    /// The node's id.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// Queues a packet for injection.
    ///
    /// # Panics
    ///
    /// Panics if the packet's source is not this node.
    pub(crate) fn enqueue(&mut self, packet: Packet) {
        assert_eq!(packet.src, self.id, "packet source mismatch");
        self.packets_queued += 1;
        self.backlog += packet.size_flits as usize;
        self.queue.push_back(packet);
    }

    /// Flits still waiting (source queue occupancy).
    pub(crate) fn backlog_flits(&self) -> usize {
        self.backlog
    }

    /// Current credit balance per VC (for the conservation auditor).
    pub(crate) fn credits(&self) -> &[u16] {
        &self.credits
    }

    /// Returns one credit for the downstream VC.
    pub(crate) fn return_credit(&mut self, vc: VcId, depth_per_vc: u16) {
        let c = &mut self.credits[vc.0 as usize];
        assert!(
            *c < depth_per_vc,
            "injection credit overflow at {}",
            self.id
        );
        *c += 1;
    }

    /// One core cycle: try to put the head packet's next flit on the
    /// injection link.
    pub(crate) fn tick(&mut self, now: Picos, links: &mut [Link], effects: &mut Vec<Effect>) {
        let Some(packet) = self.queue.front() else {
            return;
        };
        links[self.inj_link.index()].note_demand();
        if self.active_vc.is_none() {
            debug_assert_eq!(self.head_sent, 0, "a packet starts on a free VC");
            let credits = &self.credits;
            match self.vc_arbiter.grant(|v| credits[v] > 0) {
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
        let flit = packet.flit(self.head_sent);
        self.head_sent += 1;
        if self.head_sent == packet.size_flits {
            self.queue.pop_front();
            self.head_sent = 0;
            self.active_vc = None;
        }
        self.backlog -= 1;
        self.credits[vc.0 as usize] -= 1;
        self.flits_injected += 1;
        let at = link.start_flit(now);
        effects.push(Effect::Flit {
            link: self.inj_link,
            vc,
            flit,
            at,
        });
    }

    /// Reads the state its [`Serialize`] impl wrote back into this
    /// source, which was built from the saving run's configuration.
    ///
    /// # Errors
    ///
    /// Fails if the stream is malformed, or if its state does not fit
    /// this source: a queued packet from another node or with no flits, a
    /// head count that is not below the head packet's size, a credit count
    /// per VC other than this source's VCs or above `depth_per_vc`, an
    /// active VC it does not have, or a VC arbiter priority past its VCs.
    /// The source is then partly restored and must be discarded.
    pub(crate) fn restore<S: Source>(
        &mut self,
        src: &mut S,
        depth_per_vc: u16,
    ) -> Result<(), serde::Error> {
        const TY: &str = "SourceNode";
        let (id, vcs) = (self.id, self.credits.len());
        let misfit =
            |what: String| serde::Error::custom(format!("source {id} does not fit: {what}"));
        src.map_of(7, TY)?;
        src.expect_key("queue", TY)?;
        let queued = src.seq("queue")?;
        self.queue.clear();
        self.backlog = 0;
        for _ in 0..queued {
            let packet = Packet::deserialize(src)?;
            if packet.src != id {
                return Err(misfit(format!(
                    "queued packet {packet} is from {}",
                    packet.src
                )));
            }
            if packet.size_flits == 0 {
                return Err(misfit(format!("queued packet {} has no flits", packet.id)));
            }
            self.backlog += packet.size_flits as usize;
            self.queue.push_back(packet);
        }
        self.head_sent = src.field("head_sent", TY)?;
        let sent = self.head_sent;
        match self.queue.front() {
            Some(head) if sent >= head.size_flits => {
                return Err(misfit(format!("{sent} flits of head packet {head} sent")));
            }
            None if sent > 0 => {
                return Err(misfit(format!("{sent} flits sent with no packet queued")));
            }
            _ => {}
        }
        self.backlog -= self.head_sent as usize;
        src.expect_key("credits", TY)?;
        let saved = src.seq("credits")?;
        if saved != vcs {
            return Err(misfit(format!("credits for {saved} VCs, built with {vcs}")));
        }
        for (vc, credit) in self.credits.iter_mut().enumerate() {
            *credit = u16::deserialize(src)?;
            if *credit > depth_per_vc {
                return Err(misfit(format!(
                    "vc{vc} holds {credit} credits, above its {depth_per_vc}-flit VC"
                )));
            }
        }
        self.active_vc = src.field("active_vc", TY)?;
        if let Some(vc) = self.active_vc.filter(|vc| usize::from(vc.0) >= vcs) {
            return Err(misfit(format!("active {vc}, built with {vcs} VCs")));
        }
        src.expect_key("vc_arbiter", TY)?;
        src.map_of(1, "RoundRobinArbiter")?;
        let next = src.field("next", "RoundRobinArbiter")?;
        self.vc_arbiter.restore_next(next)?;
        self.packets_queued = src.field("packets_queued", TY)?;
        self.flits_injected = src.field("flits_injected", TY)?;
        Ok(())
    }
}

/// Hand-written so the flit backlog and the wiring stay derived: the file
/// holds the queued packets and how many of the head packet's flits are
/// sent, and [`SourceNode::restore`] recounts the backlog from them; the
/// VC arbiter writes only its priority pointer.
impl Serialize for SourceNode {
    fn serialize<S: Sink>(&self, out: &mut S) {
        out.token(Token::Map(7));
        out.field("queue", &self.queue);
        out.field("head_sent", &self.head_sent);
        out.field("credits", &self.credits);
        out.field("active_vc", &self.active_vc);
        out.key("vc_arbiter");
        out.token(Token::Map(1));
        out.field("next", &self.vc_arbiter.next());
        out.field("packets_queued", &self.packets_queued);
        out.field("flits_injected", &self.flits_injected);
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
pub(crate) struct SinkNode {
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
    pub(crate) fn receive(
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
    pub(crate) fn partial_packets(&self) -> usize {
        self.in_flight.len()
    }

    /// Flits currently held in partially reassembled packets (for the
    /// conservation auditor).
    pub(crate) fn partial_flits(&self) -> u64 {
        self.in_flight.values().map(|p| u64::from(p.seen)).sum()
    }
}

// Hand-written: the vendored serde has no HashMap impl, and hash-map
// iteration order must not leak into serialized bytes anyway (checkpoints
// of identical states must be byte-identical). Mid-flight packets are
// written as a sequence sorted by packet id. The node and its ejection
// link come from the configuration.
impl Serialize for SinkNode {
    fn serialize<S: Sink>(&self, out: &mut S) {
        let mut in_flight: Vec<(u64, u32, bool)> = self
            .in_flight
            .iter()
            .map(|(id, p)| (id.0, p.seen, p.poisoned))
            .collect();
        in_flight.sort_unstable_by_key(|&(id, ..)| id);
        out.token(Token::Map(7));
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
    /// Reads the state its [`Serialize`] impl wrote back into this sink,
    /// which was built from the saving run's configuration.
    ///
    /// # Errors
    ///
    /// Fails if the stream is malformed. The sink is then partly restored
    /// and must be discarded.
    pub(crate) fn restore<S: Source>(&mut self, src: &mut S) -> Result<(), serde::Error> {
        const TY: &str = "SinkNode";
        src.map_of(7, TY)?;
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
    use crate::link::Endpoint;
    use lumen_opto::Gbps;

    fn inj_link() -> Link {
        Link::new(
            LinkId(0),
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

    /// A source restored from a checkpoint tree: built as the saving
    /// run built it, then read in place.
    struct Resumed(SourceNode);

    const VCS: u8 = 2;
    const DEPTH: u16 = 2;

    impl Deserialize for Resumed {
        fn deserialize<S: Source>(src: &mut S) -> Result<Self, serde::Error> {
            let mut node = SourceNode::new(NodeId(0), LinkId(0), VCS, DEPTH);
            node.restore(src, DEPTH)?;
            Ok(Resumed(node))
        }
    }

    #[test]
    fn source_emits_each_packets_flits_in_order() {
        // Packets of 1 to 9 flits and back, on two VCs two flits deep. A
        // credit comes back only every third cycle, so the source starves
        // mid-packet; the link slows to 5 Gb/s with a relock pause in the
        // middle of one packet, and the source is saved and restored in
        // the middle of a later one.
        let packets: Vec<Packet> = (1..=9)
            .chain((1..=9).rev())
            .enumerate()
            .map(|(i, size)| pkt(i as u64, size))
            .collect();
        let want: Vec<Flit> = packets.iter().flat_map(|p| p.into_flits()).collect();
        let mut src = SourceNode::new(NodeId(0), LinkId(0), VCS, DEPTH);
        for &p in &packets {
            src.enqueue(p);
        }
        assert_eq!(src.backlog_flits(), want.len());
        let mut links = vec![inj_link()];
        let mut effects = Vec::new();
        let mut sent: Vec<(VcId, Flit)> = Vec::new();
        let (cycle, mut now) = (Picos::from_ps(1600), Picos::ZERO);
        let (mut slowed, mut resumed, mut starved) = (false, false, 0);
        for tick in 0u64.. {
            if sent.len() == want.len() {
                break;
            }
            assert!(tick < 10_000, "the source stopped sending");
            let before = sent.len();
            src.tick(now, &mut links, &mut effects);
            for effect in effects.drain(..) {
                let Effect::Flit { vc, flit, .. } = effect else {
                    panic!("a source only launches flits");
                };
                sent.push((vc, flit));
            }
            if sent.len() == before && src.credits().iter().all(|&c| c == 0) {
                starved += 1;
            }
            if tick % 3 == 2 {
                let owed = (0..VCS).find(|&v| src.credits()[v as usize] < DEPTH);
                if let Some(v) = owed {
                    src.return_credit(VcId(v), DEPTH);
                }
            }
            let head_size = src.queue.front().map_or(0, |p| p.size_flits);
            if !slowed && src.head_sent > 0 && head_size > 3 {
                links[0].begin_rate_change(now, Gbps::from_gbps(5.0), cycle * 2);
                slowed = true;
            }
            if slowed && !resumed && src.head_sent >= 2 {
                let saved = src.serialize_value();
                let restored = serde::from_value::<Resumed>(&saved).expect("restores").0;
                assert_eq!(restored.serialize_value(), saved);
                assert_eq!(restored.backlog_flits(), src.backlog_flits());
                src = restored;
                resumed = true;
            }
            now += cycle;
        }
        assert!(slowed && resumed && starved > 0);
        assert_eq!(src.backlog_flits(), 0);
        let flits: Vec<Flit> = sent.iter().map(|&(_, f)| f).collect();
        assert_eq!(flits, want);
        // A packet rides one VC from head to tail.
        for pair in sent.windows(2) {
            if !pair[1].1.kind.is_head() {
                assert_eq!(pair[0].0, pair[1].0, "{} changed VC", pair[1].1);
            }
        }
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

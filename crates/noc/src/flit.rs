//! Packets and flits.

use crate::ids::{NodeId, PacketId};
use lumen_desim::Picos;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A packet: the unit of traffic generation and latency measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique identity.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits (≥ 1).
    pub size_flits: u32,
    /// Creation time (start of the latency measurement, per the paper:
    /// "from the creation of the first flit of the packet").
    pub created_at: Picos,
}

impl Packet {
    /// Creates a packet.
    ///
    /// # Panics
    ///
    /// Panics if `size_flits` is zero or `src == dst`.
    pub fn new(id: PacketId, src: NodeId, dst: NodeId, size_flits: u32, created_at: Picos) -> Self {
        assert!(size_flits >= 1, "packets need at least one flit");
        assert!(src != dst, "self-addressed packets are not routed");
        Packet {
            id,
            src,
            dst,
            size_flits,
            created_at,
        }
    }

    /// Flit `seq` of the packet (`seq < size_flits`): the source builds
    /// each flit as it launches it.
    #[inline]
    pub(crate) fn flit(&self, seq: u32) -> Flit {
        debug_assert!(seq < self.size_flits, "flit {seq} of {self}");
        let size = self.size_flits;
        let kind = if size == 1 {
            FlitKind::HeadTail
        } else if seq == 0 {
            FlitKind::Head
        } else if seq == size - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Flit {
            packet: self.id,
            kind,
            seq,
            src: self.src,
            dst: self.dst,
            size_flits: size,
            created_at: self.created_at,
            corrupted: false,
        }
    }

    /// Breaks the packet into its flit sequence.
    #[cfg(test)]
    pub(crate) fn into_flits(self) -> impl Iterator<Item = Flit> {
        (0..self.size_flits).map(move |seq| self.flit(seq))
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}→{}, {} flits]",
            self.id, self.src, self.dst, self.size_flits
        )
    }
}

/// A flit's position within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases the wormhole path.
    Tail,
    /// A single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a packet (needs route computation / VC
    /// allocation).
    pub(crate) fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet (releases the output VC).
    pub(crate) fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A flow-control unit: the fixed-size segment routers operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Head/body/tail position.
    pub kind: FlitKind,
    /// Sequence number within the packet.
    pub seq: u32,
    /// Source node (carried for statistics).
    pub src: NodeId,
    /// Destination node (carried for routing).
    pub dst: NodeId,
    /// Packet length (carried for reassembly checks).
    pub size_flits: u32,
    /// Packet creation time (carried for latency measurement).
    pub created_at: Picos,
    /// Whether a link fault flipped bits in this flit. Corrupted flits
    /// travel the network normally (flow control cannot tell) and are
    /// detected end-to-end at the sink, which drops the whole packet.
    pub corrupted: bool,
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}({:?})", self.packet, self.seq, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(size: u32) -> Packet {
        Packet::new(PacketId(1), NodeId(0), NodeId(5), size, Picos::ZERO)
    }

    #[test]
    fn multi_flit_structure() {
        let flits: Vec<Flit> = pkt(4).into_flits().collect();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits[0].kind.is_head() && !flits[0].kind.is_tail());
        assert!(flits[3].kind.is_tail() && !flits[3].kind.is_head());
        for (i, fl) in flits.iter().enumerate() {
            assert_eq!(fl.seq, i as u32);
            assert_eq!(fl.dst, NodeId(5));
            assert_eq!(fl.size_flits, 4);
        }
    }

    #[test]
    fn two_flit_packet_has_head_and_tail() {
        let flits: Vec<Flit> = pkt(2).into_flits().collect();
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits: Vec<Flit> = pkt(1).into_flits().collect();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    #[should_panic(expected = "self-addressed")]
    fn self_send_rejected() {
        let _ = Packet::new(PacketId(1), NodeId(3), NodeId(3), 2, Picos::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn empty_packet_rejected() {
        let _ = Packet::new(PacketId(1), NodeId(0), NodeId(1), 0, Picos::ZERO);
    }
}

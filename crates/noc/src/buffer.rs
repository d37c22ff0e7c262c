//! Input buffers with per-VC FIFO queues.

use crate::flit::Flit;
use crate::ids::VcId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One router input port's buffering: a fixed-capacity FIFO per virtual
/// channel. Capacity is enforced — an overflow indicates a credit
/// accounting bug upstream, so it panics rather than dropping flits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputBuffer {
    queues: Vec<VecDeque<Flit>>,
    depth_per_vc: usize,
    // Flits across all VCs, kept in sync by push/pop so the per-cycle
    // occupancy statistic is O(1) instead of a walk over every VC.
    occupancy: usize,
}

impl InputBuffer {
    /// Creates a buffer with `vcs` virtual channels of `depth_per_vc` flits
    /// each.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` or `depth_per_vc` is zero.
    pub fn new(vcs: u8, depth_per_vc: u16) -> Self {
        assert!(vcs >= 1, "need at least one VC");
        assert!(depth_per_vc >= 1, "VC depth must be positive");
        InputBuffer {
            queues: (0..vcs)
                .map(|_| VecDeque::with_capacity(depth_per_vc as usize))
                .collect(),
            depth_per_vc: depth_per_vc as usize,
            occupancy: 0,
        }
    }

    /// Pushes a flit into a VC.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full (credit protocol violation) or the VC index
    /// is out of range.
    pub(crate) fn push(&mut self, vc: VcId, flit: Flit) {
        let q = &mut self.queues[vc.0 as usize];
        assert!(
            q.len() < self.depth_per_vc,
            "buffer overflow on {vc}: credit protocol violated"
        );
        q.push_back(flit);
        self.occupancy += 1;
    }

    /// The head-of-line flit of a VC, if any.
    pub(crate) fn front(&self, vc: VcId) -> Option<&Flit> {
        self.queues[vc.0 as usize].front()
    }

    /// Pops the head-of-line flit of a VC.
    pub(crate) fn pop(&mut self, vc: VcId) -> Option<Flit> {
        let f = self.queues[vc.0 as usize].pop_front();
        self.occupancy -= f.is_some() as usize;
        f
    }

    /// Occupancy of one VC, in flits.
    pub fn len(&self, vc: VcId) -> usize {
        self.queues[vc.0 as usize].len()
    }

    /// Whether one VC is empty.
    pub(crate) fn is_empty(&self, vc: VcId) -> bool {
        self.queues[vc.0 as usize].is_empty()
    }

    /// Total occupancy across all VCs, in flits (the `F(t)` of the paper's
    /// buffer-utilization statistic, Eq. 10).
    pub(crate) fn total_occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.queues.iter().map(VecDeque::len).sum::<usize>()
        );
        self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, Packet};
    use crate::ids::{NodeId, PacketId};
    use lumen_desim::Picos;

    fn flit(seq: u32) -> Flit {
        Packet::new(PacketId(1), NodeId(0), NodeId(1), 8, Picos::ZERO)
            .into_flits()
            .nth(seq as usize)
            .unwrap()
    }

    #[test]
    fn fifo_order() {
        let mut b = InputBuffer::new(1, 4);
        b.push(VcId(0), flit(0));
        b.push(VcId(0), flit(1));
        assert_eq!(b.len(VcId(0)), 2);
        assert_eq!(b.front(VcId(0)).unwrap().seq, 0);
        assert_eq!(b.pop(VcId(0)).unwrap().seq, 0);
        assert_eq!(b.pop(VcId(0)).unwrap().seq, 1);
        assert!(b.pop(VcId(0)).is_none());
    }

    #[test]
    fn per_vc_isolation() {
        let mut b = InputBuffer::new(2, 2);
        b.push(VcId(0), flit(0));
        b.push(VcId(1), flit(1));
        assert_eq!(b.len(VcId(0)), 1);
        assert_eq!(b.len(VcId(1)), 1);
        assert_eq!(b.total_occupancy(), 2);
        assert_eq!(b.pop(VcId(1)).unwrap().seq, 1);
        assert!(b.is_empty(VcId(1)));
        assert!(!b.is_empty(VcId(0)));
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overflow_panics() {
        let mut b = InputBuffer::new(1, 1);
        b.push(VcId(0), flit(0));
        b.push(VcId(0), flit(1));
    }

    #[test]
    fn kind_structure_preserved() {
        let mut b = InputBuffer::new(1, 8);
        for f in Packet::new(PacketId(2), NodeId(0), NodeId(1), 3, Picos::ZERO).into_flits() {
            b.push(VcId(0), f);
        }
        assert_eq!(b.pop(VcId(0)).unwrap().kind, FlitKind::Head);
        assert_eq!(b.pop(VcId(0)).unwrap().kind, FlitKind::Body);
        assert_eq!(b.pop(VcId(0)).unwrap().kind, FlitKind::Tail);
    }
}

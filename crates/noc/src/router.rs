//! The 5-stage pipelined router (paper Fig. 4(b)).
//!
//! Each router has `nodes_per_rack` local injection/ejection ports plus
//! North/South/East/West, a crossbar, and per-port policy hooks. The
//! pipeline is modeled at stage-per-cycle granularity:
//!
//! 1. **RC** — a head flit at the front of an idle VC computes its output
//!    port (dimension-order routing).
//! 2. **VA** — the packet acquires a free virtual channel on that output.
//! 3. **SA** — per-output round-robin switch allocation among active input
//!    VCs holding flits and downstream credits.
//! 4. **ST** — the winning flit crosses the crossbar (one cycle).
//! 5. **LT** — the flit serializes onto the output link at the link's own
//!    bit rate (possibly several core cycles at reduced rates).
//!
//! Credit-based flow control: each output port tracks free buffer slots in
//! the downstream input port per VC; a credit returns upstream when a flit
//! leaves an input buffer.
//!
//! ## State layout
//!
//! A router keeps its state in a few flat arrays indexed by *slot*,
//! `port × vcs + vc` (DESIGN.md §6k). Per input slot it holds the VC's
//! pipeline state and a `(head, len)` ring into one
//! `ports × vcs × depth_per_vc` flit array; per output slot, the
//! downstream credits and the input VC owning the output VC; per port,
//! the feeding and outgoing links, the switch and VC arbiters, the
//! buffered-flit count and the `Bu` accumulator. The pipeline stages'
//! requester sets are `u64` masks over the input slots: RC's and SA's
//! over all slots, and SA's and VA's per output port, with a `u64` mask
//! each of the ports that have requesters, so SA and VA visit only
//! those ports. The masks change where a VC's state or ring changes: a
//! flit accepted into an Active VC, a VA grant, SA's pop that empties a
//! ring or releases a tail, and RC's move to VcAlloc. A checkpoint holds
//! the evolved arrays as they are (DESIGN.md §6k); the buffered counts
//! and the stage masks are caches of the rings and VC states, which
//! `Router::recount` derives on restore and the auditor checks against.

use crate::arbiter::RoundRobinArbiter;
use crate::config::NocConfig;
use crate::flit::{Flit, FlitKind};
use crate::ids::{LinkId, NodeId, PacketId, PortId, RouterId, VcId};
use crate::link::Link;
use crate::network::Effect;
use crate::route_table::RouteTable;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize, Sink, Source, Token};

/// Per-input-VC pipeline state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcState {
    /// No packet in flight; awaiting a head flit.
    Idle,
    /// Route computed; waiting for an output VC.
    VcAlloc {
        /// The computed output port.
        out_port: PortId,
    },
    /// Output VC held; flits compete in switch allocation.
    Active {
        /// The output port the packet traverses.
        out_port: PortId,
        /// The output VC the packet holds.
        out_vc: VcId,
    },
}

/// One input slot: its VC's pipeline state and its ring, `len` flits
/// starting at cell `head` of the slot's `depth_per_vc` cells.
#[derive(Debug, Clone, Copy)]
struct InSlot {
    state: VcState,
    head: u16,
    len: u16,
}

/// One port's wiring and arbiters.
#[derive(Debug, Clone)]
struct Port {
    // The upstream link filling the input side (None on mesh-edge ports).
    feeder: Option<LinkId>,
    // The outgoing link (None on mesh-edge ports).
    link: Option<LinkId>,
    sa_arbiter: RoundRobinArbiter,
    va_arbiter: RoundRobinArbiter,
}

/// What a ring cell holds before its first flit arrives.
const NO_FLIT: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::HeadTail,
    seq: 0,
    src: NodeId(0),
    dst: NodeId(0),
    size_flits: 0,
    created_at: Picos::ZERO,
    corrupted: false,
};

/// What a router's tick repeats every cycle while it is stalled: switch
/// allocation has requesters but grants none, and VA and RC have nothing
/// to do. Until a flit arrives, a credit returns, an output link changes,
/// or `wake_at` comes, every tick denies the same requesters, notes
/// demand on the same links, samples the same occupancy and advances the
/// rotating priority by one, so [`crate::Network`] skips those ticks and
/// applies them `n` at a time (see DESIGN.md §6i).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stall {
    // First tick time at which a requested output link whose requester
    // holds a credit is ready again; `Picos::MAX` waits for an event.
    pub(crate) wake_at: Picos,
    // The network's tick count at the first skipped tick.
    pub(crate) since: u64,
    // Requesters denied per stalled tick.
    denials: u32,
    // Output ports whose links note demand each stalled tick.
    demand: u64,
}

/// A rack's communication router.
#[derive(Debug, Clone)]
pub struct Router {
    id: RouterId,
    vcs: usize,
    // Flits per VC ring (`NocConfig::depth_per_vc`).
    depth: usize,
    // Per input slot (`port * vcs + vc`).
    slots: Box<[InSlot]>,
    // The rings' cells: slot `s` owns `flits[s * depth..(s + 1) * depth]`.
    flits: Box<[Flit]>,
    // Per output slot: free downstream buffer slots, and the input
    // (port, VC) that owns the output VC.
    credits: Box<[u16]>,
    vc_owner: Box<[Option<(PortId, VcId)>]>,
    // Per port.
    ports: Box<[Port]>,
    // Flits buffered per input port (the `F(t)` of the paper's
    // buffer-utilization statistic, Eq. 10), kept in step with the rings.
    occupancy: Box<[u32]>,
    // Sum of per-cycle occupancy samples (numerator of the paper's `Bu`).
    occupancy_accum: Box<[u64]>,
    sa_rotate: usize,
    // SA and VA requesters per output port `op`, as masks over the slots:
    // `port_req[op]` holds the `sa_ready` slots whose Active VC holds
    // `op`, and `port_req[ports + op]` the slots in `VcAlloc` for `op`.
    port_req: Box<[u64]>,
    /// Flits this router has switched over its lifetime.
    pub flits_switched: u64,
    /// Flits accepted into input buffers over its lifetime. The invariant
    /// `flits_accepted == flits_switched + buffered` holds at every event
    /// boundary (checked by the conservation auditor).
    pub flits_accepted: u64,
    // Switch-allocation requests denied over its lifetime (see
    // `Router::sa_denials`).
    sa_denials: u64,
    // Fast-path counters: flits buffered and VCs not in Idle. When both
    // are zero the router has nothing to do this cycle.
    buffered_flits: u32,
    active_vcs: u32,
    // Incrementally maintained pipeline-stage membership, one bit per
    // input slot, so each stage visits only live VCs instead of scanning
    // every slot every cycle:
    // - `sa_ready`: state Active and ring non-empty (SA requesters)
    // - `rc_ready`: state Idle and ring non-empty (RC candidates)
    sa_ready: u64,
    rc_ready: u64,
    // The output ports whose SA (`sa_ports`) or VA (`va_ports`)
    // requesters in `port_req` are not empty.
    sa_ports: u64,
    va_ports: u64,
}

impl Router {
    /// Creates a router with unwired ports (the network builder attaches
    /// links and feeders afterwards).
    pub fn new(id: RouterId, config: &NocConfig) -> Self {
        let ports = config.ports_per_router();
        let vcs = config.vcs as usize;
        let slots = ports * vcs;
        assert!(
            slots <= 64,
            "mask-based switch/VC allocation supports at most 64 input-VC \
             slots per router (got {slots})"
        );
        let depth = config.depth_per_vc();
        let idle = InSlot {
            state: VcState::Idle,
            head: 0,
            len: 0,
        };
        let port = Port {
            feeder: None,
            link: None,
            sa_arbiter: RoundRobinArbiter::new(slots),
            va_arbiter: RoundRobinArbiter::new(slots),
        };
        Router {
            id,
            vcs,
            depth: depth as usize,
            slots: vec![idle; slots].into(),
            flits: vec![NO_FLIT; slots * depth as usize].into(),
            credits: vec![depth; slots].into(),
            vc_owner: vec![None; slots].into(),
            ports: vec![port; ports].into(),
            occupancy: vec![0; ports].into(),
            occupancy_accum: vec![0; ports].into(),
            sa_rotate: 0,
            port_req: vec![0; 2 * ports].into(),
            flits_switched: 0,
            flits_accepted: 0,
            sa_denials: 0,
            buffered_flits: 0,
            active_vcs: 0,
            sa_ready: 0,
            rc_ready: 0,
            sa_ports: 0,
            va_ports: 0,
        }
    }

    /// The router's id.
    pub(crate) fn id(&self) -> RouterId {
        self.id
    }

    /// Number of ports.
    pub(crate) fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Wires `link` as the outgoing link of `port`.
    pub(crate) fn set_link(&mut self, port: PortId, link: LinkId) {
        self.ports[port.0 as usize].link = Some(link);
    }

    /// Wires `link` as the upstream link filling `port`.
    pub(crate) fn set_feeder(&mut self, port: PortId, link: LinkId) {
        self.ports[port.0 as usize].feeder = Some(link);
    }

    /// Free downstream buffer slots per VC of output `port`.
    pub(crate) fn credits(&self, port: PortId) -> &[u16] {
        let first = port.0 as usize * self.vcs;
        &self.credits[first..first + self.vcs]
    }

    /// Flits in the ring of input `port`'s VC `vc`.
    pub(crate) fn queue_len(&self, port: PortId, vc: VcId) -> usize {
        self.slots[port.0 as usize * self.vcs + vc.0 as usize].len as usize
    }

    /// Drains input `port`'s accumulated occupancy counter.
    pub(crate) fn take_occupancy_accum(&mut self, port: PortId) -> u64 {
        std::mem::take(&mut self.occupancy_accum[port.0 as usize])
    }

    /// Installs input `port`'s accumulated occupancy counter.
    pub(crate) fn set_occupancy_accum(&mut self, port: PortId, accum: u64) {
        self.occupancy_accum[port.0 as usize] = accum;
    }

    /// Switch-allocation requests denied over its lifetime: a requester
    /// whose output link was mid-rate-change, that lost arbitration, or
    /// was crossbar/credit-ineligible. A flit requests once per cycle
    /// until granted, so this counts request-cycles, not distinct flits.
    /// Through [`crate::Network`] it lags by the ticks a stalled router
    /// has skipped until [`crate::Network::settle_all`] applies them.
    pub fn sa_denials(&self) -> u64 {
        self.sa_denials
    }

    /// Whether the router holds no flit and no packet in flight: its tick
    /// would do nothing at all.
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        self.buffered_flits == 0 && self.active_vcs == 0
    }

    /// One core-clock cycle: SA/ST, then VA, then RC, then statistics.
    ///
    /// `links` is the network-global link table; emitted flit departures
    /// and credit returns are appended to `effects`. `route_table` serves
    /// RC with the precomputed candidates.
    pub(crate) fn tick(
        &mut self,
        now: Picos,
        config: &NocConfig,
        route_table: &RouteTable,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        if self.is_idle() {
            return; // idle fast path: nothing buffered, no packet in flight
        }
        self.switch_allocation(now, config, links, effects);
        self.vc_allocation();
        self.route_computation(route_table);
        for (accum, &occupancy) in self.occupancy_accum.iter_mut().zip(&*self.occupancy) {
            *accum += u64::from(occupancy);
        }
    }

    /// The input-VC slots requesting the switch, as a bitmask.
    #[inline]
    pub(crate) fn requesters(&self) -> u64 {
        self.sa_ready
    }

    /// The [`Stall`] the router repeats from the tick after `now` on, or
    /// `None` if that tick can move anything or the next but one would
    /// (a stall that short is not worth recording). There is no RC
    /// candidate (RC empties them every tick); if no requester can win
    /// and VA has no free output VC to hand out, every following tick
    /// denies the same requesters until something around the router
    /// changes or `wake_at` comes.
    #[cold]
    pub(crate) fn stall(&self, now: Picos, cycle: Picos, links: &[Link]) -> Option<Stall> {
        let next = now + cycle;
        let mut stall = Stall {
            wake_at: Picos::MAX,
            ..Stall::default()
        };
        let mut w = self.sa_ready;
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let VcState::Active { out_port, out_vc } = self.slots[req].state else {
                unreachable!("sa_ready slot not in Active state");
            };
            let op = out_port.0 as usize;
            let Some(link) = self.ports[op].link else {
                continue;
            };
            stall.denials += 1;
            stall.demand |= 1u64 << op;
            if self.credits[op * self.vcs + out_vc.0 as usize] > 0 {
                let ready = links[link.index()].next_free().saturating_sub(cycle);
                if ready <= next {
                    return None; // the link is ready for the next tick
                }
                stall.wake_at = stall.wake_at.min(ready);
            }
        }
        let mut m = self.va_ports;
        while m != 0 {
            let op = m.trailing_zeros() as usize;
            m &= m - 1;
            let owners = &self.vc_owner[op * self.vcs..(op + 1) * self.vcs];
            if self.ports[op].link.is_some() && owners.iter().any(Option::is_none) {
                return None; // VA hands out a free output VC next tick
            }
        }
        Some(stall)
    }

    /// Applies the ticks skipped since `stall` began, up to the network's
    /// tick count `ticks`: what `n` real stalled ticks would have done.
    #[cold]
    pub(crate) fn settle(&mut self, stall: Stall, ticks: u64, links: &mut [Link]) {
        let n = ticks - stall.since;
        if n == 0 {
            return; // ended before its first skipped tick
        }
        let ports = self.ports.len() as u64;
        self.sa_rotate = ((self.sa_rotate as u64 + n) % ports) as usize;
        self.sa_denials += n * u64::from(stall.denials);
        let mut m = stall.demand;
        while m != 0 {
            let op = m.trailing_zeros() as usize;
            m &= m - 1;
            let link = self.ports[op].link.expect("demand noted on a wired output");
            links[link.index()].note_demand_ticks(n);
        }
        for (accum, &occupancy) in self.occupancy_accum.iter_mut().zip(&*self.occupancy) {
            *accum += n * u64::from(occupancy);
        }
    }

    /// Appends `flit` to the ring of input slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full: the upstream side sent without a
    /// credit.
    fn push(&mut self, slot: usize, flit: Flit) {
        let (depth, vcs) = (self.depth, self.vcs);
        let ring = &mut self.slots[slot];
        assert!(
            (ring.len as usize) < depth,
            "buffer overflow on {}:{}:{}: credit protocol violated",
            self.id,
            PortId((slot / vcs) as u8),
            VcId((slot % vcs) as u8)
        );
        let mut cell = ring.head as usize + ring.len as usize;
        if cell >= depth {
            cell -= depth;
        }
        ring.len += 1;
        self.flits[slot * depth + cell] = flit;
        self.occupancy[slot / vcs] += 1;
    }

    /// The flit at the front of input slot `slot`'s ring, which must not
    /// be empty.
    fn front(&self, slot: usize) -> &Flit {
        let ring = self.slots[slot];
        assert!(ring.len > 0, "front of an empty ring");
        &self.flits[slot * self.depth + ring.head as usize]
    }

    /// Removes the flit at the front of input slot `slot`'s ring, which
    /// must not be empty.
    fn pop(&mut self, slot: usize) -> Flit {
        let depth = self.depth;
        let ring = &mut self.slots[slot];
        assert!(ring.len > 0, "pop from an empty ring");
        let flit = self.flits[slot * depth + ring.head as usize];
        ring.head = if ring.head as usize + 1 == depth {
            0
        } else {
            ring.head + 1
        };
        ring.len -= 1;
        self.occupancy[slot / self.vcs] -= 1;
        flit
    }

    /// Makes `slot`, whose Active VC holds output port `op`, a switch
    /// requester.
    #[inline]
    fn sa_insert(&mut self, slot: usize, op: usize) {
        self.sa_ready |= 1u64 << slot;
        self.port_req[op] |= 1u64 << slot;
        self.sa_ports |= 1u64 << op;
    }

    /// Stops `slot`, whose Active VC holds output port `op`, requesting
    /// the switch.
    #[inline]
    fn sa_remove(&mut self, slot: usize, op: usize) {
        self.sa_ready &= !(1u64 << slot);
        let req = &mut self.port_req[op];
        *req &= !(1u64 << slot);
        if *req == 0 {
            self.sa_ports &= !(1u64 << op);
        }
    }

    /// SA + ST: for each output port with requesters (rotating start for
    /// fairness), grant one input VC and launch its flit onto the link one
    /// cycle later.
    fn switch_allocation(
        &mut self,
        now: Picos,
        config: &NocConfig,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        let (ports, vcs) = (self.ports.len(), self.vcs);
        if self.sa_ports == 0 {
            // No Active VC holds a flit: nothing to allocate, but the
            // rotating priority still advances exactly as it always did.
            self.sa_rotate = if self.sa_rotate + 1 == ports {
                0
            } else {
                self.sa_rotate + 1
            };
            return;
        }
        let st_time = now + config.cycle();
        // The slots of the input ports already granted this cycle, and
        // the slots of port 0.
        let (mut used, port_slots) = (0u64, u64::MAX >> (64 - vcs));
        // The ports with requesters from `sa_rotate` upward, then those
        // below it: rotated right by `sa_rotate`, port `sa_rotate` is bit
        // 0, and the ports below it land above the router's last port (a
        // router has at most 64). A grant changes only its own port's
        // requesters, so the snapshot stays exact.
        let rotate = self.sa_rotate;
        let mut m = self.sa_ports.rotate_right(rotate as u32);
        while m != 0 {
            let op = (m.trailing_zeros() as usize + rotate) & 63;
            m &= m - 1;
            let req_mask = self.port_req[op];
            let Some(link_id) = self.ports[op].link else {
                continue;
            };
            let link = &mut links[link_id.index()];
            link.note_demand();
            if !link.ready_at(st_time) {
                // Link busy serializing or relocking: every requester for
                // this output port loses the cycle.
                self.sa_denials += req_mask.count_ones() as u64;
                continue;
            }
            // An input port already granted this cycle (crossbar conflict)
            // or an output VC out of credits disqualifies a requester.
            let credits = &self.credits[op * vcs..(op + 1) * vcs];
            let mut eligible: u64 = 0;
            let mut m = req_mask & !used;
            while m != 0 {
                let req = m.trailing_zeros() as usize;
                m &= m - 1;
                let ok = match self.slots[req].state {
                    VcState::Active { out_vc, .. } => credits[out_vc.0 as usize] > 0,
                    _ => false,
                };
                eligible |= (ok as u64) << req;
            }
            let Some(req) = self.ports[op].sa_arbiter.grant_masked(eligible) else {
                // Nothing eligible (crossbar conflicts or exhausted
                // credits): all requesters lose.
                self.sa_denials += req_mask.count_ones() as u64;
                continue;
            };
            let (ip, vc) = (req / vcs, VcId((req % vcs) as u8));
            let VcState::Active { out_vc, .. } = self.slots[req].state else {
                unreachable!("eligibility mask admitted a non-active VC");
            };
            let out_slot = op * vcs + out_vc.0 as usize;
            let flit = self.pop(req);
            self.credits[out_slot] -= 1;
            self.flits_switched += 1;
            // One requester won; its co-requesters for this port lost.
            self.sa_denials += (req_mask.count_ones() - 1) as u64;
            self.buffered_flits -= 1;
            if self.slots[req].len == 0 || flit.kind.is_tail() {
                // Last buffered flit or the packet's tail left; the VC
                // stops requesting the switch until another flit arrives
                // (or, for a tail, until a new packet restarts the
                // pipeline below).
                self.sa_remove(req, op);
            }
            let arrival = links[link_id.index()].start_flit(st_time);
            effects.push(Effect::Flit {
                link: link_id,
                vc: out_vc,
                flit,
                at: arrival,
            });
            if let Some(feeder) = self.ports[ip].feeder {
                effects.push(Effect::Credit {
                    link: feeder,
                    vc,
                    at: now + config.credit_delay,
                });
            }
            if flit.kind.is_tail() {
                self.vc_owner[out_slot] = None;
                self.slots[req].state = VcState::Idle;
                self.active_vcs -= 1;
                if self.slots[req].len != 0 {
                    // The next packet's head is already waiting: it becomes
                    // an RC candidate this very cycle (RC runs after SA).
                    self.rc_ready |= 1u64 << req;
                }
            }
            used |= port_slots << (ip * vcs);
        }
        self.sa_rotate = if self.sa_rotate + 1 == ports {
            0
        } else {
            self.sa_rotate + 1
        };
    }

    /// VA: hand free output VCs to packets whose route is computed, port
    /// by port in ascending order over the ports with requesters.
    fn vc_allocation(&mut self) {
        let (ports, vcs) = (self.ports.len(), self.vcs);
        let mut m = self.va_ports;
        while m != 0 {
            let op = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.ports[op].link.is_none() {
                continue;
            }
            let mut req_mask = self.port_req[ports + op];
            for out_vc in 0..vcs {
                if self.vc_owner[op * vcs + out_vc].is_some() {
                    continue;
                }
                let Some(req) = self.ports[op].va_arbiter.grant_masked(req_mask) else {
                    break; // no remaining requester for this output
                };
                req_mask &= !(1u64 << req);
                let (ip, vc) = (req / vcs, req % vcs);
                self.vc_owner[op * vcs + out_vc] = Some((PortId(ip as u8), VcId(vc as u8)));
                self.slots[req].state = VcState::Active {
                    out_port: PortId(op as u8),
                    out_vc: VcId(out_vc as u8),
                };
                if self.slots[req].len != 0 {
                    self.sa_insert(req, op);
                }
            }
            self.port_req[ports + op] = req_mask;
            if req_mask == 0 {
                self.va_ports &= !(1u64 << op);
            }
        }
    }

    /// RC: idle VCs with a head flit at the front compute their route.
    /// Deterministic algorithms yield one output; under west-first the
    /// router selects adaptively among the permitted minimal outputs,
    /// preferring ready links (not mid-transition) with the most
    /// downstream credits — which makes routing *power-aware*: traffic
    /// steers around links parked at low rates or disabled for relock.
    fn route_computation(&mut self, table: &RouteTable) {
        let (ports, vcs) = (self.ports.len(), self.vcs);
        // Every rc_ready VC (Idle with a buffered head flit) computes its
        // route this cycle, so the whole mask empties; take it up front.
        let mut w = std::mem::take(&mut self.rc_ready);
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            debug_assert_eq!(self.slots[req].state, VcState::Idle);
            let front = self.front(req);
            debug_assert!(
                front.kind.is_head(),
                "non-head flit {front} at front of idle VC: wormhole order violated"
            );
            // One indexed load from the precomputed table, whose
            // candidates keep the routing algorithm's order.
            let candidates = table.candidates(self.id, front.dst);
            let cands = candidates.as_slice();
            let out_port = if cands.len() == 1 {
                cands[0]
            } else {
                let mut best = cands[0];
                let mut best_score = -1i64;
                for &cand in cands {
                    let out = cand.0 as usize * vcs..(cand.0 as usize + 1) * vcs;
                    let free_vc = self.vc_owner[out.clone()]
                        .iter()
                        .filter(|o| o.is_none())
                        .count() as i64;
                    let credits: i64 = self.credits[out].iter().map(|&c| c as i64).sum();
                    let score = free_vc * 1_000 + credits;
                    if score > best_score {
                        best_score = score;
                        best = cand;
                    }
                }
                best
            };
            self.slots[req].state = VcState::VcAlloc { out_port };
            let op = out_port.0 as usize;
            self.port_req[ports + op] |= 1u64 << req;
            self.va_ports |= 1u64 << op;
            self.active_vcs += 1;
        }
    }

    /// Accepts a flit delivered by an upstream link into an input buffer.
    pub(crate) fn accept_flit(&mut self, port: PortId, vc: VcId, flit: Flit) {
        debug_assert!((vc.0 as usize) < self.vcs, "{vc} out of range");
        let slot = port.0 as usize * self.vcs + vc.0 as usize;
        self.push(slot, flit);
        // A previously-empty VC becomes a pipeline candidate: Idle VCs go
        // to RC, Active ones back into SA contention. VcAlloc VCs are
        // already VA requesters and need nothing here.
        match self.slots[slot].state {
            VcState::Idle => self.rc_ready |= 1u64 << slot,
            VcState::Active { out_port, .. } => self.sa_insert(slot, out_port.0 as usize),
            VcState::VcAlloc { .. } => {}
        }
        self.buffered_flits += 1;
        self.flits_accepted += 1;
    }

    /// Returns a credit to an output port's VC.
    ///
    /// # Panics
    ///
    /// Panics if the credit would exceed the downstream buffer capacity
    /// (a flow-control accounting bug).
    pub(crate) fn return_credit(&mut self, port: PortId, vc: VcId, depth_per_vc: u16) {
        let c = &mut self.credits[port.0 as usize * self.vcs + vc.0 as usize];
        assert!(
            *c < depth_per_vc,
            "credit overflow on {}:{port}:{vc}",
            self.id
        );
        *c += 1;
    }

    /// Whether every input buffer and pipeline state is empty/idle (used
    /// for drain detection in tests and experiments).
    pub(crate) fn is_quiescent(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.len == 0 && s.state == VcState::Idle)
    }

    /// The caches the router keeps in step with its rings and VC states,
    /// recounted from them: per port the buffered flits; the buffered
    /// flits and the VCs not in Idle; the stage masks (`sa_ready`: Active
    /// with a flit buffered, `rc_ready`: Idle with a flit buffered); and
    /// per output port its SA requesters (the `sa_ready` slots whose VC
    /// holds it) and VA requesters (the slots in `VcAlloc` for it), with
    /// the masks of the ports that have any (`sa_ports`, `va_ports`).
    /// Restore installs them; the conservation auditor compares them with
    /// [`Router::caches`].
    pub(crate) fn recount(&self) -> Caches {
        let ports = self.ports.len();
        let mut c = Caches {
            occupancy: vec![0; ports].into(),
            sa_req: vec![0; ports].into(),
            va_req: vec![0; ports].into(),
            ..Caches::default()
        };
        for (s, slot) in self.slots.iter().enumerate() {
            c.occupancy[s / self.vcs] += u32::from(slot.len);
            c.buffered_flits += u32::from(slot.len);
            let (bit, queued) = (1u64 << s, slot.len > 0);
            match slot.state {
                VcState::Idle if queued => c.rc_ready |= bit,
                VcState::Idle => {}
                VcState::VcAlloc { out_port } => {
                    c.va_req[out_port.0 as usize] |= bit;
                    c.va_ports |= 1u64 << out_port.0;
                    c.active_vcs += 1;
                }
                VcState::Active { out_port, .. } => {
                    if queued {
                        c.sa_ready |= bit;
                        c.sa_req[out_port.0 as usize] |= bit;
                        c.sa_ports |= 1u64 << out_port.0;
                    }
                    c.active_vcs += 1;
                }
            }
        }
        c
    }

    /// The caches as the router keeps them (see [`Router::recount`]).
    pub(crate) fn caches(&self) -> Caches {
        let (sa_req, va_req) = self.port_req.split_at(self.ports.len());
        Caches {
            occupancy: self.occupancy.clone(),
            buffered_flits: self.buffered_flits,
            active_vcs: self.active_vcs,
            sa_ready: self.sa_ready,
            rc_ready: self.rc_ready,
            sa_req: sa_req.into(),
            va_req: va_req.into(),
            sa_ports: self.sa_ports,
            va_ports: self.va_ports,
        }
    }

    /// Reads the state its [`Serialize`] impl wrote back into this
    /// router, which was built from the saving run's configuration, and
    /// recounts its caches from the restored rings and VC states.
    ///
    /// # Errors
    ///
    /// Fails if the stream is malformed (an array of another length than
    /// the router's slots or ports among it), or if its state does not
    /// fit this router: a VC queue longer than its depth, a VC routed to a
    /// port or holding an output VC the router does not have, an output
    /// credit above the downstream VC's depth, an output VC held by such
    /// an input, an arbiter priority past the router's slots, or a
    /// rotating switch priority past its ports. The router is then partly
    /// restored and must be discarded.
    pub(crate) fn restore<S: Source>(&mut self, src: &mut S) -> Result<(), serde::Error> {
        const TY: &str = "Router";
        let (id, vcs, depth) = (self.id, self.vcs, self.depth);
        let (ports, slots) = (self.ports.len(), self.slots.len());
        let misfit =
            |what: String| serde::Error::custom(format!("router {id} does not fit: {what}"));
        let name = |slot: usize| (PortId((slot / vcs) as u8), VcId((slot % vcs) as u8));
        src.map_of(10, TY)?;
        src.expect_key("queues", TY)?;
        src.seq_of(slots, "queues")?;
        for slot in 0..slots {
            let len = src.seq("queue")?;
            if len > depth {
                let (port, vc) = name(slot);
                return Err(misfit(format!(
                    "{port} {vc} queues {len} flits, deeper than its {depth}-flit VC"
                )));
            }
            for cell in &mut self.flits[slot * depth..slot * depth + len] {
                *cell = Flit::deserialize(src)?;
            }
            self.slots[slot].head = 0;
            self.slots[slot].len = len as u16;
        }
        src.expect_key("vc_state", TY)?;
        src.seq_of(slots, "vc_state")?;
        for slot in 0..slots {
            let state = VcState::deserialize(src)?;
            let (port, vc) = name(slot);
            let (out_port, out_vc) = match state {
                VcState::Idle => (PortId(0), VcId(0)),
                VcState::VcAlloc { out_port } => (out_port, VcId(0)),
                VcState::Active { out_port, out_vc } => (out_port, out_vc),
            };
            if usize::from(out_port.0) >= ports {
                return Err(misfit(format!(
                    "{port} {vc} is routed to {out_port}, past its {ports} ports"
                )));
            }
            if usize::from(out_vc.0) >= vcs {
                return Err(misfit(format!(
                    "{port} {vc} holds output {out_vc}, past its {vcs} VCs"
                )));
            }
            self.slots[slot].state = state;
        }
        src.field_into("occupancy_accum", &mut self.occupancy_accum, TY)?;
        src.field_into("credits", &mut self.credits, TY)?;
        if let Some(slot) = self.credits.iter().position(|&c| usize::from(c) > depth) {
            let ((port, vc), credits) = (name(slot), self.credits[slot]);
            return Err(misfit(format!(
                "output {port} {vc} holds {credits} credits, above its {depth}-flit VC"
            )));
        }
        src.field_into("vc_owner", &mut self.vc_owner, TY)?;
        for (slot, owner) in self.vc_owner.iter().enumerate() {
            if let Some((in_port, in_vc)) = *owner {
                if usize::from(in_port.0) >= ports || usize::from(in_vc.0) >= vcs {
                    let (port, vc) = name(slot);
                    return Err(misfit(format!(
                        "{port} {vc} is held by {in_port} {in_vc}, \
                         not one of its {ports} ports × {vcs} VCs"
                    )));
                }
            }
        }
        for (key, va) in [("sa_next", false), ("va_next", true)] {
            src.expect_key(key, TY)?;
            src.seq_of(ports, key)?;
            for port in &mut self.ports {
                let arbiter = if va {
                    &mut port.va_arbiter
                } else {
                    &mut port.sa_arbiter
                };
                arbiter.restore_next(usize::deserialize(src)?)?;
            }
        }
        self.sa_rotate = src.field("sa_rotate", TY)?;
        if self.sa_rotate >= ports {
            return Err(misfit(format!(
                "switch priority {} is not one of its {ports} ports",
                self.sa_rotate
            )));
        }
        self.flits_switched = src.field("flits_switched", TY)?;
        self.sa_denials = src.field("sa_denials", TY)?;
        let c = self.recount();
        (self.occupancy, self.buffered_flits, self.active_vcs) =
            (c.occupancy, c.buffered_flits, c.active_vcs);
        (self.sa_ready, self.rc_ready) = (c.sa_ready, c.rc_ready);
        self.port_req[..ports].copy_from_slice(&c.sa_req);
        self.port_req[ports..].copy_from_slice(&c.va_req);
        (self.sa_ports, self.va_ports) = (c.sa_ports, c.va_ports);
        // Every flit a router holds was accepted and not yet switched.
        self.flits_accepted = self.flits_switched + u64::from(c.buffered_flits);
        Ok(())
    }
}

/// A router's caches of its rings and VC states (see [`Router::recount`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Caches {
    pub(crate) occupancy: Box<[u32]>,
    pub(crate) buffered_flits: u32,
    pub(crate) active_vcs: u32,
    pub(crate) sa_ready: u64,
    pub(crate) rc_ready: u64,
    // Per output port.
    pub(crate) sa_req: Box<[u64]>,
    pub(crate) va_req: Box<[u64]>,
    pub(crate) sa_ports: u64,
    pub(crate) va_ports: u64,
}

/// Writes the router's evolved state as its flat arrays are: per input
/// slot the VC queues front to back and the VC states, per port the `Bu`
/// accumulators, per output slot the credits and VC owners, per port the
/// two arbiters' priority pointers, then `sa_rotate` and the two
/// lifetime counters (DESIGN.md §6k). The caches and the wiring are not
/// written; `Router::restore` reads it back.
impl Serialize for Router {
    fn serialize<S: Sink>(&self, out: &mut S) {
        let depth = self.depth;
        out.token(Token::Map(10));
        out.key("queues");
        out.token(Token::Seq(self.slots.len()));
        for (slot, ring) in self.slots.iter().enumerate() {
            out.token(Token::Seq(ring.len as usize));
            for i in 0..ring.len as usize {
                let cell = (ring.head as usize + i) % depth;
                self.flits[slot * depth + cell].serialize(out);
            }
        }
        out.key("vc_state");
        out.token(Token::Seq(self.slots.len()));
        for slot in &*self.slots {
            slot.state.serialize(out);
        }
        out.field("occupancy_accum", &*self.occupancy_accum);
        out.field("credits", &*self.credits);
        out.field("vc_owner", &*self.vc_owner);
        let sa_next: Vec<usize> = self.ports.iter().map(|p| p.sa_arbiter.next()).collect();
        let va_next: Vec<usize> = self.ports.iter().map(|p| p.va_arbiter.next()).collect();
        out.field("sa_next", &sa_next);
        out.field("va_next", &va_next);
        out.field("sa_rotate", &self.sa_rotate);
        out.field("flits_switched", &self.flits_switched);
        out.field("sa_denials", &self.sa_denials);
    }
}

#[cfg(test)]
impl Router {
    /// Flits input `port` counts as buffered (a cache of its rings).
    pub(crate) fn port_occupancy(&self, port: PortId) -> usize {
        self.occupancy[port.0 as usize] as usize
    }

    /// The outgoing link of `port` (None on mesh-edge ports).
    pub(crate) fn link(&self, port: PortId) -> Option<LinkId> {
        self.ports[port.0 as usize].link
    }

    /// The upstream link filling `port` (None on mesh-edge ports).
    pub(crate) fn feeder(&self, port: PortId) -> Option<LinkId> {
        self.ports[port.0 as usize].feeder
    }

    /// The pipeline state of input `port`'s VC `vc`.
    pub(crate) fn vc_state(&self, port: PortId, vc: VcId) -> VcState {
        self.slots[port.0 as usize * self.vcs + vc.0 as usize].state
    }

    /// Input `port`'s buffered-flit count, to corrupt in auditor tests.
    pub(crate) fn occupancy_mut(&mut self, port: PortId) -> &mut u32 {
        &mut self.occupancy[port.0 as usize]
    }

    /// The switch requesters' mask, to corrupt in auditor tests.
    pub(crate) fn sa_ready_mut(&mut self) -> &mut u64 {
        &mut self.sa_ready
    }

    /// Output `op`'s switch and VC requesters, then the masks of the
    /// ports with switch and with VC requesters, to corrupt in auditor
    /// tests.
    pub(crate) fn port_masks_mut(&mut self, op: PortId) -> [&mut u64; 4] {
        let (sa_req, va_req) = self.port_req.split_at_mut(self.ports.len());
        let op = op.0 as usize;
        [
            &mut sa_req[op],
            &mut va_req[op],
            &mut self.sa_ports,
            &mut self.va_ports,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::link::Endpoint;
    use lumen_opto::Gbps;

    /// A 1-router harness: router 0 of a 2×2 mesh with 2 local ports,
    /// with an ejection link on local port 0 and an East link.
    struct Harness {
        config: NocConfig,
        router: Router,
        table: RouteTable,
        links: Vec<Link>,
        effects: Vec<Effect>,
        now: Picos,
    }

    impl Harness {
        fn new() -> Self {
            let config = NocConfig::small_for_tests();
            let mut router = Router::new(RouterId(0), &config);
            let eject = Link::new(
                LinkId(0),
                Endpoint::RouterPort {
                    router: RouterId(0),
                    port: PortId(0),
                },
                Endpoint::Node(NodeId(0)),
                config.flit_bits,
                config.propagation,
                Gbps::from_gbps(10.0),
            );
            let east = Link::new(
                LinkId(1),
                Endpoint::RouterPort {
                    router: RouterId(0),
                    port: PortId(4), // East = 2 locals + index 2
                },
                Endpoint::RouterPort {
                    router: RouterId(1),
                    port: PortId(5), // West on the neighbor
                },
                config.flit_bits,
                config.propagation,
                Gbps::from_gbps(10.0),
            );
            router.set_link(PortId(0), LinkId(0));
            router.set_link(PortId(4), LinkId(1));
            router.set_feeder(PortId(1), LinkId(7)); // pretend injection feeder
            let table = RouteTable::build(&config, crate::routing::RoutingAlgorithm::XY);
            Harness {
                config,
                router,
                table,
                links: vec![eject, east],
                effects: Vec::new(),
                now: Picos::ZERO,
            }
        }

        fn tick(&mut self) {
            self.router.tick(
                self.now,
                &self.config,
                &self.table,
                &mut self.links,
                &mut self.effects,
            );
            self.now += self.config.cycle();
        }
    }

    fn packet_to(dst: NodeId, size: u32) -> Packet {
        Packet::new(PacketId(1), NodeId(1), dst, size, Picos::ZERO)
    }

    #[test]
    fn head_flit_pipeline_latency() {
        let mut h = Harness::new();
        // Destination node 0 lives on this router → ejection port 0.
        let pkt = packet_to(NodeId(0), 1);
        for f in pkt.into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        // Cycle 1: RC, cycle 2: VA, cycle 3: SA (flit pops), ST at cycle 4.
        h.tick();
        assert!(h.effects.is_empty());
        assert_eq!(
            h.router.vc_state(PortId(1), VcId(0)),
            VcState::VcAlloc {
                out_port: PortId(0)
            }
        );
        h.tick();
        assert!(matches!(
            h.router.vc_state(PortId(1), VcId(0)),
            VcState::Active { .. }
        ));
        h.tick();
        // SA granted during the 3rd tick; flit departure scheduled.
        let flit_events: Vec<&Effect> = h
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Flit { .. }))
            .collect();
        assert_eq!(flit_events.len(), 1);
        if let Effect::Flit { link, at, .. } = flit_events[0] {
            assert_eq!(*link, LinkId(0));
            // ST at cycle 3 start + 1 cycle, + 1 cycle serialization + prop.
            let expect = h.config.cycle() * 3 + h.config.cycle() + h.config.propagation;
            assert_eq!(*at, expect);
        }
        // Credit returned to the feeder.
        assert!(h
            .effects
            .iter()
            .any(|e| matches!(e, Effect::Credit { link, .. } if *link == LinkId(7))));
        // Tail flit released everything.
        assert_eq!(h.router.vc_state(PortId(1), VcId(0)), VcState::Idle);
        assert!(h.router.is_quiescent());
    }

    #[test]
    fn multi_flit_packet_streams_one_per_cycle() {
        let mut h = Harness::new();
        for f in packet_to(NodeId(0), 3).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for _ in 0..6 {
            h.tick();
        }
        let departures: Vec<Picos> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::Flit { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(departures.len(), 3);
        // Consecutive flits leave one cycle apart (full-rate link).
        assert_eq!(departures[1] - departures[0], h.config.cycle());
        assert_eq!(departures[2] - departures[1], h.config.cycle());
    }

    #[test]
    fn credits_block_when_exhausted() {
        let mut h = Harness::new();
        // Drain all credits from output 0 (depth 4 in the test config),
        // feeding flits in only as buffer space allows (as a credit-
        // respecting upstream would).
        let depth = h.config.depth_per_vc();
        let mut pending: Vec<_> = packet_to(NodeId(0), 16).into_flits().take(8).collect();
        pending.reverse();
        for _ in 0..24 {
            if let Some(&next) = pending.last() {
                if h.router.queue_len(PortId(1), VcId(0)) < depth as usize {
                    h.router.accept_flit(PortId(1), VcId(0), next);
                    pending.pop();
                }
            }
            h.tick();
        }
        let sent = h
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Flit { .. }))
            .count();
        // Only `depth` flits may leave before credits run out.
        assert_eq!(sent, depth as usize);
        assert_eq!(h.router.credits(PortId(0)), [0]);
        // Returning one credit lets exactly one more through.
        h.router
            .return_credit(PortId(0), VcId(0), h.config.depth_per_vc());
        h.effects.clear();
        h.tick();
        h.tick();
        let sent_after = h
            .effects
            .iter()
            .filter(|e| matches!(e, Effect::Flit { .. }))
            .count();
        assert_eq!(sent_after, 1);
    }

    #[test]
    fn disabled_link_blocks_switch_allocation() {
        let mut h = Harness::new();
        h.links[0].disable_until(Picos::from_us(1));
        for f in packet_to(NodeId(0), 1).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for _ in 0..10 {
            h.tick();
        }
        assert!(h.effects.iter().all(|e| !matches!(e, Effect::Flit { .. })));
        // After the disable window the flit flows.
        while h.now < Picos::from_us(1) {
            h.tick();
        }
        h.tick();
        h.tick();
        assert!(h.effects.iter().any(|e| matches!(e, Effect::Flit { .. })));
    }

    #[test]
    fn slow_link_spaces_flits_by_serialization_time() {
        let mut h = Harness::new();
        h.links[0].begin_rate_change(Picos::ZERO, Gbps::from_gbps(5.0), Picos::ZERO);
        for f in packet_to(NodeId(0), 2).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for _ in 0..10 {
            h.tick();
        }
        let departures: Vec<Picos> = h
            .effects
            .iter()
            .filter_map(|e| match e {
                Effect::Flit { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(departures.len(), 2);
        // At 5 Gb/s a 16-bit flit takes 3200 ps = 2 cycles.
        assert_eq!(departures[1] - departures[0], Picos::from_ps(3200));
    }

    #[test]
    fn occupancy_accumulates() {
        let mut h = Harness::new();
        for f in packet_to(NodeId(0), 2).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        h.tick();
        assert_eq!(h.router.take_occupancy_accum(PortId(1)), 2);
        assert_eq!(h.router.take_occupancy_accum(PortId(1)), 0);
    }

    #[test]
    fn settled_ticks_equal_real_stalled_ticks() {
        let mut h = Harness::new();
        // Two packets from two ports for the relocking ejection link: one
        // holds the output VC and requests the switch, one waits in VA.
        h.links[0].disable_until(Picos::from_us(1));
        for f in packet_to(NodeId(0), 3).into_flits() {
            h.router.accept_flit(PortId(1), VcId(0), f);
        }
        for f in packet_to(NodeId(0), 2).into_flits() {
            h.router.accept_flit(PortId(5), VcId(0), f);
        }
        for _ in 0..3 {
            h.tick();
        }
        h.tick();
        let stall = h
            .router
            .stall(h.now - h.config.cycle(), h.config.cycle(), &h.links)
            .expect("a router that cannot move records a stall");
        assert_eq!(stall.wake_at, Picos::from_us(1) - h.config.cycle());
        let (mut real, mut real_links) = (h.router.clone(), h.links.clone());
        let (mut skipped, mut skipped_links) = (h.router.clone(), h.links.clone());
        // Not a multiple of the 6 ports, so the rotation wraps mid-way.
        let n = 37;
        for _ in 0..n {
            real.tick(h.now, &h.config, &h.table, &mut real_links, &mut h.effects);
            let again = real
                .stall(h.now, h.config.cycle(), &real_links)
                .expect("still stalled");
            assert!(again.denials == stall.denials && again.demand == stall.demand);
            h.now += h.config.cycle();
        }
        assert!(h.effects.is_empty());
        skipped.settle(stall, n, &mut skipped_links);
        assert_eq!(skipped.sa_rotate, real.sa_rotate);
        assert_eq!(skipped.sa_denials, real.sa_denials);
        assert!(real.sa_denials >= n);
        assert_eq!(skipped.occupancy_accum, real.occupancy_accum);
        assert_eq!(
            skipped_links[0].window_demand(),
            real_links[0].window_demand()
        );
        assert_eq!(skipped_links, real_links);
        assert_eq!(skipped.serialize_value(), real.serialize_value());
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_detected() {
        let mut h = Harness::new();
        let depth = h.config.depth_per_vc();
        h.router.return_credit(PortId(0), VcId(0), depth);
    }

    // --- the VC rings ---------------------------------------------------

    /// A router whose input VCs are `vcs` rings of `depth` flits.
    fn ring_router(vcs: u8, depth: u16) -> Router {
        let mut config = NocConfig::small_for_tests();
        config.vcs = vcs;
        config.buffer_depth = depth * u16::from(vcs);
        Router::new(RouterId(0), &config)
    }

    fn flit(seq: u32) -> Flit {
        Packet::new(PacketId(1), NodeId(0), NodeId(1), 8, Picos::ZERO)
            .into_flits()
            .nth(seq as usize)
            .unwrap()
    }

    #[test]
    fn fifo_order() {
        let mut r = ring_router(1, 4);
        r.accept_flit(PortId(0), VcId(0), flit(0));
        r.accept_flit(PortId(0), VcId(0), flit(1));
        assert_eq!(r.queue_len(PortId(0), VcId(0)), 2);
        assert_eq!(r.front(0).seq, 0);
        assert_eq!(r.pop(0).seq, 0);
        assert_eq!(r.pop(0).seq, 1);
        assert_eq!(r.queue_len(PortId(0), VcId(0)), 0);
        assert_eq!(r.port_occupancy(PortId(0)), 0);
    }

    #[test]
    fn per_vc_isolation() {
        let mut r = ring_router(2, 2);
        r.accept_flit(PortId(0), VcId(0), flit(0));
        r.accept_flit(PortId(0), VcId(1), flit(1));
        assert_eq!(r.queue_len(PortId(0), VcId(0)), 1);
        assert_eq!(r.queue_len(PortId(0), VcId(1)), 1);
        assert_eq!(r.port_occupancy(PortId(0)), 2);
        assert_eq!(r.pop(1).seq, 1);
        assert_eq!(r.queue_len(PortId(0), VcId(1)), 0);
        assert_eq!(r.queue_len(PortId(0), VcId(0)), 1);
        assert_eq!(r.port_occupancy(PortId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn overflow_panics() {
        let mut r = ring_router(1, 1);
        r.accept_flit(PortId(0), VcId(0), flit(0));
        r.accept_flit(PortId(0), VcId(0), flit(1));
    }

    #[test]
    fn kind_structure_preserved() {
        let mut r = ring_router(1, 8);
        for f in Packet::new(PacketId(2), NodeId(0), NodeId(1), 3, Picos::ZERO).into_flits() {
            r.accept_flit(PortId(0), VcId(0), f);
        }
        assert_eq!(r.pop(0).kind, FlitKind::Head);
        assert_eq!(r.pop(0).kind, FlitKind::Body);
        assert_eq!(r.pop(0).kind, FlitKind::Tail);
    }

    #[test]
    fn ring_wraps_in_fifo_order() {
        // Port 1's two VCs each own a depth-4 stretch of the flit array.
        // Push and pop them alternately, in a pattern that keeps both
        // rings partly full, until each has gone round at least three
        // times, checking every step against two plain queues.
        const DEPTH: u16 = 4;
        let mut r = ring_router(2, DEPTH);
        let port = PortId(1);
        let slot = |vc: usize| port.0 as usize * 2 + vc;
        let mut model = [std::collections::VecDeque::new(), Default::default()];
        let (mut next_id, mut popped) = (0u64, [0usize; 2]);
        let mut step = 0usize;
        while popped.iter().any(|&n| n < 3 * DEPTH as usize) {
            assert!(step < 200, "the rings stopped draining");
            let vc = step % 2;
            // Push twice for every pop while the ring has room, so the
            // fill level walks up and down across the wrap point.
            if model[vc].len() < DEPTH as usize && step % 6 < 4 {
                next_id += 1;
                let f = Packet::new(PacketId(next_id), NodeId(0), NodeId(1), 1, Picos::ZERO)
                    .into_flits()
                    .next()
                    .unwrap();
                r.accept_flit(port, VcId(vc as u8), f);
                model[vc].push_back(f);
            } else if let Some(want) = model[vc].pop_front() {
                assert_eq!(r.pop(slot(vc)), want, "step {step}: vc{vc} order");
                popped[vc] += 1;
            }
            for (v, queue) in model.iter().enumerate() {
                assert_eq!(r.queue_len(port, VcId(v as u8)), queue.len(), "step {step}");
                if let Some(front) = queue.front() {
                    assert_eq!(r.front(slot(v)), front, "step {step}: vc{v} front");
                }
            }
            assert_eq!(
                r.port_occupancy(port),
                model[0].len() + model[1].len(),
                "step {step}"
            );
            step += 1;
        }
    }

    // --- the per-port masks against the per-tick bucketing ---------------

    /// Switch allocation as it was before the per-port masks: it buckets
    /// the `sa_ready` slots by output port every tick and then scans every
    /// port from `sa_rotate`. The oracle of `port_masks_match_per_tick_bucketing`.
    fn bucketed_switch_allocation(
        r: &mut Router,
        now: Picos,
        config: &NocConfig,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        let (ports, vcs) = (r.ports.len(), r.vcs);
        if r.sa_ready == 0 {
            r.sa_rotate = (r.sa_rotate + 1) % ports;
            return;
        }
        let st_time = now + config.cycle();
        let (mut used, port_slots) = (0u64, u64::MAX >> (64 - vcs));
        let mut bucket = vec![0u64; ports];
        let mut w = r.sa_ready;
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let VcState::Active { out_port, .. } = r.slots[req].state else {
                unreachable!("sa_ready slot not in Active state");
            };
            bucket[out_port.0 as usize] |= 1u64 << req;
        }
        for op in (r.sa_rotate..ports).chain(0..r.sa_rotate) {
            let req_mask = bucket[op];
            if req_mask == 0 {
                continue;
            }
            let Some(link_id) = r.ports[op].link else {
                continue;
            };
            let link = &mut links[link_id.index()];
            link.note_demand();
            if !link.ready_at(st_time) {
                r.sa_denials += req_mask.count_ones() as u64;
                continue;
            }
            let credits = &r.credits[op * vcs..(op + 1) * vcs];
            let mut eligible: u64 = 0;
            let mut m = req_mask & !used;
            while m != 0 {
                let req = m.trailing_zeros() as usize;
                m &= m - 1;
                let ok = match r.slots[req].state {
                    VcState::Active { out_vc, .. } => credits[out_vc.0 as usize] > 0,
                    _ => false,
                };
                eligible |= (ok as u64) << req;
            }
            let Some(req) = r.ports[op].sa_arbiter.grant_masked(eligible) else {
                r.sa_denials += req_mask.count_ones() as u64;
                continue;
            };
            let (ip, vc) = (req / vcs, VcId((req % vcs) as u8));
            let VcState::Active { out_vc, .. } = r.slots[req].state else {
                unreachable!("eligibility mask admitted a non-active VC");
            };
            let out_slot = op * vcs + out_vc.0 as usize;
            let flit = r.pop(req);
            r.credits[out_slot] -= 1;
            r.flits_switched += 1;
            r.sa_denials += (req_mask.count_ones() - 1) as u64;
            r.buffered_flits -= 1;
            if r.slots[req].len == 0 {
                r.sa_ready &= !(1u64 << req);
            }
            let arrival = links[link_id.index()].start_flit(st_time);
            effects.push(Effect::Flit {
                link: link_id,
                vc: out_vc,
                flit,
                at: arrival,
            });
            if let Some(feeder) = r.ports[ip].feeder {
                effects.push(Effect::Credit {
                    link: feeder,
                    vc,
                    at: now + config.credit_delay,
                });
            }
            if flit.kind.is_tail() {
                r.vc_owner[out_slot] = None;
                r.slots[req].state = VcState::Idle;
                r.active_vcs -= 1;
                r.sa_ready &= !(1u64 << req);
                if r.slots[req].len != 0 {
                    r.rc_ready |= 1u64 << req;
                }
            }
            used |= port_slots << (ip * vcs);
        }
        r.sa_rotate = (r.sa_rotate + 1) % ports;
    }

    /// VC allocation as it was before the per-port masks: it buckets the
    /// slots in `VcAlloc` (then its `va_set` mask) by output port every
    /// tick, in ascending slot order, and then scans every port.
    fn bucketed_vc_allocation(r: &mut Router) {
        let (ports, vcs) = (r.ports.len(), r.vcs);
        let mut bucket = vec![0u64; ports];
        for (req, slot) in r.slots.iter().enumerate() {
            if let VcState::VcAlloc { out_port } = slot.state {
                bucket[out_port.0 as usize] |= 1u64 << req;
            }
        }
        for (op, &mask) in bucket.iter().enumerate() {
            let mut req_mask = mask;
            if req_mask == 0 || r.ports[op].link.is_none() {
                continue;
            }
            for out_vc in 0..vcs {
                if r.vc_owner[op * vcs + out_vc].is_some() {
                    continue;
                }
                let Some(req) = r.ports[op].va_arbiter.grant_masked(req_mask) else {
                    break;
                };
                req_mask &= !(1u64 << req);
                let (ip, vc) = (req / vcs, req % vcs);
                r.vc_owner[op * vcs + out_vc] = Some((PortId(ip as u8), VcId(vc as u8)));
                r.slots[req].state = VcState::Active {
                    out_port: PortId(op as u8),
                    out_vc: VcId(out_vc as u8),
                };
                if r.slots[req].len != 0 {
                    r.sa_ready |= 1u64 << req;
                }
            }
        }
    }

    /// [`Router::tick`] with the bucketing switch and VC allocation.
    fn bucketed_tick(
        r: &mut Router,
        now: Picos,
        config: &NocConfig,
        table: &RouteTable,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        if r.is_idle() {
            return;
        }
        bucketed_switch_allocation(r, now, config, links, effects);
        bucketed_vc_allocation(r);
        r.route_computation(table);
        for (accum, &occupancy) in r.occupancy_accum.iter_mut().zip(&*r.occupancy) {
            *accum += u64::from(occupancy);
        }
    }

    #[test]
    fn port_masks_match_per_tick_bucketing() {
        use crate::ids::RackCoord;
        use crate::routing::RoutingAlgorithm;
        use lumen_desim::Rng;
        // The paper's 12-port, 2-VC router, inside its 8×8 mesh, so that
        // all four directions and the eight ejection ports are wired.
        let config = NocConfig::paper_default();
        let id = config.router_at(RackCoord { x: 3, y: 4 });
        let (ports, vcs) = (config.ports_per_router(), usize::from(config.vcs));
        let depth = config.depth_per_vc();
        let cycle = config.cycle();
        let rates = [10.0, 5.0, 2.5].map(Gbps::from_gbps);
        for (seed, routing) in [(1, RoutingAlgorithm::XY), (2, RoutingAlgorithm::WestFirst)] {
            let table = RouteTable::build(&config, routing);
            let mut rng = Rng::seed_from(seed);
            let mut router = Router::new(id, &config);
            let mut links: Vec<Link> = (0..ports)
                .map(|p| {
                    let from = Endpoint::RouterPort {
                        router: id,
                        port: PortId(p as u8),
                    };
                    let to = Endpoint::Node(NodeId(p as u32));
                    Link::new(
                        LinkId(p as u32),
                        from,
                        to,
                        config.flit_bits,
                        config.propagation,
                        rates[0],
                    )
                })
                .collect();
            for p in 0..ports {
                router.set_link(PortId(p as u8), LinkId(p as u32));
                router.set_feeder(PortId(p as u8), LinkId((ports + p) as u32));
            }
            // Per input slot, the rest of the packet it is receiving.
            let mut incoming = vec![std::collections::VecDeque::new(); ports * vcs];
            let (mut next_packet, mut now) = (0u64, Picos::ZERO);
            // The rotations at which switch allocation served two or more
            // ports with requesters, so the scan order mattered.
            let mut contended = vec![false; ports];
            for tick in 0..6_000 {
                // Bursts and lulls: full load, light load, then none, so the
                // router also drains and idles.
                let load = [0.4, 0.08, 0.0][tick / 250 % 3];
                for (slot, pending) in incoming.iter_mut().enumerate() {
                    if !rng.chance(load) || router.slots[slot].len == depth {
                        continue;
                    }
                    if pending.is_empty() {
                        next_packet += 1;
                        let dst = if rng.chance(0.4) {
                            let local = rng.index(usize::from(config.nodes_per_rack));
                            config.node_at(id, local as u8)
                        } else {
                            NodeId(rng.index(config.node_count()) as u32)
                        };
                        let src = NodeId((dst.0 + 1) % config.node_count() as u32);
                        let size = 1 + rng.index(6) as u32;
                        let packet = Packet::new(PacketId(next_packet), src, dst, size, now);
                        pending.extend(packet.into_flits());
                    }
                    let flit = pending.pop_front().expect("a packet in flight");
                    router.accept_flit(PortId((slot / vcs) as u8), VcId((slot % vcs) as u8), flit);
                }
                for slot in 0..ports * vcs {
                    if router.credits[slot] < depth && rng.chance(0.25) {
                        let (port, vc) = (PortId((slot / vcs) as u8), VcId((slot % vcs) as u8));
                        router.return_credit(port, vc, depth);
                    }
                }
                if rng.chance(0.05) {
                    let link = &mut links[rng.index(ports)];
                    if rng.chance(0.5) {
                        link.disable_until(now + cycle * (1 + rng.index(12) as u64));
                    } else {
                        link.begin_rate_change(now, rates[rng.index(rates.len())], cycle);
                    }
                }
                let (mut oracle, mut oracle_links) = (router.clone(), links.clone());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                if router.sa_ports.count_ones() >= 2 {
                    contended[router.sa_rotate] = true;
                }
                router.tick(now, &config, &table, &mut links, &mut got);
                bucketed_tick(
                    &mut oracle,
                    now,
                    &config,
                    &table,
                    &mut oracle_links,
                    &mut want,
                );
                let at = format!("seed {seed}, tick {tick}");
                assert_eq!(got, want, "{at}: effects");
                assert_eq!(links, oracle_links, "{at}: links");
                assert_eq!(
                    router.serialize_value(),
                    oracle.serialize_value(),
                    "{at}: state"
                );
                assert_eq!(router.recount(), oracle.recount(), "{at}: recount");
                assert_eq!(router.caches(), router.recount(), "{at}: caches");
                now += cycle;
            }
            assert!(router.flits_switched > 4_000, "{}", router.flits_switched);
            assert_eq!(
                contended,
                vec![true; ports],
                "a rotation without contention"
            );
        }
    }
}

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

use crate::arbiter::RoundRobinArbiter;
use crate::buffer::InputBuffer;
use crate::config::NocConfig;
use crate::ids::{LinkId, PortId, RouterId, VcId};
use crate::link::Link;
use crate::network::Effect;
use crate::route_table::RouteTable;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize};

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

/// One input port: buffer, per-VC state, and the link that feeds it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputPort {
    /// The per-VC flit FIFOs.
    pub buffer: InputBuffer,
    /// Pipeline state per VC.
    pub vc_state: Vec<VcState>,
    /// The upstream link filling this port (None on mesh-edge ports).
    pub feeder: Option<LinkId>,
    // Sum of per-cycle occupancy samples (numerator of the paper's `Bu`).
    occupancy_accum: u64,
}

impl InputPort {
    fn new(config: &NocConfig) -> Self {
        InputPort {
            buffer: InputBuffer::new(config.vcs, config.depth_per_vc()),
            vc_state: vec![VcState::Idle; config.vcs as usize],
            feeder: None,
            occupancy_accum: 0,
        }
    }

    /// Sum of per-cycle occupancy samples (numerator of the paper's `Bu`).
    /// Through [`crate::Network`] it lags by the ticks a stalled router
    /// has skipped until [`crate::Network::settle_all`] applies them.
    pub fn occupancy_accum(&self) -> u64 {
        self.occupancy_accum
    }

    /// Drains the accumulated occupancy counter.
    pub fn take_occupancy_accum(&mut self) -> u64 {
        std::mem::replace(&mut self.occupancy_accum, 0)
    }

    pub(crate) fn set_occupancy_accum(&mut self, accum: u64) {
        self.occupancy_accum = accum;
    }
}

/// One output port: downstream credit state, VC ownership, and arbiters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutputPort {
    /// The outgoing link (None on mesh-edge ports).
    pub link: Option<LinkId>,
    /// Free downstream buffer slots per VC.
    pub credits: Vec<u16>,
    /// Which input (port, VC) currently owns each output VC.
    pub vc_owner: Vec<Option<(PortId, VcId)>>,
    sa_arbiter: RoundRobinArbiter,
    va_arbiter: RoundRobinArbiter,
}

impl OutputPort {
    fn new(config: &NocConfig) -> Self {
        let requesters = config.ports_per_router() * config.vcs as usize;
        OutputPort {
            link: None,
            credits: vec![config.depth_per_vc(); config.vcs as usize],
            vc_owner: vec![None; config.vcs as usize],
            sa_arbiter: RoundRobinArbiter::new(requesters),
            va_arbiter: RoundRobinArbiter::new(requesters),
        }
    }
}

/// A bitset over dense indices, iterated in ascending order: the
/// router's `ports × vcs` input-VC slots — the same `(port, vc)` order the
/// pipeline's full scans used, so replacing a scan with a set walk is
/// order-identical — and the network's active sources and routers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    pub(crate) fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    #[inline]
    pub(crate) fn assign(&mut self, i: usize, on: bool) {
        if on {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Calls `step` on every member in `range`, in ascending order, and
    /// drops each member for which it returns `false`.
    #[inline]
    pub(crate) fn retain_range(
        &mut self,
        range: std::ops::Range<usize>,
        mut step: impl FnMut(usize) -> bool,
    ) {
        if range.is_empty() {
            return;
        }
        let (first, last) = (range.start >> 6, (range.end - 1) >> 6);
        for wi in first..=last {
            let mut w = self.words[wi];
            if wi == first {
                w &= !0u64 << (range.start & 63);
            }
            if wi == last {
                w &= !0u64 >> (63 - ((range.end - 1) & 63));
            }
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                if !step(wi << 6 | bit) {
                    self.words[wi] &= !(1u64 << bit);
                }
            }
        }
    }
}

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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Router {
    id: RouterId,
    vcs: usize,
    /// Input ports, indexed by [`PortId`].
    pub inputs: Vec<InputPort>,
    /// Output ports, indexed by [`PortId`].
    pub outputs: Vec<OutputPort>,
    sa_rotate: usize,
    // Scratch buffers reused across ticks to avoid per-cycle allocation.
    // Requesters are bucketed per output port as a u64 bitmask over the
    // `port * vcs + vc` slot space (capped at 64 slots per router), so
    // allocation iterates set bits instead of pushing through Vecs.
    scratch_port_mask: Vec<u64>,
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
    // input-VC slot (`port * vcs + vc`), so each stage visits only live
    // VCs instead of scanning every slot every cycle:
    // - `sa_ready`: state Active and buffer non-empty (SA requesters)
    // - `va_set`:   state VcAlloc (VA requesters)
    // - `rc_ready`: state Idle and buffer non-empty (RC candidates)
    sa_ready: SlotSet,
    va_set: SlotSet,
    rc_ready: SlotSet,
}

impl Router {
    /// Creates a router with unwired ports (the network builder attaches
    /// links and feeders afterwards).
    pub fn new(id: RouterId, config: &NocConfig) -> Self {
        let p = config.ports_per_router();
        let slots = p * config.vcs as usize;
        assert!(
            slots <= 64,
            "mask-based switch/VC allocation supports at most 64 input-VC \
             slots per router (got {slots})"
        );
        Router {
            id,
            vcs: config.vcs as usize,
            inputs: (0..p).map(|_| InputPort::new(config)).collect(),
            outputs: (0..p).map(|_| OutputPort::new(config)).collect(),
            sa_rotate: 0,
            scratch_port_mask: vec![0; p],
            flits_switched: 0,
            flits_accepted: 0,
            sa_denials: 0,
            buffered_flits: 0,
            active_vcs: 0,
            sa_ready: SlotSet::new(slots),
            va_set: SlotSet::new(slots),
            rc_ready: SlotSet::new(slots),
        }
    }

    /// The router's id.
    pub fn id(&self) -> RouterId {
        self.id
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
    pub fn tick(
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
        self.vc_allocation(config);
        self.route_computation(config, route_table);
        for input in &mut self.inputs {
            input.occupancy_accum += input.buffer.total_occupancy() as u64;
        }
    }

    /// The input-VC slots requesting the switch, as a bitmask.
    #[inline]
    pub(crate) fn requesters(&self) -> u64 {
        self.sa_ready.words[0]
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
        let mut w = self.sa_ready.words[0];
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let (ip, vc) = (req / self.vcs, req % self.vcs);
            let VcState::Active { out_port, out_vc } = self.inputs[ip].vc_state[vc] else {
                unreachable!("sa_ready slot not in Active state");
            };
            let op = out_port.0 as usize;
            let Some(link) = self.outputs[op].link else {
                continue;
            };
            stall.denials += 1;
            stall.demand |= 1u64 << op;
            if self.outputs[op].credits[out_vc.0 as usize] > 0 {
                let ready = links[link.index()].next_free().saturating_sub(cycle);
                if ready <= next {
                    return None; // the link is ready for the next tick
                }
                stall.wake_at = stall.wake_at.min(ready);
            }
        }
        let mut w = self.va_set.words[0];
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let (ip, vc) = (req / self.vcs, req % self.vcs);
            let VcState::VcAlloc { out_port } = self.inputs[ip].vc_state[vc] else {
                unreachable!("va_set slot not in VcAlloc state");
            };
            let out = &self.outputs[out_port.0 as usize];
            if out.link.is_some() && out.vc_owner.iter().any(Option::is_none) {
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
        let ports = self.outputs.len() as u64;
        self.sa_rotate = ((self.sa_rotate as u64 + n) % ports) as usize;
        self.sa_denials += n * u64::from(stall.denials);
        let mut m = stall.demand;
        while m != 0 {
            let op = m.trailing_zeros() as usize;
            m &= m - 1;
            let link = self.outputs[op].link.expect("demand noted on a wired output");
            links[link.index()].note_demand_ticks(n);
        }
        for input in &mut self.inputs {
            input.occupancy_accum += n * input.buffer.total_occupancy() as u64;
        }
    }

    /// SA + ST: for each output port (rotating start for fairness), grant
    /// one input VC and launch its flit onto the link one cycle later.
    fn switch_allocation(
        &mut self,
        now: Picos,
        config: &NocConfig,
        links: &mut [Link],
        effects: &mut Vec<Effect>,
    ) {
        let ports = self.outputs.len();
        let vcs = config.vcs as usize;
        if self.sa_ready.is_empty() {
            // No Active VC holds a flit: nothing to allocate, but the
            // rotating priority still advances exactly as it always did.
            self.sa_rotate = if self.sa_rotate + 1 == ports { 0 } else { self.sa_rotate + 1 };
            return;
        }
        let st_time = now + config.cycle();
        let mut input_used: u64 = 0;
        // Bucket requesters by output port once; `sa_ready` walks the same
        // ascending (port, vc) order the full scan did, visiting only VCs
        // that are Active with a flit buffered.
        self.scratch_port_mask.fill(0);
        let mut w = self.sa_ready.words[0];
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let (ip, vc) = (req / vcs, req % vcs);
            let VcState::Active { out_port, .. } = self.inputs[ip].vc_state[vc] else {
                unreachable!("sa_ready slot not in Active state");
            };
            debug_assert!(self.inputs[ip].buffer.front(VcId(vc as u8)).is_some());
            self.scratch_port_mask[out_port.0 as usize] |= 1u64 << req;
        }
        // Rotating scan over output ports without a modulo per step.
        let mut next_op = self.sa_rotate;
        for _ in 0..ports {
            let op = next_op;
            next_op = if op + 1 == ports { 0 } else { op + 1 };
            let req_mask = self.scratch_port_mask[op];
            if req_mask == 0 {
                continue;
            }
            let Some(link_id) = self.outputs[op].link else {
                continue;
            };
            links[link_id.index()].note_demand();
            if !links[link_id.index()].ready_at(st_time) {
                // Link busy serializing or relocking: every requester for
                // this output port loses the cycle.
                self.sa_denials += req_mask.count_ones() as u64;
                continue;
            }
            // An input port already granted this cycle (crossbar conflict)
            // or an output VC out of credits disqualifies a requester.
            let mut eligible: u64 = 0;
            let mut m = req_mask;
            while m != 0 {
                let req = m.trailing_zeros() as usize;
                m &= m - 1;
                let (ip, vc) = (req / vcs, req % vcs);
                let ok = input_used >> ip & 1 == 0
                    && match self.inputs[ip].vc_state[vc] {
                        VcState::Active { out_vc, .. } => {
                            self.outputs[op].credits[out_vc.0 as usize] > 0
                        }
                        _ => false,
                    };
                eligible |= (ok as u64) << req;
            }
            let Some(req) = self.outputs[op].sa_arbiter.grant_masked(eligible) else {
                // Nothing eligible (crossbar conflicts or exhausted
                // credits): all requesters lose.
                self.sa_denials += req_mask.count_ones() as u64;
                continue;
            };
            let (ip, vc) = (req / vcs, VcId((req % vcs) as u8));
            let VcState::Active { out_vc, .. } = self.inputs[ip].vc_state[vc.0 as usize] else {
                unreachable!("eligibility mask admitted a non-active VC");
            };
            let flit = self.inputs[ip]
                .buffer
                .pop(vc)
                .expect("eligibility mask admitted an empty VC");
            self.outputs[op].credits[out_vc.0 as usize] -= 1;
            self.flits_switched += 1;
            // One requester won; its co-requesters for this port lost.
            self.sa_denials += (req_mask.count_ones() - 1) as u64;
            self.buffered_flits -= 1;
            if self.inputs[ip].buffer.is_empty(vc) {
                // Last buffered flit left; the VC stops requesting the
                // switch until another flit arrives (or, for a tail, until
                // a new packet restarts the pipeline below).
                self.sa_ready.clear(req);
            }
            let arrival = links[link_id.index()].start_flit(st_time);
            effects.push(Effect::Flit {
                link: link_id,
                vc: out_vc,
                flit,
                at: arrival,
            });
            if let Some(feeder) = self.inputs[ip].feeder {
                effects.push(Effect::Credit {
                    link: feeder,
                    vc,
                    at: now + config.credit_delay,
                });
            }
            if flit.kind.is_tail() {
                self.outputs[op].vc_owner[out_vc.0 as usize] = None;
                self.inputs[ip].vc_state[vc.0 as usize] = VcState::Idle;
                self.active_vcs -= 1;
                self.sa_ready.clear(req);
                if !self.inputs[ip].buffer.is_empty(vc) {
                    // The next packet's head is already waiting: it becomes
                    // an RC candidate this very cycle (RC runs after SA).
                    self.rc_ready.set(req);
                }
            }
            input_used |= 1u64 << ip;
        }
        self.sa_rotate = if self.sa_rotate + 1 == ports { 0 } else { self.sa_rotate + 1 };
    }

    /// VA: hand free output VCs to packets whose route is computed.
    fn vc_allocation(&mut self, config: &NocConfig) {
        let ports = self.outputs.len();
        let vcs = config.vcs as usize;
        if self.va_set.is_empty() {
            return;
        }
        // Bucket VC-allocation requesters by requested output port, in the
        // same ascending (port, vc) order the full scan produced.
        self.scratch_port_mask.fill(0);
        let mut w = self.va_set.words[0];
        while w != 0 {
            let req = w.trailing_zeros() as usize;
            w &= w - 1;
            let (ip, vc) = (req / vcs, req % vcs);
            let VcState::VcAlloc { out_port } = self.inputs[ip].vc_state[vc] else {
                unreachable!("va_set slot not in VcAlloc state");
            };
            self.scratch_port_mask[out_port.0 as usize] |= 1u64 << req;
        }
        for op in 0..ports {
            let mut req_mask = self.scratch_port_mask[op];
            if req_mask == 0 || self.outputs[op].link.is_none() {
                continue;
            }
            for out_vc in 0..vcs {
                if self.outputs[op].vc_owner[out_vc].is_some() {
                    continue;
                }
                let Some(req) = self.outputs[op].va_arbiter.grant_masked(req_mask) else {
                    break; // no remaining requester for this output
                };
                req_mask &= !(1u64 << req);
                let (ip, vc) = (req / vcs, req % vcs);
                self.outputs[op].vc_owner[out_vc] = Some((PortId(ip as u8), VcId(vc as u8)));
                self.inputs[ip].vc_state[vc] = VcState::Active {
                    out_port: PortId(op as u8),
                    out_vc: VcId(out_vc as u8),
                };
                self.va_set.clear(req);
                if !self.inputs[ip].buffer.is_empty(VcId(vc as u8)) {
                    self.sa_ready.set(req);
                }
            }
        }
    }

    /// RC: idle VCs with a head flit at the front compute their route.
    /// Deterministic algorithms yield one output; under west-first the
    /// router selects adaptively among the permitted minimal outputs,
    /// preferring ready links (not mid-transition) with the most
    /// downstream credits — which makes routing *power-aware*: traffic
    /// steers around links parked at low rates or disabled for relock.
    fn route_computation(&mut self, config: &NocConfig, table: &RouteTable) {
        let vcs = config.vcs as usize;
        // Every rc_ready VC (Idle with a buffered head flit) computes its
        // route this cycle, so the whole word empties; take it up front.
        for wi in 0..self.rc_ready.words.len() {
            let mut w = std::mem::take(&mut self.rc_ready.words[wi]);
            while w != 0 {
                let req = (wi << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                let (ip, vc) = (req / vcs, req % vcs);
                debug_assert_eq!(self.inputs[ip].vc_state[vc], VcState::Idle);
                let front = self.inputs[ip]
                    .buffer
                    .front(VcId(vc as u8))
                    .expect("rc_ready VC with an empty buffer");
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
                        let out = &self.outputs[cand.0 as usize];
                        let free_vc = out.vc_owner.iter().filter(|o| o.is_none()).count() as i64;
                        let credits: i64 =
                            out.credits.iter().map(|&c| c as i64).sum();
                        let score = free_vc * 1_000 + credits;
                        if score > best_score {
                            best_score = score;
                            best = cand;
                        }
                    }
                    best
                };
                self.inputs[ip].vc_state[vc] = VcState::VcAlloc { out_port };
                self.va_set.set(req);
                self.active_vcs += 1;
            }
        }
    }

    /// Accepts a flit delivered by an upstream link into an input buffer.
    pub fn accept_flit(&mut self, port: PortId, vc: VcId, flit: crate::flit::Flit) {
        let ip = port.0 as usize;
        self.inputs[ip].buffer.push(vc, flit);
        // A previously-empty VC becomes a pipeline candidate: Idle VCs go
        // to RC, Active ones back into SA contention. VcAlloc VCs are
        // already tracked in va_set and need nothing here.
        match self.inputs[ip].vc_state[vc.0 as usize] {
            VcState::Idle => self.rc_ready.set(ip * self.vcs + vc.0 as usize),
            VcState::Active { .. } => self.sa_ready.set(ip * self.vcs + vc.0 as usize),
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
    pub fn return_credit(&mut self, port: PortId, vc: VcId, depth_per_vc: u16) {
        let c = &mut self.outputs[port.0 as usize].credits[vc.0 as usize];
        assert!(
            *c < depth_per_vc,
            "credit overflow on {}:{port}:{vc}",
            self.id
        );
        *c += 1;
    }

    /// Whether every input buffer and pipeline state is empty/idle (used
    /// for drain detection in tests and experiments).
    pub fn is_quiescent(&self) -> bool {
        self.inputs.iter().all(|p| {
            p.buffer.total_occupancy() == 0
                && p.vc_state.iter().all(|s| *s == VcState::Idle)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Packet;
    use crate::ids::{NodeId, PacketId};
    use crate::link::{Endpoint, LinkKind};
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
                LinkKind::Ejection,
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
                LinkKind::InterRouter,
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
            router.outputs[0].link = Some(LinkId(0));
            router.outputs[4].link = Some(LinkId(1));
            router.inputs[1].feeder = Some(LinkId(7)); // pretend injection feeder
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
            h.router.inputs[1].vc_state[0],
            VcState::VcAlloc { out_port: PortId(0) }
        );
        h.tick();
        assert!(matches!(h.router.inputs[1].vc_state[0], VcState::Active { .. }));
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
        assert_eq!(h.router.inputs[1].vc_state[0], VcState::Idle);
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
                if h.router.inputs[1].buffer.free_slots(VcId(0)) > 0 {
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
        // Returning one credit lets exactly one more through.
        h.router.return_credit(PortId(0), VcId(0), h.config.depth_per_vc() as u16);
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
        assert_eq!(h.router.inputs[1].take_occupancy_accum(), 2);
        assert_eq!(h.router.inputs[1].take_occupancy_accum(), 0);
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
            let again = real.stall(h.now, h.config.cycle(), &real_links).expect("still stalled");
            assert!(again.denials == stall.denials && again.demand == stall.demand);
            h.now += h.config.cycle();
        }
        assert!(h.effects.is_empty());
        skipped.settle(stall, n, &mut skipped_links);
        assert_eq!(skipped.sa_rotate, real.sa_rotate);
        assert_eq!(skipped.sa_denials, real.sa_denials);
        assert!(real.sa_denials >= n);
        for (a, b) in skipped.inputs.iter().zip(&real.inputs) {
            assert_eq!(a.occupancy_accum, b.occupancy_accum);
        }
        assert_eq!(skipped_links[0].window_demand(), real_links[0].window_demand());
        assert_eq!(skipped_links, real_links);
        assert_eq!(skipped.serialize_value(), real.serialize_value());
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn credit_overflow_detected() {
        let mut h = Harness::new();
        let depth = h.config.depth_per_vc() as u16;
        h.router.return_credit(PortId(0), VcId(0), depth);
    }
}

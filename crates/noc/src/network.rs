//! The assembled network.
//!
//! [`Network`] owns the routers, nodes and links of the paper's system
//! (Fig. 3(a) / Fig. 4) — or of whichever fabric the configuration's
//! [`Topology`] describes — and exposes a *passive* stepping interface: the
//! caller owns the event loop, invokes [`Network::tick_range`] once per
//! router cycle, and feeds the returned [`Effect`]s (flit deliveries and
//! credit returns) back at their due times via [`Network::flit_arrived`] /
//! [`Network::credit_arrived`]. The power-aware layer manipulates link
//! rates between ticks through [`Network::link_mut`].
//!
//! A router whose tick would move nothing — every switch requester held
//! back by a busy, relocking or gated link or by missing credits — sleeps
//! until an event or a link-ready time can move it, and its skipped ticks
//! are applied in one step before anything reads the counters they touch
//! (see [`Network::settle_all`] and DESIGN.md §6i). Sources with nothing
//! queued and idle routers, whose ticks do nothing at all, are not visited
//! (DESIGN.md §6j).

use crate::config::NocConfig;
use crate::flit::{Flit, Packet};
use crate::ids::{LinkId, NodeId, PacketId, PortId, RouterId, VcId};
use crate::link::{Endpoint, Link};
use crate::node::{SinkNode, SourceNode};
use crate::route_table::RouteTable;
use crate::router::{Router, Stall};
use crate::topology::Topology;
use lumen_desim::Picos;
use serde::{Serialize, Sink, Source};
use std::sync::Arc;

/// An externally-visible consequence of stepping the network; the driver
/// schedules each at its `at` time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// A flit finishes traversing `link` (deliver via
    /// [`Network::flit_arrived`]).
    Flit {
        /// The traversed link.
        link: LinkId,
        /// The downstream VC the flit occupies.
        vc: VcId,
        /// The flit itself.
        flit: Flit,
        /// Arrival time at the downstream endpoint.
        at: Picos,
    },
    /// A credit travels back to the upstream side of `link` (deliver via
    /// [`Network::credit_arrived`]).
    Credit {
        /// The link whose upstream endpoint regains a buffer slot.
        link: LinkId,
        /// The VC the credit belongs to.
        vc: VcId,
        /// Credit arrival time.
        at: Picos,
    },
    /// A packet fully left the network at its destination.
    Ejected {
        /// The packet.
        packet: PacketId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Packet length in flits.
        size_flits: u32,
        /// When the packet was created (latency start).
        created_at: Picos,
        /// When the tail flit arrived (latency end).
        at: Picos,
    },
}

/// A bitset over dense indices, iterated in ascending order: the
/// network's active sources and routers.
#[derive(Debug, Clone)]
struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    #[inline]
    fn assign(&mut self, i: usize, on: bool) {
        if on {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    #[inline]
    fn contains(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Calls `step` on every member in `range`, in ascending order, and
    /// drops each member for which it returns `false`.
    #[inline]
    fn retain_range(&mut self, range: std::ops::Range<usize>, mut step: impl FnMut(usize) -> bool) {
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

/// The whole simulated network system.
#[derive(Debug, Clone)]
pub struct Network {
    config: NocConfig,
    routers: Vec<Router>,
    sources: Vec<SourceNode>,
    sinks: Vec<SinkNode>,
    links: Vec<Link>,
    // Precomputed flat routing table serving the RC stage (see
    // `crate::route_table`). Shared by `Arc` so shard replicas adopt one
    // build instead of each redoing the all-pairs enumeration.
    route_table: Arc<RouteTable>,
    // Dense copies of each link's endpoints (fixed at construction).
    // `Link` is a large struct (rate ladder state, window statistics), so
    // the per-event delivery paths — ~2 lookups per flit hop, tens of
    // millions per run — read these 8-byte entries instead of pulling a
    // whole `Link` through the cache for the destination alone.
    to_ep: Vec<Endpoint>,
    from_ep: Vec<Endpoint>,
    // Per-router stall records (see `Router::stall`), side arrays like the
    // endpoint tables. `wake` is read for every busy router every cycle and
    // on every arrival, so it stays dense: non-zero means stalled until
    // then. `stalls` holds the rest of each record. Never checkpointed:
    // capture settles every stall first, so a checkpoint holds exactly the
    // state of real ticks.
    wake: Vec<Picos>,
    stalls: Vec<Stall>,
    // Activity sets: the sources with queued flits and the routers that
    // are not idle — the only ones whose tick does anything. Set by
    // `inject` and by flit arrivals, cleared by the tick that empties or
    // idles the component, rebuilt from component state on restore and
    // adoption. Derived state, never checkpointed.
    active_sources: SlotSet,
    active_routers: SlotSet,
    inter_router_links: usize,
    ticks: u64,
}

impl Network {
    /// Builds the network with the configuration's routing discipline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NocConfig::validate`]).
    pub fn new(config: &NocConfig) -> Self {
        config.validate();
        let table = Arc::new(RouteTable::build(config, config.routing));
        Network::with_route_table(config, table)
    }

    /// Builds the network over a route table built elsewhere for the
    /// configuration's routing discipline: the sharded backend builds one
    /// table per run and hands the same `Arc` to every replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NocConfig::validate`])
    /// or the table was built for a different geometry or algorithm.
    pub fn with_route_table(config: &NocConfig, route_table: Arc<RouteTable>) -> Self {
        config.validate();
        assert!(
            route_table.matches(config, config.routing),
            "shared route table was built for a different geometry or algorithm"
        );
        let topo = config.topo();
        let mut routers: Vec<Router> = (0..topo.router_count())
            .map(|r| Router::new(RouterId(r as u32), config))
            .collect();
        let mut links = Vec::new();

        // Inter-router channels, in the topology's enumeration order
        // (grouped by source router ascending; see `crate::topology`).
        let mut channels = Vec::new();
        topo.channels(&mut channels);
        for ch in channels {
            let id = LinkId(links.len() as u32);
            links.push(Link::new(
                id,
                Endpoint::RouterPort {
                    router: ch.from,
                    port: ch.from_port,
                },
                Endpoint::RouterPort {
                    router: ch.to,
                    port: ch.to_port,
                },
                config.flit_bits,
                topo.channel_latency(&ch, config.propagation),
                config.max_rate,
            ));
            routers[ch.from.index()].set_link(ch.from_port, id);
            routers[ch.to.index()].set_feeder(ch.to_port, id);
        }
        let inter_router_links = links.len();

        // Injection and ejection channels.
        let mut sources = Vec::with_capacity(config.node_count());
        let mut sinks = Vec::with_capacity(config.node_count());
        for n in 0..config.node_count() {
            let node = NodeId(n as u32);
            let router = config.router_of_node(node);
            let local = PortId(config.local_index(node));

            let inj = LinkId(links.len() as u32);
            links.push(Link::new(
                inj,
                Endpoint::Node(node),
                Endpoint::RouterPort {
                    router,
                    port: local,
                },
                config.flit_bits,
                config.propagation,
                config.max_rate,
            ));
            routers[router.index()].set_feeder(local, inj);
            sources.push(SourceNode::new(
                node,
                inj,
                config.vcs,
                config.depth_per_vc(),
            ));

            let ej = LinkId(links.len() as u32);
            links.push(Link::new(
                ej,
                Endpoint::RouterPort {
                    router,
                    port: local,
                },
                Endpoint::Node(node),
                config.flit_bits,
                config.propagation,
                config.max_rate,
            ));
            routers[router.index()].set_link(local, ej);
            sinks.push(SinkNode::new(node, ej));
        }

        let to_ep = links.iter().map(Link::to).collect();
        let from_ep = links.iter().map(Link::from).collect();
        Network {
            config: config.clone(),
            wake: vec![Picos::ZERO; routers.len()],
            stalls: vec![Stall::default(); routers.len()],
            active_sources: SlotSet::new(sources.len()),
            active_routers: SlotSet::new(routers.len()),
            routers,
            sources,
            sinks,
            links,
            route_table,
            to_ep,
            from_ep,
            inter_router_links,
            ticks: 0,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of processing nodes.
    pub fn node_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of links of all kinds.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of inter-router (mesh) links.
    pub fn inter_router_links(&self) -> usize {
        self.inter_router_links
    }

    /// Immutable access to a link. Its window demand count lags by the
    /// ticks its upstream router has skipped while stalled;
    /// [`Network::link_mut`] and [`Network::settle_all`] bring it up to
    /// date.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable access to a link (the power-aware layer's rate-change hook).
    /// Ends the stall of the link's upstream router first: the caller may
    /// read its window counters or change when it is ready.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        if let Endpoint::RouterPort { router, .. } = self.from_ep[id.index()] {
            self.settle(router);
        }
        &mut self.links[id.index()]
    }

    /// Iterates over all links.
    pub(crate) fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Immutable access to a router.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// The per-VC credit counters of the output port feeding `link`. The
    /// sharded backend reads these on boundary inter-router links at every
    /// barrier to bound how far the next window may stretch before a
    /// missing cross-cut credit could change a switch-allocation decision.
    ///
    /// # Panics
    ///
    /// Panics if `link` is an injection link (no upstream router port).
    pub fn output_credits(&self, link: LinkId) -> &[u16] {
        match self.from_ep[link.index()] {
            Endpoint::RouterPort { router, port } => self.routers[router.index()].credits(port),
            Endpoint::Node(_) => panic!("{link:?} has no upstream router port"),
        }
    }

    /// Iterates over all routers (conservation auditor).
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Iterates over all source nodes (conservation auditor).
    pub(crate) fn sources(&self) -> impl Iterator<Item = &SourceNode> {
        self.sources.iter()
    }

    /// Iterates over all sink nodes (conservation auditor).
    pub(crate) fn sinks(&self) -> impl Iterator<Item = &SinkNode> {
        self.sinks.iter()
    }

    /// Queues a packet at its source node.
    pub fn inject(&mut self, packet: Packet) {
        let n = packet.src.index();
        self.sources[n].enqueue(packet);
        self.active_sources.set(n);
    }

    /// Whether source `n` is in the active set (conservation auditor).
    pub(crate) fn source_marked_active(&self, n: usize) -> bool {
        self.active_sources.contains(n)
    }

    /// Whether router `r` is in the active set (conservation auditor).
    pub(crate) fn router_marked_active(&self, r: usize) -> bool {
        self.active_routers.contains(r)
    }

    /// One router-core cycle: all sources try to inject, all routers step
    /// their pipelines. Effects are appended to `effects`.
    #[cfg(test)]
    pub(crate) fn tick(&mut self, now: Picos, effects: &mut Vec<Effect>) {
        let (routers, nodes) = (0..self.routers.len(), 0..self.sources.len());
        self.tick_range(now, effects, routers, nodes);
    }

    /// One router-core cycle of a contiguous region: the sources in
    /// `nodes` try to inject, then the routers in `routers` step their
    /// pipelines, and effects are appended to `effects`. The sequential
    /// engine steps the whole fabric; a shard replica steps only the band
    /// it owns, so effect emission order within a shard matches the
    /// sequential engine's order restricted to that region.
    ///
    /// Only the active sources and routers are visited, in ascending
    /// index: a source with nothing queued and an idle router would do
    /// nothing at all (see DESIGN.md §6j). A stalled router is skipped
    /// until its wake time; one that wakes applies its skipped ticks
    /// before ticking for real. After a tick that switched nothing, a
    /// router whose next ticks cannot move anything records a stall,
    /// unless the next tick would wake it anyway (see DESIGN.md §6i).
    pub fn tick_range(
        &mut self,
        now: Picos,
        effects: &mut Vec<Effect>,
        routers: std::ops::Range<usize>,
        nodes: std::ops::Range<usize>,
    ) {
        let (sources, links) = (&mut self.sources, &mut self.links);
        self.active_sources.retain_range(nodes, |n| {
            sources[n].tick(now, links, effects);
            sources[n].backlog_flits() > 0
        });
        let table = &*self.route_table;
        let cycle = self.config.cycle();
        let ticks = self.ticks;
        let (config, wake, stalls) = (&self.config, &mut self.wake, &mut self.stalls);
        self.active_routers.retain_range(routers, |r| {
            let router = &mut self.routers[r];
            if now < wake[r] {
                return true; // stalled, so not idle
            }
            if wake[r] != Picos::ZERO {
                wake[r] = Picos::ZERO;
                router.settle(stalls[r], ticks, links);
            }
            let (switched, requesters) = (router.flits_switched, router.requesters());
            router.tick(now, config, table, links, effects);
            // A stall may start after a tick that switched nothing and kept
            // its requesters: each of them requested in it and so noted
            // demand on its link, which the on/off wake check relies on.
            if requesters != 0
                && router.flits_switched == switched
                && router.requesters() == requesters
            {
                if let Some(mut s) = router.stall(now, cycle, links) {
                    s.since = ticks + 1;
                    wake[r] = s.wake_at;
                    stalls[r] = s;
                }
            }
            !router.is_idle()
        });
        self.ticks += 1;
    }

    /// Applies the ticks `router` has skipped while stalled and ends the
    /// stall, so it ticks for real next cycle.
    #[inline]
    fn settle(&mut self, router: RouterId) {
        if self.wake[router.index()] != Picos::ZERO {
            self.settle_stalled(router.index());
        }
    }

    #[cold]
    #[inline(never)]
    fn settle_stalled(&mut self, r: usize) {
        self.wake[r] = Picos::ZERO;
        self.routers[r].settle(self.stalls[r], self.ticks, &mut self.links);
    }

    /// Brings every stalled router's counters up to date (denials,
    /// rotating priority, occupancy samples, and its output links'
    /// demand ticks). Call before reading those through
    /// [`Network::routers`] or [`Network::link`], and before serializing
    /// the network into a checkpoint.
    pub fn settle_all(&mut self) {
        for r in 0..self.routers.len() {
            self.settle(RouterId(r as u32));
        }
    }

    /// The router and input port downstream of `link`, the router settled
    /// first so the port's occupancy counter is current. `None` for
    /// ejection links.
    fn downstream_input(&mut self, link: LinkId) -> Option<(&mut Router, PortId)> {
        match self.to_ep[link.index()] {
            Endpoint::RouterPort { router, port } => {
                self.settle(router);
                Some((&mut self.routers[router.index()], port))
            }
            Endpoint::Node(_) => None,
        }
    }

    /// Delivers a flit that finished traversing `link` (an
    /// [`Effect::Flit`] whose time has come). `owned` says whether this
    /// network keeps the link's counters. A shard replica also delivers
    /// flits on links another shard launched them onto; it passes `false`
    /// for those, counts them itself and folds them into the link with
    /// [`Network::absorb_link_arrivals`] at merge time (the owning
    /// replica holds the authoritative `flits_sent`, so counting the
    /// arrival here would trip the `arrived <= sent` invariant on this
    /// replica's zero-send copy).
    pub fn flit_arrived(
        &mut self,
        now: Picos,
        link: LinkId,
        vc: VcId,
        flit: Flit,
        owned: bool,
        effects: &mut Vec<Effect>,
    ) {
        if owned {
            self.links[link.index()].note_arrival();
        }
        match self.to_ep[link.index()] {
            Endpoint::RouterPort { router, port } => {
                self.settle(router);
                self.routers[router.index()].accept_flit(port, vc, flit);
                self.active_routers.set(router.index());
            }
            Endpoint::Node(n) => {
                self.sinks[n.index()].receive(now, vc, flit, self.config.credit_delay, effects);
            }
        }
    }

    /// Folds `n` externally-counted arrivals into `link`'s counter (shard
    /// merge reconciliation; see [`Network::flit_arrived`]).
    pub fn absorb_link_arrivals(&mut self, link: LinkId, n: u64) {
        self.links[link.index()].absorb_arrivals(n);
    }

    /// Delivers a credit back to the upstream side of `link` (an
    /// [`Effect::Credit`] whose time has come).
    pub fn credit_arrived(&mut self, link: LinkId, vc: VcId) {
        let depth = self.config.depth_per_vc();
        match self.from_ep[link.index()] {
            Endpoint::RouterPort { router, port } => {
                self.settle(router);
                self.routers[router.index()].return_credit(port, vc, depth);
            }
            Endpoint::Node(n) => {
                self.sources[n.index()].return_credit(vc, depth);
            }
        }
    }

    /// Average occupancy (in flits) of the input port downstream of `link`
    /// since last sampled, over `cycles` observation cycles. `None` for
    /// ejection links (the sink drains instantly, so `Bu` is zero there).
    pub fn take_downstream_occupancy(&mut self, link: LinkId, cycles: u64) -> Option<f64> {
        let (router, port) = self.downstream_input(link)?;
        let accum = router.take_occupancy_accum(port);
        (cycles > 0).then(|| accum as f64 / cycles as f64)
    }

    /// Takes (and resets) the raw occupancy accumulator of the input port
    /// downstream of `link`. Returns 0 for ejection links. The sharded
    /// runtime uses this on the *ticking* replica of a boundary link's
    /// downstream router to publish occupancy to the link's owner at
    /// policy barriers; the paired [`Network::set_input_occupancy`] installs
    /// it on the owner's (never-ticked, zero-accumulator) replica so
    /// [`Network::take_downstream_occupancy`] then reads the true value.
    pub fn take_input_occupancy(&mut self, link: LinkId) -> u64 {
        self.downstream_input(link)
            .map_or(0, |(router, port)| router.take_occupancy_accum(port))
    }

    /// Installs a raw occupancy accumulator on the input port downstream of
    /// `link` (see [`Network::take_input_occupancy`]). No-op for ejection
    /// links.
    pub fn set_input_occupancy(&mut self, link: LinkId, accum: u64) {
        if let Some((router, port)) = self.downstream_input(link) {
            router.set_occupancy_accum(port, accum);
        }
    }

    /// Adopts a contiguous region of `donor`'s state: the routers, source/
    /// sink nodes, and link ranges given. The sharded runtime reassembles
    /// one coherent network after a parallel run by adopting each shard's
    /// owned region into a single replica; endpoints and topology are
    /// construction-deterministic, so only the mutable component state
    /// moves. The donor's routers are settled first (which also brings
    /// their output links, all inside the adopted link ranges, up to
    /// date); the adopted routers start unstalled here, and the adopted
    /// components' activity follows their state.
    pub fn adopt_region(
        &mut self,
        donor: &mut Network,
        routers: std::ops::Range<usize>,
        nodes: std::ops::Range<usize>,
        link_ranges: [std::ops::Range<usize>; 2],
    ) {
        for r in routers.clone() {
            donor.settle(RouterId(r as u32));
            self.routers[r].clone_from(&donor.routers[r]);
            self.wake[r] = Picos::ZERO;
        }
        for n in nodes.clone() {
            self.sources[n].clone_from(&donor.sources[n]);
            self.sinks[n].clone_from(&donor.sinks[n]);
        }
        for range in link_ranges {
            for l in range {
                self.links[l].clone_from(&donor.links[l]);
            }
        }
        self.rebuild_activity(routers, nodes);
    }

    /// Rebuilds the activity sets over `routers` and `nodes` from the
    /// components' state.
    fn rebuild_activity(&mut self, routers: std::ops::Range<usize>, nodes: std::ops::Range<usize>) {
        for r in routers {
            self.active_routers.assign(r, !self.routers[r].is_idle());
        }
        for n in nodes {
            self.active_sources
                .assign(n, self.sources[n].backlog_flits() > 0);
        }
    }

    /// Restores the mutable state [`Network`]'s [`Serialize`] impl wrote
    /// into a freshly constructed network of the *same configuration*,
    /// reading the checkpoint stream in place, with `ticks` router cycles
    /// run (the checkpoint's save cycle plus one).
    ///
    /// # Errors
    ///
    /// Fails if the stream is malformed, a component count does not
    /// match this network's topology, or a router, source or link holds
    /// state that does not fit the one built here (see `Router::restore`,
    /// `SourceNode::restore` and `Link::restore`). The network is then
    /// partly restored and must be discarded.
    pub fn restore<S: Source>(&mut self, src: &mut S, ticks: u64) -> Result<(), serde::Error> {
        const TY: &str = "Network";
        src.map_of(4, TY)?;
        src.expect_key("routers", TY)?;
        src.seq_of(self.routers.len(), "routers")?;
        for router in &mut self.routers {
            router.restore(src)?;
        }
        src.expect_key("sources", TY)?;
        src.seq_of(self.sources.len(), "sources")?;
        let depth = self.config.depth_per_vc();
        for source in &mut self.sources {
            source.restore(src, depth)?;
        }
        src.expect_key("sinks", TY)?;
        src.seq_of(self.sinks.len(), "sinks")?;
        for sink in &mut self.sinks {
            sink.restore(src)?;
        }
        src.expect_key("links", TY)?;
        src.seq_of(self.links.len(), "links")?;
        for link in &mut self.links {
            link.restore(src)?;
        }
        self.ticks = ticks;
        self.wake.fill(Picos::ZERO);
        self.rebuild_activity(0..self.routers.len(), 0..self.sources.len());
        Ok(())
    }

    /// Total flits queued at source nodes (offered-load backlog).
    pub(crate) fn source_backlog(&self) -> usize {
        self.sources.iter().map(SourceNode::backlog_flits).sum()
    }

    /// Packets fully delivered so far.
    pub fn packets_delivered(&self) -> u64 {
        self.sinks.iter().map(|s| s.packets_received).sum()
    }

    /// Flits injected so far across all sources.
    pub fn flits_injected(&self) -> u64 {
        self.sources.iter().map(|s| s.flits_injected).sum()
    }

    /// Packets dropped at sinks because a flit arrived corrupted.
    pub fn packets_dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.packets_dropped).sum()
    }

    /// Flits belonging to dropped packets.
    pub fn flits_dropped(&self) -> u64 {
        self.sinks.iter().map(|s| s.flits_dropped).sum()
    }

    /// Flits that reached a sink with the corruption flag set.
    pub fn flits_corrupted(&self) -> u64 {
        self.sinks.iter().map(|s| s.flits_corrupted).sum()
    }

    /// Whether the network holds no traffic anywhere (sources drained,
    /// routers idle, no partial packets at sinks).
    pub fn is_quiescent(&self) -> bool {
        self.source_backlog() == 0
            && self.routers.iter().all(Router::is_quiescent)
            && self.sinks.iter().all(|s| s.partial_packets() == 0)
    }
}

/// The network's *mutable* state, the `net` section of a checkpoint:
/// routers, source/sink nodes and links. Everything else — topology
/// wiring, endpoint tables, the route table — is a pure function of the
/// configuration and is rebuilt by the constructor at resume, and the
/// tick counter is the checkpoint's cycle (see `CHECKPOINTS.md` for the
/// serialized-vs-recomputed contract). Call [`Network::settle_all`]
/// first: the state of a stalled router is only complete once its
/// skipped ticks are applied (debug builds assert it).
impl Serialize for Network {
    fn serialize<S: Sink>(&self, out: &mut S) {
        debug_assert!(
            self.wake.iter().all(|&w| w == Picos::ZERO),
            "checkpoint capture with a stalled router unsettled"
        );
        out.token(serde::Token::Map(4));
        out.field("routers", &self.routers);
        out.field("sources", &self.sources);
        out.field("sinks", &self.sinks);
        out.field("links", &self.links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;
    use crate::topology::TopologyKind;
    use lumen_desim::EventQueue;
    use lumen_opto::Gbps;

    /// The injection link node `n` drives: its router's local input feeder.
    fn injection_link(net: &Network, n: usize) -> LinkId {
        let node = NodeId(n as u32);
        let router = net.router(net.config().router_of_node(node));
        router
            .feeder(PortId(net.config().local_index(node)))
            .expect("local input wired")
    }

    /// The ejection link feeding node `n`: its router's local output link.
    fn ejection_link(net: &Network, n: usize) -> LinkId {
        let node = NodeId(n as u32);
        let router = net.router(net.config().router_of_node(node));
        router
            .link(PortId(net.config().local_index(node)))
            .expect("local output wired")
    }

    /// A minimal driver for the passive network model: schedules a tick
    /// every core cycle and replays effects at their due times.
    struct Driver {
        net: Network,
        queue: EventQueue<Effect>,
        effects: Vec<Effect>,
        ejected: Vec<Effect>,
        now: Picos,
    }

    impl Driver {
        fn new(config: &NocConfig) -> Self {
            Driver {
                net: Network::new(config),
                queue: EventQueue::new(),
                effects: Vec::new(),
                ejected: Vec::new(),
                now: Picos::ZERO,
            }
        }

        /// Runs `cycles` core cycles.
        fn run(&mut self, cycles: u64) {
            for _ in 0..cycles {
                self.deliver();
                self.tick();
            }
        }

        /// Delivers all effects due at or before `now`.
        fn deliver(&mut self) {
            while let Some(t) = self.queue.peek_time() {
                if t > self.now {
                    break;
                }
                let (at, eff) = self.queue.pop().expect("peeked");
                match eff {
                    Effect::Flit { link, vc, flit, .. } => {
                        self.net
                            .flit_arrived(at, link, vc, flit, true, &mut self.effects);
                    }
                    Effect::Credit { link, vc, .. } => {
                        self.net.credit_arrived(link, vc);
                    }
                    Effect::Ejected { .. } => unreachable!("ejections emitted inline"),
                }
            }
        }

        /// Ticks the network at `now` and advances one cycle.
        fn tick(&mut self) {
            self.net.tick(self.now, &mut self.effects);
            for eff in self.effects.drain(..) {
                match eff {
                    Effect::Ejected { .. } => self.ejected.push(eff),
                    Effect::Flit { at, .. } | Effect::Credit { at, .. } => {
                        self.queue.schedule(at, eff);
                    }
                }
            }
            self.now += self.net.config().cycle();
        }

        /// The stall record of router `r`, if it is asleep.
        fn stall(&self, r: usize) -> Option<Stall> {
            (self.net.wake[r] != Picos::ZERO).then_some(self.net.stalls[r])
        }
    }

    fn packet(id: u64, src: usize, dst: usize, size: u32, at: Picos) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId(src as u32),
            NodeId(dst as u32),
            size,
            at,
        )
    }

    #[test]
    fn topology_counts() {
        let net = Network::new(&NocConfig::paper_default());
        assert_eq!(net.router_count(), 64);
        assert_eq!(net.node_count(), 512);
        // 2 × (2 × 8 × 7) directed mesh links + 2 links per node.
        assert_eq!(net.inter_router_links(), 224);
        assert_eq!(net.link_count(), 224 + 2 * 512);
    }

    #[test]
    fn folded_clos_topology_counts_and_delivery() {
        let mut config = NocConfig::small_for_tests();
        config.topology = crate::topology::TopologyKind::FoldedClos { spines: 2 };
        let mut d = Driver::new(&config);
        // 4 leaves + 2 spines; 2 × 4 × 2 directed up/down channels.
        assert_eq!(d.net.router_count(), 6);
        assert_eq!(d.net.node_count(), 8);
        assert_eq!(d.net.inter_router_links(), 16);
        let n = d.net.node_count();
        let mut id = 0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    id += 1;
                    d.net.inject(packet(id, s, t, 2, Picos::ZERO));
                }
            }
        }
        d.run(3000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn all_ports_wired() {
        let config = NocConfig::paper_default();
        let net = Network::new(&config);
        for r in 0..net.router_count() {
            let router = net.router(RouterId(r as u32));
            let coord = config.coord_of(RouterId(r as u32));
            // Local ports always wired both ways.
            for p in 0..config.nodes_per_rack {
                assert!(router.link(PortId(p)).is_some());
                assert!(router.feeder(PortId(p)).is_some());
            }
            // Mesh ports wired exactly when a neighbor exists.
            for dir in Direction::ALL {
                let port = PortId(config.nodes_per_rack + dir.index() as u8);
                let has = coord.neighbor(dir, config.width, config.height).is_some();
                assert_eq!(router.link(port).is_some(), has);
                assert_eq!(router.feeder(port).is_some(), has);
            }
        }
    }

    #[test]
    fn intra_rack_delivery() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 1, 4, Picos::ZERO));
        d.run(100);
        assert_eq!(d.ejected.len(), 1);
        let Effect::Ejected {
            packet: pid,
            src,
            dst,
            at,
            ..
        } = d.ejected[0]
        else {
            panic!("expected ejection");
        };
        assert_eq!(pid, PacketId(1));
        assert_eq!(src, NodeId(0));
        assert_eq!(dst, NodeId(1));
        assert!(at > Picos::ZERO);
        assert!(d.net.is_quiescent());
        assert_eq!(d.net.packets_delivered(), 1);
    }

    #[test]
    fn cross_mesh_delivery_latency_reasonable() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        // Node 0 (rack (0,0)) to node 7 (rack (1,1), local 1): 2 hops.
        d.net.inject(packet(1, 0, 7, 4, Picos::ZERO));
        d.run(200);
        assert_eq!(d.ejected.len(), 1);
        let Effect::Ejected { at, created_at, .. } = d.ejected[0] else {
            panic!()
        };
        let latency = at - created_at;
        // 3 routers × ~4-cycle pipeline + 4 link traversals (ser+prop) +
        // 3 extra flits of serialization: comfortably under 40 cycles.
        let cycle = config.cycle();
        assert!(latency >= cycle * 10, "latency {latency} too small");
        assert!(latency <= cycle * 40, "latency {latency} too large");
    }

    #[test]
    fn every_pair_delivers() {
        // Exhaustive pairwise reachability on the small mesh.
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        let n = d.net.node_count();
        let mut id = 0;
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    id += 1;
                    d.net.inject(packet(id, s, t, 2, Picos::ZERO));
                }
            }
        }
        d.run(3000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn west_first_every_pair_delivers() {
        // On the folded Clos west-first routes up/down like every
        // algorithm; the delivery guarantee must hold on both fabrics.
        for topology in [TopologyKind::Mesh, TopologyKind::FoldedClos { spines: 2 }] {
            let mut config = NocConfig::small_for_tests();
            config.topology = topology;
            config.routing = crate::routing::RoutingAlgorithm::WestFirst;
            let mut d = Driver::new(&config);
            let n = d.net.node_count();
            let mut id = 0;
            for s in 0..n {
                for t in 0..n {
                    if s != t {
                        id += 1;
                        d.net.inject(packet(id, s, t, 3, Picos::ZERO));
                    }
                }
            }
            d.run(4000);
            assert_eq!(d.ejected.len() as u64, id);
            assert!(d.net.is_quiescent());
        }
    }

    #[test]
    fn west_first_adversarial_hotspot_drains() {
        // Heavy many-to-one plus cross traffic: a deadlock hazard for
        // non-turn-model adaptive schemes; west-first must drain.
        for topology in [TopologyKind::Mesh, TopologyKind::FoldedClos { spines: 2 }] {
            let mut config = NocConfig::small_for_tests();
            config.topology = topology;
            config.routing = crate::routing::RoutingAlgorithm::WestFirst;
            let mut d = Driver::new(&config);
            let mut id = 0;
            for s in 0..d.net.node_count() {
                for k in 0..6 {
                    let t = (s + 1 + k) % d.net.node_count();
                    if t != s {
                        id += 1;
                        d.net.inject(packet(id, s, t, 6, Picos::ZERO));
                    }
                }
            }
            d.run(8000);
            assert_eq!(d.ejected.len() as u64, id);
            assert!(d.net.is_quiescent());
        }
    }

    #[test]
    fn slow_link_still_delivers() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        // Slow every link to 5 Gb/s with a transition penalty.
        for l in 0..d.net.link_count() {
            d.net.link_mut(LinkId(l as u32)).begin_rate_change(
                Picos::ZERO,
                Gbps::from_gbps(5.0),
                Picos::from_ps(32_000),
            );
        }
        d.net.inject(packet(1, 0, 7, 6, Picos::ZERO));
        d.run(400);
        assert_eq!(d.ejected.len(), 1);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn backpressure_does_not_lose_flits() {
        // Many nodes target one destination; everything must still arrive.
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        let mut id = 0;
        for s in 0..d.net.node_count() {
            if s == 3 {
                continue;
            }
            for k in 0..5 {
                id += 1;
                d.net.inject(packet(id, s, 3, 8, Picos::from_ns(k as u64)));
            }
        }
        d.run(5000);
        assert_eq!(d.ejected.len() as u64, id);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn occupancy_sampling() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 8, Picos::ZERO));
        d.run(50);
        // The injection link of node 0 feeds router 0 port 0.
        let inj = injection_link(&d.net, 0);
        let occ = d.net.take_downstream_occupancy(inj, 50);
        assert!(occ.is_some());
        // Ejection links report None.
        let ej = ejection_link(&d.net, 7);
        assert_eq!(d.net.take_downstream_occupancy(ej, 50), None);
    }

    #[test]
    fn stalled_router_resumes_on_first_ready_tick() {
        let config = NocConfig::small_for_tests();
        let cycle = config.cycle();
        let mut d = Driver::new(&config);
        // Node 0 -> node 1 stays on router 0 and leaves on node 1's
        // ejection link, relocking until just past a cycle boundary.
        let ej = ejection_link(&d.net, 1);
        let relock = cycle * 40 + Picos::from_ps(700);
        d.net.link_mut(ej).disable_until(relock);
        d.net.inject(packet(1, 0, 1, 2, Picos::ZERO));
        let mut asleep = 0;
        let sent_at = loop {
            assert!(d.now < cycle * 100, "the flit never left");
            let now = d.now;
            d.run(1);
            if d.net.link(ej).flits_sent() > 0 {
                break now;
            }
            if let Some(s) = d.stall(0) {
                assert_eq!(s.wake_at, relock - cycle);
                asleep += 1;
            }
        };
        // The first tick whose switch traversal (`now + cycle`) finds the
        // link ready: 40 cycles, since 39 + 1 cycles falls 700 ps short.
        assert_eq!(sent_at, cycle * 40);
        assert!(sent_at < relock && sent_at + cycle >= relock);
        assert!(asleep > 30, "router 0 slept only {asleep} ticks");
        d.run(10);
        assert_eq!(d.ejected.len(), 1);
    }

    #[test]
    fn flit_arrival_ends_a_stall_in_that_cycle() {
        let config = NocConfig::small_for_tests();
        let cycle = config.cycle();
        let mut d = Driver::new(&config);
        let ej = ejection_link(&d.net, 1);
        d.net.link_mut(ej).disable_until(cycle * 200);
        d.net.inject(packet(1, 0, 1, 2, Picos::ZERO));
        d.run(20);
        assert!(
            d.stall(0).is_some(),
            "router 0 should sleep behind the relock"
        );
        // A packet from node 1 to node 0 enters router 0 on another port.
        d.net.inject(packet(2, 1, 0, 1, d.now));
        loop {
            assert!(d.now < cycle * 60, "the second packet never arrived");
            let accepted = d.net.routers[0].flits_accepted;
            d.deliver();
            if d.net.routers[0].flits_accepted > accepted {
                assert!(d.stall(0).is_none(), "the arrival must end the stall");
                d.tick();
                // The router ticked for real: the new head computed its route.
                assert!(matches!(
                    d.net.routers[0].vc_state(PortId(1), VcId(0)),
                    crate::router::VcState::VcAlloc { .. }
                ));
                break;
            }
            d.tick();
        }
    }

    #[test]
    fn credit_return_ends_a_stall_in_that_cycle() {
        let config = NocConfig::small_for_tests();
        let cycle = config.cycle();
        let mut d = Driver::new(&config);
        // Node 0 (router 0) -> node 2 (router 1): router 1 parks the flits
        // behind its relocking ejection link, so router 0 runs out of
        // credits with the rest of the packet buffered.
        let ej = ejection_link(&d.net, 2);
        d.net.link_mut(ej).disable_until(cycle * 60);
        d.net.inject(packet(1, 0, 2, 12, Picos::ZERO));
        let mut credit_bound = false;
        loop {
            assert!(d.now < cycle * 120, "no credit ever woke router 0");
            let stalled = d.stall(0);
            credit_bound |= stalled.is_some_and(|s| s.wake_at == Picos::MAX);
            let credits = |net: &Network| -> u16 {
                let router = &net.routers[0];
                (0..router.port_count())
                    .flat_map(|p| router.credits(PortId(p as u8)))
                    .sum()
            };
            let before = credits(&d.net);
            d.deliver();
            let now_credits = credits(&d.net);
            if stalled.is_some() && now_credits > before {
                assert!(d.stall(0).is_none(), "the credit must end the stall");
                let switched = d.net.routers[0].flits_switched;
                d.tick();
                assert_eq!(d.net.routers[0].flits_switched, switched + 1);
                break;
            }
            d.tick();
        }
        assert!(credit_bound, "router 0 never slept waiting for credits");
        d.run(200);
        assert_eq!(d.ejected.len(), 1);
        assert!(d.net.is_quiescent());
    }

    #[test]
    fn auditor_names_a_missed_activity_bit() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        // A long packet keeps node 0 queued while its head crosses router 0.
        d.net.inject(packet(1, 0, 7, 16, Picos::ZERO));
        d.run(6);
        assert!(d.net.sources[0].backlog_flits() > 0 && !d.net.routers[0].is_idle());
        crate::audit::audit(&d.net).assert_ok();

        let mut lost_source = d.net.clone();
        lost_source.active_sources.clear(0);
        let report = crate::audit::audit(&lost_source);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(
            report.violations[0].starts_with("source n0: activity bit false"),
            "{report}"
        );

        let mut lost_router = d.net.clone();
        lost_router.active_routers.clear(0);
        let report = crate::audit::audit(&lost_router);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(
            report.violations[0].starts_with("router r0: activity bit false"),
            "{report}"
        );

        // A stale bit on an idle component is named too.
        let idle = (0..d.net.router_count())
            .find(|&r| d.net.routers[r].is_idle())
            .expect("an idle router");
        let mut stale = d.net.clone();
        stale.active_routers.set(idle);
        let report = crate::audit::audit(&stale);
        let named = format!("router r{idle}: activity bit true");
        assert!(report.violations[0].starts_with(&named), "{report}");
    }

    #[test]
    fn auditor_names_a_miscounted_port() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 16, Picos::ZERO));
        d.run(6);
        crate::audit::audit(&d.net).assert_ok();
        // Router 0's local input 0 holds flits of the long packet; one
        // flit too many in its port count, and the rings disagree.
        assert!(d.net.routers[0].port_occupancy(PortId(0)) > 0);
        let mut miscounted = d.net.clone();
        *miscounted.routers[0].occupancy_mut(PortId(0)) += 1;
        let report = crate::audit::audit(&miscounted);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(
            report.violations[0].starts_with("r0 p0: occupancy"),
            "{report}"
        );
    }

    #[test]
    fn auditor_names_a_stale_stage_mask() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 16, Picos::ZERO));
        d.run(6);
        crate::audit::audit(&d.net).assert_ok();
        // One switch-requester bit flipped: router 0's mask no longer
        // matches the recount from its VC states and rings.
        let mut stale = d.net.clone();
        *stale.routers[0].sa_ready_mut() ^= 1;
        let report = crate::audit::audit(&stale);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(report.violations[0].starts_with("r0: sa_ready"), "{report}");
    }

    #[test]
    fn auditor_names_a_stale_port_mask() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 16, Picos::ZERO));
        d.run(6);
        crate::audit::audit(&d.net).assert_ok();
        // One bit flipped in output p2's switch requesters, its VC
        // requesters, and the masks of the ports that have either: each
        // no longer matches the recount, and only that mask is named.
        let wants = [
            "r0 p2: sa_req",
            "r0 p2: va_req",
            "r0: sa_ports",
            "r0: va_ports",
        ];
        for (i, want) in wants.into_iter().enumerate() {
            let mut stale = d.net.clone();
            *stale.routers[0].port_masks_mut(PortId(2))[i] ^= 1 << 2;
            let report = crate::audit::audit(&stale);
            assert_eq!(report.violations.len(), 1, "{report}");
            assert!(report.violations[0].starts_with(want), "{report}");
        }
    }

    #[test]
    fn utilization_counters_track_traffic() {
        let config = NocConfig::small_for_tests();
        let mut d = Driver::new(&config);
        d.net.inject(packet(1, 0, 7, 4, Picos::ZERO));
        d.run(200);
        let inj = injection_link(&d.net, 0);
        assert_eq!(d.net.link(inj).flits_sent(), 4);
        let busy = d.net.link_mut(inj).take_window_busy();
        assert_eq!(busy, config.flit_time(config.max_rate) * 4);
    }
}

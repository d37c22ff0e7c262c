//! The sharded conservative-parallel simulation backend.
//!
//! `run_sharded_with` partitions the fabric into `S` contiguous router
//! bands — the cuts come from the topology
//! ([`Topology::shard_cuts`]; row bands on meshes and tori, leaf bands
//! on the folded Clos) — gives each band its own [`PowerAwareSim`]
//! replica and event calendar on a dedicated worker thread, and
//! coordinates the workers with *clock-gated windows*: each shard
//! publishes an atomic cycle clock and eagerly flushes its cross-cut
//! mailboxes at every window boundary, and a shard advances its next
//! window exactly as far as conservative lookahead proves safe against
//! the slowest peer clock (up to `L` router cycles ahead, where `L`
//! comes from the cut's flit traversal latency). Full-rendezvous
//! barriers survive only at the *mandatory global stops* — §3.3 DVS
//! closes, sample boundaries, the warmup tick, and the run end — where
//! cross-shard occupancy, energy, and delivery snapshots are exchanged.
//!
//! ## Flit lookahead: the static bound
//!
//! Cross-shard effects — flits traversing a boundary link, credits
//! returning across it — are only ever *emitted* by the router-core tick
//! (`run_until(T_k)` processes the half-open window `(T_{k-1}, T_k]`,
//! and ticks fire at cycle boundaries). A flit granted switch traversal
//! at tick `t` starts on the wire at `t + cycle` and arrives at
//! `t + cycle + serialization + propagation`, so the *earliest* effect a
//! window `(T_k, T_k + L·cycle]` can send across a cut lands at
//! `T_k + cycle + (cycle + ser_min + prop_min)` — emitted by the
//! window's first tick. A shard that has drained everything a peer
//! generated through its published clock may therefore run its next
//! window to `clock_peer + L` cycles without missing a flit, for any
//! `L·cycle < 2·cycle + ser_min + prop_min`, where `ser_min`
//! is the flit time at the fabric's maximum bit rate (DVS and faults
//! only ever slow links down) and `prop_min` is
//! [`Topology::min_cut_latency`] — the cheapest boundary crossing.
//! Under the paper's clocks (1.6 ns cycle, 1.6 ns serialization at
//! 10 Gb/s, 3.2 ns propagation) that lets a shard run 4 cycles past the
//! slowest peer. Flit-arrival handlers, the only other
//! event source that crosses ownership lines, emit purely local effects
//! (sink credits on the same shard's ejection links).
//!
//! ## Credit slack: the dynamic bound
//!
//! Credits cross the cut *against* flit flow with only
//! `credit_delay` (one cycle) of static lookahead, so stretched windows
//! run with some upstream credit counters stale. That is safe exactly
//! when staleness cannot change a decision. Deterministic routing (XY,
//! YX, Clos up/down) reads credits only as switch-allocation
//! *eligibility* (`credits > 0`): a boundary link whose VC holds `c`
//! credits at the barrier loses at most one per cycle (one SA grant per
//! output port per tick) and regains them at exactly the times already
//! scheduled in this shard's inbox, so through tick `j` of the window
//! the counter stays `>= c + arrivals(j) - (j - 1)`. While that bound
//! stays positive the shard's eligibility answers match the sequential
//! engine's (whose counter is never smaller), decisions coincide, and
//! the counters reconverge when the boundary drain applies the missed
//! credits. Each shard evaluates that bound locally at every window
//! boundary ([`Network::output_credits`] plus the pending-credit
//! ledger) and combines it with a *knowledge horizon*: peers flush
//! their cross-cut mailboxes before publishing their clocks, so every
//! credit whose arrival falls at or before the slowest peer clock is
//! already in this shard's hands, and a window may always extend at
//! least to that horizon with exact counters. Beyond the horizon the
//! slack bound takes over — it is monotone in the credit set, so it
//! stays valid against any credits a peer has yet to generate. Windows
//! are further clamped to the mandatory stops (§3.3 DVS closes via
//! [`TimingConfig::next_window_close`], sample boundaries, the warmup
//! tick, and the run end). Adaptive (west-first) routing reads raw
//! credit *values*, so its windows stretch past the horizon only while
//! every boundary VC is fully accounted for (counter + in-flight
//! credits = depth — an idle link); anything less pins the window to
//! the horizon itself, which advances one peer window at a time — the
//! pre-lookahead cadence, minus the rendezvous.
//!
//! Credits that are already stale when a boundary drain hands them over
//! (their timestamp is at or before the last executed tick) are applied
//! directly to the credit counter — the increment is commutative, the
//! slack bound just proved no decision depended on it earlier, and the
//! sequential engine has it applied before our next tick either way. A
//! *flit* can never be stale: the static bound above keeps every
//! cross-cut flit arrival strictly inside a later window, and the
//! runtime panics if one ever shows up late.
//!
//! ## Why the result is bit-identical to the sequential engine
//!
//! Within one timestamp, the sequential calendar processes events in
//! insertion order; the only orderings that affect state are (a) every
//! flit/credit arrival precedes the same-time `CoreTick`, and (b) policy
//! windows run inside the tick handler. The sharded runtime preserves
//! (a) because the engine inbox wins timestamp ties and mid-window ticks
//! self-schedule like the sequential engine (the runtime only schedules
//! the *first* tick of each window, after the mailbox drain), and (b) by
//! deferring DVS windows to the barrier (every §3.3 close is a mandatory
//! window stop, whatever `Tw` is) where cross-shard buffer occupancy is
//! injected — still at the closing tick's timestamp, still before the
//! next tick. All remaining same-time permutations commute: they touch
//! disjoint per-link state. Floating-point accumulation order is
//! preserved by replaying deliveries and summing per-link energies at
//! the coordinator in the sequential engine's global order, keyed by the
//! `(launch cycle, shard, launch position)` delivery tags; energy
//! snapshots are read *before* the deferred policy replay, which is
//! equivalent bit for bit because a power change at exactly `t` leaves
//! the energy integral through `t` untouched.
//!
//! Ordinary window boundaries exchange nothing but mailboxes and the
//! atomic clocks: a shard flushes its outboxes *before* publishing
//! `end + 1` with release ordering, so a peer that loads the clock with
//! acquire ordering and then drains its mailbox holds every cross-cut
//! event the clock vouches for. One barrier per *stop* suffices for the
//! rest: occupancy, energy, and delivery slots are written in the phase
//! before the stop barrier and read in the phase after it, and the
//! slots a reader may still be holding when a fast writer reaches the
//! next same-parity stop are double-buffered by the parity of their
//! exchange counter (two same-parity uses are always separated by at
//! least one further barrier).

use crate::config::SystemConfig;
use crate::sim::{PowerAwareSim, SimEvent};
use crate::telemetry::TelemetryConfig;
use lumen_desim::Picos;
use lumen_noc::ids::{LinkId, VcId};
use lumen_noc::{Channel, Network, NocConfig, Packet, RouteTable, Topology};
use lumen_policy::{PolicyMode, TimingConfig};
use lumen_stats::{Histogram, Summary, TimeSeries};
use lumen_traffic::TrafficSource;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Delivery keys pack `(launch_cycle << 24) | (shard << 20) | position`;
/// sorting `(arrival time, key)` reproduces the sequential calendar's
/// delivery order. 20 bits of position bound ejection launches per shard
/// per cycle (≤ #ejection links), 4 bits of shard bound the shard count.
pub(crate) const KEY_CYCLE_SHIFT: u64 = 24;
/// Shard-id field offset within a delivery key (see [`KEY_CYCLE_SHIFT`]).
pub(crate) const KEY_SHARD_SHIFT: u64 = 20;
/// Hard shard-count ceiling: the delivery key's shard field is 4 bits,
/// so even fabrics whose topology offers finer cuts (a 32-row mesh, say)
/// clamp here.
pub(crate) const MAX_SHARDS: usize = 16;

// ---------------------------------------------------------------------
// Process-wide default shard count
// ---------------------------------------------------------------------

static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default shard count used by
/// [`Experiment`](crate::runner::Experiment) when none is given
/// explicitly. The shared bench CLI calls this from `--shards N`.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide default shard count: the last
/// [`set_default_shards`] value, else 1 (sequential).
pub(crate) fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed).max(1)
}

/// The shard count actually usable for a fabric: the topology's cut
/// granularity (one mesh row, one Clos leaf row, per shard),
/// further clamped to the delivery-key ceiling of `MAX_SHARDS` (16).
pub fn effective_shards(noc: &NocConfig, requested: usize) -> usize {
    requested.clamp(1, noc.topo().max_shards().min(MAX_SHARDS))
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

/// One shard's contiguous slice of the system: a band of routers (from
/// the topology's cuts) and everything attached to it. Link ranges are
/// contiguous because the network builds inter-router links grouped by
/// source router in ascending order and node links in node order.
#[derive(Debug, Clone)]
pub(crate) struct ShardSpec {
    pub id: usize,
    pub routers: Range<usize>,
    pub nodes: Range<usize>,
    pub ir_links: Range<usize>,
    pub node_links: Range<usize>,
    /// Total inter-router links in the whole mesh (node links start here).
    pub ir_total: usize,
}

impl ShardSpec {
    /// Whether this shard owns link `l` (its from-endpoint is in-band).
    pub(crate) fn owns_link(&self, l: usize) -> bool {
        self.ir_links.contains(&l) || self.node_links.contains(&l)
    }
}

/// Splits the fabric into `requested` (clamped) contiguous router bands
/// using the topology's cuts.
pub(crate) fn partition(noc: &NocConfig, requested: usize) -> Vec<ShardSpec> {
    let npr = noc.nodes_per_rack as usize;
    let s_count = effective_shards(noc, requested);
    let topo = noc.topo();
    let racks = noc.rack_count();
    let routers_total = topo.router_count();
    // Inter-router links are laid out grouped by source router in
    // ascending order (the `Topology::channels` contract); a prefix sum
    // over router out-degrees maps router ranges to link ranges exactly
    // as `Network::with_route_table` assigned them.
    let mut channels: Vec<Channel> = Vec::new();
    topo.channels(&mut channels);
    let mut prefix = vec![0usize; routers_total + 1];
    for ch in &channels {
        prefix[ch.from.index() + 1] += 1;
    }
    for r in 0..routers_total {
        prefix[r + 1] += prefix[r];
    }
    let ir_total = prefix[routers_total];
    debug_assert_eq!(ir_total, channels.len());
    topo.shard_cuts(s_count)
        .into_iter()
        .enumerate()
        .map(|(s, routers)| {
            // Node-less routers (Clos spines) sit past the rack prefix,
            // so clamping to it yields each band's node range.
            let nodes = routers.start.min(racks) * npr..routers.end.min(racks) * npr;
            let node_links = ir_total + 2 * nodes.start..ir_total + 2 * nodes.end;
            ShardSpec {
                id: s,
                ir_links: prefix[routers.start]..prefix[routers.end],
                routers,
                nodes,
                node_links,
                ir_total,
            }
        })
        .collect()
}

/// Per-link shard maps: `owner[l]` is the shard holding `l`'s
/// from-endpoint (launches, credits, policy); `to_owner[l]` the shard
/// holding its to-endpoint (flit arrivals, downstream occupancy). They
/// differ exactly on boundary inter-router links.
fn ownership(noc: &NocConfig, specs: &[ShardSpec]) -> (Vec<u8>, Vec<u8>) {
    let topo = noc.topo();
    let mut router_shard = vec![0u8; topo.router_count()];
    for spec in specs {
        for r in spec.routers.clone() {
            router_shard[r] = spec.id as u8;
        }
    }
    let mut owner = Vec::new();
    let mut to_owner = Vec::new();
    let mut channels: Vec<Channel> = Vec::new();
    topo.channels(&mut channels);
    for ch in &channels {
        owner.push(router_shard[ch.from.index()]);
        to_owner.push(router_shard[ch.to.index()]);
    }
    for n in 0..noc.node_count() {
        let s = router_shard[noc.router_of_node(lumen_noc::ids::NodeId(n as u32)).index()];
        // Injection, then ejection: both endpoints live on the node's shard.
        owner.push(s);
        to_owner.push(s);
        owner.push(s);
        to_owner.push(s);
    }
    (owner, to_owner)
}

// ---------------------------------------------------------------------
// Per-shard runtime context (lives inside PowerAwareSim)
// ---------------------------------------------------------------------

/// An event bound for another shard, with its due time.
type TimedEvent = (Picos, SimEvent);

/// One ejection: `(arrival, delivery key, packet created_at)`.
type Delivery = (Picos, u64, Picos);

/// The shard-local state a replica's event handlers need: ownership
/// maps, per-destination outboxes, delivery tagging, and the deferred
/// DVS-window flag. Boxed into [`PowerAwareSim`] so the sequential
/// engine pays one pointer of overhead.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    pub spec: ShardSpec,
    pub owner: Arc<Vec<u8>>,
    pub to_owner: Arc<Vec<u8>>,
    /// Events bound for other shards, flushed to mailboxes each window.
    pub outbox: Vec<Vec<TimedEvent>>,
    /// Arrival counts on links this shard does not own (the owner's
    /// `flits_arrived` counter is reconciled at merge time).
    pub foreign_arrivals: Vec<u64>,
    /// In-flight delivery keys per ejection link (FIFO, matching the
    /// link's in-order delivery).
    pub ej_keys: Vec<VecDeque<u64>>,
    /// Ejections since the last drain: `(arrival, key, created_at)`.
    pub deliveries: Vec<Delivery>,
    /// Ejection launches so far this tick (the key position field).
    pub launch_pos: u64,
    /// A DVS window closed this tick and awaits the barrier exchange.
    pub policy_pending: bool,
    /// Last tick index of the current barrier window: ticks up to here
    /// self-schedule; the runtime schedules the first tick of the next
    /// window after the barrier.
    pub window_stop: u64,
}

impl ShardCtx {
    fn new(spec: ShardSpec, owner: Arc<Vec<u8>>, to_owner: Arc<Vec<u8>>, shards: usize) -> Self {
        let links = owner.len();
        ShardCtx {
            spec,
            owner,
            to_owner,
            outbox: vec![Vec::new(); shards],
            foreign_arrivals: vec![0; links],
            ej_keys: vec![VecDeque::new(); links],
            deliveries: Vec::new(),
            launch_pos: 0,
            policy_pending: false,
            window_stop: 0,
        }
    }

    /// Whether this shard owns link `l`.
    pub(crate) fn owns_link(&self, l: usize) -> bool {
        self.spec.owns_link(l)
    }

    /// Whether `l` is an ejection link this shard owns. Node links
    /// alternate injection (even offset) / ejection (odd offset).
    pub(crate) fn owns_ej_link(&self, l: usize) -> bool {
        self.spec.node_links.contains(&l) && (l - self.spec.ir_total) % 2 == 1
    }
}

// ---------------------------------------------------------------------
// Traffic pre-generation
// ---------------------------------------------------------------------

/// Replays a pre-generated per-shard packet feed. The coordinator runs
/// the real [`TrafficSource`] once up front (same calls, same RNG draws
/// as the sequential engine) and splits the packets by source node, so
/// every shard injects exactly the packets the sequential run would.
struct ShardFeedSource {
    feed: Vec<(u64, Packet)>,
    cursor: usize,
    generated: u64,
}

impl TrafficSource for ShardFeedSource {
    fn packets_for_cycle(&mut self, cycle: u64, _now: Picos, out: &mut Vec<Packet>) {
        while self.cursor < self.feed.len() && self.feed[self.cursor].0 == cycle {
            out.push(self.feed[self.cursor].1);
            self.cursor += 1;
            self.generated += 1;
        }
    }

    fn generated(&self) -> u64 {
        self.generated
    }
}

/// Runs `source` over every tick of the run, splitting packets into
/// per-shard feeds and recording per-cycle totals for the coordinator's
/// injection-rate series.
fn pregenerate(
    source: &mut dyn TrafficSource,
    noc: &NocConfig,
    specs: &[ShardSpec],
    total_cycles: u64,
    cycle: Picos,
) -> (Vec<Vec<(u64, Packet)>>, Vec<u32>) {
    let mut node_shard = vec![0u8; noc.node_count()];
    for spec in specs {
        for n in spec.nodes.clone() {
            node_shard[n] = spec.id as u8;
        }
    }
    let mut feeds: Vec<Vec<(u64, Packet)>> = vec![Vec::new(); specs.len()];
    let mut per_cycle = vec![0u32; total_cycles as usize + 1];
    let mut buf = Vec::new();
    for t in 0..=total_cycles {
        source.packets_for_cycle(t, cycle * t, &mut buf);
        per_cycle[t as usize] = buf.len() as u32;
        for pkt in buf.drain(..) {
            feeds[usize::from(node_shard[pkt.src.index()])].push((t, pkt));
        }
    }
    (feeds, per_cycle)
}

// ---------------------------------------------------------------------
// Window scheduling: static flit lookahead + dynamic credit slack
// ---------------------------------------------------------------------

/// The conservative flit lookahead for a sharded run, in router cycles:
/// the largest `L` with `L·cycle < 2·cycle + ser_min + prop_min` (see
/// the module docs for the derivation). At least 1 — one-cycle windows
/// need no lookahead at all.
pub(crate) fn static_lookahead(noc: &NocConfig, shards: usize) -> u64 {
    let cycle = noc.cycle();
    let prop_min = noc
        .topo()
        .min_cut_latency(shards, noc.propagation)
        .unwrap_or(noc.propagation);
    let ser_min = noc.flit_time(noc.max_rate);
    let bound = cycle * 2 + ser_min + prop_min;
    ((bound.as_ps() - 1) / cycle.as_ps()).max(1)
}

/// The deterministic window clamp. Workers pace their windows
/// independently off the peer clocks, but whatever length a gate
/// admits, [`WindowPlan::end`] clamps it to the next mandatory stop —
/// so every worker's window sequence lands exactly on every stop cycle
/// and the barrier sequence is agreed without any extra coordination,
/// even though the framings between stops differ per shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowPlan {
    /// Static flit lookahead (cycles), possibly capped by the caller.
    pub lookahead: u64,
    /// `Some` when deferred DVS windows force a stop at every §3.3
    /// close, whatever `Tw`'s relation to the window length.
    pub timing: Option<TimingConfig>,
    /// Time-series sampling period (a publish stop at every multiple).
    pub sample_every: Option<u64>,
    /// The warmup boundary tick (measurement reset is a stop).
    pub warmup: u64,
    /// The final tick of the run.
    pub total: u64,
}

impl WindowPlan {
    /// Smallest `k >= start` with `(k + 1) % every == 0`.
    fn next_multiple_close(start: u64, every: u64) -> u64 {
        (start + 1).div_ceil(every) * every - 1
    }

    /// The last tick of the window starting at tick `start`, given the
    /// number of cycles the caller's gate has proved safe (saturated to
    /// at least one; the clock gate never admits less).
    pub(crate) fn end(&self, start: u64, slack: u64) -> u64 {
        let mut k = start + self.lookahead.min(slack.max(1)) - 1;
        if let Some(t) = &self.timing {
            k = k.min(t.next_window_close(start));
        }
        if let Some(e) = self.sample_every {
            k = k.min(Self::next_multiple_close(start, e));
        }
        if start <= self.warmup {
            k = k.min(self.warmup);
        }
        k.min(self.total)
    }
}

/// Per-worker ledger of cross-cut credits this shard has been handed but
/// whose scheduled arrival is still in the future. Together with the
/// live counters ([`Network::output_credits`]) it yields the credit
/// slack of the module docs: how many cycles the next window may run
/// before a cross-cut credit this shard has *not* seen could change a
/// local allocation decision.
struct CreditLedger {
    /// This shard's boundary out-links (owned, to-endpoint elsewhere).
    links: Vec<u32>,
    /// Link id → dense index into `pending` (u32::MAX = not boundary).
    dense: Vec<u32>,
    /// Future credit arrival times, per `dense index × vcs + vc`.
    pending: Vec<Vec<Picos>>,
    vcs: usize,
    depth: u16,
    adaptive: bool,
    cycle: Picos,
    lookahead: u64,
}

impl CreditLedger {
    fn new(links: Vec<u32>, link_count: usize, noc: &NocConfig, lookahead: u64) -> Self {
        let mut dense = vec![u32::MAX; link_count];
        for (i, &l) in links.iter().enumerate() {
            dense[l as usize] = i as u32;
        }
        let pending = vec![Vec::new(); links.len() * noc.vcs as usize];
        CreditLedger {
            links,
            dense,
            pending,
            vcs: noc.vcs as usize,
            depth: noc.depth_per_vc(),
            adaptive: noc.routing.is_adaptive(),
            cycle: noc.cycle(),
            lookahead,
        }
    }

    /// Records a mailbox credit headed for one of our boundary links
    /// (no-op otherwise) so [`CreditLedger::slack`] can count its
    /// scheduled arrival.
    fn note_credit(&mut self, link: LinkId, vc: VcId, at: Picos) {
        let d = self.dense[link.index()];
        if d != u32::MAX {
            self.pending[d as usize * self.vcs + usize::from(vc.0)].push(at);
        }
    }

    /// The credit slack at time `t_k` (= the last tick this shard has
    /// executed): the largest `L <= lookahead` such that no boundary
    /// VC's switch-allocation behavior can diverge from the sequential
    /// engine within the next `L` ticks, whatever credits the peers
    /// have yet to send. Prunes ledger entries the engine has already
    /// applied. A result of 0 defers entirely to the knowledge horizon
    /// (exact counters through the slowest peer clock).
    fn slack(&mut self, net: &Network, t_k: Picos) -> u64 {
        let mut slack = u64::MAX;
        for (i, &l) in self.links.iter().enumerate() {
            let credits = net.output_credits(LinkId(l));
            for (v, &c) in credits.iter().enumerate() {
                let pend = &mut self.pending[i * self.vcs + v];
                pend.retain(|&at| at > t_k);
                if self.adaptive {
                    // Adaptive routing scores raw counter values, so a
                    // stretched window needs them exact: every slot must
                    // be a held credit or an in-flight credit with a
                    // known arrival time. A flit still in flight or
                    // buffered downstream will generate a credit this
                    // shard cannot see in time — report no slack and let
                    // the knowledge horizon (counters are exact through
                    // the slowest peer clock) pace the window instead.
                    if usize::from(c) + pend.len() != usize::from(self.depth) {
                        return 0;
                    }
                } else {
                    // Eligibility bound (module docs): through tick j
                    // the counter stays >= c + arrivals(<= t_k + j·cycle)
                    // - (j - 1); the window may cover every j for which
                    // that is still positive.
                    let mut ok = 0;
                    for j in 1..=self.lookahead {
                        let arr = pend
                            .iter()
                            .filter(|&&at| at <= t_k + self.cycle * j)
                            .count() as u64;
                        if u64::from(c) + arr < j {
                            break;
                        }
                        ok = j;
                    }
                    slack = slack.min(ok);
                    if slack == 0 {
                        return 0;
                    }
                }
            }
        }
        slack
    }
}

// ---------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------

/// A sense-reversing hybrid barrier. Windows are microseconds of work,
/// so on a machine with a core per shard, parking-lot syscalls (std's
/// `Barrier`) would dominate the runtime — threads spin briefly to keep
/// the exchange in the hot cache. But when the host is oversubscribed
/// (fewer cores than shards), a spinning waiter burns the very
/// timeslice the straggler needs, so after a short spin the waiter
/// parks on a condvar. On single-core hosts the spin budget is zero:
/// spinning there can never succeed.
struct SpinBarrier {
    n: usize,
    spin_limit: u32,
    count: AtomicUsize,
    generation: AtomicU64,
    lock: Mutex<()>,
    parked: Condvar,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        SpinBarrier {
            n,
            spin_limit: if cores > n { 40_000 } else { 0 },
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Reset the count before releasing the cohort so early
            // re-entrants of the next barrier see a clean slate. The
            // generation bump happens under the lock so a waiter that
            // just decided to park cannot miss the wakeup.
            self.count.store(0, Ordering::Release);
            let guard = self.lock.lock().unwrap();
            self.generation.fetch_add(1, Ordering::AcqRel);
            drop(guard);
            self.parked.notify_all();
        } else {
            for _ in 0..self.spin_limit {
                if self.generation.load(Ordering::Acquire) != gen {
                    return;
                }
                std::hint::spin_loop();
            }
            let mut guard = self.lock.lock().unwrap();
            while self.generation.load(Ordering::Acquire) == gen {
                guard = self.parked.wait(guard).unwrap();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator (worker 0's merged-measurement replica)
// ---------------------------------------------------------------------

/// The sequential engine's measurement state, re-enacted by worker 0
/// from ordered delivery replays and per-shard energy snapshots. All
/// floating-point accumulation happens here in the sequential engine's
/// order, which is what makes the merged statistics bit-identical.
struct Coordinator {
    cycle: Picos,
    cycle_ps: f64,
    baseline_mw: f64,
    sample_every: Option<u64>,
    per_cycle: Vec<u32>,
    /// Next per-cycle injection count not yet folded into the bucket.
    inj_ptr: usize,
    measure_from: Picos,
    latency: Summary,
    latency_hist: Histogram,
    bucket_latency: Summary,
    bucket_injected: u64,
    last_sample_time: Picos,
    last_sample_energy_nj: f64,
    latency_series: TimeSeries,
    power_series: TimeSeries,
    injection_series: TimeSeries,
}

impl Coordinator {
    fn new(cycle: Picos, baseline_mw: f64, sample_every: Option<u64>, per_cycle: Vec<u32>) -> Self {
        Coordinator {
            cycle,
            cycle_ps: cycle.as_ps() as f64,
            baseline_mw,
            sample_every,
            per_cycle,
            inj_ptr: 0,
            measure_from: Picos::ZERO,
            latency: Summary::new(),
            latency_hist: Histogram::new(10.0, 2_000),
            bucket_latency: Summary::new(),
            bucket_injected: 0,
            last_sample_time: Picos::ZERO,
            last_sample_energy_nj: 0.0,
            latency_series: TimeSeries::new("latency_cycles"),
            power_series: TimeSeries::new("normalized_power"),
            injection_series: TimeSeries::new("injection_rate"),
        }
    }

    /// Folds per-cycle injection counts through tick `k` (inclusive)
    /// into the bucket, honoring the measurement gate exactly as the
    /// sequential tick handler does.
    fn advance_injections(&mut self, k: u64) {
        while self.inj_ptr <= k as usize {
            if self.cycle * self.inj_ptr as u64 >= self.measure_from {
                self.bucket_injected += u64::from(self.per_cycle[self.inj_ptr]);
            }
            self.inj_ptr += 1;
        }
    }

    /// Replays a batch of deliveries in the sequential engine's order.
    fn replay(&mut self, batch: &mut Vec<Delivery>) {
        batch.sort_unstable_by_key(|&(at, key, _)| (at, key));
        for &(at, _, created_at) in batch.iter() {
            if created_at < self.measure_from {
                continue;
            }
            let cycles = (at - created_at).as_ps() as f64 / self.cycle_ps;
            self.latency.record(cycles);
            self.latency_hist.record(cycles);
            self.bucket_latency.record(cycles);
        }
        batch.clear();
    }

    /// The sequential `take_sample`, fed by per-shard energy snapshots
    /// summed in global link order (all inter-router slices first, then
    /// all node slices — exactly link-index order).
    fn take_sample(&mut self, now: Picos, k: u64, energy_nj: f64) {
        let every = self.sample_every.expect("sampling disabled");
        let dt_ps = (now - self.last_sample_time).as_ps() as f64;
        if dt_ps > 0.0 {
            let power_mw = (energy_nj - self.last_sample_energy_nj) / dt_ps * 1e6;
            self.power_series.record(now, power_mw / self.baseline_mw);
            self.last_sample_energy_nj = energy_nj;
            self.last_sample_time = now;
        }
        if !self.bucket_latency.is_empty() {
            self.latency_series.record(now, self.bucket_latency.mean());
        }
        self.advance_injections(k);
        self.injection_series
            .record(now, self.bucket_injected as f64 / every as f64);
        self.bucket_latency = Summary::new();
        self.bucket_injected = 0;
    }

    /// The sequential `begin_measurement`, coordinator half.
    fn begin_measurement(&mut self, now: Picos, k: u64) {
        // Injections through the warmup tick were counted under the old
        // gate and are wiped with the bucket, like the sequential engine.
        self.advance_injections(k);
        self.measure_from = now;
        self.latency = Summary::new();
        self.latency_hist = Histogram::new(10.0, 2_000);
        self.bucket_latency = Summary::new();
        self.bucket_injected = 0;
        self.last_sample_time = now;
        self.last_sample_energy_nj = 0.0;
    }

    /// Installs the coordinator's measurement state into the merged sim.
    fn install(mut self, sim: &mut PowerAwareSim, total: u64) {
        self.advance_injections(total);
        sim.measure_from = self.measure_from;
        sim.latency = self.latency;
        sim.latency_hist = self.latency_hist;
        sim.bucket_latency = self.bucket_latency;
        sim.bucket_injected = self.bucket_injected;
        sim.last_sample_time = self.last_sample_time;
        sim.last_sample_energy_nj = self.last_sample_energy_nj;
        sim.latency_series = self.latency_series;
        sim.power_series = self.power_series;
        sim.injection_series = self.injection_series;
    }
}

// ---------------------------------------------------------------------
// The parallel run
// ---------------------------------------------------------------------

/// The outcome of a [`run_sharded_with`] call. Only the protocol tests
/// read the window, barrier and lookahead counts.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct ShardedOutcome {
    /// The merged system, equivalent to the sequential engine's final
    /// model: every accessor (`latency_summary`, `energy_nj`, series,
    /// counters, audit) reads identically.
    pub sim: PowerAwareSim,
    /// The simulation end time (`cycle × (warmup + measure)`).
    pub end: Picos,
    /// Events processed, summed over shard engines. Each flit, credit,
    /// policy, and fault event is processed exactly once; core ticks and
    /// laser decisions are replicated per shard.
    pub events: u64,
    /// Windows executed by the busiest worker (0 for the sequential
    /// path). With full lookahead this is ~`(total ticks) / lookahead`;
    /// window framing between stops is paced by the live peer clocks,
    /// so this count is scheduling-dependent telemetry — the simulation
    /// results never are.
    pub windows: u64,
    /// Barrier waits executed per worker (0 for the sequential path).
    /// Exactly one per *mandatory stop* — §3.3 DVS closes, sample
    /// boundaries, the warmup tick, and the run end — and deterministic
    /// for a given schedule.
    pub barriers: u64,
    /// The static flit lookahead the run was scheduled with, in cycles
    /// (after any caller cap; 0 for the sequential path).
    pub lookahead: u64,
}

/// Runs the system on `shards` worker threads (clamped to the
/// topology's cut granularity and `MAX_SHARDS` (16); 1 runs the sequential
/// engine verbatim), producing results
/// bit-identical to [`PowerAwareSim::build_engine`] driven sequentially
/// over the same warmup/measure schedule.
///
/// `lookahead_cap` caps the conservative lookahead (barrier window
/// length, in router cycles). `Some(1)` reproduces the pre-lookahead
/// one-cycle-window protocol exactly; `None` uses the full static bound.
/// Results are bit-identical at every cap — a pure performance knob.
///
/// The route table is built **once** on the caller's thread and the same
/// immutable `Arc` handed to every shard replica, so replicas never redo
/// the all-pairs enumeration.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded_with(
    config: SystemConfig,
    source: Box<dyn TrafficSource + Send>,
    sample_every: Option<u64>,
    telemetry: TelemetryConfig,
    warmup_cycles: u64,
    measure_cycles: u64,
    shards: usize,
    lookahead_cap: Option<u64>,
) -> ShardedOutcome {
    // Validate on the caller's thread so a bad configuration panics
    // here (where Executor's catch_unwind sees the real message), not
    // inside every worker at once.
    config.validate();
    let cycle = config.noc.cycle();
    let total = warmup_cycles + measure_cycles;
    let end = cycle * total;
    let specs = partition(&config.noc, shards);
    if specs.len() <= 1 {
        // Sequential reference path, identical to Experiment::run.
        let mut engine =
            PowerAwareSim::build_engine_telemetry(config, source, sample_every, telemetry);
        engine.run_until(cycle * warmup_cycles);
        let now = engine.now();
        engine.model_mut().begin_measurement(now);
        engine.run_until(end);
        return ShardedOutcome {
            events: engine.processed(),
            end,
            sim: engine.into_model(),
            windows: 0,
            barriers: 0,
            lookahead: 0,
        };
    }

    let s_count = specs.len();
    // One table for the whole run: built here, shared by `Arc` into
    // every replica below.
    let route_table = Arc::new(RouteTable::build(&config.noc, config.noc.routing));
    let (owner, to_owner) = ownership(&config.noc, &specs);
    let link_count = owner.len();
    let owner = Arc::new(owner);
    let to_owner = Arc::new(to_owner);

    let mut source = source;
    let (feeds, per_cycle) = pregenerate(source.as_mut(), &config.noc, &specs, total, cycle);

    let has_dvs = config.power_aware && matches!(config.policy.mode, PolicyMode::DvsLadder);
    let tw = config.policy.timing.tw_cycles;
    let baseline_mw = config.link_model().max_power().as_mw() * link_count as f64;

    // Boundary-occupancy exchange lists: publisher (to-endpoint owner) →
    // consumer (from-endpoint owner), in link order. `boundary_out[s]`
    // is the transpose view a shard's credit ledger needs: the links it
    // owns whose to-endpoint (and hence credit source) lives elsewhere.
    let mut occ_links: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); s_count]; s_count];
    let mut boundary_out: Vec<Vec<u32>> = vec![Vec::new(); s_count];
    for l in 0..link_count {
        let (a, b) = (usize::from(owner[l]), usize::from(to_owner[l]));
        if a != b {
            occ_links[b][a].push(l);
            boundary_out[a].push(l as u32);
        }
    }

    let lookahead =
        static_lookahead(&config.noc, s_count).min(lookahead_cap.unwrap_or(u64::MAX).max(1));
    let plan = WindowPlan {
        lookahead,
        timing: has_dvs.then_some(config.policy.timing),
        sample_every,
        warmup: warmup_cycles,
        total,
    };
    // Shared exchange slots. Mailboxes are flushed before each clock
    // publish and drained under their (uncontended) mutex at the
    // receiver's gate; the occupancy/energy/delivery slots are written
    // in the phase before a stop barrier and read in the phase after
    // it, double-buffered by exchange parity for readers that lag a
    // full stop behind (see the module docs).
    let mailboxes: Vec<Vec<Mutex<Vec<TimedEvent>>>> = (0..s_count)
        .map(|_| (0..s_count).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let occ_vals: Vec<Vec<[Mutex<Vec<u64>>; 2]>> = (0..s_count)
        .map(|_| {
            (0..s_count)
                .map(|_| std::array::from_fn(|_| Mutex::new(Vec::new())))
                .collect()
        })
        .collect();
    let energy_slots: Vec<[Mutex<Vec<f64>>; 2]> = (0..s_count)
        .map(|_| std::array::from_fn(|_| Mutex::new(Vec::new())))
        .collect();
    let delivery_slots: Vec<[Mutex<Vec<Delivery>>; 2]> = (0..s_count)
        .map(|_| std::array::from_fn(|_| Mutex::new(Vec::new())))
        .collect();
    // Per-shard window clocks: `clocks[s]` holds one past the last tick
    // shard `s` has fully executed *and flushed* (stored with release
    // ordering after the outbox flush; peers load with acquire before
    // draining). A peer that reads `c` here therefore holds, after its
    // next drain, every cross-cut event shard `s` generated through
    // tick `c - 1`.
    let clocks: Vec<AtomicU64> = (0..s_count).map(|_| AtomicU64::new(0)).collect();
    let barrier = SpinBarrier::new(s_count);
    // Gate spinning mirrors the barrier's policy: burn a short spin only
    // when every shard can hold a core; otherwise yield immediately so
    // the straggler gets the timeslice.
    let gate_spin: u32 = {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        if cores > s_count {
            2_000
        } else {
            0
        }
    };

    let ir_lens: Vec<usize> = specs.iter().map(|sp| sp.ir_links.len()).collect();

    type WorkerResult = (PowerAwareSim, u64, Option<Coordinator>, u64, u64);
    let mut results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(s_count);
        for (s, feed) in feeds.into_iter().enumerate() {
            let spec = specs[s].clone();
            let cfg = config.clone();
            let owner = Arc::clone(&owner);
            let to_owner = Arc::clone(&to_owner);
            let coordinator = (s == 0)
                .then(|| Coordinator::new(cycle, baseline_mw, sample_every, per_cycle.clone()));
            let barrier = &barrier;
            let mailboxes = &mailboxes;
            let occ_links = &occ_links;
            let occ_vals = &occ_vals;
            let energy_slots = &energy_slots;
            let delivery_slots = &delivery_slots;
            let clocks = &clocks;
            let ir_lens = &ir_lens;
            let ledger_links = boundary_out[s].clone();
            let route_table = Arc::clone(&route_table);
            handles.push(scope.spawn(move || {
                let mut ledger = CreditLedger::new(ledger_links, link_count, &cfg.noc, lookahead);
                let ctx = ShardCtx::new(spec, owner, to_owner, s_count);
                let feed_source = Box::new(ShardFeedSource {
                    feed,
                    cursor: 0,
                    generated: 0,
                });
                let mut engine = PowerAwareSim::build_engine_inner(
                    cfg,
                    feed_source,
                    sample_every,
                    telemetry,
                    Some(route_table),
                    Some(Box::new(ctx)),
                );
                let mut coordinator = coordinator;
                let (mut windows, mut barriers) = (0u64, 0u64);
                // Exchange parities: the policy and publish slots flip
                // on their own stop cadences (see the module docs).
                let (mut pp, mut qp) = (0usize, 0usize);
                let mut start = 0u64;
                loop {
                    // The clock gate: how far may the window starting at
                    // `start` run? At least to the slowest peer clock
                    // (drained below, so counters there are exact), at
                    // most `lookahead` cycles past it (the flit bound),
                    // and past our own frontier as far as the credit
                    // slack allows. Clocks are read *before* the drain:
                    // the flush-then-publish discipline then guarantees
                    // the drain holds everything the loaded clocks vouch
                    // for. `t_done` is the last tick this shard has
                    // executed (none before the first window; every
                    // cross-cut event lands a full cycle late, so the
                    // `start = 0` degenerate works out too).
                    let t_done = cycle * start.saturating_sub(1);
                    let mut spins = 0u32;
                    let allowed = loop {
                        let others = (0..s_count)
                            .filter(|&sh| sh != s)
                            .map(|sh| clocks[sh].load(Ordering::Acquire))
                            .min()
                            .unwrap_or(u64::MAX);
                        let flit_hi = others + lookahead - 1;
                        if flit_hi < start {
                            // The flit horizon alone already blocks this
                            // window; don't pay the mailbox locks and the
                            // ledger scan just to learn the same thing.
                            // The pass that eventually proceeds drains
                            // first, so nothing is lost by waiting.
                            if spins < gate_spin {
                                spins += 1;
                                std::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                            continue;
                        }
                        for (src, row) in mailboxes.iter().enumerate() {
                            if src != s {
                                let mut slot = row[s].lock().unwrap();
                                for (at, ev) in slot.drain(..) {
                                    if at <= t_done {
                                        // A cross-cut credit can land
                                        // inside the window that made
                                        // it (its latency is below the
                                        // flit bound). Counter bumps
                                        // commute, so applying it now
                                        // reproduces the sequential
                                        // state at `t_done`.
                                        match ev {
                                            SimEvent::CreditArrive { link, vc } => {
                                                engine.model_mut().net.credit_arrived(link, vc);
                                            }
                                            other => panic!(
                                                "stale cross-shard event {other:?} at {at:?} <= \
                                                 {t_done:?}: the lookahead bound is violated"
                                            ),
                                        }
                                    } else {
                                        if let SimEvent::CreditArrive { link, vc } = ev {
                                            ledger.note_credit(link, vc, at);
                                        }
                                        engine.push_external(at, ev);
                                    }
                                }
                            }
                        }
                        let slack = ledger.slack(&engine.model_mut().net, t_done);
                        let cred_hi = start.saturating_add(slack).saturating_sub(1).max(others);
                        let hi = flit_hi.min(cred_hi);
                        if hi >= start {
                            break hi - start + 1;
                        }
                        if spins < gate_spin {
                            spins += 1;
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    };
                    let end_k = plan.end(start, allowed);
                    {
                        let (sim, queue) = engine.model_and_queue_mut();
                        sim.shard.as_deref_mut().expect("shard ctx").window_stop = end_k;
                        // The initial tick at t = 0 is queued by the
                        // engine builder; later windows arm their first
                        // tick here, after the drain, so same-time
                        // externals stay ahead of it.
                        if start > 0 {
                            queue.schedule(cycle * start, SimEvent::CoreTick);
                        }
                    }
                    let t_k = cycle * end_k;
                    engine.run_until(t_k);
                    windows += 1;

                    // Flush this window's cross-shard traffic, then
                    // publish the new clock — the release/acquire pair
                    // that lets peers run ahead without a rendezvous.
                    {
                        let ctx = engine.model_mut().shard.as_deref_mut().expect("shard ctx");
                        for (dest, outbox) in ctx.outbox.iter_mut().enumerate() {
                            if dest != s && !outbox.is_empty() {
                                let mut slot = mailboxes[s][dest].lock().unwrap();
                                slot.append(outbox);
                            }
                        }
                    }
                    clocks[s].store(end_k + 1, Ordering::Release);

                    let policy_due = has_dvs && (end_k + 1).is_multiple_of(tw);
                    if policy_due {
                        let sim = engine.model_mut();
                        for cons in 0..s_count {
                            let links = &occ_links[s][cons];
                            if links.is_empty() {
                                continue;
                            }
                            let mut vals = occ_vals[s][cons][pp].lock().unwrap();
                            vals.clear();
                            for &l in links {
                                vals.push(sim.net.take_input_occupancy(LinkId(l as u32)));
                            }
                        }
                    }
                    let sample_due = sample_every.is_some_and(|e| (end_k + 1).is_multiple_of(e));
                    let publish_due = sample_due || end_k == warmup_cycles || end_k == total;
                    if publish_due {
                        // Snapshotting *before* the deferred policy run
                        // is exact: the policy only re-prices links from
                        // `t_k` onward, and an `EnergyAccount` reports
                        // the same bit pattern at `t_k` either side of a
                        // `set_power` stamped at exactly `t_k`.
                        let sim = engine.model_mut();
                        {
                            let mut slot = energy_slots[s][qp].lock().unwrap();
                            slot.clear();
                            let (ir, nl) = {
                                let ctx = sim.shard.as_deref().expect("shard ctx");
                                (ctx.spec.ir_links.clone(), ctx.spec.node_links.clone())
                            };
                            for l in ir.chain(nl) {
                                slot.push(sim.accounts[l].energy_nj_at(t_k));
                            }
                        }
                        let ctx = sim.shard.as_deref_mut().expect("shard ctx");
                        let mut slot = delivery_slots[s][qp].lock().unwrap();
                        slot.append(&mut ctx.deliveries);
                    }

                    if policy_due || publish_due {
                        // A mandatory stop: every worker's window lands
                        // on this exact tick (the plan clamps), so this
                        // is a full rendezvous. Ordinary windows skip it
                        // entirely — the clocks carry the protocol.
                        barrier.wait();
                        barriers += 1;
                    }
                    if policy_due {
                        {
                            let sim = engine.model_mut();
                            for publisher in 0..s_count {
                                let links = &occ_links[publisher][s];
                                if links.is_empty() {
                                    continue;
                                }
                                let vals = occ_vals[publisher][s][pp].lock().unwrap();
                                for (i, &l) in links.iter().enumerate() {
                                    sim.net.set_input_occupancy(LinkId(l as u32), vals[i]);
                                }
                            }
                        }
                        pp ^= 1;
                        let (sim, queue) = engine.model_and_queue_mut();
                        if sim.policy_pending() {
                            sim.run_deferred_policy(t_k, queue);
                        }
                    }
                    if publish_due {
                        // Worker 0 re-enacts the sequential measurement
                        // bookkeeping from the snapshots; the stop
                        // barrier just crossed ordered every write
                        // before this read.
                        if let Some(coord) = coordinator.as_mut() {
                            let mut batch = Vec::new();
                            for slot in delivery_slots {
                                batch.append(&mut slot[qp].lock().unwrap());
                            }
                            coord.replay(&mut batch);
                            if sample_due {
                                let slots: Vec<_> =
                                    energy_slots.iter().map(|m| m[qp].lock().unwrap()).collect();
                                let mut energy = 0.0f64;
                                for (sh, slot) in slots.iter().enumerate() {
                                    for e in &slot[..ir_lens[sh]] {
                                        energy += *e;
                                    }
                                }
                                for (sh, slot) in slots.iter().enumerate() {
                                    for e in &slot[ir_lens[sh]..] {
                                        energy += *e;
                                    }
                                }
                                coord.take_sample(t_k, end_k, energy);
                            }
                        }
                        qp ^= 1;
                    }
                    if end_k == warmup_cycles {
                        engine.model_mut().begin_measurement(t_k);
                        if let Some(coord) = coordinator.as_mut() {
                            coord.begin_measurement(t_k, end_k);
                        }
                    }
                    if end_k == total {
                        break;
                    }
                    start = end_k + 1;
                }
                let events = engine.processed();
                (engine.into_model(), events, coordinator, windows, barriers)
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Re-raise with the worker's original payload so a
                // catch_unwind upstream sees the real panic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    // Merge: shard 0's replica adopts every other shard's owned region,
    // then reconciles cross-shard arrival counters and installs the
    // coordinator's measurement state.
    let (mut base, mut events, coordinator, mut windows, barriers) = {
        let (sim, ev, coord, w, b) = results.remove(0);
        (sim, ev, coord.expect("worker 0 owns the coordinator"), w, b)
    };
    let base_ctx = base.take_shard().expect("shard ctx");
    let mut foreign = base_ctx.foreign_arrivals;
    for (i, (mut donor, ev, _, w, _)) in results.into_iter().enumerate() {
        let donor_ctx = donor.take_shard().expect("shard ctx");
        for (l, n) in donor_ctx.foreign_arrivals.iter().enumerate() {
            foreign[l] += n;
        }
        base.merge_shard(&mut donor, &specs[i + 1]);
        events += ev;
        // Window framings between stops are per-shard; report the
        // busiest worker. Barrier counts agree across workers.
        windows = windows.max(w);
    }
    for (l, n) in foreign.into_iter().enumerate() {
        if n > 0 {
            base.net.absorb_link_arrivals(LinkId(l as u32), n);
        }
    }
    coordinator.install(&mut base, total);
    base.source = source;
    ShardedOutcome {
        sim: base,
        end,
        events,
        windows,
        barriers,
        lookahead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumen_desim::Rng;
    use lumen_traffic::{PacketSize, Pattern, RateProfile, SyntheticSource};

    fn small_config(power_aware: bool) -> SystemConfig {
        let mut config = SystemConfig::paper_default();
        config.noc = NocConfig::small_for_tests();
        config.power_aware = power_aware;
        config.policy.timing.tw_cycles = 100;
        config.seed = 7;
        config
    }

    fn uniform(config: &SystemConfig, rate: f64) -> Box<dyn TrafficSource + Send> {
        Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(rate),
            PacketSize::Fixed(3),
            Rng::seed_from(config.seed),
        ))
    }

    #[test]
    fn partition_tiles_the_mesh_exactly() {
        let noc = NocConfig::paper_default();
        for shards in [1, 2, 3, 4, 8, 64] {
            let specs = partition(&noc, shards);
            assert_eq!(specs.len(), effective_shards(&noc, shards));
            // Router, node, and link ranges tile without gaps or overlap.
            let net = lumen_noc::Network::new(&noc);
            let mut next_router = 0;
            let mut next_node = 0;
            let mut next_ir = 0;
            for (i, spec) in specs.iter().enumerate() {
                assert_eq!(spec.id, i);
                assert_eq!(spec.routers.start, next_router);
                assert_eq!(spec.nodes.start, next_node);
                assert_eq!(spec.ir_links.start, next_ir);
                assert_eq!(spec.node_links.start, spec.ir_total + 2 * spec.nodes.start);
                assert_eq!(spec.node_links.end, spec.ir_total + 2 * spec.nodes.end);
                next_router = spec.routers.end;
                next_node = spec.nodes.end;
                next_ir = spec.ir_links.end;
            }
            assert_eq!(next_router, noc.rack_count());
            assert_eq!(next_node, noc.node_count());
            assert_eq!(next_ir, specs[0].ir_total);
            assert_eq!(
                specs.last().unwrap().node_links.end,
                net.link_count(),
                "link ranges must cover the real network"
            );
        }
    }

    #[test]
    fn ownership_matches_link_endpoints() {
        let noc = NocConfig::paper_default();
        let specs = partition(&noc, 4);
        let (owner, to_owner) = ownership(&noc, &specs);
        let net = lumen_noc::Network::new(&noc);
        assert_eq!(owner.len(), net.link_count());
        let mut boundary = 0;
        for l in 0..net.link_count() {
            let spec = &specs[usize::from(owner[l])];
            assert!(spec.owns_link(l), "owner map disagrees with spec ranges");
            if owner[l] != to_owner[l] {
                boundary += 1;
                // Only inter-router links cross bands.
                assert!(l < specs[0].ir_total);
            }
        }
        // An 8-wide mesh with 4 row bands has 3 seams × 8 columns × 2
        // directions of boundary links.
        assert_eq!(boundary, 48);
    }

    #[test]
    fn spin_barrier_synchronizes() {
        let barrier = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 1..=100 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        assert_eq!(counter.load(Ordering::Relaxed), round * 4);
                        barrier.wait();
                    }
                });
            }
        });
    }

    /// Bit-exact equivalence of the parallel backend on a small system:
    /// deliveries, latency statistics, energy, transitions, and audit.
    fn assert_matches_sequential(config: SystemConfig, rate: f64, sample: Option<u64>) {
        let (warmup, measure) = (500, 3_000);
        let seq = run_sharded_with(
            config.clone(),
            uniform(&config, rate),
            sample,
            TelemetryConfig::default(),
            warmup,
            measure,
            1,
            None,
        );
        let par = run_sharded_with(
            config.clone(),
            uniform(&config, rate),
            sample,
            TelemetryConfig::default(),
            warmup,
            measure,
            2,
            None,
        );
        let end = seq.end;
        assert_eq!(par.end, end);
        let (s, p) = (&seq.sim, &par.sim);
        assert_eq!(p.packets_injected_measured(), s.packets_injected_measured());
        assert_eq!(p.latency_summary().count(), s.latency_summary().count());
        assert_eq!(
            p.latency_summary().mean().to_bits(),
            s.latency_summary().mean().to_bits(),
            "latency means diverged: {} vs {}",
            p.latency_summary().mean(),
            s.latency_summary().mean()
        );
        assert_eq!(
            p.energy_nj(end).to_bits(),
            s.energy_nj(end).to_bits(),
            "energy diverged: {} vs {}",
            p.energy_nj(end),
            s.energy_nj(end)
        );
        assert_eq!(p.transitions(), s.transitions());
        assert_eq!(p.packets_dropped_measured(), s.packets_dropped_measured());
        if sample.is_some() {
            let (sl, sp, si) = s.series();
            let (pl, pp, pi) = p.series();
            assert_eq!(pl, sl, "latency series diverged");
            assert_eq!(pp, sp, "power series diverged");
            assert_eq!(pi, si, "injection series diverged");
        }
        lumen_noc::audit(p.network()).assert_ok();
    }

    #[test]
    fn sharded_matches_sequential_non_power_aware() {
        assert_matches_sequential(small_config(false), 0.2, None);
    }

    #[test]
    fn sharded_matches_sequential_dvs() {
        assert_matches_sequential(small_config(true), 0.15, Some(500));
    }

    #[test]
    fn sharded_matches_sequential_onoff() {
        let mut config = small_config(true);
        config.policy.mode = PolicyMode::OnOff(lumen_policy::OnOffConfig::reference_default());
        assert_matches_sequential(config, 0.05, None);
    }

    #[test]
    fn static_lookahead_matches_hand_computation() {
        // Paper mesh: bound = 2·1600 + 1600 + 3200 = 8000 ps on a
        // 1600 ps core cycle → ⌈8000/1600⌉ − (exact-multiple) = 4.
        assert_eq!(static_lookahead(&NocConfig::paper_default(), 2), 4);
        // Small test fabric halves the propagation: bound = 6400 → 3.
        let small = NocConfig::small_for_tests();
        assert_eq!(static_lookahead(&small, 2), 3);
        // One shard has no cut: lookahead degenerates to the uniform
        // default, which must still be safe (and is, trivially: it is
        // never used — run_sharded_with falls back to the sequential engine).
        assert!(static_lookahead(&small, 1) >= 1);
    }

    #[test]
    fn window_plan_never_skips_a_mandatory_stop() {
        // Walk every window the plan would produce and check that no
        // DVS close, sample close, warmup tick, or end-of-run tick falls
        // strictly inside a window. Tw = 7 and sample_every = 10 are
        // coprime to the lookahead, so closes land mid-window unless the
        // plan clamps.
        let mut timing = lumen_policy::TimingConfig::paper_default();
        timing.tw_cycles = 7;
        let plan = WindowPlan {
            lookahead: 5,
            timing: Some(timing),
            sample_every: Some(10),
            warmup: 13,
            total: 83,
        };
        let mut start = 0u64;
        loop {
            let end = plan.end(start, u64::MAX);
            assert!(end >= start, "window collapsed at {start}");
            assert!(end - start < 5, "window exceeds the lookahead");
            for j in start..end {
                assert_ne!((j + 1) % 7, 0, "DVS close at {j} inside {start}..{end}");
                assert_ne!((j + 1) % 10, 0, "sample close at {j} inside {start}..{end}");
                assert_ne!(j, 13, "warmup tick inside {start}..{end}");
            }
            assert!(end <= 83);
            if end == 83 {
                break;
            }
            start = end + 1;
        }
        // A slack of zero still makes forward progress (one cycle).
        assert_eq!(plan.end(20, 0), 20);
    }

    /// The §3.3 policy window `Tw` needs no relationship to the barrier
    /// window: 97 is prime and coprime to the small fabric's lookahead
    /// of 3, so every DVS close lands mid-stretch unless the scheduler
    /// clamps the window to the close.
    #[test]
    fn sharded_matches_sequential_with_coprime_policy_window() {
        let mut config = small_config(true);
        config.policy.timing.tw_cycles = 97;
        assert_matches_sequential(config, 0.15, Some(500));
    }

    /// `lookahead_cap = 1` must reproduce the original one-cycle-window
    /// protocol: bit-identical outputs and exactly one window per tick,
    /// while the automatic scheduler runs the same system in fewer
    /// windows — also bit-identically. Barriers fire only at the
    /// mandatory stops under either cap.
    #[test]
    fn lookahead_cap_one_reproduces_single_cycle_protocol() {
        let config = small_config(true);
        let (warmup, measure) = (500u64, 3_000u64);
        let run = |cap: Option<u64>| {
            run_sharded_with(
                config.clone(),
                uniform(&config, 0.15),
                Some(500),
                TelemetryConfig::default(),
                warmup,
                measure,
                2,
                cap,
            )
        };
        let capped = run(Some(1));
        let auto = run(None);
        assert_eq!(capped.lookahead, 1);
        assert_eq!(capped.windows, warmup + measure + 1);
        assert_eq!(auto.lookahead, 3);
        // Between stops the framing is paced by the live peer clocks,
        // so only the one-cycle ceiling is deterministic here.
        assert!(
            auto.windows <= capped.windows,
            "stretched windows cannot outnumber one-cycle windows: {} vs {}",
            auto.windows,
            capped.windows
        );
        // Barriers are pinned to the mandatory stops whatever the cap:
        // every Tw = 100 policy close (3501 / 100 = 35 of them; the
        // sample closes at multiples of 500 coincide) plus the warmup
        // tick (500) and the final tick (3500), neither of which is a
        // close.
        let stops = (warmup + measure + 1) / 100 + 2;
        assert_eq!(capped.barriers, stops);
        assert_eq!(auto.barriers, stops);
        let end = capped.end;
        assert_eq!(auto.end, end);
        let (c, a) = (&capped.sim, &auto.sim);
        assert_eq!(a.packets_injected_measured(), c.packets_injected_measured());
        assert_eq!(a.latency_summary().count(), c.latency_summary().count());
        assert_eq!(
            a.latency_summary().mean().to_bits(),
            c.latency_summary().mean().to_bits()
        );
        assert_eq!(a.energy_nj(end).to_bits(), c.energy_nj(end).to_bits());
        assert_eq!(a.transitions(), c.transitions());
        let (cl, cp, ci) = c.series();
        let (al, ap, ai) = a.series();
        assert_eq!(al, cl);
        assert_eq!(ap, cp);
        assert_eq!(ai, ci);
    }
}

//! Event-core equivalence tests: the bucketed cycle wheel behind
//! `EventQueue` must be indistinguishable from a plain binary heap on
//! `(time, seq)` — the calendar's whole contract — for arbitrary
//! schedules, for schedules on the simulator's time lattice and for a
//! full power-aware run, and the engine seam (zero-delay scheduling
//! during `handle`) must survive the two-tier structure. On the paper's
//! configuration, lanes must load without a sort and only policy, fault
//! and laser events may spill past the wheel.

use lumen_core::prelude::*;
use lumen_core::sim::SimEvent;
use lumen_desim::queue::WHEEL_SLOTS;
use lumen_desim::{Engine, EventQueue, Picos, RunOutcome, SimModel};
use lumen_opto::Gbps;
// `proptest` here is the vendored stand-in (vendor/proptest, v0.0.0-lumen):
// 64 fixed deterministic cases, no shrinking, no PROPTEST_* reproduction.
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::mem::Discriminant;

/// A calendar entry of the heap model, keyed on `(time, seq)`.
struct Entry<E> {
    key: (Picos, u64),
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed, so the max-heap pops the earliest `(time, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The reference calendar: a binary heap ordered by `(time, seq)`, where
/// `seq` counts insertions, so events at one instant pop FIFO. This is the
/// order `EventQueue` promises, written the obvious way.
struct HeapModel<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> HeapModel<E> {
    fn new() -> Self {
        HeapModel {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: Picos, event: E) {
        self.heap.push(Entry {
            key: (at, self.next_seq),
            event,
        });
        self.next_seq += 1;
    }

    fn pop_if_at_or_before(&mut self, horizon: Picos) -> Option<(Picos, E)> {
        if self.heap.peek()?.key.0 > horizon {
            return None;
        }
        self.heap.pop().map(|e| (e.key.0, e.event))
    }

    fn pop(&mut self) -> Option<(Picos, E)> {
        self.pop_if_at_or_before(Picos::MAX)
    }

    fn peek_time(&self) -> Option<Picos> {
        self.heap.peek().map(|e| e.key.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One scripted operation against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(Picos),
    Pop,
}

/// The default queue's lane width: an eighth of the 1600 ps router cycle,
/// rounded down to a power of two.
const LANE_PS: u64 = 128;

/// Decodes a raw `(kind, magnitude)` pair into an operation. Encoded this
/// way so the vendored proptest's integer-range strategies can drive it.
fn decode(kind: u64, raw: u64) -> Op {
    match kind % 4 {
        // Same-instant bursts: whole cycles, many events per instant.
        0 => Op::Schedule(Picos::from_ps((raw % 32) * 1600)),
        // Near future, sub-cycle offsets (non-integral flit serialization).
        1 => Op::Schedule(Picos::from_ps(raw % 500_000)),
        // Far future: beyond the wheel horizon, lands in overflow
        // (transition completions, laser decisions, fault onsets).
        2 => Op::Schedule(Picos::from_ps(
            (raw % (1 << 22)) + LANE_PS * WHEEL_SLOTS as u64,
        )),
        _ => Op::Pop,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bucketed queue and the heap model deliver identical
    /// `(time, seq)` sequences for arbitrary schedules, including
    /// same-instant bursts, interleaved pops, and far-future overflow.
    #[test]
    fn wheel_and_heap_deliver_identical_sequences(
        kinds in proptest::collection::vec(0u64..4, 50..600),
        raws in proptest::collection::vec(0u64..(1 << 42), 50..600),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::new();
        let mut seq = 0u64;
        for (i, (&kind, &raw)) in kinds.iter().zip(raws.iter()).enumerate() {
            match decode(kind, raw) {
                Op::Schedule(at) => {
                    wheel.schedule(at, seq);
                    heap.schedule(at, seq);
                    seq += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged at op {}", i);
                    prop_assert_eq!(wheel.pop(), heap.pop(), "pop diverged at op {}", i);
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both to the end: the full remaining sequence must match.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h, "drain diverged");
            if w.is_none() {
                break;
            }
        }
    }

    /// Horizon-bounded popping agrees with the heap model for arbitrary
    /// schedules and horizons (the engine's actual access pattern).
    #[test]
    fn horizon_pops_agree(
        kinds in proptest::collection::vec(0u64..3, 20..200),
        raws in proptest::collection::vec(0u64..(1 << 42), 20..200),
        horizon_raw in 0u64..(1 << 22),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::new();
        for (i, (&kind, &raw)) in kinds.iter().zip(raws.iter()).enumerate() {
            if let Op::Schedule(at) = decode(kind, raw) {
                wheel.schedule(at, i as u64);
                heap.schedule(at, i as u64);
            }
        }
        let horizon = Picos::from_ps(horizon_raw);
        loop {
            let (w, h) = (
                wheel.pop_if_at_or_before(horizon),
                heap.pop_if_at_or_before(horizon),
            );
            prop_assert_eq!(w, h, "horizon pop diverged");
            if w.is_none() {
                break;
            }
        }
        // Whatever remains is strictly beyond the horizon, on both.
        prop_assert_eq!(wheel.len(), heap.len());
        if let Some(t) = wheel.peek_time() {
            prop_assert!(t > horizon);
        }
    }
}

/// The router cycle of every built-in configuration (625 MHz).
const CYCLE: Picos = Picos::from_ps(1600);

/// The offsets from a tick at which the simulator's hops land: a credit
/// one credit delay after the tick; a flit after the propagation delay
/// plus one flit's serialization at a rung of a built-in ladder (5–10 and
/// 3.3–10 Gb/s, and the static 3.3 Gb/s link); and the credit its sink
/// returns one credit delay after that flit arrives.
fn hop_offsets() -> Vec<Picos> {
    let noc = SystemConfig::paper_default().noc;
    let mut rates: Vec<Gbps> = [
        BitRateLadder::paper_5_to_10(),
        BitRateLadder::paper_3_3_to_10(),
    ]
    .iter()
    .flat_map(|ladder| (0..ladder.level_count()).map(|i| ladder.rate_at(i)))
    .collect();
    rates.push(Gbps::from_gbps(3.3));
    let mut offsets = vec![noc.credit_delay];
    for rate in rates {
        let flit = noc.propagation + noc.flit_time(rate);
        offsets.extend([flit, flit + noc.credit_delay]);
    }
    offsets.sort();
    offsets.dedup();
    offsets
}

/// Decodes a raw `(kind, magnitude)` pair into an operation on the
/// simulator's time lattice, relative to `now`, the time of the last pop.
fn decode_lattice(kind: u64, raw: u64, now: Picos, offsets: &[Picos]) -> Op {
    let tick = CYCLE * (now.as_ps() / CYCLE.as_ps());
    let offset = offsets[(raw / 64) as usize % offsets.len()];
    match kind % 8 {
        // A flit or credit launched by this tick or one of the next three.
        0 | 1 => Op::Schedule(tick + CYCLE * (raw % 4) + offset),
        // The next tick.
        2 => Op::Schedule(tick + CYCLE),
        // A policy, fault or laser event just past the wheel's 20-cycle
        // horizon: it spills, and near events later join its lane.
        3 => Op::Schedule(tick + CYCLE * (21 + raw % 12) + offset),
        // A zero-delay follow-up into the lane being drained.
        4 => Op::Schedule(now),
        // Behind the cursor: a cycle before the last pop.
        5 => Op::Schedule(now.saturating_sub(CYCLE)),
        _ => Op::Pop,
    }
}

/// The default queue and the heap model, fed the same schedules.
struct Twin {
    wheel: EventQueue<u64>,
    heap: HeapModel<u64>,
    seq: u64,
    pops: u64,
    now: Picos,
}

impl Twin {
    fn new() -> Self {
        Twin {
            wheel: EventQueue::new(),
            heap: HeapModel::new(),
            seq: 0,
            pops: 0,
            now: Picos::ZERO,
        }
    }

    fn schedule(&mut self, at: Picos) {
        self.wheel.schedule(at, self.seq);
        self.heap.schedule(at, self.seq);
        self.seq += 1;
    }

    /// Pops one event from both, which must agree.
    fn pop(&mut self) -> Option<(Picos, u64)> {
        assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
        let popped = self.wheel.pop();
        assert_eq!(popped, self.heap.pop(), "pop {} diverged", self.pops);
        if let Some((t, _)) = popped {
            self.now = t;
            self.pops += 1;
        }
        popped
    }

    /// Pops everything due at or before `until`; returns how many lanes
    /// the wheel sorted meanwhile.
    fn pop_through(&mut self, until: Picos) -> u64 {
        let before = self.wheel.resorted_total();
        while self.heap.peek_time().is_some_and(|t| t <= until) {
            self.pop();
        }
        self.wheel.resorted_total() - before
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On the lattice the simulator schedules on, the default queue's
    /// lanes mostly hold one instant and drain without a sort, and the
    /// fallbacks (two instants appended out of order in a lane, overflow
    /// entries merged into a lane, mid-drain insertions and schedules
    /// behind the cursor that land before the drain's tail) keep the heap
    /// model's `(time, seq)` order.
    #[test]
    fn lattice_schedules_agree_with_heap(
        kinds in proptest::collection::vec(0u64..8, 200..800),
        raws in proptest::collection::vec(0u64..(1 << 20), 200..800),
    ) {
        let offsets = hop_offsets();
        let mut twin = Twin::new();
        for (&kind, &raw) in kinds.iter().zip(raws.iter()) {
            match decode_lattice(kind, raw, twin.now, &offsets) {
                Op::Schedule(at) => twin.schedule(at),
                Op::Pop => {
                    twin.pop();
                }
            }
        }
        while twin.pop().is_some() {}
        let sorted = twin.wheel.resorted_total();
        prop_assert!(
            sorted > 0 && sorted < twin.pops,
            "sorted {} lanes in {} pops",
            sorted,
            twin.pops
        );
    }
}

/// Each way a lane can arrive out of order, scripted on the lattice: the
/// wheel sorts exactly those lanes and pops what the heap model pops.
#[test]
fn lattice_fallbacks_sort_only_out_of_order_lanes() {
    let noc = SystemConfig::paper_default().noc;
    // A flit at 10 Gb/s lands on a tick; one at 3.3 Gb/s lands 48 ps
    // after a tick, inside the 128 ps lane of a tick on an even cycle.
    let fast = noc.propagation + noc.flit_time(Gbps::from_gbps(10.0));
    let slow = noc.propagation + noc.flit_time(Gbps::from_gbps(3.3));
    assert_eq!(fast, CYCLE * 3);
    assert_eq!(slow, CYCLE * 5 + Picos::from_ps(48));
    let mut twin = Twin::new();
    // The first event into an empty queue aims the wheel at its lane;
    // the anchor keeps the queue from running empty (and re-aiming) later.
    twin.schedule(Picos::ZERO);
    let anchor = CYCLE * 1_000;
    twin.schedule(anchor);

    // One-instant lanes: ticks, the flits they launch and the credits
    // those return, interleaved over ten cycles.
    for k in 0..10u64 {
        let tick = CYCLE * k;
        for _ in 0..3 {
            twin.schedule(tick + fast);
            twin.schedule(tick + noc.credit_delay);
            twin.schedule(tick + fast + noc.credit_delay);
        }
        twin.schedule(tick + CYCLE);
    }
    assert_eq!(twin.pop_through(CYCLE * 20), 0);

    // Two instants in one lane: a slow flit arrives 48 ps after the tick
    // at cycle 30, and was scheduled before that tick was. Scheduled in
    // time order, as at cycle 26, the same two instants need no sort.
    let tick = CYCLE * 26;
    twin.schedule(tick);
    twin.schedule(tick - CYCLE * 5 + slow);
    assert_eq!(twin.pop_through(tick + CYCLE), 0);
    let tick = CYCLE * 30;
    twin.schedule(tick - CYCLE * 5 + slow);
    twin.schedule(tick);
    assert_eq!(twin.pop_through(tick + CYCLE), 1);

    // Overflow entries merged into a lane: a policy event 40 cycles out
    // spills; once the cursor is within the horizon, a flit at the same
    // instant goes to the lane and is loaded ahead of it.
    let policy = tick + CYCLE * 40;
    let spilled = twin.wheel.spilled_total();
    twin.schedule(policy);
    assert_eq!(twin.wheel.spilled_total(), spilled + 1);
    twin.schedule(tick + CYCLE * 20);
    assert_eq!(twin.pop_through(tick + CYCLE * 20), 0);
    twin.schedule(policy);
    assert_eq!(twin.wheel.spilled_total(), spilled + 1);
    assert_eq!(twin.pop_through(policy), 1);

    // Mid-drain insertions. A zero-delay follow-up at the instant being
    // drained appends behind its equals and needs no sort.
    let t = policy + CYCLE;
    let first = twin.seq;
    twin.schedule(t);
    twin.schedule(t);
    let u = t + CYCLE;
    let tick = twin.seq;
    twin.schedule(u);
    assert_eq!(twin.pop(), Some((t, first)));
    twin.schedule(t);
    assert_eq!(twin.pop_through(t), 0);
    // One earlier than the drain's tail sorts: the tick at cycle 72 shares
    // its lane with a slow flit 48 ps later (scheduled after it, so the
    // lane is in order), and the tick's zero-delay follow-up lands between
    // the two.
    twin.schedule(u + Picos::from_ps(48));
    assert_eq!(twin.pop(), Some((u, tick)));
    twin.schedule(u);
    assert_eq!(twin.pop_through(u), 1);

    // A schedule behind the cursor joins the drain ahead of its tail (the
    // slow flit), so it sorts and pops first.
    twin.schedule(u - CYCLE);
    assert_eq!(twin.pop_through(u + CYCLE), 1);
    assert_eq!(twin.wheel.resorted_total(), 4, "one sort per case above");

    assert_eq!(twin.pop(), Some((anchor, 1)));
    assert_eq!(twin.pop(), None);
}

/// A model exercising the exact rewrite seam: handling an event at `t`
/// schedules more work at `t` (zero delay), at `t` + one bucket, and far
/// beyond the wheel horizon — all of which must be delivered in global
/// `(time, seq)` order.
struct SeamModel {
    cycle: Picos,
    log: Vec<(Picos, u32)>,
}

impl SimModel for SeamModel {
    type Event = u32;
    fn handle(&mut self, now: Picos, ev: u32, queue: &mut EventQueue<u32>) {
        self.log.push((now, ev));
        match ev {
            // First event: a zero-delay follow-up at `now` must run after
            // the already-queued event 2 (FIFO among equal timestamps)
            // but within the same run_until horizon.
            1 => queue.schedule(now, 10),
            // The zero-delay follow-up fans out near and far.
            10 => {
                queue.schedule(now + self.cycle, 20);
                queue.schedule(now + self.cycle * (WHEEL_SLOTS as u64 * 3), 30);
            }
            _ => {}
        }
    }
}

#[test]
fn engine_seam_zero_delay_and_overflow_ordering() {
    let cycle = Picos::from_ps(1600);
    let mut eng = Engine::with_queue(
        SeamModel {
            cycle,
            log: Vec::new(),
        },
        EventQueue::with_bucket_width(cycle),
    );
    let t = cycle * 5;
    eng.queue_mut().schedule(t, 1);
    eng.queue_mut().schedule(t, 2);
    // Horizon exactly at t: the zero-delay event 10 (scheduled during
    // handling) must still be delivered this cycle, after event 2.
    assert_eq!(eng.run_until(t), RunOutcome::HorizonReached);
    assert_eq!(eng.model().log, vec![(t, 1), (t, 2), (t, 10)]);
    // The rest drains in order: next cycle, then the overflow event.
    assert_eq!(eng.run_to_completion(), RunOutcome::QueueDrained);
    assert_eq!(
        eng.model().log[3..],
        [(t + cycle, 20), (t + cycle * (WHEEL_SLOTS as u64 * 3), 30)]
    );
}

/// Full-system differential: a faults-on power-aware run with sampling
/// and laser decisions, driven by hand so that every event its handlers
/// schedule is mirrored into the heap model. Handlers only schedule,
/// never pop, so handling each event into an empty scratch queue and
/// draining it yields exactly what that handler scheduled; the wheel and
/// the model then receive the same schedules and must pop the same
/// `(time, SimEvent)` sequence. Draining sorts one handler's schedules by
/// time but keeps same-instant ones in order, so the run is the one
/// `Engine::run_until` makes, which the end state confirms.
#[test]
fn full_sim_outputs_identical_on_both_calendars() {
    let config = {
        let mut c = SystemConfig::paper_default();
        c.noc = NocConfig::small_for_tests();
        c.power_aware = true;
        c.policy.timing.tw_cycles = 200;
        c.policy.optical_mode = OpticalMode::ThreeLevel;
        // Paper scale is 200 µs and 100 µs: shrunk to fit the horizon.
        c.policy.timing.laser_decision_period = Picos::from_us(4);
        c.policy.timing.attenuator_transition = Picos::from_us(2);
        c.faults = FaultConfig {
            outage_mtbf_cycles: 4_000,
            outage_mean_duration_cycles: 300,
            dropout_mtbf_cycles: 5_000,
            dropout_mean_duration_cycles: 500,
            ..FaultConfig::disabled()
        };
        c
    };
    let build = || {
        let source = Box::new(SyntheticSource::new(
            &config.noc,
            Pattern::Uniform,
            RateProfile::Constant(0.15),
            PacketSize::Fixed(4),
            lumen_desim::Rng::seed_from(config.seed),
        ));
        PowerAwareSim::build_engine(config.clone(), source, Some(500))
    };
    let horizon = Picos::from_ps(1600 * 15_000);
    let outputs = |sim: &PowerAwareSim, processed: u64| {
        (
            processed,
            sim.latency_summary().count(),
            sim.latency_summary().mean().to_bits(),
            sim.energy_nj(horizon).to_bits(),
            sim.transitions(),
            sim.faults_injected(),
            sim.network().flits_corrupted(),
            sim.network().packets_delivered(),
            sim.series().1.clone(),
        )
    };

    let mut engine = build();
    let (sim, wheel) = engine.model_and_queue_mut();
    let mut heap = HeapModel::new();
    // The builder's cold start: first tick, laser decision, fault onsets.
    for (at, ev) in wheel.drain_pending() {
        wheel.schedule(at, ev);
        heap.schedule(at, ev);
    }
    let mut scratch = EventQueue::new();
    let mut kinds = HashSet::<Discriminant<SimEvent>>::new();
    let mut processed = 0u64;
    loop {
        let next = wheel.pop_if_at_or_before(horizon);
        assert_eq!(
            next,
            heap.pop_if_at_or_before(horizon),
            "calendars diverged after {processed} events"
        );
        let Some((now, event)) = next else { break };
        processed += 1;
        kinds.insert(std::mem::discriminant(&event));
        sim.handle(now, event, &mut scratch);
        for (at, ev) in scratch.drain_pending() {
            wheel.schedule(at, ev);
            heap.schedule(at, ev);
        }
    }
    assert_eq!(wheel.len(), heap.len());
    assert_eq!(wheel.peek_time(), heap.peek_time());
    // Every kind of event took part.
    assert!(sim.faults_injected() > 0 && sim.transitions() > 0);
    assert_eq!(kinds.len(), 9, "event kinds popped: {}", kinds.len());
    let by_hand = outputs(sim, processed);

    let mut reference = build();
    reference.run_until(horizon);
    assert_eq!(by_hand, outputs(reference.model(), reference.processed()));
}

/// Whether an event comes from the policy, fault or laser machinery: the
/// only kinds scheduled far enough ahead to spill past the wheel.
fn is_slow(event: &SimEvent) -> bool {
    !matches!(
        event,
        SimEvent::CoreTick | SimEvent::FlitArrive { .. } | SimEvent::CreditArrive { .. }
    )
}

/// The paper's 8×8 mesh under Table 1 DVS at the Fig. 5 point (uniform
/// 4.0 pkt/cycle, 5-flit packets): the calendar's lanes load in order,
/// and no tick, flit or credit spills past the wheel. Counts repeat
/// exactly at a fixed seed, so the bounds cannot flake; they fail if a
/// timing change mixes instants in lanes again or stretches hops past the
/// wheel's horizon.
#[test]
fn paper_mesh_lanes_load_in_order_and_only_slow_events_spill() {
    let config = SystemConfig::paper_default();
    let source = Box::new(SyntheticSource::new(
        &config.noc,
        Pattern::Uniform,
        RateProfile::Constant(4.0),
        PacketSize::Fixed(5),
        lumen_desim::Rng::seed_from(config.seed),
    ));
    let mut engine = PowerAwareSim::build_engine(config, source, None);
    let cycles = 3_000;
    let horizon = CYCLE * cycles;
    let (sim, queue) = engine.model_and_queue_mut();
    let (mut popped, mut slow) = (0u64, 0u64);
    while let Some((now, event)) = queue.pop_if_at_or_before(horizon) {
        popped += 1;
        slow += u64::from(is_slow(&event));
        sim.handle(now, event, queue);
    }
    let (spilled, resorted) = (queue.spilled_total(), queue.resorted_total());
    slow += engine
        .drain_pending()
        .iter()
        .filter(|(_, e)| is_slow(e))
        .count() as u64;
    // Measured: 872,857 events popped, 6,349 policy events (this
    // configuration has no faults or laser decisions), all of them
    // spilled, and 5 lanes sorted: the lanes where a window's spilled
    // transitions rejoin the calendar. Lanes a cycle wide had to be
    // sorted nearly every time.
    assert!(popped > 800_000 && slow > 0);
    assert!(
        spilled <= slow,
        "{spilled} spills, {slow} policy/fault/laser events"
    );
    assert!(
        resorted <= cycles / 100,
        "{resorted} lanes sorted in {cycles} cycles"
    );
}

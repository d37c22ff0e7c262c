//! Event-core equivalence tests: the bucketed cycle wheel behind
//! `EventQueue` must be indistinguishable from a plain binary heap on
//! `(time, seq)` — the calendar's whole contract — for arbitrary
//! schedules and for a full power-aware run, and the engine seam
//! (zero-delay scheduling during `handle`) must survive the two-tier
//! structure.

use lumen_core::prelude::*;
use lumen_core::sim::SimEvent;
use lumen_desim::queue::WHEEL_SLOTS;
use lumen_desim::{Engine, EventQueue, Picos, RunOutcome, SimModel};
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

/// Decodes a raw `(kind, magnitude)` pair into an operation. Encoded this
/// way so the vendored proptest's integer-range strategies can drive it.
fn decode(kind: u64, raw: u64) -> Op {
    match kind % 4 {
        // Same-instant bursts: coarse 1600 ps buckets force heavy ties.
        0 => Op::Schedule(Picos::from_ps((raw % 32) * 1600)),
        // Near future, sub-cycle offsets (non-integral flit serialization).
        1 => Op::Schedule(Picos::from_ps(raw % 500_000)),
        // Far future: beyond the wheel horizon, lands in overflow
        // (transition completions, laser decisions, fault onsets).
        2 => Op::Schedule(Picos::from_ps(
            (raw % (1 << 22)) + 1600 * WHEEL_SLOTS as u64,
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

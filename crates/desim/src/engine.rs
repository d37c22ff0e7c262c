//! The event loop.

use crate::queue::EventQueue;
use crate::time::Picos;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// An externally-injected event held in the engine's inbox (see
/// [`Engine::push_external`]): ordered by `(time, push sequence)` with the
/// comparison reversed so the [`BinaryHeap`] pops the earliest first.
struct InboxEntry<E> {
    at: Picos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for InboxEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for InboxEntry<E> {}

impl<E> PartialOrd for InboxEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for InboxEntry<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: the heap is a max-heap, we want the earliest entry.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A simulation model driven by the [`Engine`].
///
/// The model handles one event at a time and may schedule further events on
/// the queue it is handed. Events delivered to `handle` are guaranteed to be
/// in non-decreasing time order, with FIFO ordering among simultaneous
/// events.
pub trait SimModel {
    /// The event alphabet of this model.
    type Event;

    /// Handles a single event occurring at `now`.
    fn handle(&mut self, now: Picos, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Why a call to [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon was reached.
    QueueDrained,
    /// The time horizon was reached; later events remain pending.
    HorizonReached,
}

/// A generic discrete-event simulation engine.
///
/// Owns the model, the clock, and the event calendar; see the crate-level
/// example for typical usage.
pub struct Engine<M: SimModel> {
    model: M,
    queue: EventQueue<M::Event>,
    /// Events injected from outside the model (e.g. by a parallel-shard
    /// coordinator at a barrier). Ordered by `(time, push sequence)` and
    /// drained ahead of same-time calendar events.
    inbox: BinaryHeap<InboxEntry<M::Event>>,
    inbox_seq: u64,
    now: Picos,
    processed: u64,
}

impl<M: SimModel> Engine<M> {
    /// Creates an engine at time zero with an empty calendar.
    pub fn new(model: M) -> Self {
        Self::with_queue(model, EventQueue::new())
    }

    /// Creates an engine over a caller-built calendar (custom bucket
    /// width or capacity).
    pub fn with_queue(model: M, queue: EventQueue<M::Event>) -> Self {
        Engine {
            model,
            queue,
            inbox: BinaryHeap::new(),
            inbox_seq: 0,
            now: Picos::ZERO,
            processed: 0,
        }
    }

    /// Injects an event from outside the model, e.g. a cross-shard flit
    /// arrival delivered at a barrier by a parallel-shard coordinator.
    ///
    /// Inbox events are delivered in `(time, push order)` order and take
    /// priority over calendar events carrying the same timestamp. This is
    /// safe for the shard protocol because every same-time pair of
    /// externally-deliverable events commutes (they touch disjoint buffer/
    /// credit state), so any fixed deterministic order reproduces the
    /// sequential merge — see `lumen-core`'s shard module for the argument.
    pub fn push_external(&mut self, at: Picos, event: M::Event) {
        debug_assert!(at >= self.now, "external event scheduled in the past");
        let seq = self.inbox_seq;
        self.inbox_seq += 1;
        self.inbox.push(InboxEntry { at, seq, event });
    }

    /// Pops the inbox head if it is due at or before `horizon` *and* not
    /// later than the calendar's next event (inbox wins ties).
    fn pop_inbox_if_due(&mut self, horizon: Picos) -> Option<(Picos, M::Event)> {
        let head = self.inbox.peek()?;
        if head.at > horizon {
            return None;
        }
        if let Some(queued) = self.queue.peek_time() {
            if queued < head.at {
                return None;
            }
        }
        self.inbox.pop().map(|entry| (entry.at, entry.event))
    }

    /// Current simulation time (the timestamp of the last handled event).
    pub fn now(&self) -> Picos {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrows the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Mutably borrows the event calendar (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<M::Event> {
        &mut self.queue
    }

    /// Borrows the event calendar.
    pub fn queue(&self) -> &EventQueue<M::Event> {
        &self.queue
    }

    /// Borrows the model and the calendar together (e.g. so an external
    /// coordinator can run a model step that schedules further events).
    pub fn model_and_queue_mut(&mut self) -> (&mut M, &mut EventQueue<M::Event>) {
        (&mut self.model, &mut self.queue)
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Removes every pending event — calendar and external inbox alike —
    /// and returns them in the order this engine would have delivered
    /// them: nondecreasing time, inbox entries winning timestamp ties
    /// against calendar entries (the [`Engine::push_external`] contract),
    /// FIFO within each. The checkpoint machinery uses this to capture a
    /// mid-run engine; both stores are empty afterwards, while `now` and
    /// `processed` are untouched.
    pub fn drain_pending(&mut self) -> Vec<(Picos, M::Event)> {
        let mut out = Vec::with_capacity(self.queue.len() + self.inbox.len());
        // Two sorted runs: the inbox by (time, push seq), then the
        // calendar by (time, seq). A stable sort by time alone merges
        // them while keeping inbox entries ahead at equal timestamps
        // and preserving FIFO order inside each run.
        while let Some(entry) = self.inbox.pop() {
            out.push((entry.at, entry.event));
        }
        out.extend(self.queue.drain_pending());
        out.sort_by_key(|&(at, _)| at);
        out
    }

    /// Runs until the queue drains or the next event would occur strictly
    /// after `horizon` (events *at* the horizon are processed).
    pub fn run_until(&mut self, horizon: Picos) -> RunOutcome {
        loop {
            // The sequential hot path pays exactly one `is_empty` branch
            // for the inbox; shard runs additionally peek both heads so
            // the earlier (inbox at ties) is delivered first.
            if !self.inbox.is_empty() {
                if let Some((time, event)) = self.pop_inbox_if_due(horizon) {
                    debug_assert!(time >= self.now, "inbox went backwards");
                    self.now = time;
                    self.processed += 1;
                    self.model.handle(time, event, &mut self.queue);
                    continue;
                }
            }
            // One call decides "in range?" and pops — no separate peek
            // pass over the calendar on the per-event hot path.
            match self.queue.pop_if_at_or_before(horizon) {
                Some((time, event)) => {
                    debug_assert!(time >= self.now, "event calendar went backwards");
                    self.now = time;
                    self.processed += 1;
                    self.model.handle(time, event, &mut self.queue);
                }
                None => {
                    return if self.queue.is_empty() && self.inbox.is_empty() {
                        RunOutcome::QueueDrained
                    } else {
                        RunOutcome::HorizonReached
                    };
                }
            }
        }
    }

    /// Runs until the queue is fully drained.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(Picos::MAX)
    }

    /// Processes exactly one event, if any is pending, and returns its
    /// time: the single-event form of [`Engine::run_until`]'s ordering
    /// (a due inbox event wins ties), which the tests step through.
    #[cfg(test)]
    fn step(&mut self) -> Option<Picos> {
        let (time, event) = if !self.inbox.is_empty() {
            self.pop_inbox_if_due(Picos::MAX)
                .or_else(|| self.queue.pop())?
        } else {
            self.queue.pop()?
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.processed += 1;
        self.model.handle(time, event, &mut self.queue);
        Some(time)
    }
}

impl<M: SimModel + std::fmt::Debug> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.queue.len())
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::DEFAULT_BUCKET_PS;

    #[derive(Debug)]
    struct Echo {
        seen: Vec<(Picos, u32)>,
        respawn: bool,
    }

    impl SimModel for Echo {
        type Event = u32;
        fn handle(&mut self, now: Picos, ev: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            if self.respawn && ev < 5 {
                queue.schedule(now + Picos::from_ns(1), ev + 1);
            }
        }
    }

    #[test]
    fn drains_queue() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(2), 20);
        eng.queue_mut().schedule(Picos::from_ns(1), 10);
        assert_eq!(eng.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(
            eng.model().seen,
            vec![(Picos::from_ns(1), 10), (Picos::from_ns(2), 20)]
        );
        assert_eq!(eng.now(), Picos::from_ns(2));
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn respects_horizon_inclusive() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(1), 1);
        eng.queue_mut().schedule(Picos::from_ns(2), 2);
        eng.queue_mut().schedule(Picos::from_ns(3), 3);
        assert_eq!(eng.run_until(Picos::from_ns(2)), RunOutcome::HorizonReached);
        assert_eq!(eng.model().seen.len(), 2);
        // The event at 3ns is still pending.
        assert_eq!(eng.queue().len(), 1);
    }

    #[test]
    fn self_scheduling_chain() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: true,
        });
        eng.queue_mut().schedule(Picos::ZERO, 0);
        assert_eq!(eng.run_to_completion(), RunOutcome::QueueDrained);
        assert_eq!(eng.model().seen.len(), 6); // events 0..=5
        assert_eq!(eng.now(), Picos::from_ns(5));
    }

    #[test]
    fn step_processes_one() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(4), 7);
        assert_eq!(eng.step(), Some(Picos::from_ns(4)));
        assert_eq!(eng.step(), None);
    }

    #[test]
    fn with_capacity_runs_identically() {
        let run = |mut eng: Engine<Echo>| {
            eng.queue_mut().schedule(Picos::ZERO, 0);
            eng.run_to_completion();
            eng.into_model().seen
        };
        let plain = run(Engine::new(Echo {
            seen: vec![],
            respawn: true,
        }));
        let sized = run(Engine::with_queue(
            Echo {
                seen: vec![],
                respawn: true,
            },
            EventQueue::with_capacity_and_width(1 << 12, Picos::from_ps(DEFAULT_BUCKET_PS)),
        ));
        assert_eq!(plain, sized);
    }

    #[test]
    fn inbox_wins_ties_against_calendar_events() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        let t = Picos::from_ns(2);
        eng.queue_mut().schedule(t, 1);
        eng.push_external(t, 100);
        eng.push_external(t, 101); // same time: FIFO by push order
        eng.queue_mut().schedule(Picos::from_ns(1), 0);
        assert_eq!(eng.run_until(t), RunOutcome::QueueDrained);
        assert_eq!(
            eng.model().seen,
            vec![
                (Picos::from_ns(1), 0),
                (t, 100),
                (t, 101),
                (t, 1), // calendar event loses the tie
            ]
        );
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn inbox_events_persist_across_windows() {
        // An inbox event due past the current horizon must stay pending
        // (the sharded runtime pushes arrivals several windows ahead).
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.push_external(Picos::from_ns(5), 50);
        assert_eq!(eng.run_until(Picos::from_ns(3)), RunOutcome::HorizonReached);
        assert!(eng.model().seen.is_empty());
        assert_eq!(eng.run_until(Picos::from_ns(5)), RunOutcome::QueueDrained);
        assert_eq!(eng.model().seen, vec![(Picos::from_ns(5), 50)]);
    }

    #[test]
    fn step_prefers_due_inbox_event() {
        let mut eng = Engine::new(Echo {
            seen: vec![],
            respawn: false,
        });
        eng.queue_mut().schedule(Picos::from_ns(2), 1);
        eng.push_external(Picos::from_ns(2), 100);
        assert_eq!(eng.step(), Some(Picos::from_ns(2)));
        assert_eq!(eng.model().seen, vec![(Picos::from_ns(2), 100)]);
        assert_eq!(eng.step(), Some(Picos::from_ns(2)));
        assert_eq!(eng.model().seen.len(), 2);
    }

    /// A model that, on its first event at time t, schedules another event
    /// at exactly t — the seam the wheel's drain path must keep intact.
    #[derive(Debug)]
    struct SameInstant {
        seen: Vec<(Picos, u32)>,
    }

    impl SimModel for SameInstant {
        type Event = u32;
        fn handle(&mut self, now: Picos, ev: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, ev));
            if ev == 1 {
                queue.schedule(now, 99); // zero-delay follow-up at `now`
            }
        }
    }

    #[test]
    fn zero_delay_event_delivered_within_horizon_after_queued_peers() {
        // Two events are queued at t; handling the first schedules a third
        // at t. run_until(t) must deliver all three this cycle — the
        // zero-delay event after the already-queued peers (FIFO), never
        // left pending past the horizon.
        let t = Picos::from_ns(3);
        let mut eng = Engine::new(SameInstant { seen: vec![] });
        eng.queue_mut().schedule(t, 1);
        eng.queue_mut().schedule(t, 2);
        assert_eq!(eng.run_until(t), RunOutcome::QueueDrained);
        assert_eq!(eng.model().seen, vec![(t, 1), (t, 2), (t, 99)]);
    }
}

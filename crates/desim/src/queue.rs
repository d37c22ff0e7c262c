//! The event calendar: a **bucketed cycle wheel**.
//!
//! A ring of [`WHEEL_SLOTS`] per-bucket FIFO lanes, each bucket one router
//! cycle wide by default, plus an overflow binary heap for far-future
//! events (policy transition completions, laser decisions, fault onsets).
//! The cycle-synchronous common case — every flit/credit arrival landing
//! within a few cycles of `now` — becomes an O(1) lane append and an
//! amortized O(1) drain of a sorted `Vec`, instead of O(log n) heap sifts
//! per event.
//!
//! Events are delivered in nondecreasing `(time, seq)` order, i.e. FIFO
//! among events scheduled for the same instant — exactly the order of a
//! plain binary heap keyed on `(time, seq)`. The property tests in
//! `tests/tests/event_core.rs` pin that equivalence against such a heap
//! model, for arbitrary schedules and for a full power-aware run.

use crate::time::Picos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default bucket width: one 625 MHz router-core cycle (1600 ps). Widths
/// are rounded *down* to a power of two internally (1024 ps here) so
/// bucket indexing compiles to a shift; this only changes how events are
/// grouped into lanes, never the delivery order. Rounding down (not up)
/// matters for speed: with buckets no wider than the cycle, an event
/// scheduled a cycle or more ahead always lands in a *later* bucket, so
/// the in-progress drain almost never takes a mid-flight insertion and
/// the re-sort path stays cold.
pub(crate) const DEFAULT_BUCKET_PS: u64 = 1600;

/// Number of near-future buckets in the wheel (must be a power of two).
/// 256 cycles comfortably covers flit serialization at the slowest ladder
/// rate and credit round-trips; anything further out is overflow.
pub const WHEEL_SLOTS: usize = 256;

const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;

/// An entry in the calendar: ordered by time, then by insertion sequence.
struct Entry<E> {
    time: Picos,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The delivery-order key, packed into one u128 so hot-path
    /// comparisons are a single wide compare instead of two chained ones.
    #[inline]
    fn key(&self) -> u128 {
        ((self.time.as_ps() as u128) << 64) | self.seq as u128
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Sequence tie-break gives deterministic FIFO order for
        // events scheduled at the same instant.
        other.key().cmp(&self.key())
    }
}

/// The hierarchical bucketed cycle wheel.
///
/// Invariants (checked in debug builds where cheap):
///
/// - `drain` holds the entries of the bucket at `cursor` (plus any entries
///   scheduled at-or-before the cursor bucket after the fact); when
///   `drain_sorted`, it is sorted *descending* by `(time, seq)` so the
///   earliest entry pops off the back in O(1).
/// - every slot holds entries of exactly one absolute bucket in
///   `(cursor, cursor + WHEEL_SLOTS)`; a bucket index maps to slot
///   `bucket & SLOT_MASK`.
/// - `overflow` holds entries whose bucket was `>= cursor + WHEEL_SLOTS`
///   at schedule time; they are pulled into `drain` when the cursor
///   reaches their bucket (no intermediate migration pass needed).
struct Wheel<E> {
    /// log2 of the bucket width: the requested width is rounded down to a
    /// power of two so bucket indexing is a shift, not a 64-bit division
    /// (which is a measurable cost at two ops per event). See
    /// [`DEFAULT_BUCKET_PS`] for why down rather than up.
    shift: u32,
    slots: Vec<Vec<Entry<E>>>,
    /// Absolute index of the bucket currently draining.
    cursor: u64,
    drain: Vec<Entry<E>>,
    drain_sorted: bool,
    /// Entries across all slots (excluding `drain` and `overflow`).
    in_slots: usize,
    overflow: BinaryHeap<Entry<E>>,
}

impl<E> Wheel<E> {
    fn new(width: Picos, capacity: usize) -> Self {
        assert!(width > Picos::ZERO, "bucket width must be positive");
        // The drain and a handful of slots recycle their buffers between
        // bucket swaps, so a modest up-front reservation suffices.
        let drain = Vec::with_capacity(capacity / 8);
        let w = width.as_ps();
        let shift = 63 - w.leading_zeros(); // floor(log2(width))
        Wheel {
            shift,
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            drain,
            drain_sorted: true,
            in_slots: 0,
            overflow: BinaryHeap::with_capacity(capacity / 16),
        }
    }

    #[inline]
    fn bucket_of(&self, t: Picos) -> u64 {
        t.as_ps() >> self.shift
    }

    #[inline]
    fn schedule(&mut self, entry: Entry<E>, queue_was_empty: bool) {
        let bucket = self.bucket_of(entry.time);
        if queue_was_empty {
            // Nothing pending: retarget the wheel at this bucket so the
            // entry drains directly (keeps the cursor from lagging far
            // behind after idle stretches).
            debug_assert!(self.drain.is_empty() && self.in_slots == 0);
            self.cursor = bucket;
            self.drain.push(entry);
            self.drain_sorted = true;
            return;
        }
        if bucket <= self.cursor {
            // Current (or past) bucket: joins the in-progress drain and
            // forces a re-sort so (time, seq) order still holds.
            self.drain.push(entry);
            self.drain_sorted = false;
        } else if bucket < self.cursor + WHEEL_SLOTS as u64 {
            self.slots[(bucket & SLOT_MASK) as usize].push(entry);
            self.in_slots += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Sorts the drain descending by `(time, seq)` (earliest last).
    #[inline]
    fn sort_drain(&mut self) {
        // Keys are unique (the sequence number breaks time ties), so an
        // unstable sort is exact.
        self.drain
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        self.drain_sorted = true;
    }

    /// Advances the cursor to the next pending bucket and loads it into
    /// the drain. Pre: `drain` is empty and something is pending.
    fn advance(&mut self) {
        debug_assert!(self.drain.is_empty());
        let overflow_bucket = self.overflow.peek().map(|e| self.bucket_of(e.time));
        let next = if self.in_slots == 0 {
            overflow_bucket.expect("advance called with nothing pending")
        } else {
            let mut found = None;
            for k in 1..=WHEEL_SLOTS as u64 {
                let b = self.cursor + k;
                if !self.slots[(b & SLOT_MASK) as usize].is_empty() {
                    found = Some(b);
                    break;
                }
            }
            let slot_bucket = found.expect("in_slots > 0 but every slot empty");
            match overflow_bucket {
                Some(ob) if ob < slot_bucket => ob,
                _ => slot_bucket,
            }
        };
        self.cursor = next;
        // Swap rather than move so the drained bucket inherits the
        // drain's (empty, but allocated) buffer.
        std::mem::swap(
            &mut self.drain,
            &mut self.slots[(next & SLOT_MASK) as usize],
        );
        self.in_slots -= self.drain.len();
        while let Some(e) = self.overflow.peek() {
            if self.bucket_of(e.time) != next {
                break;
            }
            self.drain
                .push(self.overflow.pop().expect("peeked entry must pop"));
        }
        self.sort_drain();
    }

    fn pop_if_at_or_before(&mut self, horizon: Picos) -> Option<(Picos, E)> {
        loop {
            if !self.drain.is_empty() {
                if !self.drain_sorted {
                    self.sort_drain();
                }
                let earliest = self.drain.last().expect("drain nonempty").time;
                if earliest > horizon {
                    return None;
                }
                let e = self.drain.pop().expect("drain nonempty");
                return Some((e.time, e.event));
            }
            if self.in_slots == 0 && self.overflow.is_empty() {
                return None;
            }
            self.advance();
        }
    }

    fn peek_time(&self) -> Option<Picos> {
        if !self.drain.is_empty() {
            if self.drain_sorted {
                return self.drain.last().map(|e| e.time);
            }
            return self.drain.iter().map(|e| e.time).min();
        }
        let overflow = self
            .overflow
            .peek()
            .map(|e| (self.bucket_of(e.time), e.time));
        if self.in_slots == 0 {
            return overflow.map(|(_, t)| t);
        }
        let mut slot_min = None;
        for k in 1..=WHEEL_SLOTS as u64 {
            let b = self.cursor + k;
            let slot = &self.slots[(b & SLOT_MASK) as usize];
            if !slot.is_empty() {
                let t = slot.iter().map(|e| e.time).min().expect("slot nonempty");
                slot_min = Some((b, t));
                break;
            }
        }
        let (slot_bucket, slot_time) = slot_min.expect("in_slots > 0 but every slot empty");
        match overflow {
            Some((ob, ot)) if ob < slot_bucket => Some(ot),
            Some((ob, ot)) if ob == slot_bucket => Some(ot.min(slot_time)),
            _ => Some(slot_time),
        }
    }
}

/// A deterministic pending-event calendar.
///
/// Events scheduled for the same timestamp are delivered in the order they
/// were scheduled (FIFO), which makes whole-system simulations reproducible
/// regardless of calendar internals (see the module docs for the wheel).
///
/// # Example
///
/// ```
/// use lumen_desim::{EventQueue, Picos};
/// let mut q = EventQueue::new();
/// q.schedule(Picos::from_ns(5), "b");
/// q.schedule(Picos::from_ns(1), "a");
/// q.schedule(Picos::from_ns(5), "c");
/// assert_eq!(q.pop(), Some((Picos::from_ns(1), "a")));
/// assert_eq!(q.pop(), Some((Picos::from_ns(5), "b")));
/// assert_eq!(q.pop(), Some((Picos::from_ns(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    next_seq: u64,
    scheduled_total: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty wheel-backed queue with the default bucket width
    /// (one router-core cycle, `DEFAULT_BUCKET_PS`).
    pub fn new() -> Self {
        Self::with_capacity_and_width(0, Picos::from_ps(DEFAULT_BUCKET_PS))
    }

    /// Creates an empty wheel-backed queue whose buckets are `width` wide
    /// (typically the driving clock's cycle, so that the near-future ring
    /// holds about one FIFO lane per cycle). The width is rounded down to
    /// a power of two so bucket indexing is a shift; delivery order is
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_bucket_width(width: Picos) -> Self {
        Self::with_capacity_and_width(0, width)
    }

    /// Creates an empty wheel-backed queue with both a pre-allocated
    /// capacity and a bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_capacity_and_width(capacity: usize, width: Picos) -> Self {
        EventQueue {
            wheel: Wheel::new(width, capacity),
            next_seq: 0,
            scheduled_total: 0,
            len: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: Picos, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        let was_empty = self.len == 0;
        self.len += 1;
        self.wheel.schedule(entry, was_empty);
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(Picos, E)> {
        self.pop_if_at_or_before(Picos::MAX)
    }

    /// Removes and returns the earliest pending event if its time is at or
    /// before `horizon`; otherwise leaves the queue untouched and returns
    /// `None`. This is the engine's hot path: one call decides both "is
    /// there an event in range" and "give it to me", without a separate
    /// peek pass.
    #[inline]
    pub fn pop_if_at_or_before(&mut self, horizon: Picos) -> Option<(Picos, E)> {
        let popped = self.wheel.pop_if_at_or_before(horizon);
        if popped.is_some() {
            self.len -= 1;
        }
        popped
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Picos> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Removes **every** pending event and returns them in delivery
    /// order — nondecreasing `(time, seq)`, exactly the sequence
    /// [`EventQueue::pop`] would have produced. The checkpoint machinery
    /// uses this to capture a mid-run calendar (wheel lanes, overflow
    /// heap, and packed sort keys alike collapse to one sorted list);
    /// it is a cold path, so the `O(n log n)` drain cost is irrelevant.
    ///
    /// The queue is empty afterwards, but `scheduled_total` (and the
    /// internal sequence counter) keep counting from where they were.
    ///
    /// # Example
    ///
    /// ```
    /// use lumen_desim::{EventQueue, Picos};
    /// let mut q = EventQueue::new();
    /// q.schedule(Picos::from_ns(5), "late");
    /// q.schedule(Picos::from_ns(1), "early");
    /// assert_eq!(
    ///     q.drain_pending(),
    ///     vec![(Picos::from_ns(1), "early"), (Picos::from_ns(5), "late")],
    /// );
    /// assert!(q.is_empty());
    /// ```
    pub fn drain_pending(&mut self) -> Vec<(Picos, E)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(30), 3);
        q.schedule(Picos::from_ns(10), 1);
        q.schedule(Picos::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Picos::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(2), "t2-a");
        q.schedule(Picos::from_ns(1), "t1-a");
        q.schedule(Picos::from_ns(2), "t2-b");
        q.schedule(Picos::from_ns(1), "t1-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["t1-a", "t1-b", "t2-a", "t2-b"]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Picos::from_ns(7), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Picos::from_ns(7)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }

    #[test]
    fn property_pops_sorted_with_fifo_ties() {
        use crate::rng::Rng;
        // Randomized schedule orders must always drain in nondecreasing
        // time order, FIFO among equal timestamps.
        for seed in 0..50u64 {
            let mut rng = Rng::seed_from(seed);
            let mut q = EventQueue::new();
            for i in 0..500u64 {
                // Coarse buckets force many ties.
                q.schedule(Picos::from_ps(rng.next_below(16) * 100), i as i32);
            }
            let mut last: Option<(Picos, i32)> = None;
            while let Some((t, id)) = q.pop() {
                if let Some((lt, lid)) = last {
                    assert!(t >= lt, "time went backwards (seed {seed})");
                    if t == lt {
                        assert!(id > lid, "FIFO violated at {t} (seed {seed})");
                    }
                }
                last = Some((t, id));
            }
        }
    }

    #[test]
    fn zero_time_events() {
        let mut q = EventQueue::new();
        q.schedule(Picos::ZERO, 1);
        q.schedule(Picos::ZERO, 2);
        assert_eq!(q.pop(), Some((Picos::ZERO, 1)));
        assert_eq!(q.pop(), Some((Picos::ZERO, 2)));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        // Events far beyond the wheel horizon live in the overflow heap
        // and still come back in order, interleaved with near events.
        let mut q = EventQueue::with_bucket_width(Picos::from_ps(1600));
        let far = Picos::from_ps(1600 * (WHEEL_SLOTS as u64 * 40)); // ~40 revolutions out
        q.schedule(far, 3);
        q.schedule(Picos::from_ps(100), 1);
        q.schedule(far, 4);
        q.schedule(Picos::from_ps(1600 * 10), 2);
        q.schedule(far + Picos::from_ps(1), 5);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn schedule_into_current_bucket_while_draining() {
        // The engine seam: after popping an event at time t, a handler may
        // schedule another event at t (or slightly later within the same
        // bucket). It must be delivered after already-queued events at t
        // (FIFO) but before the next bucket.
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ps(1000), 1);
        q.schedule(Picos::from_ps(1000), 2);
        q.schedule(Picos::from_ps(3200), 9);
        assert_eq!(q.pop(), Some((Picos::from_ps(1000), 1)));
        // Mid-drain insertions: same instant, and same bucket but later.
        q.schedule(Picos::from_ps(1000), 3);
        q.schedule(Picos::from_ps(1500), 4);
        assert_eq!(q.pop(), Some((Picos::from_ps(1000), 2)));
        assert_eq!(q.pop(), Some((Picos::from_ps(1000), 3)));
        assert_eq!(q.peek_time(), Some(Picos::from_ps(1500)));
        assert_eq!(q.pop(), Some((Picos::from_ps(1500), 4)));
        assert_eq!(q.pop(), Some((Picos::from_ps(3200), 9)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_into_the_past_still_delivers_first() {
        // A heap would deliver the global (time, seq) minimum regardless
        // of what was popped before; the wheel must match even when an
        // event lands behind the cursor.
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(10), 1);
        q.schedule(Picos::from_ns(500), 3);
        assert_eq!(q.pop(), Some((Picos::from_ns(10), 1)));
        q.schedule(Picos::from_ns(1), 2); // behind the frontier
        assert_eq!(q.peek_time(), Some(Picos::from_ns(1)));
        assert_eq!(q.pop(), Some((Picos::from_ns(1), 2)));
        assert_eq!(q.pop(), Some((Picos::from_ns(500), 3)));
    }

    #[test]
    fn pop_if_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(1), 1);
        q.schedule(Picos::from_ns(5), 2);
        assert_eq!(
            q.pop_if_at_or_before(Picos::from_ns(2)),
            Some((Picos::from_ns(1), 1))
        );
        assert_eq!(q.pop_if_at_or_before(Picos::from_ns(2)), None);
        assert_eq!(q.len(), 1, "beyond-horizon event must stay queued");
        assert_eq!(
            q.pop_if_at_or_before(Picos::from_ns(5)),
            Some((Picos::from_ns(5), 2))
        );
        assert_eq!(q.pop_if_at_or_before(Picos::MAX), None);
    }

    #[test]
    fn idle_gap_retargets_the_wheel() {
        // Drain the queue completely, then schedule far ahead: the wheel
        // must jump its cursor instead of stepping through empty buckets.
        let mut q = EventQueue::new();
        q.schedule(Picos::from_ns(1), 1);
        assert_eq!(q.pop(), Some((Picos::from_ns(1), 1)));
        q.schedule(Picos::from_ms(500), 2); // ~3e8 buckets ahead
        assert_eq!(q.peek_time(), Some(Picos::from_ms(500)));
        assert_eq!(q.pop(), Some((Picos::from_ms(500), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_matches_reference_heap_on_random_interleavings() {
        use crate::rng::Rng;
        use std::cmp::Reverse;
        // Differential check against a plain binary heap keyed on
        // `(time, seq)`: random mixes of schedules (near, far, past) and
        // pops must produce identical sequences. Each event is its own
        // sequence number, so the heap key carries it.
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from(seed ^ 0xabcdef);
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let heap_pop = |h: &mut BinaryHeap<Reverse<(u64, u64)>>| {
                h.pop()
                    .map(|Reverse((t, id))| (Picos::from_ps(t), id as i32))
            };
            let mut out_wheel = Vec::new();
            let mut out_heap = Vec::new();
            for step in 0..400u64 {
                if rng.next_below(3) < 2 {
                    // Mix of bucket-local ties, near future, and far future.
                    let t = match rng.next_below(10) {
                        0..=5 => rng.next_below(64) * 800,
                        6..=8 => rng.next_below(1 << 20),
                        _ => rng.next_below(1 << 42),
                    };
                    wheel.schedule(Picos::from_ps(t), step as i32);
                    heap.push(Reverse((t, step)));
                } else {
                    out_wheel.push(wheel.pop());
                    out_heap.push(heap_pop(&mut heap));
                }
            }
            while let Some(e) = wheel.pop() {
                out_wheel.push(Some(e));
            }
            while let Some(e) = heap_pop(&mut heap) {
                out_heap.push(Some(e));
            }
            assert_eq!(out_wheel, out_heap, "diverged (seed {seed})");
            assert_eq!(wheel.len(), 0);
        }
    }

    #[test]
    fn len_tracks_across_tiers() {
        let mut q = EventQueue::new();
        let far = Picos::from_ps(1600 * (WHEEL_SLOTS as u64 + 10));
        q.schedule(Picos::ZERO, 1);
        q.schedule(Picos::from_ps(1600 * 5), 2);
        q.schedule(far, 3);
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
    }
}

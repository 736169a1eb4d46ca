//! The time-ordered event queue at the heart of the engine.
//!
//! [`Scheduler`] is a hierarchical timing wheel: four levels of 256 slots
//! each, covering 2^32 ns (~4.29 s) of look-ahead at 1 ns resolution, with a
//! binary-heap overflow for events beyond the horizon. Near-term events —
//! the overwhelming majority in a packet-level simulation, where delays are
//! link latencies and queue drains — insert and pop in O(1) instead of the
//! O(log n) of the previous single [`BinaryHeap`] implementation, which
//! survives only as the oracle of the differential property test below.
//!
//! Determinism is the binding constraint: the wheel must pop the *exact*
//! same `(time, seq)` sequence as the heap, because downstream experiment
//! traces are compared bit-for-bit across runs. The wheel guarantees this
//! structurally:
//!
//! * an event is written once, at insert, into the slot of the shallowest
//!   level whose window contains it, and moved once, at staging, from that
//!   slot to the ready queue — whichever level the slot is on. There is no
//!   level-by-level cascade: when level 0 is empty, the first occupied slot
//!   of the shallowest non-empty level already holds the next tick (its
//!   entries due at the slot's minimum), and only the *later* entries of
//!   such a shared deep slot are re-filed, against a base advanced to the
//!   staged instant's 256 ns window;
//! * one base decides every placement, and advancing it that way changes
//!   no other entry's placement (the argument is on `refill_ready`), so
//!   entries due at the same instant always share one slot: a staged tick
//!   is complete;
//! * slot lists only ever append and re-filing walks a slot front to back,
//!   so entries with equal `at` sit in `seq` order unless the overflow heap
//!   returned them key-first; either way the staged tick is sorted by
//!   `(key, seq)` before it is handed out (a single scan when it already
//!   is).
//!
//! # Keys and stages
//!
//! Every entry also carries a caller-supplied **key** (default 0), and
//! delivery order is `(at, key, seq)`: within one staged tick, events are
//! sorted by key first, then by schedule order. Keys exist for the
//! space-parallel executor — the `World` derives each event's key from the
//! node/link *stream* it belongs to, a value computable identically in
//! sequential and region-parallel runs, which makes same-instant delivery
//! order independent of which worker executed the neighboring region.
//!
//! Same-instant events scheduled *while a tick at that instant is being
//! drained* do not join the live tick; they re-enter the wheel and surface
//! as the next **stage** of the same timestamp (a fresh sorted tick at the
//! same `at`). Per-event [`Scheduler::pop`] and batched
//! [`Scheduler::pop_tick_until`] therefore yield byte-identical sequences,
//! and a region executor can mirror the stage boundaries deterministically.
//! [`Scheduler::stage`] numbers the staged ticks, so a caller can tell
//! whether something it recorded earlier happened in the stage now being
//! drained or in an earlier one.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::{SimDuration, SimTime};

/// Bits of slot index per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; events further than `2^(SLOT_BITS*(LEVELS+1))` ns
/// past the wheel base overflow into the heap.
const LEVELS: usize = 4;

struct Entry<E> {
    /// Absolute due time in nanoseconds.
    at: u64,
    /// Caller-supplied ordering key; ties broken by `seq`.
    key: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (time, key, seq)
        // pops first. `seq` makes simultaneous same-key events FIFO and the
        // whole run deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One wheel level: 256 append-only slot lists plus an occupancy bitmap and
/// a per-slot minimum due time (`u64::MAX` when empty) so that
/// [`Scheduler::peek_time`] never has to walk or mutate slot contents.
struct Level<E> {
    slots: Vec<Vec<Entry<E>>>,
    occupied: [u64; SLOTS / 64],
    mins: Vec<u64>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; SLOTS / 64],
            mins: vec![u64::MAX; SLOTS],
        }
    }

    fn push(&mut self, slot: usize, entry: Entry<E>) {
        self.occupied[slot >> 6] |= 1u64 << (slot & 63);
        if entry.at < self.mins[slot] {
            self.mins[slot] = entry.at;
        }
        self.slots[slot].push(entry);
    }

    /// Index of the first occupied slot, scanning the bitmap words.
    fn first_occupied(&self) -> Option<usize> {
        for (i, word) in self.occupied.iter().enumerate() {
            if *word != 0 {
                return Some(i * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Marks `slot` empty after its contents have been drained elsewhere.
    fn mark_drained(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        self.mins[slot] = u64::MAX;
    }

    #[cfg(test)]
    fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupied = [0; SLOTS / 64];
        self.mins.iter_mut().for_each(|m| *m = u64::MAX);
    }
}

/// A drained scheduler tick: every event sharing one due instant, in `seq`
/// order. Obtained (by buffer swap, not per-event copy) from
/// [`Scheduler::pop_tick_until`]; hand the emptied buffer back to the next
/// call so its capacity is reused.
pub struct Tick<E> {
    entries: VecDeque<Entry<E>>,
}

impl<E> Tick<E> {
    /// Creates an empty tick buffer.
    pub fn new() -> Self {
        Tick {
            entries: VecDeque::new(),
        }
    }

    /// Removes and returns the tick's events in delivery (`key`, `seq`)
    /// order.
    #[cfg(test)]
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = E> + '_ {
        self.entries.drain(..).map(|e| e.event)
    }

    /// Like `drain`, but yields each event's ordering key
    /// alongside it (the world's event loop stamps keys on tap records so
    /// cross-region observation order can be reconstructed canonically).
    pub fn drain_keyed(&mut self) -> impl Iterator<Item = (u64, E)> + '_ {
        self.entries.drain(..).map(|e| (e.key, e.event))
    }
}

impl<E> Default for Tick<E> {
    fn default() -> Self {
        Tick::new()
    }
}

/// A deterministic discrete-event scheduler.
///
/// Events are arbitrary payloads of type `E`. Popping advances the
/// simulation clock to the event's timestamp. Events scheduled for the same
/// instant are delivered in the order they were scheduled.
///
/// # Example
///
/// ```
/// use netco_sim::{Scheduler, SimDuration};
///
/// let mut s: Scheduler<u32> = Scheduler::new();
/// s.schedule_after(SimDuration::from_secs(1), 1);
/// s.schedule_after(SimDuration::from_secs(1), 2); // same instant: FIFO
/// assert_eq!(s.pop().unwrap().1, 1);
/// assert_eq!(s.pop().unwrap().1, 2);
/// assert!(s.pop().is_none());
/// ```
pub struct Scheduler<E> {
    now: u64,
    seq: u64,
    len: usize,
    /// Start of the window the wheel levels are aligned to. Invariants:
    /// 256-aligned (or 0), `wheel_base <= now`, and no pending event is due
    /// before `wheel_base`.
    wheel_base: u64,
    levels: [Level<E>; LEVELS],
    /// Overflow for events beyond the wheel horizon (same `2^32` ns block
    /// as `wheel_base`). Drained back into the wheels block by block.
    heap: BinaryHeap<Entry<E>>,
    /// The single 1 ns tick currently being drained; every entry here has
    /// `at == ready tick`, and once the first one has popped, `at == now`.
    ready: VecDeque<Entry<E>>,
    /// Reusable buffer for the later entries of a deep slot being staged.
    scratch: Vec<Entry<E>>,
    /// Ordinal of the tick most recently staged into `ready`.
    stage: u64,
    /// Telemetry handles (inert by default; see [`Scheduler::attach_telemetry`]).
    tel_scheduled: netco_telemetry::Counter,
    tel_pops: netco_telemetry::Counter,
    tel_depth: netco_telemetry::Gauge,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: 0,
            seq: 0,
            len: 0,
            wheel_base: 0,
            levels: std::array::from_fn(|_| Level::new()),
            heap: BinaryHeap::new(),
            ready: VecDeque::new(),
            scratch: Vec::new(),
            stage: 0,
            tel_scheduled: netco_telemetry::Counter::disabled(),
            tel_pops: netco_telemetry::Counter::disabled(),
            tel_depth: netco_telemetry::Gauge::disabled(),
        }
    }

    /// Wires this scheduler into a telemetry sink: every schedule and pop
    /// is counted under `sim.sched.*` and the pending-event depth (the
    /// "event budget" still outstanding) is tracked as a gauge with a
    /// high-water mark. With a disabled sink the handles stay inert and
    /// the hot-path cost is one branch per operation.
    pub fn attach_telemetry(&mut self, sink: &netco_telemetry::TelemetrySink) {
        self.tel_scheduled = sink.counter("sim.sched.scheduled");
        self.tel_pops = sink.counter("sim.sched.pops");
        self.tel_depth = sink.gauge("sim.sched.depth");
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Ordinal of the stage being drained: bumped every time a tick is
    /// staged, never reset. Two calls return the same value iff no stage
    /// boundary lies between them, so an event scheduled for `now()` under
    /// ordinal `s` is delivered under an ordinal greater than `s`.
    pub fn stage(&self) -> u64 {
        self.stage
    }

    /// Makes every later stage ordinal exceed `stage`. State that carries
    /// ordinals from one scheduler into another (a region shard and its
    /// parent world) calls this on the receiving side, so that a carried
    /// ordinal can never equal a stage the receiver is yet to drain.
    pub fn skip_stages_to(&mut self, stage: u64) {
        self.stage = self.stage.max(stage);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Events scheduled in the past are delivered "now" (clock never runs
    /// backwards); this is deliberate so that zero-latency feedback loops
    /// cannot rewind time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_at_keyed(at, 0, event);
    }

    /// Schedules `event` at `at` with an explicit ordering key: delivery is
    /// in `(at, key, seq)` order. Same-instant arrivals while a tick at
    /// `at` is being drained become the next *stage* of that timestamp
    /// (they re-enter the wheel rather than joining the live tick), so the
    /// staged grouping is identical whether ticks are drained per event or
    /// in batch.
    pub fn schedule_at_keyed(&mut self, at: SimTime, key: u64, event: E) {
        let at = at.as_nanos().max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.tel_scheduled.inc();
        self.tel_depth.set(self.len as u64);
        self.insert(Entry {
            at,
            key,
            seq,
            event,
        });
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(SimTime::from_nanos(self.now).saturating_add(delay), event);
    }

    /// Schedules `event` after `delay` with an explicit ordering key.
    pub fn schedule_after_keyed(&mut self, delay: SimDuration, key: u64, event: E) {
        self.schedule_at_keyed(
            SimTime::from_nanos(self.now).saturating_add(delay),
            key,
            event,
        );
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ready.is_empty() && !self.refill_ready(u64::MAX) {
            return None;
        }
        let entry = self.ready.pop_front().expect("refill_ready staged a tick");
        debug_assert!(entry.at >= self.now, "time went backwards");
        self.now = entry.at;
        self.len -= 1;
        self.tel_pops.inc();
        Some((SimTime::from_nanos(entry.at), entry.event))
    }

    /// Removes the entire next due tick — every pending event sharing the
    /// earliest instant — provided it is due at or before `deadline`, and
    /// advances the clock to that instant. Returns the number of events
    /// drained; 0 when nothing is due by `deadline` (the tick stays pending
    /// and the clock does not move).
    ///
    /// This is the batched hot path: one wheel refill (one bitmap scan that
    /// also answers the deadline question, a heap pull when the wheels are
    /// empty) is amortized over the whole tick instead of being paid per
    /// [`pop`](Scheduler::pop), and the tick is handed over by buffer swap
    /// — `tick` (which must be empty) swaps places with the internal ready
    /// queue. An event is written once at insert and moved once at
    /// staging, from whichever wheel level holds it; only entries that
    /// share a deep slot with an earlier instant are re-filed, once per
    /// level they descend. The delivery order is bit-identical to repeated
    /// `pop` calls. Events scheduled *between* ticks for the instant just
    /// drained re-enter the wheel and surface as the next tick — still at
    /// the same timestamp, still in `(key, seq)` order — exactly where
    /// per-event popping would have delivered them.
    pub fn pop_tick_until(&mut self, deadline: SimTime, tick: &mut Tick<E>) -> usize {
        debug_assert!(tick.entries.is_empty(), "tick buffer handed back dirty");
        if !self.stage_tick_until(deadline) {
            return 0;
        }
        std::mem::swap(&mut self.ready, &mut tick.entries);
        let n = tick.entries.len();
        self.len -= n;
        self.tel_pops.add(n as u64);
        n
    }

    /// Stages the next tick due at or before `deadline` into `ready` and
    /// advances the clock to it. Returns `false` when nothing is due by
    /// `deadline`.
    fn stage_tick_until(&mut self, deadline: SimTime) -> bool {
        // A tick past the deadline stays unstaged: the clock must not move
        // and `peek_time` must keep seeing it in the wheel.
        if self.ready.is_empty() && !self.refill_ready(deadline.as_nanos()) {
            return false;
        }
        let at = self.ready.front().expect("tick is staged").at;
        if at > deadline.as_nanos() {
            // Only reachable when a tick was already part-drained by
            // per-event `pop` calls; never abandon it mid-tick.
            return false;
        }
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        true
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.ready.front() {
            return Some(SimTime::from_nanos(front.at));
        }
        // Wheel levels cover strictly increasing, disjoint time windows, so
        // the first occupied slot of the lowest occupied level holds the
        // minimum; the heap only holds events past every wheel window.
        for level in &self.levels {
            if let Some(slot) = level.first_occupied() {
                return Some(SimTime::from_nanos(level.mins[slot]));
            }
        }
        self.heap.peek().map(|e| SimTime::from_nanos(e.at))
    }

    /// Discards all pending events (the clock is unaffected).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        for level in &mut self.levels {
            level.reset();
        }
        self.heap.clear();
        self.ready.clear();
        self.len = 0;
        // Keep the base 256-aligned and <= now for future inserts.
        self.wheel_base = self.now & !(SLOTS as u64 - 1);
    }

    /// Routes an entry to the shallowest level whose window contains it:
    /// level `l` iff `at` and `wheel_base` agree on all bits above the
    /// level's slot index, else the overflow heap.
    fn insert(&mut self, entry: Entry<E>) {
        debug_assert!(entry.at >= self.wheel_base);
        let at = entry.at;
        for (lvl, level) in self.levels.iter_mut().enumerate() {
            let window = SLOT_BITS * (lvl as u32 + 1);
            if (at >> window) == (self.wheel_base >> window) {
                let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
                level.push(slot, entry);
                return;
            }
        }
        self.heap.push(entry);
    }

    /// Sorts the staged tick into `(key, seq)` delivery order. Slot lists
    /// append in `seq` order, so with all-default keys the tick is already
    /// sorted and this is a single scan with no allocation.
    fn sort_ready(&mut self) {
        let entries = self.ready.make_contiguous();
        if entries
            .windows(2)
            .all(|w| (w[0].key, w[0].seq) <= (w[1].key, w[1].seq))
        {
            return;
        }
        entries.sort_by_key(|e| (e.key, e.seq));
    }

    /// Removes every pending event in `(at, key, seq)` delivery order
    /// without advancing the clock. The space-parallel executor uses this
    /// to partition a world's pending events into per-region schedulers and
    /// to fold region leftovers back in afterwards.
    pub fn drain_all_ordered(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut out = Vec::with_capacity(self.len);
        loop {
            if self.ready.is_empty() && !self.refill_ready(u64::MAX) {
                break;
            }
            while let Some(entry) = self.ready.pop_front() {
                out.push((SimTime::from_nanos(entry.at), entry.key, entry.event));
            }
        }
        self.len = 0;
        // Draining advanced the base past `now`; re-anchor the now-empty
        // wheel so future inserts at `now` stay in range.
        self.wheel_base = self.now & !(SLOTS as u64 - 1);
        self.tel_depth.set(0);
        out
    }

    /// Stages the next due tick into `ready` if it is due at or before
    /// `deadline`, pulling the heap's next block into the wheels as needed.
    /// Returns `false`, with nothing moved, when nothing is pending or the
    /// next tick is due later.
    ///
    /// Wheel levels cover strictly increasing, disjoint windows, so the
    /// first occupied slot of the shallowest non-empty level holds the
    /// next tick: every entry of that slot due at `mins[slot]`, and (same
    /// instant ⇒ same level and slot under one base) no entry anywhere
    /// else. Those are staged straight from the level that holds them. A
    /// level-0 slot *is* one tick. A deeper slot may also hold strictly
    /// later instants; the base advances to the staged instant's 256 ns
    /// window and only those later entries are re-filed — they share the
    /// slot's bits with the new base, so they land at least one level
    /// down, and entries in every other slot still disagree with the new
    /// base exactly where they did with the old one, so they stay put.
    fn refill_ready(&mut self, deadline: u64) -> bool {
        debug_assert!(self.ready.is_empty());
        loop {
            if let Some((lvl, slot)) =
                (0..LEVELS).find_map(|l| self.levels[l].first_occupied().map(|s| (l, s)))
            {
                let level = &mut self.levels[lvl];
                let at = level.mins[slot];
                if at > deadline {
                    return false;
                }
                if lvl == 0 {
                    self.ready.extend(level.slots[slot].drain(..));
                    level.mark_drained(slot);
                } else {
                    debug_assert!(at & !(SLOTS as u64 - 1) > self.wheel_base);
                    self.wheel_base = at & !(SLOTS as u64 - 1);
                    let mut later = std::mem::take(&mut self.scratch);
                    for entry in level.slots[slot].drain(..) {
                        if entry.at == at {
                            self.ready.push_back(entry);
                        } else {
                            later.push(entry);
                        }
                    }
                    level.mark_drained(slot);
                    for entry in later.drain(..) {
                        self.insert(entry);
                    }
                    self.scratch = later;
                }
                self.sort_ready();
                self.stage += 1;
                return true;
            }
            // Wheels empty: pull the heap's next 2^32 ns block into the
            // wheels; its head lands at level 0. Not past the deadline: the
            // base must stay at or before `now`.
            if let Some(head) = self.heap.peek() {
                if head.at > deadline {
                    return false;
                }
                let block_base = self.wheel_base.max(head.at & !(SLOTS as u64 - 1));
                self.wheel_base = block_base;
                let horizon = SLOT_BITS * LEVELS as u32;
                while self
                    .heap
                    .peek()
                    .is_some_and(|e| (e.at >> horizon) == (block_base >> horizon))
                {
                    let entry = self.heap.pop().expect("peeked entry");
                    self.insert(entry);
                }
                continue;
            }
            return false;
        }
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &SimTime::from_nanos(self.now))
            .field("pending", &self.len)
            .finish()
    }
}

/// The previous `BinaryHeap`-backed scheduler, kept as the reference
/// implementation: the differential property test asserts the timing
/// wheel pops the identical `(time, seq)` sequence.
#[cfg(test)]
mod baseline {
    use std::collections::BinaryHeap;

    use crate::{SimDuration, SimTime};

    use super::Entry;

    /// Single-`BinaryHeap` scheduler with the same API and semantics as
    /// [`Scheduler`](super::Scheduler).
    pub(crate) struct HeapScheduler<E> {
        now: SimTime,
        seq: u64,
        heap: BinaryHeap<Entry<E>>,
    }

    impl<E> Default for HeapScheduler<E> {
        fn default() -> Self {
            HeapScheduler::new()
        }
    }

    impl<E> HeapScheduler<E> {
        /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
        pub(crate) fn new() -> Self {
            HeapScheduler {
                now: SimTime::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
            }
        }

        /// The current simulated time.
        pub(crate) fn now(&self) -> SimTime {
            self.now
        }

        /// Number of pending events.
        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }

        /// Schedules `event` at the absolute instant `at` (past clamps to now).
        pub(crate) fn schedule_at(&mut self, at: SimTime, event: E) {
            let at = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry {
                at: at.as_nanos(),
                key: 0,
                seq,
                event,
            });
        }

        /// Schedules `event` after `delay` from the current time.
        pub(crate) fn schedule_after(&mut self, delay: SimDuration, event: E) {
            self.schedule_at(self.now.saturating_add(delay), event);
        }

        /// Removes and returns the earliest event, advancing the clock.
        pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            let at = SimTime::from_nanos(entry.at);
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            Some((at, entry.event))
        }

        /// Timestamp of the earliest pending event, if any.
        pub(crate) fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| SimTime::from_nanos(e.at))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::baseline::HeapScheduler;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..50 {
            s.schedule_at(SimTime::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_after(SimDuration::from_micros(3), ());
        assert_eq!(s.now(), SimTime::ZERO);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(3_000));
        assert_eq!(s.now(), t);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(100), 1);
        s.pop();
        s.schedule_at(SimTime::from_nanos(50), 2); // in the past
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_nanos(100));
    }

    #[test]
    fn relative_scheduling_stacks() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_after(SimDuration::from_nanos(10), 1);
        s.pop();
        s.schedule_after(SimDuration::from_nanos(10), 2);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(20));
    }

    #[test]
    fn len_empty_clear() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert_eq!(s.pending(), 0);
        s.schedule_after(SimDuration::ZERO, 1);
        s.schedule_after(SimDuration::ZERO, 2);
        assert_eq!(s.pending(), 2);
        s.clear();
        assert_eq!(s.pending(), 0);
        assert!(s.pop().is_none());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(7), 1);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(s.now(), SimTime::ZERO);
    }

    #[test]
    fn interleaved_schedule_pop_is_deterministic() {
        // Two identical runs produce identical traces.
        fn run() -> Vec<(u64, u32)> {
            let mut s: Scheduler<u32> = Scheduler::new();
            let mut out = Vec::new();
            s.schedule_at(SimTime::from_nanos(1), 0);
            while let Some((t, e)) = s.pop() {
                out.push((t.as_nanos(), e));
                if e < 20 {
                    s.schedule_after(SimDuration::from_nanos(2), e + 1);
                    s.schedule_after(SimDuration::from_nanos(2), e + 100);
                }
            }
            out
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // Beyond 2^32 ns the wheel overflows into the heap; order must
        // still be exact when those events are drained back in.
        let mut s: Scheduler<u32> = Scheduler::new();
        let horizon = 1u64 << 32;
        s.schedule_at(SimTime::from_nanos(3 * horizon + 5), 3);
        s.schedule_at(SimTime::from_nanos(horizon + 7), 1);
        s.schedule_at(SimTime::from_nanos(12), 0);
        s.schedule_at(SimTime::from_nanos(2 * horizon), 2);
        s.schedule_at(SimTime::from_nanos(2 * horizon), 20); // same tick, FIFO
        let order: Vec<_> = std::iter::from_fn(|| s.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(
            order,
            vec![
                (12, 0),
                (horizon + 7, 1),
                (2 * horizon, 2),
                (2 * horizon, 20),
                (3 * horizon + 5, 3),
            ]
        );
    }

    #[test]
    fn same_instant_schedule_while_draining_tick() {
        // Scheduling at `now` while other events at `now` are still queued
        // must deliver FIFO at the same timestamp.
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), 1);
        s.schedule_at(SimTime::from_nanos(10), 2);
        let (t, e) = s.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (10, 1));
        s.schedule_at(SimTime::from_nanos(10), 3); // joins the live tick
        s.schedule_at(SimTime::from_nanos(5), 4); // past: clamps to the live tick
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(10)));
        let rest: Vec<_> = std::iter::from_fn(|| s.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        assert_eq!(rest, vec![(10, 2), (10, 3), (10, 4)]);
    }

    /// Drains the next tick due by `deadline` the way `World::run_until`
    /// does: swap it out, read its instant off the clock.
    fn pop_tick<E>(s: &mut Scheduler<E>, deadline: SimTime) -> Vec<(SimTime, E)> {
        let mut tick = Tick::new();
        let n = s.pop_tick_until(deadline, &mut tick);
        let at = s.now();
        let out: Vec<_> = tick.drain().map(|e| (at, e)).collect();
        assert_eq!(out.len(), n);
        out
    }

    #[test]
    fn pop_tick_drains_whole_tick() {
        let mut s: Scheduler<u32> = Scheduler::new();
        for i in 0..10 {
            s.schedule_at(SimTime::from_nanos(5), i);
        }
        s.schedule_at(SimTime::from_nanos(6), 99);
        let out = pop_tick(&mut s, SimTime::MAX);
        assert_eq!(out.len(), 10);
        assert_eq!(s.now(), SimTime::from_nanos(5));
        assert_eq!(s.pending(), 1);
        let events: Vec<u32> = out
            .iter()
            .map(|&(t, e)| {
                assert_eq!(t, SimTime::from_nanos(5));
                e
            })
            .collect();
        assert_eq!(events, (0..10).collect::<Vec<_>>());
        let out = pop_tick(&mut s, SimTime::MAX);
        assert_eq!(out, vec![(SimTime::from_nanos(6), 99)]);
        assert_eq!(pop_tick(&mut s, SimTime::MAX), vec![]);
    }

    #[test]
    fn pop_tick_until_respects_deadline() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), 1);
        s.schedule_at(SimTime::from_nanos(20), 2);
        assert_eq!(pop_tick(&mut s, SimTime::from_nanos(5)), vec![]);
        assert_eq!(s.now(), SimTime::ZERO, "deadline miss leaves the clock");
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(pop_tick(&mut s, SimTime::from_nanos(10)).len(), 1);
        assert_eq!(s.now(), SimTime::from_nanos(10));
        // The staged-but-refused tick still pops normally.
        assert_eq!(s.pop(), Some((SimTime::from_nanos(20), 2)));
    }

    #[test]
    fn same_instant_schedule_between_ticks_lands_next_tick() {
        // Between-tick arrivals for the instant just drained come out in
        // the next tick at the *same timestamp* — global (time, seq)
        // order is preserved, which is what makes batched dispatch
        // bit-identical to per-event dispatch.
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), 1);
        s.schedule_at(SimTime::from_nanos(10), 2);
        assert_eq!(pop_tick(&mut s, SimTime::MAX).len(), 2);
        s.schedule_at(SimTime::from_nanos(10), 3); // "handler" reschedule
        s.schedule_at(SimTime::from_nanos(5), 4); // past: clamps to now
        assert_eq!(
            pop_tick(&mut s, SimTime::MAX),
            vec![(SimTime::from_nanos(10), 3), (SimTime::from_nanos(10), 4)]
        );
    }

    #[test]
    fn pop_tick_finishes_partially_popped_tick() {
        // Mixing pop() and pop_tick_until(): the tick completes the one
        // the per-event pop started.
        let mut s: Scheduler<u8> = Scheduler::new();
        for i in 0..4 {
            s.schedule_at(SimTime::from_nanos(7), i);
        }
        assert_eq!(s.pop(), Some((SimTime::from_nanos(7), 0)));
        assert_eq!(pop_tick(&mut s, SimTime::MAX).len(), 3);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn keyed_order_beats_schedule_order_within_a_tick() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at_keyed(SimTime::from_nanos(10), 7, "late-key-first-scheduled");
        s.schedule_at_keyed(SimTime::from_nanos(10), 2, "low-key");
        s.schedule_at_keyed(SimTime::from_nanos(10), 7, "late-key-second-scheduled");
        s.schedule_at_keyed(SimTime::from_nanos(5), 9, "earlier-time-wins");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                "earlier-time-wins",
                "low-key",
                "late-key-first-scheduled",
                "late-key-second-scheduled",
            ]
        );
    }

    #[test]
    fn same_instant_arrivals_form_next_stage_sorted_by_key() {
        // An arrival at `now` while the tick at `now` drains surfaces as a
        // fresh stage of the same timestamp — sorted by key, after every
        // event of the current stage, identically for pop and batch.
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at_keyed(SimTime::from_nanos(10), 5, 1);
        s.schedule_at_keyed(SimTime::from_nanos(10), 1, 2);
        let (t, e) = s.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (10, 2), "key 1 before key 5");
        s.schedule_at_keyed(SimTime::from_nanos(10), 9, 3);
        s.schedule_at_keyed(SimTime::from_nanos(10), 0, 4);
        let rest: Vec<_> = std::iter::from_fn(|| s.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect();
        // Stage 1 finishes (key 5), then stage 2 sorted by key (0 then 9).
        assert_eq!(rest, vec![(10, 1), (10, 4), (10, 3)]);
    }

    #[test]
    fn stage_ordinal_changes_exactly_at_stage_boundaries() {
        // Per-event pops inside one tick share an ordinal; a same-instant
        // arrival surfaces under a later one; `skip_stages_to` only ever
        // moves the numbering forward.
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), 1);
        s.schedule_at(SimTime::from_nanos(10), 2);
        s.pop();
        let first = s.stage();
        s.schedule_at(SimTime::from_nanos(10), 3);
        s.pop();
        assert_eq!(s.stage(), first, "still draining the same tick");
        assert_eq!(s.pop(), Some((SimTime::from_nanos(10), 3)));
        assert!(s.stage() > first, "same instant, next stage");

        let mut tick = Tick::new();
        s.schedule_at(SimTime::from_nanos(10), 4);
        let before = s.stage();
        assert_eq!(s.pop_tick_until(SimTime::MAX, &mut tick), 1);
        assert!(s.stage() > before, "a batched tick is a stage too");

        s.skip_stages_to(1_000);
        assert_eq!(s.stage(), 1_000);
        s.skip_stages_to(5);
        assert_eq!(s.stage(), 1_000, "never backwards");
        s.schedule_at(SimTime::from_nanos(20), 5);
        s.pop();
        assert_eq!(s.stage(), 1_001);
    }

    #[test]
    fn drain_all_ordered_yields_delivery_order_and_leaves_clock() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(100), 0);
        s.pop();
        let horizon = 1u64 << 33;
        s.schedule_at_keyed(SimTime::from_nanos(horizon), 0, 5);
        s.schedule_at_keyed(SimTime::from_nanos(200), 3, 1);
        s.schedule_at_keyed(SimTime::from_nanos(200), 1, 2);
        s.schedule_at_keyed(SimTime::from_nanos(150), 9, 3);
        let drained: Vec<_> = s
            .drain_all_ordered()
            .into_iter()
            .map(|(t, k, e)| (t.as_nanos(), k, e))
            .collect();
        assert_eq!(
            drained,
            vec![(150, 9, 3), (200, 1, 2), (200, 3, 1), (horizon, 0, 5)]
        );
        assert_eq!(s.pending(), 0);
        assert_eq!(
            s.now(),
            SimTime::from_nanos(100),
            "drain must not move time"
        );
        // The re-anchored wheel keeps working.
        s.schedule_at(SimTime::from_nanos(120), 7);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(120), 7)));
    }

    /// One delay per residence: level 0, levels 1–3 and the overflow heap.
    const DEEP: [u64; 5] = [3, 3 << 8, 3 << 16, 3 << 24, 3 << 32];

    #[test]
    fn two_instants_in_one_deep_slot_stage_as_two_ticks() {
        // 2^16 + 5 and 2^16 + 300 share level 2's slot 1. Staging the
        // first must leave the second pending (re-filed one or more levels
        // down), visible to `peek_time`, and staged as a tick of its own.
        let (first, second) = ((1u64 << 16) + 5, (1u64 << 16) + 300);
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(second), 2);
        s.schedule_at(SimTime::from_nanos(first), 1);
        s.schedule_at(SimTime::from_nanos(first), 3);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(first)));
        assert_eq!(
            pop_tick(&mut s, SimTime::MAX),
            vec![
                (SimTime::from_nanos(first), 1),
                (SimTime::from_nanos(first), 3)
            ]
        );
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(second)));
        assert_eq!(s.pending(), 1);
        assert_eq!(pop_tick(&mut s, SimTime::from_nanos(second - 1)), vec![]);
        assert_eq!(s.now(), SimTime::from_nanos(first), "refused: clock stays");
        assert_eq!(
            pop_tick(&mut s, SimTime::MAX),
            vec![(SimTime::from_nanos(second), 2)]
        );
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn same_instant_arrival_while_deep_staged_tick_drains_is_next_stage() {
        let at = SimTime::from_nanos(DEEP[2] + 9);
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(at, 1);
        s.schedule_at(at, 2);
        assert_eq!(s.pop(), Some((at, 1)), "staged straight from level 2");
        let staged = s.stage();
        s.schedule_at(s.now(), 3);
        assert_eq!(s.pop(), Some((at, 2)));
        assert_eq!(s.stage(), staged, "the arrival did not join the live tick");
        assert_eq!(s.pop(), Some((at, 3)));
        assert!(s.stage() > staged);
    }

    #[test]
    fn drain_all_ordered_spans_every_level_and_the_heap() {
        let mut s: Scheduler<usize> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(40), 0);
        s.pop();
        let mut model = Vec::new();
        for (i, &d) in DEEP.iter().enumerate() {
            for (j, key) in [(0, 2u64), (1, 0), (2, 2)] {
                // The first and third share an instant and a key (FIFO);
                // the second is 1 ns later in the same deep slot.
                let at = 40 + d + (j == 1) as u64;
                s.schedule_at_keyed(SimTime::from_nanos(at), key, 3 * i + j);
                model.push((at, key, 3 * i + j));
            }
        }
        model.sort();
        let drained: Vec<_> = s
            .drain_all_ordered()
            .into_iter()
            .map(|(t, k, e)| (t.as_nanos(), k, e))
            .collect();
        assert_eq!(drained, model);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.now(), SimTime::from_nanos(40));
        s.schedule_at(s.now(), 99);
        s.schedule_after(SimDuration::from_nanos(DEEP[1]), 100);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(40), 99)));
        assert_eq!(s.pop(), Some((SimTime::from_nanos(40 + DEEP[1]), 100)));
    }

    #[test]
    fn pop_and_pop_tick_agree_on_deep_ticks() {
        fn fill(s: &mut Scheduler<u32>) {
            let mut id = 0;
            for &d in &DEEP {
                for (extra, key) in [(0, 1), (0, 0), (1, 0), (0, 1), (700, 3)] {
                    s.schedule_at_keyed(SimTime::from_nanos(d + extra), key, id);
                    id += 1;
                }
            }
        }
        let (mut a, mut b) = (Scheduler::new(), Scheduler::new());
        fill(&mut a);
        fill(&mut b);
        let per_event: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let mut batched = Vec::new();
        loop {
            let tick = pop_tick(&mut b, SimTime::MAX);
            if tick.is_empty() {
                break;
            }
            batched.extend(tick);
        }
        assert_eq!(per_event.len(), 25);
        assert_eq!(per_event, batched);
        assert_eq!(a.stage(), b.stage(), "same ticks, same stage boundaries");
    }

    /// Replays one generated op sequence against both schedulers, asserting
    /// identical `(time, seq)` pops, peeks and lengths at every step.
    fn assert_wheel_matches_heap(ops: &[(u8, u64)]) {
        let mut wheel: Scheduler<u32> = Scheduler::new();
        let mut heap: HeapScheduler<u32> = HeapScheduler::new();
        let mut next_id = 0u32;
        let mut tick = Tick::new();
        for &(kind, bits) in ops {
            match kind {
                0 => {
                    // Absolute schedule, possibly in the past (clamps).
                    let at = SimTime::from_nanos(bits & 0xFFFF_FFFF);
                    wheel.schedule_at(at, next_id);
                    heap.schedule_at(at, next_id);
                    next_id += 1;
                }
                6 => {
                    // Batched slot drain, as `World::run_until` takes it:
                    // the wheel swaps out a whole tick and the clock names
                    // its instant; the heap pops the same count one by
                    // one. The sequences must agree element for element.
                    let n = wheel.pop_tick_until(SimTime::MAX, &mut tick);
                    let at = wheel.now();
                    for event in tick.drain() {
                        assert_eq!(Some((at, event)), heap.pop());
                    }
                    if n == 0 {
                        assert_eq!(heap.pop(), None);
                    }
                    assert_eq!(wheel.now(), heap.now());
                }
                1..=5 => {
                    // Relative delays spanning every wheel level plus the
                    // heap overflow (kind 5 reaches past 2^32 ns).
                    let mask = match kind {
                        1 => 0,
                        2 => 0x3FF,
                        3 => 0xF_FFFF,
                        4 => 0x3FFF_FFFF,
                        _ => 0x7_FFFF_FFFF,
                    };
                    let d = SimDuration::from_nanos(bits & mask);
                    wheel.schedule_after(d, next_id);
                    heap.schedule_after(d, next_id);
                    next_id += 1;
                }
                _ => {
                    assert_eq!(wheel.pop(), heap.pop());
                    assert_eq!(wheel.now(), heap.now());
                }
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.pending(), heap.len());
        }
        // Drain both to the end: the full remaining sequence must agree.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }

    /// Quantised delays: a handful of instants per wheel level and beyond
    /// the horizon, so that entries collide on an instant at levels 1–3 and
    /// in the heap (the 64-bit delays of the differential test almost
    /// never do, and its keys are all 0).
    fn quantised(pick: u64) -> u64 {
        const BASES: [u64; 10] = [
            0,
            1,
            256,
            512,
            1 << 16,
            3 << 16,
            1 << 24,
            5 << 24,
            1 << 32,
            3 << 32,
        ];
        BASES[(pick % 10) as usize] * (pick / 10 % 3) + 7 * (pick / 30 % 2)
    }

    /// Replays keyed schedules, whole-tick drains (with and without a
    /// deadline) and per-event pops against a sorted `(at, key, seq)` list,
    /// comparing `peek_time`, `len` and `now` after every op.
    fn assert_wheel_matches_sorted_model(ops: &[(u8, u64)]) {
        let mut wheel: Scheduler<u64> = Scheduler::new();
        let mut tick = Tick::new();
        // Pending entries not yet staged, the staged remainder, the clock.
        let mut pending: Vec<(u64, u64, u64)> = Vec::new();
        let mut staged: VecDeque<(u64, u64, u64)> = VecDeque::new();
        let (mut now, mut seq) = (0u64, 0u64);
        fn stage(pending: &mut Vec<(u64, u64, u64)>, staged: &mut VecDeque<(u64, u64, u64)>) {
            pending.sort();
            if let Some(&(at, ..)) = pending.first() {
                let n = pending.iter().take_while(|e| e.0 == at).count();
                staged.extend(pending.drain(..n));
            }
        }
        for &(kind, bits) in ops {
            match kind {
                0..=4 => {
                    let at = now + quantised(bits);
                    let key = bits >> 32 & 3;
                    wheel.schedule_after_keyed(SimDuration::from_nanos(at - now), key, seq);
                    pending.push((at, key, seq));
                    seq += 1;
                }
                5 | 6 => {
                    let deadline = match kind {
                        5 => u64::MAX,
                        _ => now + quantised(bits),
                    };
                    if staged.is_empty() {
                        stage(&mut pending, &mut staged);
                    }
                    let due = staged.front().is_some_and(|e| e.0 <= deadline);
                    if !due {
                        // Refused: the model's tick goes back unstaged.
                        pending.extend(staged.drain(..));
                    }
                    let n = wheel.pop_tick_until(SimTime::from_nanos(deadline), &mut tick);
                    assert_eq!(n, staged.len());
                    for (key, id) in tick.drain_keyed() {
                        let (at, k, s) = staged.pop_front().expect("model tick");
                        assert_eq!((wheel.now().as_nanos(), key, id), (at, k, s));
                        now = at;
                    }
                }
                _ => {
                    if staged.is_empty() {
                        stage(&mut pending, &mut staged);
                    }
                    // The id names the entry, so it also pins the key.
                    let expect = staged.pop_front();
                    let got = wheel.pop().map(|(t, id)| (t.as_nanos(), id));
                    assert_eq!(got, expect.map(|(at, _, id)| (at, id)));
                    now = expect.map_or(now, |e| e.0);
                }
            }
            let next = staged.front().or_else(|| pending.iter().min()).map(|e| e.0);
            assert_eq!(wheel.peek_time(), next.map(SimTime::from_nanos));
            assert_eq!(wheel.pending(), pending.len() + staged.len());
            assert_eq!(wheel.now().as_nanos(), now);
        }
        // Delivery order: what is left of a part-popped tick, then the rest.
        pending.sort();
        let expect: Vec<_> = staged.into_iter().chain(pending).collect();
        let rest: Vec<_> = wheel
            .drain_all_ordered()
            .into_iter()
            .map(|(t, k, e)| (t.as_nanos(), k, e))
            .collect();
        assert_eq!(rest, expect);
    }

    proptest! {
        #[test]
        fn differential_wheel_equals_heap(
            ops in proptest::collection::vec((0u8..9, proptest::arbitrary::any::<u64>()), 0..300)
        ) {
            assert_wheel_matches_heap(&ops);
        }

        #[test]
        fn keyed_quantised_wheel_equals_sorted_model(
            ops in proptest::collection::vec((0u8..9, proptest::arbitrary::any::<u64>()), 0..300)
        ) {
            assert_wheel_matches_sorted_model(&ops);
        }
    }
}

//! The event queue and simulation driver.
//!
//! The engine is generic over the *world* — the mutable state of a whole
//! experiment — and its event type. A [`World`] receives each event along
//! with the current time and a mutable handle to the [`EventQueue`] so it can
//! schedule follow-up events. Determinism guarantees:
//!
//! * events fire in non-decreasing time order;
//! * events scheduled for the same instant fire in **canonical key order**
//!   `(at, origin, oseq)`: `origin` identifies who scheduled the event
//!   (0 = external/control scheduling, `node + 1` = a world entity — see
//!   [`EventQueue::set_origin`]) and `oseq` is that origin's private
//!   monotone counter. Events from the same origin therefore stay FIFO,
//!   and ties across origins break by origin id — an order that does not
//!   depend on any queue-global state;
//! * cancellation via [`EventKey`] empties the event's slab slot in O(1) —
//!   no per-pop hash probing. The slot stays owned by its queued key until
//!   that key surfaces and is discarded, so a queued key never needs a
//!   reuse guard of its own.
//!
//! The keys are kept in a calendar queue ([`EventQueue`]): a small binary
//! heap for the current time window, a wheel of fixed-width time buckets
//! for the next ≈ 268 ms, and an overflow heap beyond. Buckets only
//! partition keys by time and every pop takes the minimum, so the order is
//! exactly that of one heap over all keys, at O(1) insert for most of them.
//!
//! The canonical key exists for the sharded engine (see [`crate::shard`]):
//! because `(origin, oseq)` pairs are a pure function of each origin's own
//! scheduling history — not of how schedules from different origins
//! interleave — the same logical event gets the same key whether the
//! topology runs in one queue or is partitioned across many, which is what
//! makes dispatch order (and every golden) shard-count-invariant.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Below this slab capacity, [`EventQueue::reclaim`] is a no-op — shrinking
/// a small queue at every drain boundary would churn the allocator for a few
/// hundred bytes of savings.
pub const RECLAIM_MIN_SLOTS: usize = 64;

/// A calendar bucket is `2^BUCKET_SHIFT` ns ≈ 16.4 µs wide. A constant, not
/// a tuning knob: over the same span, 2^16 ns buckets ran perfbench's
/// workloads 5–14 % slower, and 2^13 or 2^12 ns were no faster.
const BUCKET_SHIFT: u32 = 14;

/// Buckets in the wheel: with [`BUCKET_SHIFT`] the wheel spans 2^28 ns
/// ≈ 268 ms of simulated time past the current window. Keys further out
/// wait in the overflow heap.
const WHEEL_BUCKETS: u64 = 16384;

/// End of a bucket list.
const NIL: u32 = u32::MAX;

/// The calendar bucket number of an instant. `SimTime::MAX` maps to
/// 2^50 − 1, so window arithmetic on bucket numbers cannot overflow.
fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// Identifies a scheduled event so it can be canceled before it fires.
/// Internally `(slot, guard)`: the slot indexes the queue's slab, and the
/// guard number protects against slot reuse — a key whose event already
/// fired (or was canceled) can never touch the slot's next occupant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    slot: u32,
    guard: u64,
}

/// The mutable state of a simulation, driven by events of type `Self::Event`.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event. `now` is the event's firing time; new events may be
    /// scheduled on `queue` (at or after `now`).
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// True for control/bookkeeping events (fault injections, start
    /// broadcasts) that should not count as dispatched simulation work.
    /// The sharded engine replicates control events into every shard, so
    /// excluding them keeps work counters shard-count-invariant.
    fn is_control(_event: &Self::Event) -> bool {
        false
    }
}

/// A heap entry: the canonical ordering key plus the slab slot holding the
/// payload. Ordered by `(at, origin, oseq)` — earliest time first, then
/// lowest origin, then that origin's FIFO counter. `(origin, oseq)` is
/// unique per queue, so the slot never participates in ordering.
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    oseq: u64,
    origin: u32,
    slot: u32,
}

// Three words keep a deep heap cache-resident: no reuse guard, 32-bit origin.
const _: () = assert!(std::mem::size_of::<Reverse<HeapKey>>() == 24);

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.origin, self.oseq).cmp(&(other.at, other.origin, other.oseq))
    }
}

/// One slab entry. `event: None` means fired or canceled. A slot is owned
/// by its key from `schedule_*` until that key leaves the near heap
/// (popped, or discarded as an orphan), and only then returns to the free
/// list — so a key's slot is live iff it holds an event, with no guard to
/// compare. `guard` is consulted by [`EventQueue::cancel`] alone: an
/// [`EventKey`] only acts on the slot while its guard matches.
///
/// The slot also keeps its own canonical key and a `next` link, so a
/// wheel bucket is an intrusive list through the slab: parking a key in a
/// bucket costs no storage beyond the slot itself.
struct Slot<E> {
    guard: u64,
    event: Option<E>,
    at: SimTime,
    oseq: u64,
    origin: u32,
    /// Next slot in the same wheel bucket, or [`NIL`].
    next: u32,
}

/// A priority queue of future events: a slab of scheduled payloads plus a
/// calendar queue of their canonical `(time, origin, oseq)` keys (R. Brown,
/// "Calendar queues", CACM 1988), in three tiers split by bucket number:
///
/// * `near`, a binary heap of every key before `end_bucket` — the current
///   window, and any later insert behind it; every pop takes its minimum;
/// * the wheel, [`WHEEL_BUCKETS`] buckets covering `end_bucket` onwards,
///   O(1) insert;
/// * `far`, an overflow heap for keys at or past the wheel's span.
///
/// When `near` runs dry the next non-empty bucket is heapified into it, so
/// the order is exactly the single heap's: buckets only partition keys by
/// time. Cancellation empties the slab slot by index — O(1), no hashing —
/// and the orphaned key (with its slot) is released when it surfaces.
pub struct EventQueue<E> {
    near: BinaryHeap<Reverse<HeapKey>>,
    /// Bucket list heads; bucket `b` sits at index `b % WHEEL_BUCKETS`.
    /// Allocated on the first wheel insert, released by `reclaim`.
    wheel: Vec<u32>,
    /// Keys parked in the wheel, orphans included.
    in_wheel: usize,
    far: BinaryHeap<Reverse<HeapKey>>,
    /// The first bucket not drained into `near`. Invariant: the wheel and
    /// `far` hold only keys in this bucket or later, and `far` only keys
    /// at least [`WHEEL_BUCKETS`] buckets on.
    end_bucket: u64,
    slots: Vec<Slot<E>>,
    /// Slab indices no key refers to, reused LIFO.
    free: Vec<u32>,
    /// Number of scheduled, not-yet-canceled events.
    live: usize,
    /// Cancel-key guard counter (never ordering-relevant). Monotone for the
    /// queue's lifetime, including across [`EventQueue::reclaim`].
    next_guard: u64,
    /// The origin tag stamped on subsequent `schedule_*` calls.
    cur_origin: u32,
    /// Per-origin FIFO counters, indexed by origin id.
    oseqs: Vec<u64>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            wheel: Vec::new(),
            in_wheel: 0,
            far: BinaryHeap::new(),
            end_bucket: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_guard: 0,
            cur_origin: 0,
            oseqs: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// The firing time of the event currently being dispatched (or the last
    /// dispatched event). Before the first event this is [`SimTime::ZERO`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Set the origin tag for subsequent `schedule_*` calls. Origin `0` is
    /// reserved for external/control scheduling (pre-run setup, fault
    /// plans); worlds that partition across shards tag handler dispatches
    /// with `entity_id + 1` so same-time ties resolve identically at every
    /// shard count. Worlds that never shard can ignore this entirely —
    /// everything defaults to origin 0, which preserves plain global FIFO.
    ///
    /// Panics if `origin` does not fit in 32 bits (keys store it as `u32`;
    /// a silently truncated origin would break the total order).
    pub fn set_origin(&mut self, origin: u64) {
        self.cur_origin = narrow_origin(origin);
    }

    /// The origin tag currently stamped on `schedule_*` calls.
    pub fn origin(&self) -> u64 {
        self.cur_origin as u64
    }

    /// Allocate the next `(origin, oseq)` pair under the current origin
    /// *without* inserting an event — used when the event is exported to
    /// another shard's queue. Consuming the counter here keeps this origin's
    /// subsequent local schedules bit-identical to the single-shard run,
    /// where the exported event would have claimed the same position.
    pub fn alloc_key(&mut self) -> (u64, u64) {
        let origin = self.cur_origin;
        (origin as u64, self.bump_oseq(origin))
    }

    fn bump_oseq(&mut self, origin: u32) -> u64 {
        let idx = origin as usize;
        if idx >= self.oseqs.len() {
            self.oseqs.resize(idx + 1, 0);
        }
        let c = &mut self.oseqs[idx];
        let v = *c;
        *c += 1;
        v
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to `now` so simulation time never
    /// runs backwards, and a debug assertion fires to surface the bug.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        let (origin, oseq) = self.alloc_key();
        self.schedule_keyed(at, origin, oseq, event)
    }

    /// Schedule `event` with an explicit canonical key. Used by the shard
    /// driver to deliver cross-shard messages: the key was allocated (via
    /// [`EventQueue::alloc_key`]) on the sending shard, so the event sorts
    /// exactly where it would have in a single-queue run. Each origin must
    /// be keyed from exactly one allocator — reusing an `(origin, oseq)`
    /// pair breaks the total order. Panics if `origin` does not fit in 32
    /// bits, like [`EventQueue::set_origin`].
    pub fn schedule_keyed(&mut self, at: SimTime, origin: u64, oseq: u64, event: E) -> EventKey {
        let origin = narrow_origin(origin);
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let guard = self.next_guard;
        self.next_guard += 1;
        let filled = Slot {
            guard,
            event: Some(event),
            at,
            oseq,
            origin,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = filled;
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(filled);
                i
            }
        };
        self.file(HeapKey {
            at,
            oseq,
            origin,
            slot,
        });
        self.live += 1;
        EventKey { slot, guard }
    }

    /// Put a key into its tier. Any key before the window goes to `near`,
    /// however early: `peek_time` may have advanced the window past an
    /// instant that a later `schedule_keyed` still targets. A key exactly at
    /// the span's end goes to `far` — in the wheel it would wrap onto the
    /// next bucket to drain.
    fn file(&mut self, k: HeapKey) {
        let b = bucket_of(k.at);
        if b < self.end_bucket {
            self.near.push(Reverse(k));
        } else if b - self.end_bucket < WHEEL_BUCKETS {
            self.link(b, k.slot);
        } else {
            self.far.push(Reverse(k));
        }
    }

    /// Push `slot` (whose own fields hold its key) onto bucket `b`'s list.
    fn link(&mut self, b: u64, slot: u32) {
        if self.wheel.is_empty() {
            self.wheel = vec![NIL; WHEEL_BUCKETS as usize];
        }
        let head = &mut self.wheel[(b % WHEEL_BUCKETS) as usize];
        self.slots[slot as usize].next = *head;
        *head = slot;
        self.in_wheel += 1;
    }

    /// Make `near` non-empty unless the queue holds no key at all: drain the
    /// wheel's next non-empty bucket into it, first jumping the window to
    /// the overflow minimum when the wheel is empty.
    fn refill(&mut self) -> bool {
        while self.near.is_empty() {
            if self.in_wheel == 0 {
                let Some(&Reverse(k)) = self.far.peek() else {
                    return false;
                };
                self.end_bucket = bucket_of(k.at);
                self.pull_far();
            }
            self.drain_bucket();
        }
        true
    }

    /// Heapify bucket `end_bucket` into the (empty) near heap and advance
    /// the window one bucket. The bucket the span newly covers has the
    /// drained bucket's index; `far` keys that fall in it move there.
    fn drain_bucket(&mut self) {
        let idx = (self.end_bucket % WHEEL_BUCKETS) as usize;
        let mut cur = std::mem::replace(&mut self.wheel[idx], NIL);
        self.end_bucket += 1;
        if cur != NIL {
            let mut keys = std::mem::take(&mut self.near).into_vec();
            while cur != NIL {
                let s = &self.slots[cur as usize];
                keys.push(Reverse(HeapKey {
                    at: s.at,
                    oseq: s.oseq,
                    origin: s.origin,
                    slot: cur,
                }));
                cur = s.next;
            }
            self.in_wheel -= keys.len();
            self.near = BinaryHeap::from(keys);
        }
        self.pull_far();
    }

    /// Move the `far` keys the span now covers into their buckets.
    fn pull_far(&mut self) {
        while let Some(&Reverse(k)) = self.far.peek() {
            let b = bucket_of(k.at);
            if b - self.end_bucket >= WHEEL_BUCKETS {
                break;
            }
            self.far.pop();
            self.link(b, k.slot);
        }
    }

    /// Schedule `event` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedule `event` to fire immediately (after all events already
    /// scheduled for the current instant by this origin).
    pub fn schedule_now(&mut self, event: E) -> EventKey {
        self.schedule_at(self.now, event)
    }

    /// Cancel a previously scheduled event: empty its slab slot by index.
    /// The slot returns to the free list only when its orphaned key
    /// surfaces. Idempotent; canceling an event that already fired is a
    /// no-op (the slot's guard number no longer matches, the slot is empty,
    /// or — after a [`EventQueue::reclaim`] — the slot index is out of
    /// bounds).
    pub fn cancel(&mut self, key: EventKey) {
        let Some(s) = self.slots.get_mut(key.slot as usize) else {
            return; // stale key from before a slab reclaim
        };
        if s.guard == key.guard && s.event.take().is_some() {
            self.live -= 1;
        }
    }

    /// Number of live (scheduled and not canceled) events in the queue.
    /// Canceled events never count — `dlte-check`'s in-flight audits can
    /// read this without knowing how cancellation is implemented.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Iterate over the pending *live* events (canceled entries are skipped),
    /// in no particular order. Post-run audits use this to count events still
    /// in flight — e.g. packets serialized onto a link but not yet arrived —
    /// without disturbing the queue.
    pub fn iter_pending(&self) -> impl Iterator<Item = &E> {
        self.slots.iter().filter_map(|s| s.event.as_ref())
    }

    /// True if no live events remain. Orphaned keys of canceled events are
    /// invisible here: the live count already excludes them, so a queue
    /// whose only entries were canceled reports empty, never a phantom
    /// event.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Firing time of the next live event, if any. Never reports a canceled
    /// event's time: orphaned keys at the top are lazily discarded here,
    /// exactly as `pop` would.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.live_top().map(|k| k.at)
    }

    /// The minimum key over all tiers, left on top of `near`. Orphaned keys
    /// of canceled events that surface first are discarded and their slots
    /// freed. Each key passes through each tier at most once, and a refill
    /// steps over at most one wheel's worth of empty buckets.
    fn live_top(&mut self) -> Option<HeapKey> {
        while self.refill() {
            let &Reverse(k) = self.near.peek()?;
            // The slot cannot have been reused while its key is queued, so a
            // held event is necessarily the one the key was filed for.
            if self.slots[k.slot as usize].event.is_some() {
                return Some(k);
            }
            self.near.pop();
            self.free.push(k.slot);
        }
        None
    }

    /// Slab capacity in slots — how much memory the queue holds onto for
    /// event storage, live or not. Exposed so reclamation tests (and curious
    /// profilers) can watch [`EventQueue::reclaim`] work.
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Release the slab, free list and calendar storage if the queue is
    /// fully drained. The slab is grow-only during a run (slots are reused,
    /// never shrunk), so a burst — a handover storm, a chaos fault volley —
    /// leaves its high-water mark allocated forever. The drivers call this
    /// at drain boundaries (end of `run_until`, which the sharded engine
    /// hits for idle shards at every idle-jump epoch) to give the memory
    /// back.
    ///
    /// No-op unless the queue is empty (live events must keep their slots)
    /// or still small ([`RECLAIM_MIN_SLOTS`]): reclaiming a handful of slots
    /// just to re-grow them next epoch would thrash the allocator.
    ///
    /// Safety of outstanding [`EventKey`]s: guards are monotone across a
    /// reclaim (`next_guard` is not reset), so a stale key can never match a
    /// post-reclaim occupant of the same slot index, and `cancel` bounds-
    /// checks the index against the shrunken slab.
    pub fn reclaim(&mut self) {
        if self.live != 0 || self.slots.capacity() < RECLAIM_MIN_SLOTS {
            return;
        }
        // Every slot is empty and every queued key is an orphan: drop the
        // lot and restart the calendar at the current instant.
        self.slots = Vec::new();
        self.free = Vec::new();
        self.near = BinaryHeap::new();
        self.wheel = Vec::new();
        self.in_wheel = 0;
        self.far = BinaryHeap::new();
        self.end_bucket = bucket_of(self.now);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pop the next live event if it fires at or before `horizon`. Orphaned
    /// keys of canceled events are discarded along the way regardless of
    /// their time, so the queue never reports a horizon stop just because a
    /// canceled key preceded the next live event.
    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let k = self.live_top()?;
        if k.at > horizon {
            // Live event beyond the horizon: leave it in place.
            return None;
        }
        self.near.pop();
        let event = self.slots[k.slot as usize]
            .event
            .take()
            .expect("live key's slot vanished");
        self.free.push(k.slot);
        self.live -= 1;
        self.now = k.at;
        Some((k.at, event))
    }
}

/// The keys' 32-bit origin for a public `u64` origin tag. Checked: two
/// origins that collided after truncation would break the total order.
fn narrow_origin(origin: u64) -> u32 {
    u32::try_from(origin).expect("event origin exceeds u32::MAX")
}

/// Outcome of running a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway-loop backstop).
    BudgetExhausted,
}

/// Driver that owns a [`World`] and its [`EventQueue`].
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    events_dispatched: u64,
}

impl<W: World> Simulation<W> {
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            events_dispatched: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total non-control events dispatched so far (see [`World::is_control`]).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup/teardown between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Access the queue for seeding initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Immutable access to the queue (post-run audits of pending events).
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Dispatch a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                if !W::is_control(&ev) {
                    self.events_dispatched += 1;
                }
                self.queue.set_origin(0);
                self.world.handle(t, ev, &mut self.queue);
                self.queue.set_origin(0);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains, the simulated clock passes `horizon`, or
    /// `max_events` have been dispatched. Events scheduled exactly at the
    /// horizon still fire; the first event strictly after it does not.
    ///
    /// The run's event count and simulated-time coverage are credited to the
    /// calling thread's instrumentation tally (see [`crate::report`]).
    /// Control events (per [`World::is_control`]) consume budget but are not
    /// counted as dispatched work.
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        let started_at = self.queue.now();
        let mut budget = max_events;
        let mut dispatched: u64 = 0;
        let outcome = loop {
            if budget == 0 {
                break RunOutcome::BudgetExhausted;
            }
            match self.queue.pop_at_or_before(horizon) {
                Some((t, ev)) => {
                    if !W::is_control(&ev) {
                        self.events_dispatched += 1;
                        dispatched += 1;
                    }
                    // The world tags handler dispatches with their own
                    // origin; everything else (including the world's own
                    // bookkeeping) schedules as origin 0.
                    self.queue.set_origin(0);
                    self.world.handle(t, ev, &mut self.queue);
                    self.queue.set_origin(0);
                    budget -= 1;
                }
                None => {
                    break if self.queue.peek_time().is_some() {
                        RunOutcome::HorizonReached
                    } else {
                        // Fully drained: hand the slab's high-water mark back
                        // to the allocator. In the sharded engine idle shards
                        // drain every idle-jump epoch, so bursty queues shrink
                        // as soon as the burst passes.
                        self.queue.reclaim();
                        RunOutcome::Drained
                    };
                }
            }
        };
        let covered = self.queue.now().saturating_since(started_at);
        crate::report::note(dispatched, covered.as_nanos());
        static ENGINE_EVENTS: std::sync::OnceLock<dlte_obs::metrics::CounterId> =
            std::sync::OnceLock::new();
        ENGINE_EVENTS
            .get_or_init(|| dlte_obs::metrics::register_counter("engine_events"))
            .add(dispatched);
        dlte_obs::metrics::observe("engine_queue_depth", self.queue.pending() as f64);
        outcome
    }

    /// Run until the queue drains or `max_events` have fired.
    pub fn run_to_completion(&mut self, max_events: u64) -> RunOutcome {
        self.run_until(SimTime::MAX, max_events)
    }

    /// Consume the driver and return the world (for result extraction).
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the order events arrive in.
    struct Recorder {
        seen: Vec<(u64, u32)>, // (millis, tag)
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Tag(u32),
        /// Schedules two children `Tag(a)`/`Tag(b)` at +1ms and +2ms.
        Fanout(u32, u32),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Tag(tag) => self.seen.push((now.as_millis(), tag)),
                Ev::Fanout(a, b) => {
                    queue.schedule_in(SimDuration::from_millis(1), Ev::Tag(a));
                    queue.schedule_in(SimDuration::from_millis(2), Ev::Tag(b));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(30), Ev::Tag(3));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        assert_eq!(sim.run_to_completion(100), RunOutcome::Drained);
        assert_eq!(sim.world().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for tag in 0..50 {
            sim.queue_mut()
                .schedule_at(SimTime::from_millis(5), Ev::Tag(tag));
        }
        sim.run_to_completion(1000);
        let tags: Vec<u32> = sim.world().seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_ties_break_by_origin_then_fifo() {
        // Origin 0 (external) sorts before entity origins; within an origin
        // scheduling order is preserved.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let t = SimTime::from_millis(5);
        queue.set_origin(9);
        queue.schedule_at(t, Ev::Tag(90));
        queue.schedule_at(t, Ev::Tag(91));
        queue.set_origin(2);
        queue.schedule_at(t, Ev::Tag(20));
        queue.set_origin(0);
        queue.schedule_at(t, Ev::Tag(0));
        let mut order = Vec::new();
        while let Some((_, Ev::Tag(tag))) = queue.pop() {
            order.push(tag);
        }
        assert_eq!(order, vec![0, 20, 90, 91]);
    }

    #[test]
    fn keyed_schedule_sorts_like_local_allocation() {
        // An event inserted with an explicit pre-allocated key lands exactly
        // where the local allocation would have put it — the cross-shard
        // delivery invariant.
        let make = |remote: bool| {
            let mut queue: EventQueue<Ev> = EventQueue::new();
            let t = SimTime::from_millis(1);
            queue.set_origin(3);
            queue.schedule_at(t, Ev::Tag(1));
            if remote {
                let (origin, oseq) = queue.alloc_key();
                queue.set_origin(7);
                queue.schedule_at(t, Ev::Tag(3));
                queue.schedule_keyed(t, origin, oseq, Ev::Tag(2));
            } else {
                queue.schedule_at(t, Ev::Tag(2));
                queue.set_origin(7);
                queue.schedule_at(t, Ev::Tag(3));
            }
            let mut order = Vec::new();
            while let Some((_, Ev::Tag(tag))) = queue.pop() {
                order.push(tag);
            }
            order
        };
        assert_eq!(make(false), vec![1, 2, 3]);
        assert_eq!(make(true), make(false));
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Fanout(7, 8));
        sim.run_to_completion(100);
        assert_eq!(sim.world().seen, vec![(11, 7), (12, 8)]);
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let keep = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let kill = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        sim.queue_mut().cancel(kill);
        // Canceling twice (and canceling an already-fired key later) is fine.
        sim.queue_mut().cancel(kill);
        sim.run_to_completion(100);
        sim.queue_mut().cancel(keep);
        assert_eq!(sim.world().seen, vec![(1, 1)]);
    }

    #[test]
    fn canceling_the_only_event_empties_the_queue() {
        // Regression: tombstones at the heap top used to make `is_empty` /
        // `peek_time` report a phantom pending event.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let only = queue.schedule_at(SimTime::from_millis(5), Ev::Tag(1));
        queue.cancel(only);
        assert!(queue.is_empty());
        assert_eq!(queue.peek_time(), None);
    }

    #[test]
    fn peek_skips_canceled_and_reports_next_live_event() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let first = queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let second = queue.schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        queue.schedule_at(SimTime::from_millis(3), Ev::Tag(3));
        queue.cancel(first);
        queue.cancel(second);
        assert_eq!(queue.peek_time(), Some(SimTime::from_millis(3)));
        assert!(!queue.is_empty());
    }

    #[test]
    fn run_after_canceling_everything_reports_drained() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let a = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        let b = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        sim.queue_mut().cancel(a);
        sim.queue_mut().cancel(b);
        // A queue holding only tombstones must drain, not report a horizon
        // stop, even when the horizon sits before the canceled times.
        assert_eq!(
            sim.run_until(SimTime::from_millis(5), 100),
            RunOutcome::Drained
        );
        assert!(sim.world().seen.is_empty());
    }

    #[test]
    fn iter_pending_skips_canceled_entries() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let dead = queue.schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        queue.schedule_at(SimTime::from_millis(3), Ev::Tag(3));
        queue.cancel(dead);
        let mut tags: Vec<u32> = queue
            .iter_pending()
            .map(|e| match e {
                Ev::Tag(t) => *t,
                Ev::Fanout(..) => unreachable!(),
            })
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 3]);
        // `pending` agrees with the audit view: canceled events are gone.
        assert_eq!(queue.pending(), 2, "only live events count as pending");
    }

    #[test]
    fn pending_counts_live_events_only() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let a = queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let b = queue.schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        assert_eq!(queue.pending(), 2);
        queue.cancel(a);
        assert_eq!(queue.pending(), 1, "cancellation drops the live count");
        queue.cancel(a); // idempotent
        assert_eq!(queue.pending(), 1);
        queue.cancel(b);
        assert_eq!(queue.pending(), 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn slot_reuse_does_not_resurrect_stale_keys() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let dead = queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        queue.cancel(dead);
        // The new event reuses the vacated slot; the stale key must not be
        // able to cancel it, and the orphaned key must not dispatch it
        // early.
        queue.schedule_at(SimTime::from_millis(5), Ev::Tag(2));
        queue.cancel(dead);
        assert_eq!(queue.pending(), 1, "stale cancel is a no-op");
        assert_eq!(queue.peek_time(), Some(SimTime::from_millis(5)));
        let (at, ev) = queue.pop().expect("live event");
        assert_eq!(at, SimTime::from_millis(5));
        assert!(matches!(ev, Ev::Tag(2)));
        assert!(queue.is_empty());
    }

    #[test]
    fn reclaim_shrinks_slab_after_burst_then_drain() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for i in 0..1_000u32 {
            queue.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        let high_water = queue.slot_capacity();
        assert!(high_water >= 1_000, "burst grew the slab");
        while queue.pop().is_some() {}
        assert!(queue.is_empty());
        // Drained by hand (not via run_until): capacity is still held.
        assert!(queue.slot_capacity() >= 1_000, "slab is grow-only mid-run");
        queue.reclaim();
        assert_eq!(queue.slot_capacity(), 0, "reclaim released the slab");
        // The queue keeps working after a reclaim, and stale keys from
        // before the reclaim stay inert.
        let key = queue.schedule_at(SimTime::from_millis(5_000), Ev::Tag(7));
        assert_eq!(queue.pending(), 1);
        queue.cancel(key);
        assert!(queue.is_empty());
    }

    #[test]
    fn reclaim_is_a_no_op_while_events_live_or_queue_small() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for i in 0..1_000u32 {
            queue.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        queue.reclaim();
        assert!(
            queue.slot_capacity() >= 1_000,
            "live events pin the slab in place"
        );
        while queue.pop().is_some() {}
        queue.reclaim();
        // Small queues never shrink: re-growing a few slots each epoch would
        // cost more than the memory saves.
        let mut small: EventQueue<Ev> = EventQueue::new();
        for i in 0..4u32 {
            small.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        while small.pop().is_some() {}
        let before = small.slot_capacity();
        assert!(before < RECLAIM_MIN_SLOTS);
        small.reclaim();
        assert_eq!(small.slot_capacity(), before, "small slab left alone");
    }

    #[test]
    fn run_until_reclaims_on_drain() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..1_000u32 {
            sim.queue_mut()
                .schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        assert!(sim.queue().slot_capacity() >= 1_000);
        assert_eq!(sim.run_to_completion(10_000), RunOutcome::Drained);
        assert_eq!(
            sim.queue().slot_capacity(),
            0,
            "drained run hands the slab back"
        );
        assert_eq!(sim.world().seen.len(), 1_000);
    }

    #[test]
    fn stale_cancel_after_reclaim_does_not_touch_new_events() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..200u32 {
            keys.push(queue.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i)));
        }
        while queue.pop().is_some() {}
        queue.reclaim();
        // One new event lands in slot 0; every stale key (including the one
        // that used slot 0) must leave it alone — guards are monotone across
        // the reclaim and out-of-range slots are bounds-checked.
        queue.schedule_at(SimTime::from_millis(9_000), Ev::Tag(42));
        for key in keys {
            queue.cancel(key);
        }
        assert_eq!(queue.pending(), 1, "stale cancels are no-ops");
        let (_, ev) = queue.pop().expect("survivor");
        assert!(matches!(ev, Ev::Tag(42)));
    }

    /// The queue against an ordered-map reference.
    mod canonical_order {
        use super::*;
        use proptest::prelude::*;

        /// One operation of the queue-vs-`BTreeMap` equivalence test below.
        #[derive(Clone, Debug)]
        enum QOp {
            /// `set_origin` for subsequent local schedules.
            Origin(u64),
            /// `schedule_at(now + dt)` under the current origin, `n` times.
            Schedule { dt: u64, n: usize },
            /// `schedule_keyed(now + dt)` from remote allocator `r` (its own
            /// per-origin counter, as a sending shard would keep).
            Keyed { r: usize, dt: u64 },
            /// Cancel the `i % issued`-th key ever issued: live, fired, already
            /// canceled, or from before a reclaim.
            Cancel(usize),
            /// `pop_at_or_before(now + h)`.
            Pop(u64),
            /// Pop everything, then `reclaim`.
            DrainReclaim,
        }

        /// Origins of the remote allocators: disjoint from the local origins
        /// `0..4` (every origin has exactly one allocator), the largest being
        /// the widest origin a key can hold.
        const REMOTE_ORIGINS: [u64; 3] = [7, 1 << 20, u32::MAX as u64];

        fn arb_qop() -> impl Strategy<Value = QOp> {
            // Small time offsets force same-instant ties across origins.
            prop_oneof![
                (0u64..4).prop_map(QOp::Origin),
                (0u64..4, 1usize..4).prop_map(|(dt, n)| QOp::Schedule { dt, n }),
                (0u64..4, 20usize..90).prop_map(|(dt, n)| QOp::Schedule { dt, n }),
                (0usize..3, 0u64..4).prop_map(|(r, dt)| QOp::Keyed { r, dt }),
                any::<usize>().prop_map(QOp::Cancel),
                any::<usize>().prop_map(QOp::Cancel),
                (0u64..3).prop_map(QOp::Pop),
                (0u64..3).prop_map(QOp::Pop),
                Just(QOp::DrainReclaim),
            ]
        }

        proptest! {
            /// The slab queue dispatches exactly like an ordered map keyed by
            /// the canonical `(at, origin, oseq)`, across schedules, keyed
            /// inserts, cancels (stale ones included), horizon pops and slab
            /// reclaims. Cancelling by canonical key in the reference is
            /// exact because a pair is never reused.
            #[test]
            fn queue_pops_in_canonical_key_order(
                ops in prop::collection::vec(arb_qop(), 1..120),
            ) {
                type Key = (SimTime, u64, u64);
                let mut q: EventQueue<u32> = EventQueue::new();
                let mut reference: std::collections::BTreeMap<Key, u32> = Default::default();
                let mut issued: Vec<(EventKey, Key)> = Vec::new();
                // The reference keeps every allocator's counter itself.
                let mut local_oseq = [0u64; 4];
                let mut remote_oseq = [0u64; 3];
                let mut ids = 0u32;
                // Pop one event from both, at or before `horizon`.
                let pop = |q: &mut EventQueue<u32>,
                           reference: &mut std::collections::BTreeMap<Key, u32>,
                           horizon: SimTime| {
                    let want = match reference.first_key_value() {
                        Some((&k, _)) if k.0 <= horizon => reference.remove_entry(&k),
                        _ => None,
                    };
                    let got = q.pop_at_or_before(horizon);
                    assert_eq!(got, want.map(|((at, _, _), id)| (at, id)));
                    got.is_some()
                };
                for op in ops {
                    let now = q.now();
                    match op {
                        QOp::Origin(o) => q.set_origin(o),
                        QOp::Schedule { dt, n } => {
                            for _ in 0..n {
                                let at = now + SimDuration::from_nanos(dt);
                                let origin = q.origin();
                                let oseq = local_oseq[origin as usize];
                                local_oseq[origin as usize] += 1;
                                let key = q.schedule_at(at, ids);
                                reference.insert((at, origin, oseq), ids);
                                issued.push((key, (at, origin, oseq)));
                                ids += 1;
                            }
                        }
                        QOp::Keyed { r, dt } => {
                            let at = now + SimDuration::from_nanos(dt);
                            let (origin, oseq) = (REMOTE_ORIGINS[r], remote_oseq[r]);
                            remote_oseq[r] += 1;
                            let key = q.schedule_keyed(at, origin, oseq, ids);
                            reference.insert((at, origin, oseq), ids);
                            issued.push((key, (at, origin, oseq)));
                            ids += 1;
                        }
                        QOp::Cancel(i) => {
                            if !issued.is_empty() {
                                let (key, canonical) = issued[i % issued.len()];
                                q.cancel(key);
                                reference.remove(&canonical);
                            }
                        }
                        QOp::Pop(h) => {
                            pop(&mut q, &mut reference, now + SimDuration::from_nanos(h));
                        }
                        QOp::DrainReclaim => {
                            while pop(&mut q, &mut reference, SimTime::MAX) {}
                            q.reclaim();
                        }
                    }
                    prop_assert_eq!(q.pending(), reference.len());
                    prop_assert_eq!(q.peek_time(), reference.keys().next().map(|k| k.0));
                }
                while pop(&mut q, &mut reference, SimTime::MAX) {}
                prop_assert!(q.is_empty() && reference.is_empty());
            }
        }

        /// A key's offset in the calendar test. Each variant aims at a
        /// different tier of the calendar or at a boundary between two.
        #[derive(Clone, Copy, Debug)]
        enum Dt {
            /// `now` itself.
            Zero,
            /// Less than one bucket past `now`.
            SubBucket(u64),
            /// A few buckets past `now`.
            Buckets(u64),
            /// `d` buckets either side of the end of the wheel's span (the
            /// window's end plus the span), `off` ns into that bucket.
            SpanEdge { d: i64, off: u64 },
            /// Whole seconds past `now`: the overflow heap.
            Secs(u64),
            /// `SimTime::MAX`, the far-future sentinel.
            Max,
        }

        const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;

        fn arb_dt() -> impl Strategy<Value = Dt> {
            prop_oneof![
                Just(Dt::Zero),
                (0u64..BUCKET_NS).prop_map(Dt::SubBucket),
                (0u64..BUCKET_NS).prop_map(Dt::SubBucket),
                (1u64..8).prop_map(Dt::Buckets),
                (-1i64..=1, 0u64..BUCKET_NS).prop_map(|(d, off)| Dt::SpanEdge { d, off }),
                (-1i64..=1, 0u64..BUCKET_NS).prop_map(|(d, off)| Dt::SpanEdge { d, off }),
                (1u64..4).prop_map(Dt::Secs),
                Just(Dt::Max),
            ]
        }

        /// The instant `dt` names for `q` (never before `now`).
        fn resolve(q: &EventQueue<u32>, dt: Dt) -> SimTime {
            let now = q.now();
            let at = match dt {
                Dt::Zero => now,
                Dt::SubBucket(ns) => now + SimDuration::from_nanos(ns),
                Dt::Buckets(k) => now + SimDuration::from_nanos(k * BUCKET_NS),
                Dt::SpanEdge { d, off } => {
                    let edge = (q.end_bucket + WHEEL_BUCKETS) as i128 + d as i128;
                    let ns = edge * BUCKET_NS as i128 + off as i128;
                    SimTime::from_nanos(ns.min(u64::MAX as i128) as u64)
                }
                Dt::Secs(s) => now + SimDuration::from_secs(s),
                Dt::Max => SimTime::MAX,
            };
            at.max(now)
        }

        /// One operation of the calendar-vs-`BTreeMap` test below.
        #[derive(Clone, Debug)]
        enum COp {
            /// `set_origin` for subsequent local schedules.
            Origin(u64),
            /// `schedule_at` under the current origin, `n` times.
            Schedule { dt: Dt, n: usize },
            /// `schedule_keyed` from remote allocator `r`.
            Keyed { r: usize, dt: Dt },
            /// `peek_time`, which may advance the window to the next key's
            /// bucket, then a keyed insert `ns` past `now` — behind the
            /// advanced window, as a cross-shard delivery can be.
            PeekInsert { r: usize, ns: u64 },
            /// Cancel the `i % issued`-th key ever issued.
            Cancel(usize),
            /// `pop_at_or_before` the instant `dt` names, `k` times (`Max`
            /// stops one nanosecond short, so sentinel keys stay queued).
            Pop { dt: Dt, k: usize },
            /// Cancel every live `SimTime::MAX` key, pop everything, then
            /// `reclaim` — which now finds the queue empty.
            DrainReclaim,
        }

        fn arb_cop() -> impl Strategy<Value = COp> {
            prop_oneof![
                (0u64..4).prop_map(COp::Origin),
                (arb_dt(), 1usize..4).prop_map(|(dt, n)| COp::Schedule { dt, n }),
                (arb_dt(), 1usize..4).prop_map(|(dt, n)| COp::Schedule { dt, n }),
                (0usize..3, arb_dt()).prop_map(|(r, dt)| COp::Keyed { r, dt }),
                (0usize..3, 0u64..3 * BUCKET_NS).prop_map(|(r, ns)| COp::PeekInsert { r, ns }),
                (0usize..3, 0u64..3 * BUCKET_NS).prop_map(|(r, ns)| COp::PeekInsert { r, ns }),
                any::<usize>().prop_map(COp::Cancel),
                (arb_dt(), 1usize..4).prop_map(|(dt, k)| COp::Pop { dt, k }),
                (arb_dt(), 1usize..4).prop_map(|(dt, k)| COp::Pop { dt, k }),
                (arb_dt(), 1usize..4).prop_map(|(dt, k)| COp::Pop { dt, k }),
                (0u8..8, arb_dt()).prop_map(|(x, dt)| match x {
                    0 => COp::DrainReclaim,
                    _ => COp::Pop { dt, k: 1 },
                }),
            ]
        }

        proptest! {
            /// The calendar tiers dispatch exactly like an ordered map keyed
            /// by `(at, origin, oseq)`. Keys land on every tier boundary:
            /// within the window, behind it after a `peek_time` advanced
            /// it, one bucket either side of the span's end, in the
            /// overflow heap and at `SimTime::MAX`. Each case runs long
            /// enough for the window to wrap the wheel several times.
            #[test]
            fn calendar_matches_ordered_map_reference(
                ops in prop::collection::vec(arb_cop(), 500..700),
            ) {
                type Key = (SimTime, u64, u64);
                let mut q: EventQueue<u32> = EventQueue::new();
                let mut reference: std::collections::BTreeMap<Key, u32> = Default::default();
                let mut issued: Vec<(EventKey, Key)> = Vec::new();
                let mut local_oseq = [0u64; 4];
                let mut remote_oseq = [0u64; 3];
                let pop = |q: &mut EventQueue<u32>,
                           reference: &mut std::collections::BTreeMap<Key, u32>,
                           horizon: SimTime| {
                    let want = match reference.first_key_value() {
                        Some((&k, _)) if k.0 <= horizon => reference.remove_entry(&k),
                        _ => None,
                    };
                    let got = q.pop_at_or_before(horizon);
                    assert_eq!(got, want.map(|((at, _, _), id)| (at, id)));
                    got.is_some()
                };
                let mut keyed = |q: &mut EventQueue<u32>,
                                 reference: &mut std::collections::BTreeMap<Key, u32>,
                                 issued: &mut Vec<(EventKey, Key)>,
                                 r: usize,
                                 at: SimTime| {
                    let (origin, oseq) = (REMOTE_ORIGINS[r], remote_oseq[r]);
                    remote_oseq[r] += 1;
                    let id = issued.len() as u32;
                    let key = q.schedule_keyed(at, origin, oseq, id);
                    reference.insert((at, origin, oseq), id);
                    issued.push((key, (at, origin, oseq)));
                };
                for op in ops {
                    match op {
                        COp::Origin(o) => q.set_origin(o),
                        COp::Schedule { dt, n } => {
                            for _ in 0..n {
                                let at = resolve(&q, dt);
                                let origin = q.origin();
                                let oseq = local_oseq[origin as usize];
                                local_oseq[origin as usize] += 1;
                                let id = issued.len() as u32;
                                let key = q.schedule_at(at, id);
                                reference.insert((at, origin, oseq), id);
                                issued.push((key, (at, origin, oseq)));
                            }
                        }
                        COp::Keyed { r, dt } => {
                            let at = resolve(&q, dt);
                            keyed(&mut q, &mut reference, &mut issued, r, at);
                        }
                        COp::PeekInsert { r, ns } => {
                            prop_assert_eq!(q.peek_time(), reference.keys().next().map(|k| k.0));
                            let at = q.now() + SimDuration::from_nanos(ns);
                            keyed(&mut q, &mut reference, &mut issued, r, at);
                        }
                        COp::Cancel(i) => {
                            if !issued.is_empty() {
                                let (key, canonical) = issued[i % issued.len()];
                                q.cancel(key);
                                reference.remove(&canonical);
                            }
                        }
                        COp::Pop { dt, k } => {
                            let horizon = resolve(&q, dt).min(SimTime::from_nanos(u64::MAX - 1));
                            for _ in 0..k {
                                pop(&mut q, &mut reference, horizon);
                            }
                        }
                        COp::DrainReclaim => {
                            for &(key, canonical) in &issued {
                                if canonical.0 == SimTime::MAX {
                                    q.cancel(key);
                                    reference.remove(&canonical);
                                }
                            }
                            while pop(&mut q, &mut reference, SimTime::MAX) {}
                            q.reclaim();
                        }
                    }
                    prop_assert_eq!(q.pending(), reference.len());
                }
                // The window went round the wheel at least once.
                prop_assert!(bucket_of(q.now()) >= WHEEL_BUCKETS, "now {:?}", q.now());
                while pop(&mut q, &mut reference, SimTime::MAX) {}
                prop_assert!(q.is_empty() && reference.is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "event origin exceeds u32::MAX")]
    fn origin_wider_than_u32_is_rejected_not_truncated() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.set_origin(u32::MAX as u64 + 1);
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(30), Ev::Tag(3));
        let outcome = sim.run_until(SimTime::from_millis(20), 100);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // The event *at* the horizon fires; the one after does not.
        assert_eq!(sim.world().seen, vec![(10, 1), (20, 2)]);
    }

    #[test]
    fn budget_backstop_halts_runaway() {
        struct Loopy;
        impl World for Loopy {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), queue: &mut EventQueue<()>) {
                queue.schedule_in(SimDuration::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Loopy);
        sim.queue_mut().schedule_now(());
        assert_eq!(sim.run_to_completion(1_000), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn clock_is_monotone_and_tracks_events() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(42), Ev::Tag(0));
        sim.run_to_completion(10);
        assert_eq!(sim.now(), SimTime::from_millis(42));
        assert_eq!(sim.events_dispatched(), 1);
    }

    #[test]
    fn control_events_dispatch_but_do_not_count() {
        struct Ctl {
            work: u32,
            control: u32,
        }
        impl World for Ctl {
            type Event = bool; // true = control
            fn handle(&mut self, _: SimTime, ev: bool, _: &mut EventQueue<bool>) {
                if ev {
                    self.control += 1;
                } else {
                    self.work += 1;
                }
            }
            fn is_control(ev: &bool) -> bool {
                *ev
            }
        }
        let mut sim = Simulation::new(Ctl {
            work: 0,
            control: 0,
        });
        sim.queue_mut().schedule_at(SimTime::from_millis(1), true);
        sim.queue_mut().schedule_at(SimTime::from_millis(2), false);
        sim.queue_mut().schedule_at(SimTime::from_millis(3), true);
        let ((), rep) = crate::report::scope(|| {
            sim.run_to_completion(100);
        });
        assert_eq!(sim.world().control, 2, "control events still dispatch");
        assert_eq!(sim.world().work, 1);
        assert_eq!(sim.events_dispatched(), 1, "only work counts");
        assert_eq!(rep.events_dispatched, 1, "tally excludes control events");
    }
}

//! Deterministic event queue for discrete-event simulation.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for the
//! same instant fire in the order they were scheduled. This makes every
//! simulation a pure function of its inputs — there is no dependence on heap
//! iteration order or hashing.
//!
//! Two interchangeable backends share one generation-stamped slot arena,
//! so handles and `cancel` semantics are identical and the pop order is
//! bit-for-bit the same:
//!
//! * [`Backend::Wheel`] (default) — a hierarchical timing wheel
//!   ([`crate::wheel`]): O(1) schedule/cancel and amortized-O(1) pop for
//!   the short-horizon, high-churn traffic a packet simulation generates,
//!   with the 4-ary heap retained as an overflow tier for far-future
//!   events.
//! * [`Backend::Heap`] — an indexed 4-ary min-heap over the arena:
//!   O(log n) everything, no tuning parameters; the executable reference
//!   model for the wheel's property tests.
//!
//! Every scheduled event owns a slot; the handle returned by
//! [`EventQueue::schedule`] packs the slot index with a generation stamp,
//! so cancellation is eager with a constant-time staleness check — no
//! hashing, no lazily-buried tombstones, and the backing storage never
//! holds more than the live event count.
//!
//! ## Delay lanes
//!
//! An event nobody will cancel or move needs no handle:
//! [`EventQueue::push`] schedules one. On the wheel backend `push` appends
//! it inline — `(time, seq, payload)`, no arena slot — to a *delay lane*,
//! a FIFO serving one fixed delay `d = at − now`. Events pushed at the
//! same delay under a clock that never goes back arrive in `(time, seq)`
//! order, so a lane is sorted by construction and its head is its
//! minimum. A packet fabric schedules almost everything at one of three
//! such delays (a link's propagation delay for an `Arrive`, a frame's and
//! a PAUSE frame's serialization time for a `TxDone`), so almost every
//! event skips the wheel's slot arena and level-0 sort entirely. Rules:
//!
//! * There are [`LANES`] lanes. A lane serves the first delay it is given
//!   and is re-keyed only when it is empty.
//! * Only a delay below one level-0 rotation rides a lane:
//!   `d >> (tick_shift + 8) == 0`, ≈8.4 µs at the tick a 40 Gbps fabric
//!   runs on. This is derived from the tick, not a knob. Scan cadences,
//!   flow stops and other far timers would otherwise take a lane at t = 0
//!   and never let it drain; they go to the wheel.
//! * An event is appended only if the lane's tail time is `<= at`, so the
//!   lane stays sorted whatever the caller does; otherwise, and when no
//!   lane is free, `push` falls back to `schedule`.
//! * `seq` comes from the same counter as `schedule`'s, so the pop order
//!   is exactly the `(time, seq)` order the heap backend produces.
//!
//! Every pop takes the `(time, seq)` minimum of the wheel's candidate
//! and the lane heads (found through a bitmask of non-empty lanes). The
//! wheel's candidate is not computed when the wheel and its overflow tier
//! are empty, nor when the earliest lane head is below the wheel's floor,
//! a lower bound on its residents. A lane winner was the global minimum,
//! so the wheel cursor advances to its tick exactly as for a wheel
//! winner.
//!
//! `len`, `clear`, `reset` and [`live_entries`](EventQueue::live_entries)
//! include lane residents; [`for_each_live`](EventQueue::for_each_live)
//! visits them with no handle (`None`), so a caller that must see every
//! pending event must not skip those. A checkpoint cannot tell a lane
//! resident from a slot resident, and
//! [`restore_state`](EventQueue::restore_state) re-inserts every entry
//! through the slot path. The heap backend, the reference model, has no
//! lanes: there `push` is `schedule` with the handle dropped.

use std::collections::VecDeque;

use crate::time::SimTime;
use crate::wheel::{WheelState, DEFAULT_TICK_SHIFT};

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs `(slot index, generation)`; a handle goes stale the moment its
/// event fires or is cancelled, and stale handles are rejected even after
/// the slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }
    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }
    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Which index structure an [`EventQueue`] uses. Pop order is identical;
/// only the complexity profile differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Backend {
    /// Hierarchical timing wheel with a heap overflow tier (the default).
    Wheel,
    /// Indexed 4-ary min-heap (the reference implementation).
    Heap,
}

/// Sentinel for "not queued".
pub(crate) const NO_POS: u32 = u32::MAX;

pub(crate) struct Slot<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    /// Bumped every time the slot is vacated; stale handles never match.
    pub(crate) gen: u32,
    /// Where the event lives: `NO_POS` when free; for the heap backend a
    /// heap index; for the wheel a bucket id, or `OVF_BIT | heap index`
    /// in the overflow tier.
    pub(crate) pos: u32,
    /// Intrusive wheel-bucket links (unused by the heap backend).
    pub(crate) prev: u32,
    pub(crate) next: u32,
    pub(crate) payload: Option<E>,
}

/// Number of delay lanes. A fabric of one link type pushes at four short
/// delays — at 40 Gbps a 1 µs `Arrive`, a 200 ns `TxDone`, a 12.8 ns
/// PAUSE `TxDone`, and 0 — so four lanes take ≥ 99.95 % of its events
/// (EXPERIMENTS.md, "Delay lanes"); every further lane is one more head
/// to compare on every pop.
pub const LANES: usize = 4;

/// Key of a lane that serves no delay yet.
const UNKEYED: u64 = u64::MAX;

/// A FIFO of handle-free events all pushed at one delay (see the module
/// doc): sorted by `(time, seq)` because it is appended in that order.
struct Lane<E> {
    /// The delay `at − now`, in ps, this lane serves; `UNKEYED` if none.
    delay: u64,
    events: VecDeque<(SimTime, u64, E)>,
}

/// Which event the wheel backend pops next.
enum Next {
    /// Arena slot `idx`, the wheel's `select_min` winner from bucket
    /// `from` (`None` = overflow tier).
    Slot(u32, Option<usize>),
    /// The head of lane `i`.
    Lane(usize),
}

/// A future-event list with deterministic tie-breaking, eager O(log n)
/// (heap) / O(1) (wheel) cancellation via generation-stamped handles, and
/// capacity that survives [`EventQueue::reset`] for reuse across runs.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    core: Core,
    /// Delay lanes (wheel backend only; always empty on the heap).
    lanes: [Lane<E>; LANES],
    /// Bit `i` set iff lane `i` is non-empty.
    lane_mask: u8,
}

// The wheel's fixed-size slot index (~6 KiB of inline arrays) dwarfs the
// heap variant, but one queue exists per simulation and the wheel is the
// default backend — boxing it would put a pointer chase back on the
// hottest path that the inline arrays exist to avoid.
#[allow(clippy::large_enum_variant)]
enum Core {
    Heap(HeapCore),
    Wheel(WheelState),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Heap arity. Four keeps the tree shallow (hot for pop-heavy workloads)
/// while sift-down still scans few children.
const ARITY: usize = 4;

impl<E> EventQueue<E> {
    /// An empty queue at t = 0 on the default backend, the timing wheel.
    pub fn new() -> Self {
        Self::with_backend(Backend::Wheel)
    }

    /// An empty queue on an explicit backend (wheel ticks default to
    /// [`DEFAULT_TICK_SHIFT`] ≈ 1 ns).
    pub fn with_backend(backend: Backend) -> Self {
        Self::with_backend_and_tick_shift(backend, DEFAULT_TICK_SHIFT)
    }

    /// An empty queue on an explicit backend with an explicit wheel tick
    /// granularity (`2^tick_shift` picoseconds per tick; ignored by the
    /// heap backend). See [`crate::wheel::tick_shift_for_quantum`].
    pub fn with_backend_and_tick_shift(backend: Backend, tick_shift: u32) -> Self {
        let core = match backend {
            Backend::Heap => Core::Heap(HeapCore { heap: Vec::new() }),
            Backend::Wheel => Core::Wheel(WheelState::new(tick_shift)),
        };
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            core,
            lanes: std::array::from_fn(|_| Lane {
                delay: UNKEYED,
                events: VecDeque::new(),
            }),
            lane_mask: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> Backend {
        match self.core {
            Core::Heap(_) => Backend::Heap,
            Core::Wheel(_) => Backend::Wheel,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or `SimTime::ZERO` before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not-yet-cancelled) scheduled events, lane
    /// residents included.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.core {
            Core::Heap(h) => h.heap.len(),
            Core::Wheel(w) => w.len() + self.lanes.iter().map(|l| l.events.len()).sum::<usize>(),
        }
    }

    /// True iff no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality violation).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {now}",
            at = at,
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (idx, gen) = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.time = at;
                s.seq = seq;
                s.payload = Some(payload);
                (idx, s.gen)
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    time: at,
                    seq,
                    gen: 0,
                    pos: NO_POS,
                    prev: NO_POS,
                    next: NO_POS,
                    payload: Some(payload),
                });
                (idx, 0)
            }
        };
        match &mut self.core {
            Core::Heap(h) => h.insert(&mut self.slots, idx),
            Core::Wheel(w) => w.insert(&mut self.slots, idx),
        }
        EventId::new(idx, gen)
    }

    /// Schedule `payload` at absolute time `at` with no handle: the event
    /// can be neither cancelled nor moved. It pops exactly where
    /// [`schedule`](Self::schedule) would have put it; on the wheel
    /// backend it usually rides a delay lane (see the module doc).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality violation).
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: E) {
        if let Core::Wheel(w) = &self.core {
            assert!(
                at >= self.now,
                "causality violation: pushing at {at} but now is {now}",
                at = at,
                now = self.now
            );
            let delay = at.as_ps() - self.now.as_ps();
            if w.within_level0_span(delay) {
                if let Some(i) = self.lane_for(delay, at) {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.lanes[i].events.push_back((at, seq, payload));
                    self.lane_mask |= 1 << i;
                    return;
                }
            }
        }
        self.schedule(at, payload);
    }

    /// The lane an event at `at`, `delay` ps from now, may be appended
    /// to: the one keyed to `delay`, else an empty one (re-keyed to it) —
    /// and only if its tail is not later than `at`.
    #[inline]
    fn lane_for(&mut self, delay: u64, at: SimTime) -> Option<usize> {
        let i = match self.lanes.iter().position(|l| l.delay == delay) {
            Some(i) => i,
            None => {
                let i = self.lanes.iter().position(|l| l.events.is_empty())?;
                self.lanes[i].delay = delay;
                i
            }
        };
        let tail_ok = self.lanes[i].events.back().is_none_or(|e| e.0 <= at);
        tail_ok.then_some(i)
    }

    /// `(time, seq, lane)` of the earliest lane head, if any lane is
    /// non-empty.
    #[inline]
    fn lane_min(&self) -> Option<(SimTime, u64, usize)> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        let mut mask = self.lane_mask;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let &(t, s, _) = self.lanes[i]
                .events
                .front()
                .expect("masked lane is non-empty");
            if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                best = Some((t, s, i));
            }
        }
        best
    }

    /// The wheel backend's next event: the `(time, seq)` minimum of the
    /// wheel's `select_min` candidate and the lane heads. With every lane
    /// empty this is `select_min` alone. The wheel is not searched when it
    /// is empty or when the earliest lane head is below its floor (a lower
    /// bound on every resident), the common case while only far timers
    /// sit in the wheel.
    #[inline]
    fn select_next(&mut self) -> Option<Next> {
        let lane = self.lane_min();
        let Core::Wheel(w) = &mut self.core else {
            unreachable!("lanes live on the wheel backend")
        };
        let Some((lt, ls, i)) = lane else {
            let (idx, from) = w.select_min(&mut self.slots)?;
            return Some(Next::Slot(idx, from));
        };
        if (lt, ls) < w.floor() || w.len() == 0 {
            return Some(Next::Lane(i));
        }
        let Some((idx, from)) = w.select_min(&mut self.slots) else {
            return Some(Next::Lane(i));
        };
        let s = &self.slots[idx as usize];
        w.raise_floor((s.time, s.seq));
        Some(if (s.time, s.seq) < (lt, ls) {
            Next::Slot(idx, from)
        } else {
            Next::Lane(i)
        })
    }

    /// Pop the head of lane `i`, the global minimum: advance `now` and
    /// the wheel cursor to it.
    #[inline]
    fn pop_lane(&mut self, i: usize) -> (SimTime, u64, E) {
        let lane = &mut self.lanes[i].events;
        let head = lane.pop_front().expect("masked lane is non-empty");
        if lane.is_empty() {
            self.lane_mask &= !(1 << i);
        }
        if let Core::Wheel(w) = &mut self.core {
            w.advance_cursor(head.0);
        }
        self.now = head.0;
        head
    }

    /// Move a still-pending event to a new timestamp in place.
    ///
    /// Observationally identical to `cancel(id)` followed by
    /// `schedule(at, payload)` — the entry is re-keyed with a fresh
    /// sequence number, so it ties against other events exactly as a
    /// newly scheduled one would — but the arena slot is reused without
    /// a release/reacquire round trip and `id` stays valid for further
    /// reschedules or a final `cancel`. On the wheel this is O(1)
    /// bucket-to-bucket (unlink + relink); on the heap it re-sifts in
    /// place. This is the PFC pause-timer pattern: one deadline slot
    /// per port that each refresh pushes out instead of piling up a
    /// cancelled-timer storm.
    ///
    /// Returns `false` (and does nothing) if the event already fired or
    /// was cancelled.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn reschedule(&mut self, id: EventId, at: SimTime) -> bool {
        assert!(
            at >= self.now,
            "causality violation: rescheduling at {at} but now is {now}",
            at = at,
            now = self.now
        );
        let idx = id.slot();
        match self.slots.get(idx as usize) {
            Some(s) if s.gen == id.gen() && s.pos != NO_POS => {
                let seq = self.next_seq;
                self.next_seq += 1;
                match &mut self.core {
                    Core::Heap(h) => {
                        let pos = s.pos as usize;
                        let s = &mut self.slots[idx as usize];
                        s.time = at;
                        s.seq = seq;
                        h.sift_down(&mut self.slots, pos);
                        let pos = self.slots[idx as usize].pos as usize;
                        h.sift_up(&mut self.slots, pos);
                    }
                    Core::Wheel(w) => {
                        w.remove(&mut self.slots, idx);
                        let s = &mut self.slots[idx as usize];
                        s.time = at;
                        s.seq = seq;
                        w.insert(&mut self.slots, idx);
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (and is now guaranteed never to fire). Cancelling an
    /// event that already fired, or was already cancelled, returns `false`
    /// and has no effect.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let idx = id.slot();
        match self.slots.get(idx as usize) {
            Some(s) if s.gen == id.gen() && s.pos != NO_POS => {
                match &mut self.core {
                    Core::Heap(h) => {
                        let pos = s.pos as usize;
                        h.remove_at(&mut self.slots, pos);
                    }
                    Core::Wheel(w) => w.remove(&mut self.slots, idx),
                }
                self.release(idx);
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the next live event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.core {
            Core::Heap(h) => h.heap.first().map(|&i| self.slots[i as usize].time),
            Core::Wheel(w) => {
                let wheel = w.find_min(&self.slots).map(|i| {
                    let s = &self.slots[i as usize];
                    (s.time, s.seq)
                });
                let lane = self.lane_min().map(|(t, s, _)| (t, s));
                wheel.into_iter().chain(lane).min().map(|(t, _)| t)
            }
        }
    }

    /// Pop the next live event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let idx = match &mut self.core {
            Core::Heap(h) => {
                let &root = h.heap.first()?;
                h.remove_at(&mut self.slots, 0);
                root
            }
            Core::Wheel(_) => match self.select_next()? {
                Next::Lane(i) => {
                    let (time, _, payload) = self.pop_lane(i);
                    return Some((time, payload));
                }
                Next::Slot(idx, from) => {
                    if let Core::Wheel(w) = &mut self.core {
                        w.pop_selected(&mut self.slots, idx, from);
                    }
                    idx
                }
            },
        };
        Some(self.take(idx))
    }

    /// Pop the next live event, with its full `(time, seq)` key, only if
    /// its timestamp is `<= limit`, advancing `now` to it. Equivalent to
    /// `peek_time` followed by a conditional `pop`, but a single
    /// min-search — the hot path of a horizon-bounded run loop. Returns
    /// `None` both on an empty queue and on a next event beyond `limit`;
    /// disambiguate with [`is_empty`](Self::is_empty).
    #[inline]
    pub fn pop_before(&mut self, limit: SimTime) -> Option<((SimTime, u64), E)> {
        let idx = match &mut self.core {
            Core::Heap(h) => {
                let &root = h.heap.first()?;
                if self.slots[root as usize].time > limit {
                    return None;
                }
                h.remove_at(&mut self.slots, 0);
                root
            }
            Core::Wheel(_) => match self.select_next()? {
                Next::Lane(i) => {
                    if self.lanes[i].events.front().is_some_and(|e| e.0 > limit) {
                        return None;
                    }
                    let (time, seq, payload) = self.pop_lane(i);
                    return Some(((time, seq), payload));
                }
                Next::Slot(idx, from) => {
                    if self.slots[idx as usize].time > limit {
                        return None;
                    }
                    if let Core::Wheel(w) = &mut self.core {
                        w.detach(&mut self.slots, idx, from);
                    }
                    idx
                }
            },
        };
        let seq = self.slots[idx as usize].seq;
        let (time, payload) = self.take(idx);
        Some(((time, seq), payload))
    }

    /// Detach popped arena slot `idx`: advance `now`, release the slot,
    /// hand back `(time, payload)`.
    #[inline]
    fn take(&mut self, idx: u32) -> (SimTime, E) {
        let s = &mut self.slots[idx as usize];
        let time = s.time;
        let payload = s.payload.take().expect("live entry has payload");
        self.now = time;
        self.release(idx);
        (time, payload)
    }

    /// Drop every pending event (used when tearing a simulation down
    /// early). `now` and the sequence counter are preserved; all backing
    /// capacity is retained.
    pub fn clear(&mut self) {
        for idx in 0..self.slots.len() as u32 {
            if self.slots[idx as usize].pos != NO_POS {
                self.slots[idx as usize].payload = None;
                self.release(idx);
            }
        }
        match &mut self.core {
            Core::Heap(h) => h.heap.clear(),
            Core::Wheel(w) => w.clear_index(),
        }
        for lane in &mut self.lanes {
            lane.events.clear();
        }
        self.lane_mask = 0;
    }

    /// Rewind to a fresh queue at t = 0 while keeping every allocation:
    /// the slot arena, free list, heap, wheel storage and delay lanes all
    /// retain their capacity, so a run replayed on a reset queue performs
    /// no new slot or lane allocations. The lanes are un-keyed, so the
    /// replay assigns them exactly as a fresh queue would. Outstanding
    /// handles stay stale (generations are not rewound).
    pub fn reset(&mut self) {
        self.clear();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        if let Core::Wheel(w) = &mut self.core {
            w.reset_cursor();
        }
        for lane in &mut self.lanes {
            lane.delay = UNKEYED;
        }
    }

    /// Size of the backing slot arena (live + free slots). A reused queue
    /// whose peak concurrency fits the arena schedules with zero new slot
    /// allocations; tests assert on this.
    #[doc(hidden)]
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Entries the delay lanes can hold without reallocating, summed over
    /// the lanes (0 on the heap backend). A reused queue whose lanes
    /// never outgrow it pushes with zero new lane allocations; tests
    /// assert on this.
    #[doc(hidden)]
    pub fn lane_capacity(&self) -> usize {
        self.lanes.iter().map(|l| l.events.capacity()).sum()
    }

    /// Events currently parked in the wheel's overflow tier (0 on the
    /// heap backend). Introspection for tests and benches.
    #[doc(hidden)]
    pub fn overflow_len(&self) -> usize {
        match &self.core {
            Core::Heap(_) => 0,
            Core::Wheel(w) => w.overflow_len(),
        }
    }

    /// The wheel's tick granularity as a power-of-two picosecond shift
    /// (`None` on the heap backend).
    pub fn tick_shift(&self) -> Option<u32> {
        match &self.core {
            Core::Heap(_) => None,
            Core::Wheel(w) => Some(w.tick_shift()),
        }
    }

    /// Sequence number the next [`schedule`](Self::schedule) or
    /// [`push`](Self::push) will use.
    /// Captured by checkpoints so a restored queue keeps numbering where
    /// the original left off.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Snapshot every live event — slot and lane residents alike — as
    /// `(time, seq, payload)`, sorted by `(time, seq)`, i.e. in pop order.
    /// Slot indices, free-list layout and lane membership are
    /// deliberately *not* captured: pop order is a pure function of
    /// `(time, seq)`, so a queue rebuilt from this snapshot via
    /// [`restore_state`](Self::restore_state) is observationally
    /// identical even though its layout differs.
    pub fn live_entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let slots = self.slots.iter().filter(|s| s.pos != NO_POS).map(|s| {
            (
                s.time,
                s.seq,
                s.payload.clone().expect("live entry has payload"),
            )
        });
        let lanes = self.lanes.iter().flat_map(|l| l.events.iter().cloned());
        let mut out: Vec<(SimTime, u64, E)> = slots.chain(lanes).collect();
        out.sort_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// Visit every live entry as `(handle, time, payload)`: slot
    /// residents in arena order with `Some(handle)`, then lane residents
    /// with `None` (they have no handle). Checkpoint restore uses this to
    /// rebuild side tables that key on event handles (which do not
    /// survive serialization — [`restore_state`](Self::restore_state)
    /// assigns fresh slots); anything that must see every pending event
    /// must not skip the `None`s.
    pub fn for_each_live(&self, mut f: impl FnMut(Option<EventId>, SimTime, &E)) {
        for (i, s) in self.slots.iter().enumerate() {
            if s.pos != NO_POS {
                let p = s.payload.as_ref().expect("live entry has payload");
                f(Some(EventId::new(i as u32, s.gen)), s.time, p);
            }
        }
        for (t, _, p) in self.lanes.iter().flat_map(|l| &l.events) {
            f(None, *t, p);
        }
    }

    /// Rebuild this queue from a [`live_entries`](Self::live_entries)
    /// snapshot: clear everything, park the clock (and wheel cursor) at
    /// `now`, re-insert every entry into an arena slot (never a lane) with
    /// its original sequence number, and continue numbering from
    /// `next_seq`. Outstanding [`EventId`]
    /// handles from before the restore are stale, exactly as after
    /// [`reset`](Self::reset).
    ///
    /// # Panics
    /// Panics if any entry is earlier than `now` (a snapshot can only
    /// contain future events).
    pub fn restore_state(&mut self, now: SimTime, next_seq: u64, entries: Vec<(SimTime, u64, E)>) {
        self.reset();
        self.now = now;
        if let Core::Wheel(w) = &mut self.core {
            w.set_cursor(now.as_ps() >> w.tick_shift());
        }
        for (at, seq, payload) in entries {
            assert!(
                at >= self.now,
                "checkpoint entry at {at} predates its snapshot time {now}",
                now = self.now
            );
            self.insert_with_seq(at, seq, payload);
        }
        self.next_seq = next_seq;
    }

    /// [`schedule`](Self::schedule) with an explicit sequence number and
    /// no counter bump — the restore path.
    fn insert_with_seq(&mut self, at: SimTime, seq: u64, payload: E) {
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.time = at;
                s.seq = seq;
                s.payload = Some(payload);
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    time: at,
                    seq,
                    gen: 0,
                    pos: NO_POS,
                    prev: NO_POS,
                    next: NO_POS,
                    payload: Some(payload),
                });
                idx
            }
        };
        match &mut self.core {
            Core::Heap(h) => h.insert(&mut self.slots, idx),
            Core::Wheel(w) => w.insert(&mut self.slots, idx),
        }
    }

    /// Mark `idx` vacant, invalidating outstanding handles to it.
    #[inline]
    fn release(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        s.pos = NO_POS;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
    }
}

/// The indexed 4-ary min-heap over the slot arena: the reference backend.
struct HeapCore {
    /// Heap of slot indices, ordered by the slots' `(time, seq)`.
    heap: Vec<u32>,
}

impl HeapCore {
    fn insert<E>(&mut self, slots: &mut [Slot<E>], idx: u32) {
        let pos = self.heap.len();
        slots[idx as usize].pos = pos as u32;
        self.heap.push(idx);
        self.sift_up(slots, pos);
    }

    /// `(time, seq)` min-order between two slot indices.
    #[inline]
    fn before<E>(slots: &[Slot<E>], a: u32, b: u32) -> bool {
        let (sa, sb) = (&slots[a as usize], &slots[b as usize]);
        (sa.time, sa.seq) < (sb.time, sb.seq)
    }

    /// Remove the heap entry at `pos`, preserving the heap invariant.
    fn remove_at<E>(&mut self, slots: &mut [Slot<E>], pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        let removed = self.heap.pop().expect("remove_at on empty heap");
        slots[removed as usize].pos = NO_POS;
        if pos < self.heap.len() {
            slots[self.heap[pos] as usize].pos = pos as u32;
            // The filler came from the heap's tail but an arbitrary
            // subtree; it may need to move either way. If sift_down moved
            // a former descendant up into `pos`, that element already
            // satisfies the parent bound, so the follow-up sift_up is a
            // single no-op comparison.
            self.sift_down(slots, pos);
            self.sift_up(slots, pos);
        }
    }

    fn sift_up<E>(&mut self, slots: &mut [Slot<E>], mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if Self::before(slots, self.heap[pos], self.heap[parent]) {
                self.swap_heap(slots, pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down<E>(&mut self, slots: &mut [Slot<E>], mut pos: usize) {
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(self.heap.len());
            for c in first_child + 1..end {
                if Self::before(slots, self.heap[c], self.heap[best]) {
                    best = c;
                }
            }
            if Self::before(slots, self.heap[best], self.heap[pos]) {
                self.swap_heap(slots, pos, best);
                pos = best;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn swap_heap<E>(&mut self, slots: &mut [Slot<E>], a: usize, b: usize) {
        self.heap.swap(a, b);
        slots[self.heap[a] as usize].pos = a as u32;
        slots[self.heap[b] as usize].pos = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Run `f` against a fresh queue on each backend — every invariant
    /// below must hold regardless of the index structure.
    fn on_each_backend(f: impl Fn(EventQueue<&'static str>)) {
        f(EventQueue::with_backend(Backend::Heap));
        f(EventQueue::with_backend(Backend::Wheel));
    }

    fn on_each_backend_u64(f: impl Fn(EventQueue<u64>)) {
        f(EventQueue::with_backend(Backend::Heap));
        f(EventQueue::with_backend(Backend::Wheel));
    }

    /// `pop_before` must be observationally identical to peek-then-pop:
    /// same events under the same `(time, seq)` keys in the same order
    /// under a rising limit, refusals leaving the queue intact.
    #[test]
    fn pop_before_matches_peek_then_pop() {
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut fused = EventQueue::with_backend(backend);
            let mut split = EventQueue::with_backend(backend);
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut at = 0u64;
            for i in 0..500u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                at += state % 50_000; // mixed deltas, frequent ties at 0
                fused.schedule(SimTime::from_ps(at), i);
                split.schedule(SimTime::from_ps(at), i);
            }
            let mut limit = SimTime::ZERO;
            while split.peek_time().is_some() {
                loop {
                    // Payload `i` was the `i`-th schedule on a fresh
                    // queue, so it is also the event's sequence number.
                    let expect = match split.peek_time() {
                        Some(t) if t <= limit => split.pop().map(|(t, v)| ((t, v), v)),
                        _ => None,
                    };
                    let got = fused.pop_before(limit);
                    assert_eq!(got, expect, "{backend:?} diverged at limit {limit}");
                    if got.is_none() {
                        break;
                    }
                }
                limit += SimDuration::from_ns(37);
            }
            assert_eq!(fused.pop_before(SimTime::MAX), None);
            assert_eq!(fused.now(), split.now(), "{backend:?} clock diverged");
        }
    }

    #[test]
    fn pops_in_time_order() {
        on_each_backend(|mut q| {
            q.schedule(SimTime::from_ns(30), "c");
            q.schedule(SimTime::from_ns(10), "a");
            q.schedule(SimTime::from_ns(20), "b");
            assert_eq!(q.pop().unwrap(), (SimTime::from_ns(10), "a"));
            assert_eq!(q.pop().unwrap(), (SimTime::from_ns(20), "b"));
            assert_eq!(q.pop().unwrap(), (SimTime::from_ns(30), "c"));
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn same_time_fifo_order() {
        on_each_backend_u64(|mut q| {
            let t = SimTime::from_ns(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i, "FIFO tie-break violated");
            }
        });
    }

    #[test]
    fn now_advances_with_pops() {
        on_each_backend(|mut q| {
            q.schedule(SimTime::from_us(7), "e");
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_us(7));
        });
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn cancellation_prevents_firing() {
        on_each_backend(|mut q| {
            let a = q.schedule(SimTime::from_ns(1), "a");
            let b = q.schedule(SimTime::from_ns(2), "b");
            assert_eq!(q.len(), 2);
            assert!(q.cancel(a));
            assert!(!q.cancel(a), "double-cancel reports false");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().1, "b");
            assert!(!q.cancel(b) || q.is_empty());
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn peek_time_skips_cancelled() {
        on_each_backend(|mut q| {
            let a = q.schedule(SimTime::from_ns(1), "a");
            q.schedule(SimTime::from_ns(9), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(9)));
        });
    }

    #[test]
    fn clear_empties_queue() {
        on_each_backend_u64(|mut q| {
            q.schedule(SimTime::from_ns(1), 1);
            q.schedule(SimTime::from_ns(2), 2);
            q.clear();
            assert!(q.is_empty());
            assert!(q.pop().is_none());
        });
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        on_each_backend_u64(|mut q| {
            q.schedule(SimTime::from_ns(10), 10);
            q.schedule(SimTime::from_ns(5), 5);
            assert_eq!(q.pop().unwrap().1, 5);
            // Schedule relative to now.
            let now = q.now();
            q.schedule(now + SimDuration::from_ns(2), 7);
            assert_eq!(q.pop().unwrap().1, 7);
            assert_eq!(q.pop().unwrap().1, 10);
        });
    }

    #[test]
    fn stale_handle_rejected_after_slot_reuse() {
        on_each_backend(|mut q| {
            let a = q.schedule(SimTime::from_ns(1), "a");
            assert!(q.cancel(a));
            // Reuses a's slot; the old handle must not be able to cancel it.
            let b = q.schedule(SimTime::from_ns(2), "b");
            assert!(!q.cancel(a));
            assert_eq!(q.pop().unwrap().1, "b");
            assert!(!q.cancel(b), "fired handle is stale");
        });
    }

    #[test]
    fn stale_handle_rejected_after_clear() {
        on_each_backend_u64(|mut q| {
            let a = q.schedule(SimTime::from_ns(1), 1);
            q.clear();
            assert!(!q.cancel(a));
            q.schedule(SimTime::from_ns(2), 2);
            assert!(!q.cancel(a), "pre-clear handle must stay stale");
        });
    }

    /// Regression for the cancelled-entry leak: with lazy cancellation the
    /// backing index retained tombstones until they surfaced, so a
    /// schedule/cancel churn at a far-future timestamp grew storage without
    /// bound. Eager removal keeps both the index and the slot arena at the
    /// live-event footprint.
    #[test]
    fn cancelled_entries_are_reclaimed_not_leaked() {
        on_each_backend(|mut q| {
            let keep = q.schedule(SimTime::from_ns(1_000_000), "keep");
            for _ in 0..10_000 {
                let id = q.schedule(SimTime::from_ns(999_999), "churn");
                assert!(q.cancel(id));
            }
            assert_eq!(q.len(), 1, "index retains cancelled tombstones");
            assert!(
                q.arena_len() <= 2,
                "slot arena grew to {} despite churn reuse",
                q.arena_len()
            );
            assert!(q.cancel(keep));
            assert!(q.is_empty());
        });
    }

    /// Reuse across runs: after `reset`, an identical workload must touch
    /// only recycled slots — zero arena growth — and behave exactly like a
    /// fresh queue.
    #[test]
    fn reset_reuses_arena_with_zero_new_slot_allocations() {
        let run = |q: &mut EventQueue<u64>| -> Vec<(u64, u64)> {
            let mut ids = Vec::new();
            for i in 0..500u64 {
                let t = SimTime::from_ns((i * 37) % 900 + 1);
                ids.push(q.schedule(t, i));
            }
            for id in ids.iter().step_by(3) {
                assert!(q.cancel(*id));
            }
            let mut out = Vec::new();
            while let Some((t, v)) = q.pop() {
                out.push((t.as_ns(), v));
            }
            out
        };
        for backend in [Backend::Heap, Backend::Wheel] {
            let mut q = EventQueue::with_backend(backend);
            let first = run(&mut q);
            let arena_after_first = q.arena_len();
            q.reset();
            assert_eq!(q.now(), SimTime::ZERO);
            assert!(q.is_empty());
            let second = run(&mut q);
            assert_eq!(first, second, "reset queue diverged from fresh run");
            assert_eq!(
                q.arena_len(),
                arena_after_first,
                "second run on a reset queue allocated new slots"
            );
        }
    }

    /// Wheel edge case: events scheduled exactly at the current tick (and
    /// at the current time) fire immediately and in FIFO order.
    #[test]
    fn wheel_schedule_at_current_tick() {
        let mut q: EventQueue<u64> = EventQueue::with_backend(Backend::Wheel);
        q.schedule(SimTime::from_ns(100), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        let now = q.now();
        q.schedule(now, 1); // same ps as `now`
        q.schedule(now + SimDuration::from_ps(1), 2); // same tick, later ps
        q.schedule(now, 3); // FIFO with 1
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }

    /// Wheel edge case: cancelling the last event of a slot must clear the
    /// occupancy bit, or peek/pop would spin on an empty bucket.
    #[test]
    fn wheel_cancel_last_event_in_slot() {
        let mut q: EventQueue<u64> = EventQueue::with_backend(Backend::Wheel);
        let lone = q.schedule(SimTime::from_ns(50), 1);
        q.schedule(SimTime::from_us(3), 2); // different slot, different level
        assert!(q.cancel(lone));
        assert_eq!(q.peek_time(), Some(SimTime::from_us(3)));
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }

    /// Wheel edge case: far-future events start in the overflow tier and
    /// migrate into the wheels as the cursor turns, without reordering.
    #[test]
    fn wheel_overflow_migration_preserves_order() {
        let mut q: EventQueue<u64> = EventQueue::with_backend(Backend::Wheel);
        // Horizon with the default 2^10 ps tick is 2^34 ps ≈ 17.2 ms.
        let far: Vec<SimTime> = (0..50)
            .map(|i| SimTime::from_us(21_000) + SimDuration::from_ns(i * 13))
            .collect();
        for (i, &t) in far.iter().enumerate() {
            q.schedule(t, 1000 + i as u64);
        }
        assert!(q.overflow_len() > 0, "far events must start in overflow");
        // Near events pop first; popping walks the cursor toward the
        // overflow boundary and drags the far events into the wheels.
        for i in 0..10u64 {
            q.schedule(SimTime::from_ms(2 * (i + 1)), i);
        }
        let mut seen = Vec::new();
        while let Some((_, v)) = q.pop() {
            seen.push(v);
        }
        let want: Vec<u64> = (0..10).chain(1000..1050).collect();
        assert_eq!(
            seen, want,
            "migration across the overflow boundary reordered"
        );
        assert_eq!(q.overflow_len(), 0);
    }

    /// Wheel edge case: an event exactly at the horizon boundary
    /// (`2^24` ticks ahead) goes to overflow, one tick inside stays in the
    /// wheels, and both pop in time order.
    #[test]
    fn wheel_horizon_boundary_events() {
        let mut q: EventQueue<u64> = EventQueue::with_backend(Backend::Wheel);
        let tick_ps = 1u64 << q.tick_shift().unwrap();
        let horizon = SimTime::from_ps(tick_ps << 24);
        q.schedule(horizon, 2);
        q.schedule(SimTime::from_ps(horizon.as_ps() - tick_ps), 1);
        q.schedule(SimTime::from_ps(horizon.as_ps() + tick_ps), 3);
        assert_eq!(q.overflow_len(), 2, "boundary and beyond go to overflow");
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    /// `SimTime::MAX` is a legal "never" timestamp; it must park in the
    /// overflow tier and still be cancellable.
    #[test]
    fn wheel_handles_sentinel_max_time() {
        let mut q: EventQueue<u64> = EventQueue::with_backend(Backend::Wheel);
        let never = q.schedule(SimTime::MAX, 99);
        q.schedule(SimTime::from_ns(5), 1);
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.cancel(never));
        assert!(q.is_empty());
    }

    #[test]
    fn constructors_select_backend_and_new_is_the_wheel() {
        assert_eq!(
            EventQueue::<u64>::with_backend(Backend::Heap).backend(),
            Backend::Heap
        );
        assert_eq!(
            EventQueue::<u64>::with_backend(Backend::Wheel).backend(),
            Backend::Wheel
        );
        assert_eq!(EventQueue::<u64>::new().backend(), Backend::Wheel);
    }

    /// Randomised (but seeded, self-contained) interleaving of
    /// schedule/cancel/pop against a sorted-vec reference model, on both
    /// backends.
    #[test]
    fn interleaving_matches_reference_model() {
        for backend in [Backend::Heap, Backend::Wheel] {
            // xorshift64* — deterministic, no external deps.
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut rng = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545f4914f6cdd1d)
            };
            let mut q = EventQueue::with_backend(backend);
            let mut live: Vec<(u64, u64, EventId)> = Vec::new(); // (time_ns, tag, id)
            let mut popped: Vec<u64> = Vec::new();
            let mut expected: Vec<u64> = Vec::new();
            let mut tag = 0u64;
            for _ in 0..5_000 {
                match rng() % 10 {
                    0..=4 => {
                        let t = q.now().as_ns() + rng() % 50;
                        let id = q.schedule(SimTime::from_ns(t), tag);
                        live.push((t, tag, id));
                        tag += 1;
                    }
                    5..=6 if !live.is_empty() => {
                        let victim = (rng() % live.len() as u64) as usize;
                        let (_, _, id) = live.swap_remove(victim);
                        assert!(q.cancel(id));
                    }
                    _ => {
                        if let Some((t, v)) = q.pop() {
                            popped.push(v);
                            // Reference: earliest (time, tag) among live.
                            let best = live
                                .iter()
                                .enumerate()
                                .min_by_key(|(_, &(bt, btag, _))| (bt, btag))
                                .map(|(i, _)| i)
                                .expect("model had no live events");
                            let (bt, btag, _) = live.swap_remove(best);
                            assert_eq!((t.as_ns(), v), (bt, btag));
                            expected.push(btag);
                        }
                    }
                }
            }
            assert_eq!(popped, expected);
            assert_eq!(q.len(), live.len());
        }
    }

    /// Checkpoint/restore parity: snapshotting mid-run and rebuilding a
    /// fresh queue (on either backend, regardless of which backend took
    /// the snapshot) must reproduce the exact remaining pop stream, and
    /// new schedules must continue the sequence numbering seamlessly.
    #[test]
    fn restore_reproduces_pop_stream_across_backends() {
        let build = |backend| {
            let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
            let mut state = 0x1234_5678_9abc_def0u64;
            let mut at = 0u64;
            for i in 0..400u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                at += state % 40_000;
                q.schedule(SimTime::from_ps(at), i);
            }
            // Far-future events exercise the wheel overflow tier.
            for i in 0..20u64 {
                q.schedule(SimTime::from_us(30_000 + i), 1000 + i);
            }
            for _ in 0..150 {
                q.pop();
            }
            q
        };
        for src in [Backend::Heap, Backend::Wheel] {
            let original = build(src);
            let snapshot = original.live_entries();
            let (now, next_seq) = (original.now(), original.next_seq());
            for dst in [Backend::Heap, Backend::Wheel] {
                let mut restored: EventQueue<u64> =
                    EventQueue::with_backend_and_tick_shift(dst, DEFAULT_TICK_SHIFT);
                restored.restore_state(now, next_seq, snapshot.clone());
                assert_eq!(restored.now(), now);
                assert_eq!(restored.len(), original.len());
                // Rebuild the original (build() already drains to the
                // snapshot point) and compare tails with interleaved
                // post-restore scheduling.
                let mut a = build(src);
                let extra = a.now() + SimDuration::from_ns(3);
                a.schedule(extra, 9999);
                restored.schedule(extra, 9999);
                loop {
                    let (x, y) = (a.pop(), restored.pop());
                    assert_eq!(x, y, "{src:?}->{dst:?} diverged after restore");
                    if x.is_none() {
                        break;
                    }
                }
            }
        }
    }

    /// `reschedule` must be observationally identical to cancel +
    /// schedule: same pop stream under a randomized workload of moves in
    /// both directions (later *and* earlier deadlines), on both backends
    /// and cross-checked between them.
    #[test]
    fn reschedule_matches_cancel_plus_schedule() {
        // The cancel+schedule reference needs the payload back, which
        // `cancel` does not return — so the workload carries the payload
        // alongside the handle.
        let run = |backend, use_reschedule: bool| -> Vec<(u64, u64)> {
            let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
            let mut state = 0xdead_beef_cafe_f00du64;
            let mut rng = move |m: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) % m
            };
            let mut live: Vec<(EventId, u64)> = Vec::new();
            let mut out = Vec::new();
            for i in 0..4_000u64 {
                match rng(10) {
                    0..=3 => {
                        let at = q.now() + SimDuration::from_ns(1 + rng(70_000));
                        live.push((q.schedule(at, i), i));
                    }
                    4..=6 if !live.is_empty() => {
                        let ix = rng(live.len() as u64) as usize;
                        let at = q.now() + SimDuration::from_ns(1 + rng(70_000));
                        let (id, payload) = live[ix];
                        let moved = if use_reschedule {
                            q.reschedule(id, at)
                        } else if q.cancel(id) {
                            live[ix].0 = q.schedule(at, payload);
                            true
                        } else {
                            false
                        };
                        if !moved {
                            live.swap_remove(ix);
                        }
                    }
                    _ => {
                        if let Some((t, v)) = q.pop() {
                            out.push((t.as_ns(), v));
                            let pos = live.iter().position(|&(_, p)| p == v).unwrap();
                            live.swap_remove(pos);
                        }
                    }
                }
            }
            while let Some((t, v)) = q.pop() {
                out.push((t.as_ns(), v));
            }
            out
        };
        let reference = run(Backend::Heap, false);
        for backend in [Backend::Heap, Backend::Wheel] {
            assert_eq!(
                run(backend, true),
                reference,
                "{backend:?} reschedule diverged from cancel+schedule"
            );
            assert_eq!(run(backend, false), reference);
        }
    }

    /// A rescheduled handle must survive repeated moves (including into
    /// the wheel overflow tier and back) and still cancel cleanly.
    #[test]
    fn reschedule_keeps_handle_valid() {
        on_each_backend_u64(|mut q| {
            let id = q.schedule(SimTime::from_ns(100), 7);
            assert!(q.reschedule(id, SimTime::from_us(40_000))); // overflow range
            assert!(q.reschedule(id, SimTime::from_ns(50))); // back near now
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((SimTime::from_ns(50), 7)));
            // Fired: the handle is dead for both verbs.
            assert!(!q.reschedule(id, SimTime::from_ns(60)));
            assert!(!q.cancel(id));
        });
    }

    /// Rescheduling consumes a sequence number, so a moved event ties
    /// *after* anything scheduled between the original schedule and the
    /// move — exactly like cancel + schedule.
    #[test]
    fn reschedule_ties_like_a_fresh_schedule() {
        on_each_backend_u64(|mut q| {
            let t = SimTime::from_ns(500);
            let id = q.schedule(t, 1);
            q.schedule(t, 2);
            assert!(q.reschedule(id, t)); // same instant, new seq
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
            assert_eq!(order, [2, 1]);
        });
    }

    /// The `for_each_live` / `live_entries` contract with delay-lane
    /// residents: `for_each_live` visits every live entry once, lane
    /// residents with no handle and slot residents with theirs, and
    /// `live_entries` comes out in pop order and equal to the heap
    /// backend's for the same operations.
    #[test]
    fn live_visitors_see_lane_residents() {
        let ops = |q: &mut EventQueue<u64>| -> Vec<EventId> {
            let mut ids = Vec::new();
            for i in 0..30u64 {
                let now = q.now();
                // Three short delays (lanes), then a handle and a delay
                // beyond one level-0 rotation at the fabric tick (slots).
                q.push(
                    now + SimDuration::from_ns([1_000, 200, 13][i as usize % 3]),
                    i,
                );
                if i % 5 == 0 {
                    ids.push(q.schedule(now + SimDuration::from_ns(90), 100 + i));
                    q.push(now + SimDuration::from_us(50), 200 + i);
                }
                if i % 4 == 3 {
                    q.pop();
                }
            }
            ids
        };
        let mut wheel = EventQueue::with_backend_and_tick_shift(Backend::Wheel, 15);
        let mut heap = EventQueue::with_backend(Backend::Heap);
        let ids = ops(&mut wheel);
        let heap_ids = ops(&mut heap);

        let (mut handles, mut lane) = (Vec::new(), 0);
        wheel.for_each_live(|id, _, _| match id {
            Some(id) => handles.push(id),
            None => lane += 1,
        });
        assert_eq!(
            handles.len() + lane,
            wheel.len(),
            "every live entry is visited once"
        );
        assert!(lane > 0 && !handles.is_empty(), "both kinds are resident");
        let lanes_hold: usize = wheel.lanes.iter().map(|l| l.events.len()).sum();
        assert_eq!(lane, lanes_hold, "lane residents come without a handle");
        for (id, heap_id) in ids.iter().zip(&heap_ids) {
            let live = handles.contains(id);
            assert_eq!(wheel.cancel(*id), live, "visited handles are the live ones");
            assert_eq!(heap.cancel(*heap_id), live);
        }

        let mut heap_handles = 0;
        heap.for_each_live(|id, _, _| heap_handles += usize::from(id.is_some()));
        assert_eq!(heap_handles, heap.len(), "the heap has no lanes");
        let snapshot = wheel.live_entries();
        assert!(snapshot
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert_eq!(snapshot, heap.live_entries());
    }

    /// A lane winner moves the wheel cursor like a wheel winner does. A
    /// lane-only stretch longer than the wheel's whole horizon (2^24 ticks
    /// — about 1.07 ms at the finest tick) must leave a near `schedule` in
    /// the wheels: with a cursor still at t = 0 it would land in the
    /// overflow tier.
    #[test]
    fn lane_pops_advance_the_wheel_cursor() {
        let mut q: EventQueue<u64> = EventQueue::with_backend_and_tick_shift(Backend::Wheel, 6);
        let step = SimDuration::from_ns(10);
        q.push(SimTime::ZERO + step, 0);
        while q.now() < SimTime::from_us(1_100) {
            let (t, v) = q.pop().expect("the stream never runs dry");
            q.push(t + step, v + 1);
        }
        let near = q.now() + SimDuration::from_ns(3);
        q.schedule(near, u64::MAX);
        assert_eq!(q.overflow_len(), 0, "a near event parked in overflow");
        assert_eq!(q.pop().map(|(t, _)| t), Some(near));
    }

    /// The tail check: an event is appended to a lane only if the lane's
    /// tail is not later than it; otherwise it takes the slot path. Equal
    /// delays under a monotone clock never trip it, so the lane is rigged
    /// here.
    #[test]
    fn push_behind_a_lane_tail_takes_the_slot_path() {
        let mut q: EventQueue<&str> = EventQueue::with_backend_and_tick_shift(Backend::Wheel, 15);
        let d = SimDuration::from_ns(100);
        q.lanes[0].delay = d.as_ps();
        q.lanes[0]
            .events
            .push_back((SimTime::from_ns(500), 0, "rigged tail"));
        q.lane_mask = 1;
        q.next_seq = 1;
        q.push(SimTime::ZERO + d, "behind it");
        let mut handles = Vec::new();
        q.for_each_live(|id, _, &v| handles.push((v, id.is_some())));
        assert!(handles.contains(&("behind it", true)), "{handles:?}");
        assert_eq!(q.pop(), Some((SimTime::from_ns(100), "behind it")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(500), "rigged tail")));
    }

    /// An entry earlier than the restored `now` is a corrupt snapshot and
    /// must be rejected loudly, not silently reordered.
    #[test]
    #[should_panic(expected = "predates its snapshot time")]
    fn restore_rejects_entries_before_now() {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.restore_state(
            SimTime::from_us(10),
            1,
            vec![(SimTime::from_us(1), 0, 7u64)],
        );
    }
}

//! Hierarchical timing wheel: the default index behind
//! [`EventQueue`](crate::event::EventQueue).
//!
//! Three levels of 256 power-of-two-spaced slots index the near future;
//! each slot is an intrusive doubly-linked list threaded through the
//! queue's generation-stamped slot arena, so schedule and cancel are O(1)
//! and handles are exactly the ones the heap backend hands out. Events
//! beyond the wheel horizon (2^24 ticks — flow stop times, fault
//! timelines, recovery scans) wait in an *overflow tier*, the same 4-ary
//! min-heap the heap backend uses, and migrate down into the wheels as
//! the cursor turns past them.
//!
//! ## Level placement (wrap-free)
//!
//! With tick `T = time_ps >> tick_shift` and cursor `C` (the tick of the
//! most recently popped event), an event lives at
//! `level = highest_differing_bit(T ^ C) / 8`. Because live events always
//! satisfy `T >= C`, and because every value in `[C, T]` shares the bits
//! of `T` above that differing bit, the level of an event can only
//! *decrease* as the cursor advances — events migrate down, never wrap
//! around. The same argument shows the slot index `(T >> 8k) & 0xFF` of a
//! level-k resident is always `>=` the cursor's own slot at that level,
//! so the occupancy bitmaps are scanned upward from the cursor position
//! only, with no wrap ambiguity.
//!
//! ## Exact `(time, seq)` order
//!
//! A level-0 slot holds exactly one tick but possibly many distinct
//! picosecond timestamps (and sequence numbers) within it. Every insert,
//! at every level, is the same O(1) tail append; a level-0 append whose
//! `(time, seq)` is below the tail's marks the slot in a `dirty0`
//! bitmap. When a pop's cursor reaches a dirty level-0 slot it sorts that
//! slot once (through a retained scratch buffer, so nothing allocates in
//! steady state) and clears the bit; from then on the bucket minimum is
//! the list head, O(1). A slot no append disordered — every slot of a
//! sparse run, and everything a checkpoint restore re-inserts in key
//! order — is never sorted. This matters at fabric density: a level-0
//! slot spans one 32.8 ns tick at 40 Gbps, a saturated k=8 fat-tree puts
//! ≈140 events in a dirty one, and they arrive as two in-order runs
//! (propagation-delayed `Arrive`s first, then `TxDone`s one
//! serialization ahead). The sorted insert this replaced walked back
//! over a slot's `Arrive`s on every `TxDone` — 1.6 list hops per level-0
//! insert at k=4, 14.6 at k=8, 90 at k=16 — where the sort merges the
//! two runs in one linear pass, touching 0.7–1.5 entries per insert. The
//! k=16 cross-pod fat-tree went from 860–1 030 to 280–345 ns/event
//! (EXPERIMENTS.md, "Lazy level-0 sort").
//!
//! Higher-level lists are never sorted: they are min-scanned at most once
//! per slot, just before the cursor enters and cascades them
//! (redistributing one level down), where their residents land in
//! level-0 slots like any other append. `find_min` is `&self`, so it
//! min-scans a dirty slot instead of sorting it. The overflow root is
//! compared against the wheel candidate on every peek/pop, so the pop
//! order is bit-identical to the reference heap — a property test in
//! `tests/proptest_core.rs` replays random interleavings against the heap
//! as the executable model, at the default tick and at the fabric's.
//!
//! ## Delay lanes beside the wheel
//!
//! [`EventQueue::push`](crate::event::EventQueue::push) keeps most of a
//! fabric's events out of the wheel altogether, in per-delay FIFOs (see
//! the `event` module doc); what is left here are handle-carrying pause
//! timers, far timers and pushes no lane could take. A lane serves only a
//! delay below one level-0 rotation, `2^(tick_shift + 8)` ps
//! (`within_level0_span`), so the lanes never hold a far timer. Each pop
//! compares the lane heads with `select_min`'s winner, and a lane winner
//! moves the cursor with `advance_cursor` as a wheel winner does: it was
//! the global minimum, so every resident is still at or after the cursor
//! and the placement argument above is untouched. `floor` is a lower
//! bound on every resident's `(time, seq)`: a pop whose lane head is below
//! it skips `select_min`, which is most pops while only far timers sit in
//! the wheel.

use crate::event::{Slot, NO_POS};
use crate::time::{SimDuration, SimTime};

/// Bits per wheel level (2^8 = 256 slots per level).
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Wheel levels; ticks differing from the cursor above
/// `SLOT_BITS * LEVELS` bits go to the overflow tier.
const LEVELS: usize = 3;
/// Horizon in bits: events within `2^HORIZON_BITS` ticks of the cursor
/// live in the wheels.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Intrusive-list terminator.
const NIL: u32 = u32::MAX;
/// High bit of `Slot::pos` marking residence in the overflow heap
/// (the low 31 bits are then the heap position).
pub(crate) const OVF_BIT: u32 = 1 << 31;

/// Default tick granularity: 2^10 ps ≈ 1 ns, about 1/200th of the
/// serialization time of a 1000-byte packet at 40 Gbps.
pub const DEFAULT_TICK_SHIFT: u32 = 10;

/// Pick a tick size (as a power-of-two picosecond shift) from the link
/// serialization quantum: roughly quantum/4 per tick, so a level-0
/// rotation (256 ticks) spans about 64 quanta and back-to-back
/// serializations stay in level 0 with only a few occupied slots between
/// consecutive events, clamped to [2^6 ps, 2^16 ps].
pub fn tick_shift_for_quantum(quantum: SimDuration) -> u32 {
    let ps = quantum.as_ps().max(1);
    let target = (ps / 4).max(1);
    (63 - target.leading_zeros()).clamp(6, 16)
}

/// Overflow-tier heap arity (matches the heap backend).
const ARITY: usize = 4;

/// The wheel index. Owns no events — it threads intrusive lists through
/// the [`EventQueue`](crate::event::EventQueue) slot arena it is given.
pub(crate) struct WheelState {
    tick_shift: u32,
    /// Cursor tick: the tick of the most recently popped event. Every
    /// live event's tick is `>= cur`.
    cur: u64,
    /// `LEVELS * SLOTS` list heads (slot-arena indices, `NIL` if empty).
    /// Fixed-size and stored inline: every push/pop touches these a
    /// handful of times, and a constant-length array costs neither the
    /// pointer chase nor the length load of a `Vec`.
    head: [u32; LEVELS * SLOTS],
    /// Matching list tails.
    tail: [u32; LEVELS * SLOTS],
    /// Per-level occupancy bitmap over the 256 slots.
    occ: [[u64; SLOTS / 64]; LEVELS],
    /// Level-0 slots whose list is not `(time, seq)`-sorted: an append
    /// landed below the tail. Sorted (and cleared) when a pop reaches it.
    dirty0: [u64; SLOTS / 64],
    /// Scratch for sorting a dirty slot; keeps its capacity.
    sort_buf: Vec<(SimTime, u64, u32)>,
    /// Live events resident in the wheels (not counting overflow).
    wheel_len: usize,
    /// Wheel residents at levels >= 1. Simulations whose whole working
    /// set fits one level-0 rotation (every datapath steady state) keep
    /// this at zero, letting `find_min`/`select_min` skip the
    /// cursor-slot scans and cascade checks of the higher levels on
    /// every single pop.
    hi_len: usize,
    /// Far-future events as a 4-ary min-heap of arena indices ordered by
    /// `(time, seq)`.
    overflow: Vec<u32>,
    /// A lower bound on every resident's `(time, seq)`, wheels and
    /// overflow alike: lowered by each insert, raised to the exact
    /// minimum whenever a pop with a delay lane in play searched the
    /// wheel, left alone by removals and by other pops (a stale floor is
    /// only lower). A pop whose delay-lane head is below it needs no
    /// `select_min` at all.
    floor: (SimTime, u64),
}

impl WheelState {
    pub(crate) fn new(tick_shift: u32) -> Self {
        WheelState {
            tick_shift,
            cur: 0,
            head: [NIL; LEVELS * SLOTS],
            tail: [NIL; LEVELS * SLOTS],
            occ: [[0; SLOTS / 64]; LEVELS],
            dirty0: [0; SLOTS / 64],
            sort_buf: Vec::new(),
            wheel_len: 0,
            hi_len: 0,
            overflow: Vec::new(),
            floor: (SimTime::ZERO, 0),
        }
    }

    pub(crate) fn tick_shift(&self) -> u32 {
        self.tick_shift
    }

    pub(crate) fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    #[inline]
    fn tick_of(&self, t: SimTime) -> u64 {
        t.as_ps() >> self.tick_shift
    }

    /// `(level, slot)` for `tick` relative to cursor `cur`, or `None` if
    /// the event belongs in the overflow tier.
    #[inline]
    fn place(tick: u64, cur: u64) -> Option<(usize, usize)> {
        let x = tick ^ cur;
        // Fast path: almost everything a simulation schedules lands
        // within the current level-0 rotation.
        if x < SLOTS as u64 {
            return Some((0, (tick & SLOT_MASK) as usize));
        }
        if x >> HORIZON_BITS != 0 {
            return None;
        }
        let level = (63 - x.leading_zeros()) as usize / SLOT_BITS as usize;
        let slot = ((tick >> (SLOT_BITS as usize * level)) & SLOT_MASK) as usize;
        Some((level, slot))
    }

    /// Insert arena slot `idx` (time/seq already set by the caller).
    #[inline]
    pub(crate) fn insert<E>(&mut self, slots: &mut [Slot<E>], idx: u32) {
        let s = &slots[idx as usize];
        if (s.time, s.seq) < self.floor {
            self.floor = (s.time, s.seq);
        }
        let tick = self.tick_of(s.time);
        debug_assert!(tick >= self.cur, "wheel insert behind cursor");
        match Self::place(tick, self.cur) {
            Some((level, slot)) => self.push_bucket(slots, idx, level, slot),
            None => self.overflow_push(slots, idx),
        }
    }

    /// Append `idx` to bucket `(level, slot)` in O(1). A level-0 append
    /// below the tail's `(time, seq)` marks the slot dirty for the pop
    /// path to sort; higher levels are staging areas whose order never
    /// matters (see the module doc).
    fn push_bucket<E>(&mut self, slots: &mut [Slot<E>], idx: u32, level: usize, slot: usize) {
        let b = level * SLOTS + slot;
        let t = self.tail[b];
        if t == NIL {
            self.head[b] = idx;
            self.occ[level][slot >> 6] |= 1 << (slot & 63);
        } else {
            if level == 0 {
                let (a, s) = (&slots[t as usize], &slots[idx as usize]);
                if (s.time, s.seq) < (a.time, a.seq) {
                    self.dirty0[slot >> 6] |= 1 << (slot & 63);
                }
            }
            slots[t as usize].next = idx;
        }
        let s = &mut slots[idx as usize];
        s.pos = b as u32;
        s.prev = t;
        s.next = NIL;
        self.tail[b] = idx;
        if level > 0 {
            self.hi_len += 1;
        }
        self.wheel_len += 1;
    }

    #[inline]
    fn is_dirty0(&self, slot: usize) -> bool {
        self.dirty0[slot >> 6] & (1 << (slot & 63)) != 0
    }

    /// Sort dirty level-0 slot `slot` by `(time, seq)` and relink it;
    /// clears its dirty bit. Every append below the tail starts a new
    /// sorted run, and the common dirty slot holds exactly two (the
    /// propagation-delayed arrivals, then the serialization completions),
    /// so two runs are merged in one linear pass; anything else is sorted
    /// (keys are unique, so an unstable sort gives the one order). The
    /// scratch is retained, so nothing allocates in steady state.
    #[inline(never)]
    fn sort_slot<E>(&mut self, slots: &mut [Slot<E>], slot: usize) {
        let mut buf = std::mem::take(&mut self.sort_buf);
        buf.clear();
        let mut i = self.head[slot];
        while i != NIL {
            let s = &slots[i as usize];
            buf.push((s.time, s.seq, i));
            i = s.next;
        }
        let cut = buf
            .windows(2)
            .position(|w| w[1] < w[0])
            .map_or(buf.len(), |p| p + 1);
        let mut prev = NIL;
        let mut link = |i: u32| {
            match prev {
                NIL => self.head[slot] = i,
                p => slots[p as usize].next = i,
            }
            slots[i as usize].prev = prev;
            prev = i;
        };
        let (a, b) = buf.split_at(cut);
        if b.windows(2).all(|w| w[0] < w[1]) {
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                if j == b.len() || (i < a.len() && a[i] < b[j]) {
                    link(a[i].2);
                    i += 1;
                } else {
                    link(b[j].2);
                    j += 1;
                }
            }
        } else {
            buf.sort_unstable();
            buf.iter().for_each(|e| link(e.2));
        }
        slots[prev as usize].next = NIL;
        self.tail[slot] = prev;
        self.dirty0[slot >> 6] &= !(1 << (slot & 63));
        self.sort_buf = buf;
    }

    /// Whether level-0 slot `slot`'s first two entries are in
    /// `(time, seq)` order. Checked by `debug_assert!` on every pop from
    /// a clean slot: pops walk the list from the head, so any inversion a
    /// missed dirty mark left behind reaches the front and trips it.
    fn head_in_order<E>(&self, slots: &[Slot<E>], slot: usize) -> bool {
        let h = &slots[self.head[slot] as usize];
        h.next == NIL || {
            let n = &slots[h.next as usize];
            (h.time, h.seq) < (n.time, n.seq)
        }
    }

    fn unlink<E>(&mut self, slots: &mut [Slot<E>], idx: u32) {
        let i = idx as usize;
        let b = slots[i].pos as usize;
        debug_assert!(b < LEVELS * SLOTS, "unlink of non-bucket resident");
        let (prev, next) = (slots[i].prev, slots[i].next);
        if prev == NIL {
            self.head[b] = next;
        } else {
            slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail[b] = prev;
        } else {
            slots[next as usize].prev = prev;
        }
        if self.head[b] == NIL {
            let (level, slot) = (b / SLOTS, b % SLOTS);
            self.occ[level][slot >> 6] &= !(1 << (slot & 63));
            if level == 0 {
                self.dirty0[slot >> 6] &= !(1 << (slot & 63));
            }
        }
        if b >= SLOTS {
            self.hi_len -= 1;
        }
        self.wheel_len -= 1;
    }

    /// Remove `idx` wherever it lives (bucket list or overflow heap).
    /// Used by `cancel`; the caller releases the arena slot.
    pub(crate) fn remove<E>(&mut self, slots: &mut [Slot<E>], idx: u32) {
        let pos = slots[idx as usize].pos;
        if pos & OVF_BIT != 0 {
            self.overflow_remove_at(slots, (pos & !OVF_BIT) as usize);
        } else {
            self.unlink(slots, idx);
        }
    }

    /// First occupied slot index `>= from` at `level`, if any.
    #[inline]
    fn first_occupied_from(&self, level: usize, from: usize) -> Option<usize> {
        let words = &self.occ[level];
        let mut w = from >> 6;
        let mut mask = !0u64 << (from & 63);
        while w < SLOTS / 64 {
            let bits = words[w] & mask;
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
            w += 1;
            mask = !0;
        }
        None
    }

    #[inline]
    fn cursor_slot(&self, level: usize) -> usize {
        ((self.cur >> (SLOT_BITS as usize * level)) & SLOT_MASK) as usize
    }

    /// Fold every event of unsorted bucket `b` (level >= 1, or a dirty
    /// level-0 slot) into the running `(time, seq)` min.
    fn bucket_min<E>(&self, slots: &[Slot<E>], b: usize, best: &mut Option<u32>) {
        let mut i = self.head[b];
        while i != NIL {
            let s = &slots[i as usize];
            let better = match *best {
                None => true,
                Some(bi) => {
                    let bs = &slots[bi as usize];
                    (s.time, s.seq) < (bs.time, bs.seq)
                }
            };
            if better {
                *best = Some(i);
            }
            i = s.next;
        }
    }

    /// Fold clean level-0 bucket `b`'s minimum — its head — into the
    /// running `(time, seq)` min. O(1).
    fn bucket_head_min<E>(&self, slots: &[Slot<E>], b: usize, best: &mut Option<u32>) {
        let h = self.head[b];
        if h == NIL {
            return;
        }
        let better = match *best {
            None => true,
            Some(bi) => {
                let (s, bs) = (&slots[h as usize], &slots[bi as usize]);
                (s.time, s.seq) < (bs.time, bs.seq)
            }
        };
        if better {
            *best = Some(h);
        }
    }

    /// Exact `(time, seq)` minimum across wheels + overflow, without
    /// mutating anything (this is what keeps `peek_time` at `&self`).
    ///
    /// Candidates: the overflow root; the *cursor* slot of every level
    /// `>= 1` (whose range contains the cursor, so its residents — placed
    /// before the cursor advanced into the slot — may now be nearer than
    /// anything at lower levels); the first occupied level-0 slot at or
    /// after the cursor; and, if level 0 is empty, the first occupied
    /// slot of the lowest non-empty level (which dominates every
    /// higher-level non-cursor slot).
    pub(crate) fn find_min<E>(&self, slots: &[Slot<E>]) -> Option<u32> {
        let mut best: Option<u32> = None;
        if let Some(&root) = self.overflow.first() {
            best = Some(root);
        }
        if self.hi_len > 0 {
            for level in 1..LEVELS {
                let slot = self.cursor_slot(level);
                self.bucket_min(slots, level * SLOTS + slot, &mut best);
            }
        }
        if let Some(slot) = self.first_occupied_from(0, self.cursor_slot(0)) {
            if self.is_dirty0(slot) {
                self.bucket_min(slots, slot, &mut best);
            } else {
                self.bucket_head_min(slots, slot, &mut best);
            }
        } else if self.hi_len > 0 {
            for level in 1..LEVELS {
                let from = self.cursor_slot(level) + 1;
                if from < SLOTS {
                    if let Some(slot) = self.first_occupied_from(level, from) {
                        self.bucket_min(slots, level * SLOTS + slot, &mut best);
                        break;
                    }
                }
            }
        }
        best
    }

    /// Detach bucket `b` wholesale and re-place each of its events
    /// relative to the current cursor. Every event strictly descends in
    /// level (its range contains or follows the cursor), so this
    /// terminates and costs each event at most `LEVELS` moves over its
    /// lifetime.
    fn cascade_bucket<E>(&mut self, slots: &mut [Slot<E>], b: usize) {
        let mut i = self.head[b];
        self.head[b] = NIL;
        self.tail[b] = NIL;
        let (level, slot) = (b / SLOTS, b % SLOTS);
        self.occ[level][slot >> 6] &= !(1 << (slot & 63));
        while i != NIL {
            let next = slots[i as usize].next;
            self.wheel_len -= 1;
            self.hi_len -= 1;
            let tick = self.tick_of(slots[i as usize].time);
            let (nl, ns) = Self::place(tick, self.cur).expect("cascaded event within horizon");
            debug_assert!(
                nl < level || (nl == level && ns >= slot),
                "cascade must not ascend"
            );
            self.push_bucket(slots, i, nl, ns);
            i = next;
        }
    }

    /// Steps 1–3 of a pop: cascade stale cursor slots, then pick the
    /// `(time, seq)` winner among wheels and overflow. Returns the winner
    /// and the bucket it was found in (`None` = overflow tier). Mutates
    /// only by cascading and by sorting a dirty level-0 slot, neither of
    /// which changes the pop order — so a pop abandoned after
    /// `select_min` (a winner beyond the limit of a bounded pop, or a
    /// delay-lane head that beats it) is harmless.
    pub(crate) fn select_min<E>(&mut self, slots: &mut [Slot<E>]) -> Option<(u32, Option<usize>)> {
        // 1. Cursor slots at levels >= 1 hold events whose true level has
        //    decayed; flush them down (high to low, so a level-2 flush
        //    can land in the level-1 cursor slot and still be flushed).
        //    With nothing resident above level 0 (`hi_len == 0`, the
        //    datapath steady state) both the cascade checks and the
        //    higher-level fallback scans are dead weight — skip them.
        if self.hi_len > 0 {
            for level in (1..LEVELS).rev() {
                let b = level * SLOTS + self.cursor_slot(level);
                if self.head[b] != NIL {
                    self.cascade_bucket(slots, b);
                }
            }
        }
        // 2. Wheel candidate: first occupied level-0 slot, else the first
        //    occupied slot of the lowest non-empty level.
        let mut best: Option<u32> = None;
        let mut from_bucket: Option<usize> = None;
        if let Some(slot) = self.first_occupied_from(0, self.cursor_slot(0)) {
            if self.is_dirty0(slot) {
                self.sort_slot(slots, slot);
            }
            debug_assert!(
                self.head_in_order(slots, slot),
                "clean level-0 slot out of order"
            );
            self.bucket_head_min(slots, slot, &mut best);
            from_bucket = Some(slot);
        } else if self.hi_len > 0 {
            for level in 1..LEVELS {
                if let Some(slot) = self.first_occupied_from(level, self.cursor_slot(level)) {
                    let b = level * SLOTS + slot;
                    self.bucket_min(slots, b, &mut best);
                    from_bucket = Some(b);
                    break;
                }
            }
        }
        // 3. Overflow candidate.
        if let Some(&root) = self.overflow.first() {
            let replace = match best {
                None => true,
                Some(bi) => {
                    let (bs, os) = (&slots[bi as usize], &slots[root as usize]);
                    (os.time, os.seq) < (bs.time, bs.seq)
                }
            };
            if replace {
                best = Some(root);
                from_bucket = None;
            }
        }
        best.map(|idx| (idx, from_bucket))
    }

    /// A lower bound on the `(time, seq)` of every resident.
    #[inline]
    pub(crate) fn floor(&self) -> (SimTime, u64) {
        self.floor
    }

    /// Raise `floor` to `key`, the key of the winner `select_min` just
    /// returned: the exact minimum, so still a lower bound.
    #[inline]
    pub(crate) fn raise_floor(&mut self, key: (SimTime, u64)) {
        self.floor = key;
    }

    /// Pop `select_min`'s winner `idx` (found in `from_bucket`): advance
    /// the cursor to its tick, detach it, and migrate newly-in-horizon
    /// overflow events down.
    pub(crate) fn pop_selected<E>(
        &mut self,
        slots: &mut [Slot<E>],
        idx: u32,
        from_bucket: Option<usize>,
    ) {
        self.detach(slots, idx, from_bucket);
        match from_bucket {
            // Migrate the newly-reachable prefix of the overflow tier
            // into the wheels ("events migrate down as wheels turn").
            None => {
                while let Some(&root) = self.overflow.first() {
                    let rt = self.tick_of(slots[root as usize].time);
                    if Self::place(rt, self.cur).is_none() {
                        break;
                    }
                    self.overflow_remove_at(slots, 0);
                    self.insert(slots, root);
                }
            }
            // If the winner came from a level >= 1 slot, the cursor
            // just entered that slot's range: flush the survivors
            // down so the next pop scans short level-0 lists.
            Some(b) => {
                if b >= SLOTS && self.head[b] != NIL {
                    self.cascade_bucket(slots, b);
                }
            }
        }
    }

    /// Step 4 of a pop: advance the cursor to winner `idx`'s tick —
    /// everything live is at or after it — and detach it from
    /// `from_bucket` (`None` = overflow tier). A bounded pop (the
    /// simulator's per-event path) stops here and skips `pop_selected`'s
    /// cleanup (overflow migration, survivor cascade): both are pure
    /// placement maintenance that never affects pop order — the overflow
    /// root is compared on every pop, and survivors now sit in a cursor
    /// slot, which the next `select_min` cascades.
    #[inline]
    pub(crate) fn detach<E>(
        &mut self,
        slots: &mut [Slot<E>],
        idx: u32,
        from_bucket: Option<usize>,
    ) {
        self.advance_cursor(slots[idx as usize].time);
        match from_bucket {
            None => {
                let pos = slots[idx as usize].pos;
                debug_assert!(pos & OVF_BIT != 0);
                self.overflow_remove_at(slots, (pos & !OVF_BIT) as usize);
            }
            Some(_) => self.unlink(slots, idx),
        }
    }

    /// Move the cursor to the tick of `t`, the time of an event that just
    /// popped as the global `(time, seq)` minimum — from the wheel, or
    /// from a delay lane beside it. Every resident is at or after it.
    #[inline]
    pub(crate) fn advance_cursor(&mut self, t: SimTime) {
        let tick = self.tick_of(t);
        debug_assert!(tick >= self.cur, "pop moved the cursor backwards");
        self.cur = tick;
    }

    /// Whether a delay `at − now` of `delay_ps` falls within one level-0
    /// rotation (`2^(tick_shift + 8)` ps): the delays a lane may serve.
    #[inline]
    pub(crate) fn within_level0_span(&self, delay_ps: u64) -> bool {
        delay_ps >> (self.tick_shift + SLOT_BITS) == 0
    }

    /// Forget every resident without touching the arena (the queue
    /// releases the slots); capacity is retained.
    pub(crate) fn clear_index(&mut self) {
        self.head.fill(NIL);
        self.tail.fill(NIL);
        self.occ = [[0; SLOTS / 64]; LEVELS];
        self.dirty0 = [0; SLOTS / 64];
        self.wheel_len = 0;
        self.hi_len = 0;
        self.overflow.clear();
        self.floor = (SimTime::ZERO, 0);
    }

    /// Rewind the cursor to t = 0 (after `clear_index`, for arena reuse).
    pub(crate) fn reset_cursor(&mut self) {
        debug_assert_eq!(self.wheel_len + self.overflow.len(), 0);
        self.cur = 0;
    }

    /// Park the cursor at an arbitrary tick on an *empty* index — the
    /// checkpoint-restore path, which re-inserts a snapshot's events after
    /// placing the cursor at the snapshot's current time. Every restored
    /// event's tick is `>=` the restored cursor, so the level-placement
    /// invariant holds exactly as in a live run.
    pub(crate) fn set_cursor(&mut self, tick: u64) {
        debug_assert_eq!(self.wheel_len + self.overflow.len(), 0);
        self.cur = tick;
    }

    // ---- overflow tier: 4-ary min-heap by (time, seq) ----------------

    #[inline]
    fn ovf_before<E>(slots: &[Slot<E>], a: u32, b: u32) -> bool {
        let (sa, sb) = (&slots[a as usize], &slots[b as usize]);
        (sa.time, sa.seq) < (sb.time, sb.seq)
    }

    fn overflow_push<E>(&mut self, slots: &mut [Slot<E>], idx: u32) {
        let pos = self.overflow.len();
        slots[idx as usize].pos = OVF_BIT | pos as u32;
        self.overflow.push(idx);
        self.ovf_sift_up(slots, pos);
    }

    fn overflow_remove_at<E>(&mut self, slots: &mut [Slot<E>], pos: usize) {
        let last = self.overflow.len() - 1;
        self.overflow.swap(pos, last);
        let removed = self.overflow.pop().expect("overflow remove on empty heap");
        slots[removed as usize].pos = NO_POS;
        if pos < self.overflow.len() {
            slots[self.overflow[pos] as usize].pos = OVF_BIT | pos as u32;
            self.ovf_sift_down(slots, pos);
            self.ovf_sift_up(slots, pos);
        }
    }

    fn ovf_sift_up<E>(&mut self, slots: &mut [Slot<E>], mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if Self::ovf_before(slots, self.overflow[pos], self.overflow[parent]) {
                self.ovf_swap(slots, pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn ovf_sift_down<E>(&mut self, slots: &mut [Slot<E>], mut pos: usize) {
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= self.overflow.len() {
                break;
            }
            let mut bestc = first_child;
            let end = (first_child + ARITY).min(self.overflow.len());
            for c in first_child + 1..end {
                if Self::ovf_before(slots, self.overflow[c], self.overflow[bestc]) {
                    bestc = c;
                }
            }
            if Self::ovf_before(slots, self.overflow[bestc], self.overflow[pos]) {
                self.ovf_swap(slots, pos, bestc);
                pos = bestc;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn ovf_swap<E>(&mut self, slots: &mut [Slot<E>], a: usize, b: usize) {
        self.overflow.swap(a, b);
        slots[self.overflow[a] as usize].pos = OVF_BIT | a as u32;
        slots[self.overflow[b] as usize].pos = OVF_BIT | b as u32;
    }

    /// Events currently parked in the overflow tier (introspection for
    /// tests and stats).
    pub(crate) fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

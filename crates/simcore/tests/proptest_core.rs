//! Property tests for the simulation core: the event queue against a
//! reference model, unit arithmetic, and recorder invariants.

use proptest::prelude::*;

use std::collections::BTreeSet;

use pfcsim_simcore::event::{Backend, EventId, EventQueue, LANES};
use pfcsim_simcore::series::{IntervalLog, TimeSeries};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_simcore::wheel::DEFAULT_TICK_SHIFT;

proptest! {
    /// The queue pops every scheduled event exactly once, in (time,
    /// schedule-order) order — checked against a stable sort.
    #[test]
    fn event_queue_matches_stable_sort(times in prop::collection::vec(0u64..1000, 0..200)) {
        for backend in [Backend::Wheel, Backend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ns(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort_by_key(|&(t, _)| t); // stable: preserves schedule order
            let mut got = Vec::new();
            while let Some((t, i)) = q.pop() {
                got.push((t.as_ns(), i));
            }
            prop_assert_eq!(got, expected);
        }
    }

    /// Cancellation removes exactly the cancelled subset.
    #[test]
    fn event_queue_cancellation(
        times in prop::collection::vec(0u64..1000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        for backend in [Backend::Wheel, Backend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| q.schedule(SimTime::from_ns(t), i))
                .collect();
            let mut kept: Vec<usize> = Vec::new();
            for (i, id) in ids.iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    prop_assert!(q.cancel(*id));
                    prop_assert!(!q.cancel(*id), "double cancel is false");
                } else {
                    kept.push(i);
                }
            }
            prop_assert_eq!(q.len(), kept.len());
            let mut got: Vec<usize> = Vec::new();
            while let Some((_, i)) = q.pop() {
                got.push(i);
            }
            got.sort_unstable();
            prop_assert_eq!(got, kept);
        }
    }

    /// serialization_time is exact-or-rounded-up and bytes_in inverts it.
    #[test]
    fn rate_arithmetic_roundtrip(bps in 1_000_000u64..400_000_000_000, bytes in 1u64..100_000) {
        let rate = BitRate::from_bps(bps);
        let size = Bytes::new(bytes);
        let t = rate.serialization_time(size);
        // Exact-or-up: transmitting for t at `rate` moves at least `size`.
        let moved = rate.bytes_in(t);
        prop_assert!(moved >= size.saturating_sub(Bytes::new(1)));
        // Never over by more than one byte's time.
        let t_minus = SimDuration::from_ps(t.as_ps().saturating_sub(1));
        prop_assert!(rate.bytes_in(t_minus) <= size);
    }

    /// Time arithmetic is associative with durations and ordered.
    #[test]
    fn time_arithmetic(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64, c in 0u64..u32::MAX as u64) {
        let t = SimTime::from_ps(a);
        let d1 = SimDuration::from_ps(b);
        let d2 = SimDuration::from_ps(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert!((t + d1) >= t);
        prop_assert_eq!((t + d1) - t, d1);
    }

    /// TimeSeries stats are consistent with the raw samples.
    #[test]
    fn time_series_stats_consistent(vals in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let mut s = TimeSeries::new();
        for (i, &v) in vals.iter().enumerate() {
            s.push(SimTime::from_ns(i as u64), v);
        }
        prop_assert_eq!(s.max(), *vals.iter().max().unwrap());
        prop_assert_eq!(s.min(), *vals.iter().min().unwrap());
        let mean = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
    }

    /// Interval logs measure what they cover.
    #[test]
    fn interval_log_duration(spans in prop::collection::vec((0u64..1000, 1u64..1000), 0..20)) {
        let mut log = IntervalLog::new();
        let mut cursor = 0u64;
        let mut expected = 0u64;
        for &(gap, len) in &spans {
            let start = cursor + gap;
            let end = start + len;
            log.open(SimTime::from_ns(start));
            log.close(SimTime::from_ns(end));
            expected += len;
            cursor = end;
        }
        let total = log.total_duration(SimTime::from_ns(cursor));
        prop_assert_eq!(total.as_ns(), expected);
        prop_assert_eq!(log.count(), spans.len());
    }

    /// The queue, on either backend, is observationally equivalent to the
    /// previous implementation — a `BinaryHeap` with lazy (tombstone)
    /// cancellation, reproduced below as `model` — under random
    /// schedule/cancel/pop interleavings: same pop sequence, same
    /// cancel return values, same len.
    #[test]
    fn event_queue_matches_binary_heap_model(
        ops in prop::collection::vec((0u64..10, 0u64..50), 0..400),
    ) {
        use std::cmp::Reverse;
        use std::collections::{BinaryHeap, HashSet};

        struct Model {
            heap: BinaryHeap<Reverse<(u64, u64, u64)>>, // (time, seq, tag)
            pending: HashSet<u64>,
            next_seq: u64,
            now: u64,
        }
        impl Model {
            fn schedule(&mut self, at: u64, tag: u64) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(Reverse((at, seq, tag)));
                self.pending.insert(seq);
                seq
            }
            fn cancel(&mut self, seq: u64) -> bool {
                self.pending.remove(&seq)
            }
            fn pop(&mut self) -> Option<(u64, u64)> {
                while let Some(Reverse((t, seq, tag))) = self.heap.pop() {
                    if self.pending.remove(&seq) {
                        self.now = t;
                        return Some((t, tag));
                    }
                }
                None
            }
        }

        for backend in [Backend::Wheel, Backend::Heap] {
            let mut q = EventQueue::with_backend(backend);
            let mut model = Model {
                heap: BinaryHeap::new(),
                pending: HashSet::new(),
                next_seq: 0,
                now: 0,
            };
            // Parallel vectors: handle in the real queue, seq in the model.
            let mut live: Vec<(pfcsim_simcore::event::EventId, u64)> = Vec::new();
            let mut tag = 0u64;
            for &(op, arg) in &ops {
                match op {
                    0..=4 => {
                        let at = model.now + arg;
                        let id = q.schedule(SimTime::from_ns(at), tag);
                        let seq = model.schedule(at, tag);
                        live.push((id, seq));
                        tag += 1;
                    }
                    5..=6 => {
                        if !live.is_empty() {
                            let victim = (arg as usize) % live.len();
                            let (id, seq) = live.swap_remove(victim);
                            prop_assert_eq!(q.cancel(id), model.cancel(seq));
                            // A handle is single-use in both implementations.
                            prop_assert!(!q.cancel(id));
                        }
                    }
                    _ => {
                        // `live` may still reference the entry that fires here;
                        // a later cancel on it must return false in both
                        // implementations, which the cancel arm asserts.
                        let got = q.pop().map(|(t, v)| (t.as_ns(), v));
                        prop_assert_eq!(got, model.pop());
                    }
                }
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.is_empty(), model.pending.is_empty());
                prop_assert_eq!(q.peek_time().map(|t| t.as_ns()),
                                model.heap.iter().map(|&Reverse((t, s, _))| (t, s))
                                     .filter(|&(_, s)| model.pending.contains(&s))
                                     .min().map(|(t, _)| t));
            }
            // Drain both to the end: identical tails.
            loop {
                let got = q.pop().map(|(t, v)| (t.as_ns(), v));
                let want = model.pop();
                prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
        }
    }

    /// The timing wheel against the 4-ary heap as the executable model:
    /// identical random schedule/cancel/pop interleavings must produce
    /// exactly the same `(time, seq)` pop order (FIFO within a tick),
    /// the same cancel return values, the same peeked times and the same
    /// live counts. Time deltas span sub-tick spacing, every wheel level
    /// and the overflow horizon (2^34 ps at the default tick), so slot
    /// collisions, cascades and overflow migration are all exercised.
    /// One op in eighteen is the simulator's step: a limit-bounded pop
    /// (which skips the plain pop's placement maintenance) followed by a
    /// schedule at the just-popped timestamp — an insert exactly at the
    /// cursor; the final drain is bounded too, so every run that parked
    /// events beyond the horizon pops a winner out of the overflow tier
    /// through the bounded path. Two in eighteen reschedule a live handle
    /// (the pause-timer move). Each case runs twice: at the default tick
    /// and at the fabric's (`tick_shift_for_quantum` of a 1 000 B frame
    /// at 40 Gbps = 15), where dozens of events share a level-0 slot out
    /// of order — dirty marking, the lazy sort, cancel and reschedule out
    /// of a dirty slot, and `peek_time`'s scan of one.
    ///
    /// Five ops in eighteen `push` a handle-free event, which on the wheel
    /// rides a delay lane when it can (on the heap it is `schedule` with
    /// the handle dropped). Their deltas hit every lane rule: 0, sub-tick,
    /// six distinct delays below one level-0 rotation (more than `LANES`,
    /// so pushes fall back to the slot path while every lane is busy, and
    /// a drained lane is re-keyed), 1 ps inside the rotation, exactly
    /// its boundary, and beyond it; the bounded-pop step pushes at the
    /// cursor half the time. One op in eighteen snapshots both queues
    /// mid-sequence, checks the snapshots agree, and restores each from
    /// its own (lane residents come back in arena slots).
    #[test]
    fn wheel_matches_heap_model(
        ops in prop::collection::vec((0u64..18, 0u64..64, 0u32..37), 0..400),
    ) {
        for tick_shift in [DEFAULT_TICK_SHIFT, 15] {
            let mut wheel = EventQueue::with_backend_and_tick_shift(Backend::Wheel, tick_shift);
            let mut heap = EventQueue::with_backend(Backend::Heap);
            // One level-0 rotation: the longest delay a lane serves is one
            // picosecond short of it.
            let span = 1u64 << (tick_shift + 8);
            // Parallel handle vectors; indices stay aligned because both
            // queues see the identical operation sequence.
            let mut live: Vec<(EventId, EventId)> = Vec::new();
            let mut lanes = LaneModel::new(span);
            let mut tag = 0u64;
            for &(op, mantissa, shift) in &ops {
                // Delta = mantissa << shift: dense at small scales, sparse
                // out past the overflow horizon.
                let at = wheel.now() + SimDuration::from_ps(mantissa << (shift % 37));
                match op {
                    0..=4 => {
                        let wid = wheel.schedule(at, tag);
                        let hid = heap.schedule(at, tag);
                        live.push((wid, hid));
                        tag += 1;
                    }
                    5..=6 => {
                        if !live.is_empty() {
                            let victim = (mantissa as usize) % live.len();
                            let (wid, hid) = live.swap_remove(victim);
                            prop_assert_eq!(wheel.cancel(wid), heap.cancel(hid));
                        }
                    }
                    7..=8 => {
                        prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                        let got = wheel.pop();
                        let want = heap.pop();
                        prop_assert_eq!(got, want);
                        if let Some((_, popped)) = got {
                            lanes.popped(popped);
                        }
                    }
                    9 => {
                        let got = wheel.pop_before(at);
                        let want = heap.pop_before(at);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(wheel.now(), heap.now());
                        if let Some(((at, _), popped)) = got {
                            lanes.popped(popped);
                            if mantissa % 2 == 0 {
                                live.push((wheel.schedule(at, tag), heap.schedule(at, tag)));
                            } else {
                                wheel.push(at, tag);
                                heap.push(at, tag);
                                lanes.push(0, tag);
                            }
                            tag += 1;
                        }
                    }
                    10..=11 => {
                        if !live.is_empty() {
                            // The handle stays valid either way: a fired or
                            // cancelled one answers `false` on both sides.
                            let (wid, hid) = live[(shift as usize) % live.len()];
                            prop_assert_eq!(wheel.reschedule(wid, at), heap.reschedule(hid, at));
                        }
                    }
                    12..=16 => {
                        let delta = match mantissa % 8 {
                            0 => 0,
                            1 => u64::from(shift) % (1 << tick_shift),
                            2 => span - 1,
                            3 => span,
                            4 => span + u64::from(shift),
                            // Six distinct short delays.
                            _ => span * (1 + u64::from(shift) % 6) / 7,
                        };
                        let at = wheel.now() + SimDuration::from_ps(delta);
                        wheel.push(at, tag);
                        heap.push(at, tag);
                        lanes.push(delta, tag);
                        tag += 1;
                    }
                    _ => {
                        let (now, next_seq) = (wheel.now(), wheel.next_seq());
                        prop_assert_eq!((now, next_seq), (heap.now(), heap.next_seq()));
                        let snapshot = wheel.live_entries();
                        prop_assert_eq!(&snapshot, &heap.live_entries());
                        wheel.restore_state(now, next_seq, snapshot.clone());
                        heap.restore_state(now, next_seq, snapshot);
                        lanes = LaneModel::new(span);
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                // Every push went where the lane rules send it.
                prop_assert_eq!(lane_residents(&wheel), lanes.len());
            }
            prop_assert_eq!(lane_residents(&heap), 0, "the heap has no lanes");
            // Drain both to the end: identical tails.
            loop {
                let got = wheel.pop_before(SimTime::MAX);
                let want = heap.pop_before(SimTime::MAX);
                let done = want.is_none();
                prop_assert_eq!(got, want);
                if done {
                    break;
                }
            }
        }
    }

}

/// Events a queue holds in its delay lanes: the live entries
/// `for_each_live` reports without a handle.
fn lane_residents<E>(q: &EventQueue<E>) -> usize {
    let mut n = 0;
    q.for_each_live(|id, _, _| n += usize::from(id.is_none()));
    n
}

/// The wheel's lane rules, mirrored: which pushes ride a lane. A delay of
/// at least one level-0 rotation (`span` ps) never does; a shorter one
/// rides the lane keyed to it, else the first empty lane, re-keyed to it;
/// with neither, it falls back to an arena slot.
struct LaneModel {
    span: u64,
    /// Per lane: the delay it serves and the tags riding it.
    lanes: Vec<(Option<u64>, BTreeSet<u64>)>,
}

impl LaneModel {
    fn new(span: u64) -> Self {
        LaneModel {
            span,
            lanes: vec![(None, BTreeSet::new()); LANES],
        }
    }

    fn push(&mut self, delay: u64, tag: u64) {
        if delay >= self.span {
            return;
        }
        let lane = match self.lanes.iter().position(|l| l.0 == Some(delay)) {
            Some(i) => i,
            None => match self.lanes.iter().position(|l| l.1.is_empty()) {
                Some(i) => {
                    self.lanes[i].0 = Some(delay);
                    i
                }
                None => return,
            },
        };
        self.lanes[lane].1.insert(tag);
    }

    fn popped(&mut self, tag: u64) {
        for l in &mut self.lanes {
            l.1.remove(&tag);
        }
    }

    fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.1.len()).sum()
    }
}

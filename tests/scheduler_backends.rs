//! Both scheduler backends at tier 1: the heap backend and the wheel's
//! overflow tier are one indexed 4-ary heap, and this is the root suite's
//! only path through either.
//!
//! Seeded schedules push events past the wheel's 2^24-tick horizon (so
//! the wheel parks them in its overflow tier and migrates them down as
//! the cursor turns), cancel and reschedule live handles, and pop through
//! both `pop` and a bounded `pop_before`. Each backend must pop exactly
//! the `(time, seq)` order of a sorted-`Vec` model. The golden run under
//! the heap backend must land on `GOLDEN_DIGEST`, plain and across a
//! checkpoint. This is a debug build, so the wheel's `debug_assert!`s are
//! armed.

use pfcsim::net::checkpoint::Checkpoint;
use pfcsim::net::config::SchedulerBackend;
use pfcsim::net::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
use pfcsim::net::sim::NetSim;
use pfcsim::simcore::event::{Backend, EventId, EventQueue};
use pfcsim::simcore::rng::SimRng;
use pfcsim::simcore::time::{SimDuration, SimTime};

/// The wheel's horizon at the default tick (2^24 ticks of 2^10 ps).
const HORIZON_PS: u64 = 1 << 34;

/// A pending event of the model: its key, its payload, and the handle
/// the queue gave it (`None` for a handle-free `push`).
struct Pending {
    key: (SimTime, u64),
    payload: u64,
    id: Option<EventId>,
}

/// One seeded schedule driven through `q` and the model side by side.
/// Returns the most events the wheel's overflow tier ever held.
fn drive(q: &mut EventQueue<u64>, seed: u64) -> usize {
    let mut rng = SimRng::new(seed);
    let mut model: Vec<Pending> = Vec::new();
    let mut next_payload = 0u64;
    let mut peak_overflow = 0;
    // A delay that is near, beyond one horizon, or beyond several.
    let delay = |rng: &mut SimRng| match rng.gen_range(4) {
        0 => rng.gen_range(2_000),
        1 => rng.gen_range(1 << 20),
        2 => HORIZON_PS + rng.gen_range(HORIZON_PS),
        _ => rng.gen_range(8 * HORIZON_PS),
    };
    for _ in 0..3_000 {
        let now = q.now();
        match rng.gen_range(10) {
            0..=3 => {
                let at = now + SimDuration::from_ps(delay(&mut rng));
                let key = (at, q.next_seq());
                let id = q.schedule(at, next_payload);
                model.push(Pending {
                    key,
                    payload: next_payload,
                    id: Some(id),
                });
                next_payload += 1;
            }
            4 => {
                // A short handle-free push, the datapath's delay lanes.
                let at = now + SimDuration::from_ps(rng.gen_range(2_000));
                let key = (at, q.next_seq());
                q.push(at, next_payload);
                model.push(Pending {
                    key,
                    payload: next_payload,
                    id: None,
                });
                next_payload += 1;
            }
            5 => {
                let live: Vec<usize> = (0..model.len())
                    .filter(|&i| model[i].id.is_some())
                    .collect();
                if let Some(&i) = live.get(rng.gen_range(live.len().max(1) as u64) as usize) {
                    let p = model.swap_remove(i);
                    assert!(q.cancel(p.id.unwrap()), "cancel of a live handle");
                    assert!(!q.cancel(p.id.unwrap()), "second cancel is a no-op");
                }
            }
            6 => {
                let live: Vec<usize> = (0..model.len())
                    .filter(|&i| model[i].id.is_some())
                    .collect();
                if let Some(&i) = live.get(rng.gen_range(live.len().max(1) as u64) as usize) {
                    let at = now + SimDuration::from_ps(delay(&mut rng));
                    model[i].key = (at, q.next_seq());
                    assert!(q.reschedule(model[i].id.unwrap(), at), "reschedule");
                }
            }
            7 => {
                // A bounded pop: nothing beyond `limit` may come out.
                let limit = now + SimDuration::from_ps(delay(&mut rng));
                let want = min_index(&model).filter(|&i| model[i].key.0 <= limit);
                let got = q.pop_before(limit);
                match want {
                    Some(i) => {
                        let p = model.swap_remove(i);
                        assert_eq!(got, Some((p.key, p.payload)), "pop_before({limit})");
                    }
                    None => assert_eq!(got, None, "pop_before({limit})"),
                }
            }
            _ => {
                let want = min_index(&model).map(|i| model.swap_remove(i));
                let got = q.pop();
                assert_eq!(got, want.map(|p| (p.key.0, p.payload)), "pop");
            }
        }
        assert_eq!(q.len(), model.len(), "len");
        assert_eq!(
            q.peek_time(),
            min_index(&model).map(|i| model[i].key.0),
            "peek"
        );
        peak_overflow = peak_overflow.max(q.overflow_len());
    }
    // Drain: the tail comes out in model order too.
    model.sort_by_key(|p| p.key);
    for p in model {
        assert_eq!(q.pop(), Some((p.key.0, p.payload)), "drain");
    }
    assert!(q.is_empty() && q.pop().is_none());
    peak_overflow
}

/// The model's next event: the least `(time, seq)`.
fn min_index(model: &[Pending]) -> Option<usize> {
    (0..model.len()).min_by_key(|&i| model[i].key)
}

#[test]
fn both_backends_pop_the_models_order_through_far_future_schedules() {
    for seed in 1..=4 {
        let mut heap = EventQueue::with_backend(Backend::Heap);
        assert_eq!(drive(&mut heap, seed), 0, "the heap has no overflow tier");
        let mut wheel = EventQueue::with_backend(Backend::Wheel);
        let peak = drive(&mut wheel, seed);
        assert!(
            peak > 0,
            "seed {seed}: the wheel's overflow tier stayed empty"
        );
    }
}

#[test]
fn the_golden_run_under_the_heap_backend_holds_its_digest() {
    let plain = golden::run_with(Some(SchedulerBackend::Heap));
    assert_eq!(golden::digest(&plain), GOLDEN_DIGEST, "plain run");

    let mut sim = golden::build_sim(Some(SchedulerBackend::Heap));
    sim.schedule_flow_stops(STOP_AT);
    assert!(sim
        .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
        .is_none());
    let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
    let resumed = NetSim::resume(ckpt).expect("restorable").resume_run();
    assert_eq!(golden::digest(&resumed), GOLDEN_DIGEST, "checkpoint");
}

//! Scheduler cost under a saturated fabric's event pattern, wheel vs heap.
//!
//! `cargo run --release -p pfcsim-simcore --example wheel_timing`
//!
//! Replays what a saturated cross-pod fat-tree does to the queue: the
//! wheel tick is the fabric's (`tick_shift_for_quantum` of a 1 000 B frame
//! at 40 Gbps = 15, 32.8 ns), each live event sits on its own phase of a
//! 200 ns serialization lattice, and every pop schedules one successor,
//! alternating +200 ns (a `TxDone`) and +1 µs (an `Arrive`). The live
//! counts are the mean queue lengths of the k=4, 8 and 16 runs of
//! `prof_datapath fat_tree K US` (≈300, ≈2 200, ≈18 000), which put ≈10,
//! ≈70 and ≈600 events in each level-0 slot, appended as two in-order
//! streams — the regime where a sorted level-0 insert walks back over a
//! slot on every `TxDone`.
//!
//! Each backend is timed twice: scheduling every successor with
//! `schedule` (the handle path, an arena slot each) and with `push` (no
//! handle; on the wheel the two fixed delays ride two delay lanes, on the
//! heap it is `schedule`). The simulator schedules through `push`; only
//! its pause timers, which it reschedules, take the handle path.
use pfcsim_simcore::event::{Backend, EventQueue};
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_simcore::wheel::tick_shift_for_quantum;
use std::time::Instant;

const TX_DONE: SimDuration = SimDuration::from_ns(200);
const ARRIVE: SimDuration = SimDuration::from_us(1);

fn main() {
    let quantum = BitRate::from_gbps(40).serialization_time(Bytes::new(1000));
    let tick_shift = tick_shift_for_quantum(quantum);
    for (fabric, live) in [("k=4", 300u64), ("k=8", 2_200), ("k=16", 18_000)] {
        for (backend, api) in [
            (Backend::Wheel, "schedule"),
            (Backend::Wheel, "push"),
            (Backend::Heap, "schedule"),
            (Backend::Heap, "push"),
        ] {
            let mut q = EventQueue::with_backend_and_tick_shift(backend, tick_shift);
            let mut rng = SimRng::new(3);
            // Payload: event id in the high bits, next-successor parity in
            // bit 0. Start spread over one full successor cycle.
            for i in 0..live {
                let phase = SimDuration::from_ps(rng.gen_range(TX_DONE.as_ps()));
                let lap = TX_DONE.saturating_mul(rng.gen_range(6));
                q.schedule(SimTime::ZERO + phase + lap, (i << 1) | (i & 1));
            }
            let n = 2_000_000u64;
            let t0 = Instant::now();
            let mut sum = 0u64;
            for _ in 0..n {
                let ((at, _), v) = q.pop_before(SimTime::MAX).expect("live");
                sum = sum.wrapping_add(v);
                let delay = if v & 1 == 0 { TX_DONE } else { ARRIVE };
                if api == "push" {
                    q.push(at + delay, v ^ 1);
                } else {
                    q.schedule(at + delay, v ^ 1);
                }
            }
            let el = t0.elapsed().as_secs_f64();
            println!(
                "{fabric:>4} live={live:>6} {:<5} {api:<8} {:.1} ns/event (sum {})",
                format!("{backend:?}"),
                el / n as f64 * 1e9,
                sum % 10
            );
        }
    }
}

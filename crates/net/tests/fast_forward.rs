//! A run that settles into a periodic steady state skips whole periods
//! (`NetSim::run`, `NetSim::run_to_verdict`) and still reports exactly
//! what simulating every event (`advance_until(h, h)`) reports, on both
//! scheduler backends: seeded loops and squares
//! (`support/periodic_cases.rs`) and the hand cases beside them. The
//! root `tests/fast_forward.rs` runs a debug-build slice.

#[path = "support/periodic_cases.rs"]
mod cases;

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;

/// Seeded cases per backend.
const CASES: u64 = 200;

fn sweep(backend: SchedulerBackend) {
    let skipped = (0..CASES)
        .filter(|&seed| cases::check(seed, backend, SimTime::from_ms(4)))
        .count() as u64;
    eprintln!("{backend:?}: {skipped} of {CASES} cases fast-forwarded");
    assert!(skipped * 5 >= CASES, "only {skipped} of {CASES} skipped");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "200 cases per backend: run with --release")]
fn fast_forward_equals_the_full_run_wheel() {
    sweep(SchedulerBackend::Wheel);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "200 cases per backend: run with --release")]
fn fast_forward_equals_the_full_run_heap() {
    sweep(SchedulerBackend::Heap);
}

#[test]
fn hand_cases_equal_the_full_run() {
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        let skipped = cases::hand_cases(backend, SimTime::from_ms(3));
        assert!(
            skipped >= 3,
            "{backend:?}: only {skipped} hand cases skipped"
        );
    }
}

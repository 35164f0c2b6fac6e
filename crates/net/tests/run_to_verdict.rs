//! `NetSim::run_to_verdict` returns exactly `run(h).verdict`, detection
//! instant and witness included, on both scheduler backends, and stops
//! early on a stated share of cases. The cases are seeded scenarios with
//! faults, loops and flow stops (`support/verdict_cases.rs`); the root
//! `tests/run_to_verdict.rs` runs a debug-build slice of the same cases.

#[path = "support/verdict_cases.rs"]
mod cases;

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;

/// Seeded cases per backend.
const CASES: u64 = 300;

fn sweep(backend: SchedulerBackend) {
    let early = (0..CASES)
        .filter(|&seed| cases::check(seed, backend, SimTime::from_ms(3)))
        .count() as u64;
    eprintln!("{backend:?}: {early} of {CASES} cases stopped before the horizon");
    assert!(early * 2 >= CASES, "{early} of {CASES} stopped early");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "300 cases per backend: run with --release")]
fn run_to_verdict_equals_the_full_run_wheel() {
    sweep(SchedulerBackend::Wheel);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "300 cases per backend: run with --release")]
fn run_to_verdict_equals_the_full_run_heap() {
    sweep(SchedulerBackend::Heap);
}

/// Looping packets still queued when the repair lands. After 50 µs (E14
/// Table 1's shortest window) the queue drains. After 125 µs, the
/// shortest window that wedges, it wedges within 5 µs after the repair:
/// a detector scanning every 5 µs puts a step boundary between the two,
/// where only the queued packets' walks still close the cycle. Either way the verdict is the
/// full run's, and the run is not decided before the repair.
#[test]
fn a_repaired_loop_is_not_decided_before_its_repair() {
    let us = SimDuration::from_us;
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        for (window, scan, wedges) in [(us(50), us(50), false), (us(125), us(5), true)] {
            let (mut full, _, horizon) = cases::drain_case(backend, window, scan);
            let want = full.run(horizon).verdict;
            assert_eq!(want.is_deadlock(), wedges, "{backend:?} {window}");
            let (mut sim, repair, horizon) = cases::drain_case(backend, window, scan);
            assert_eq!(sim.run_to_verdict(horizon), want, "{backend:?} {window}");
            assert!(
                sim.now() >= repair,
                "{backend:?} {window}: stopped at {}",
                sim.now()
            );
            assert!(
                sim.now() < horizon,
                "{backend:?} {window}: never stopped early"
            );
        }
    }
}

//! Tier-1 slice of `crates/net/tests/run_to_verdict.rs`: on both
//! scheduler backends, `NetSim::run_to_verdict(h)` equals
//! `run(h).verdict` (detection instant and witness included) on a few
//! seeded fault-laden cases and on E14 Table 1's repaired-loop shape, and
//! is never decided before the repair. The full sweep runs under
//! `cargo test --release --workspace`.

#[path = "../crates/net/tests/support/verdict_cases.rs"]
mod cases;

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;

#[test]
fn run_to_verdict_equals_the_full_run_on_seeded_cases() {
    let mut early = 0;
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        for seed in 0..24 {
            early += usize::from(cases::check(seed, backend, SimTime::from_us(800)));
        }
    }
    assert!(early >= 24, "{early} of 48 cases stopped early");
}

#[test]
fn a_repaired_loop_is_decided_after_its_repair() {
    let us = SimDuration::from_us;
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        for (window, scan) in [(us(50), us(50)), (us(125), us(5))] {
            let (mut full, _, horizon) = cases::drain_case(backend, window, scan);
            let want = full.run(horizon).verdict;
            let (mut sim, repair, horizon) = cases::drain_case(backend, window, scan);
            assert_eq!(sim.run_to_verdict(horizon), want, "{backend:?} {window}");
            assert!(
                repair <= sim.now() && sim.now() < horizon,
                "{backend:?} {window}"
            );
        }
    }
}

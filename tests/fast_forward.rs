//! Tier-1 slice of `crates/net/tests/fast_forward.rs`: on both scheduler
//! backends, a run that fast-forwards a periodic steady state reports
//! exactly what simulating every event reports — seeded loops and
//! squares, and the hand cases (a confirmed deadlock beside a periodic
//! flow, a change pending just before the horizon, an event budget that
//! runs out mid-span, scans off). The full sweep runs under
//! `cargo test --release --workspace`.

#[path = "../crates/net/tests/support/periodic_cases.rs"]
mod cases;

use pfcsim_net::golden;
use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;

#[test]
fn fast_forward_equals_the_full_run_on_seeded_cases() {
    let mut skipped = 0;
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        for seed in 11..21 {
            skipped += usize::from(cases::check(seed, backend, SimTime::from_ms(4)));
        }
    }
    assert!(skipped >= 6, "only {skipped} of 20 cases fast-forwarded");
}

#[test]
fn fast_forward_hand_cases_equal_the_full_run() {
    for backend in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        cases::hand_cases(backend, SimTime::from_ms(1));
    }
}

/// The fast-forward reads the engine that ran: a run whose config turns
/// the hybrid backend on, but which classified no flow fluid, is a
/// packet run and skips its periods like one.
#[test]
fn a_hybrid_config_with_no_fluid_flow_fast_forwards() {
    let horizon = SimTime::from_ms(1);
    let sim = |hybrid: Option<HybridConfig>| {
        let mut cfg = SimConfig::default();
        // Occupancy sampling would gate the backend off before it
        // classifies anything.
        cfg.sample_interval = None;
        cfg.hybrid = hybrid;
        // An unbounded CBR flow: never fluid.
        cases::routing_loop(cfg, 2, 16, BitRate::from_gbps(4))
    };
    let ff = cases::check_with(|| sim(Some(HybridConfig::default())), horizon, "hybrid on");
    assert!(ff.is_some(), "a run with no fluid flow fast-forwards");
    let on = sim(Some(HybridConfig::default())).run(horizon);
    let off = sim(None).run(horizon);
    assert_eq!(on.fluid_flows, 0);
    assert_eq!(golden::digest(&on), golden::digest(&off));
}

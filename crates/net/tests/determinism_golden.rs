//! Golden-digest regression for the engine's core invariant: a fault-laden
//! run must produce a bit-identical `RunReport` across refactors of the
//! event queue and the datapath state layout — and, since the checkpoint
//! subsystem landed, across a mid-run checkpoint/restore round trip.
//!
//! The scenario and digest live in `pfcsim_net::golden` so the `repro`
//! binary drives the same run. If an *intentional* behaviour change moves
//! the digest, re-record it there and say so in the commit message — a
//! silent change here means the refactor altered event ordering or
//! accounting.

use pfcsim_net::checkpoint::{Checkpoint, CheckpointError};
use pfcsim_net::config::{SchedulerBackend, SimConfig};
use pfcsim_net::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
use pfcsim_net::sim::NetSim;
use pfcsim_simcore::time::SimTime;

#[test]
fn fault_laden_run_matches_golden_digest() {
    let d1 = golden::digest(&golden::run_with(None));
    let d2 = golden::digest(&golden::run_with(None));
    assert_eq!(d1, d2, "run is not even self-deterministic");
    assert_eq!(
        d1, GOLDEN_DIGEST,
        "RunReport digest changed: {d1:#018x} (golden {GOLDEN_DIGEST:#018x}) — \
         the engine's observable behaviour moved"
    );
}

/// The wheel and the heap must be observationally interchangeable: both
/// pop in exact `(time, seq)` order, so both must hit the same golden
/// digest on the fault-laden run.
#[test]
fn both_scheduler_backends_match_golden_digest() {
    for sched in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        let d = golden::digest(&golden::run_with(Some(sched)));
        assert_eq!(
            d, GOLDEN_DIGEST,
            "digest diverged under {sched:?} backend: {d:#018x}"
        );
    }
}

/// The tentpole invariant: pausing the golden run mid-flight, serializing
/// a checkpoint through the full binary frame (bytes, not just the
/// in-memory struct), restoring into a *fresh* simulator, and resuming
/// must land on the exact golden digest — under both scheduler backends,
/// and regardless of which backend restores the snapshot.
#[test]
fn checkpoint_restore_round_trip_matches_golden_digest() {
    for sched in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        let mut sim = golden::build_sim(Some(sched));
        sim.schedule_flow_stops(STOP_AT);
        let paused = sim.advance_until(SimTime::from_ms(1), DRAIN_UNTIL);
        assert!(
            paused.is_none(),
            "golden run should still be busy at the 1 ms pause point"
        );
        let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
        drop(sim);
        let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
        assert_eq!(ckpt.sim_time(), SimTime::from_ms(1));
        let mut resumed = NetSim::resume(ckpt).expect("restorable");
        let report = resumed.resume_run();
        let d = golden::digest(&report);
        assert_eq!(
            d, GOLDEN_DIGEST,
            "checkpoint/restore diverged under {sched:?}: {d:#018x}"
        );
        assert_eq!(report.seed, 42);
    }
}

/// A checkpoint written under one configuration must refuse to pair with
/// another, and the error must name both digests.
#[test]
fn resume_refuses_config_digest_mismatch() {
    let mut sim = golden::build_sim(Some(SchedulerBackend::Wheel));
    sim.schedule_flow_stops(STOP_AT);
    assert!(sim
        .advance_until(SimTime::from_ms(1), DRAIN_UNTIL)
        .is_none());
    let ckpt = sim.checkpoint().expect("checkpointable");

    let golden_cfg: SimConfig = sim.config().clone();
    ckpt.verify_config(&golden_cfg).expect("same config passes");

    let mut other = golden_cfg.clone();
    other.seed = 43;
    let err = ckpt.verify_config(&other).expect_err("must refuse");
    match &err {
        CheckpointError::ConfigDigestMismatch { checkpoint, live } => {
            assert_ne!(checkpoint, live);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("{checkpoint:#018x}"))
                    && msg.contains(&format!("{live:#018x}")),
                "error must name both digests: {msg}"
            );
        }
        other => panic!("wrong error: {other:?}"),
    }
}

/// Any single corrupted byte in a checkpoint frame must surface as a
/// typed error — never a panic, never a silently wrong resume.
#[test]
fn corrupted_checkpoint_bytes_are_rejected() {
    let mut sim = golden::build_sim(Some(SchedulerBackend::Wheel));
    sim.schedule_flow_stops(STOP_AT);
    assert!(sim
        .advance_until(SimTime::from_ms(1), DRAIN_UNTIL)
        .is_none());
    let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
    // Flip one bit at a spread of offsets covering magic, header, payload
    // and checksum.
    for at in [0, 7, 20, 27, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        assert!(
            Checkpoint::from_bytes(&bad).is_err(),
            "bit flip at {at} went undetected"
        );
    }
    // Truncation at every prefix of the header and a few payload points.
    for len in (0..32).chain([bytes.len() / 2, bytes.len() - 1]) {
        assert!(
            Checkpoint::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes went undetected"
        );
    }
}

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
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
use pfcsim_net::sim::{NetSim, SimArenas, SimBuilder, Verdict};
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{fat_tree, line, square, LinkSpec};

#[test]
fn fault_laden_run_matches_golden_digest() {
    let d1 = golden::digest(&golden::run_with(None, &mut SimArenas::new()));
    let d2 = golden::digest(&golden::run_with(None, &mut SimArenas::new()));
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
        let d = golden::digest(&golden::run_with(Some(sched), &mut SimArenas::new()));
        assert_eq!(
            d, GOLDEN_DIGEST,
            "digest diverged under {sched:?} backend: {d:#018x}"
        );
    }
}

/// Reusing a `SimArenas` bundle across runs must not perturb results:
/// the second (capacity-reusing) run reproduces the golden digest, and
/// the recycled event queue keeps its slot arena and its delay lanes
/// instead of reallocating. The second run leases both with the first
/// run's capacity (a fresh queue has none) and, being identical, never
/// grows them — it allocates no queue storage at all.
#[test]
fn arena_reuse_is_observationally_invisible() {
    let mut arenas = SimArenas::new();
    let first = golden::digest(&golden::run_with(
        Some(SchedulerBackend::Wheel),
        &mut arenas,
    ));
    assert_eq!(first, GOLDEN_DIGEST);
    let mut sim = golden::build_sim(Some(SchedulerBackend::Wheel), &mut arenas);
    let leased = sim.queue_capacity();
    assert!(
        leased.0 > 0 && leased.1 > 0,
        "the recycled queue came back empty-handed: {leased:?}"
    );
    let second = golden::digest(&sim.run_with_drain(STOP_AT, DRAIN_UNTIL));
    assert_eq!(
        sim.queue_capacity(),
        leased,
        "the leased-arena rerun allocated queue storage"
    );
    sim.recycle(&mut arenas);
    assert_eq!(second, GOLDEN_DIGEST, "leased-arena rerun diverged");
}

/// A k=4 fat-tree shift permutation of 20 Gbps flows for 200 µs.
fn fat_tree_run(arenas: &mut SimArenas) -> u64 {
    let b = fat_tree(4, LinkSpec::default());
    let cfg = SimConfig {
        sample_interval: None,
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build_in(arenas);
    let n = b.hosts.len();
    for i in 0..n {
        let dst = b.hosts[(i + n / 2) % n];
        sim.add_flow(FlowSpec::cbr(
            i as u32,
            b.hosts[i],
            dst,
            BitRate::from_gbps(20),
        ));
    }
    let digest = golden::digest(&sim.run(SimTime::from_us(200)));
    sim.recycle(arenas);
    digest
}

/// The paper's Fig. 4 square at 30 Gbps CBR, which `run_to_verdict`
/// stops at its first confirmed deadlock: the sources keep ticking, so the
/// run is left paused, not finished, and is recycled from there. Returns
/// the verdict and the paused state's digest.
fn square_stopped_early(arenas: &mut SimArenas) -> (Verdict, u64) {
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let cfg = SimConfig {
        stop_on_deadlock: false,
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build_in(arenas);
    let rate = BitRate::from_gbps(30);
    let paths = [
        (h[0], h[3], vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        (h[2], h[1], vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        (h[1], h[2], vec![h[1], s[1], s[2], h[2]]),
    ];
    for (i, (src, dst, path)) in paths.into_iter().enumerate() {
        sim.add_flow(FlowSpec::cbr(i as u32, src, dst, rate).pinned(path));
    }
    let verdict = sim.run_to_verdict(SimTime::from_ms(10));
    assert!(verdict.is_deadlock() && !sim.is_finished(), "{verdict:?}");
    let digest = sim.checkpoint().expect("paused mid-run").digest();
    sim.recycle(arenas);
    (verdict, digest)
}

/// One infinite flow across `line(2)` for 100 µs.
fn line_run(arenas: &mut SimArenas) -> u64 {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo).build_in(arenas);
    sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
    let digest = golden::digest(&sim.run(SimTime::from_us(100)));
    sim.recycle(arenas);
    digest
}

/// One `SimArenas` bundle carried through runs of different shapes — a
/// k=4 fat-tree, a square stopped early and recycled while paused, the
/// golden run, then `line(2)` — hands each the same results as a fresh
/// bundle: leased storage keeps nothing of the run before it.
#[test]
fn arena_reuse_across_shapes_and_early_stops_is_invisible() {
    let fresh = (
        fat_tree_run(&mut SimArenas::new()),
        square_stopped_early(&mut SimArenas::new()),
        golden::digest(&golden::run_with(None, &mut SimArenas::new())),
        line_run(&mut SimArenas::new()),
    );
    assert_eq!(fresh.2, GOLDEN_DIGEST);
    let mut arenas = SimArenas::new();
    let leased = (
        fat_tree_run(&mut arenas),
        square_stopped_early(&mut arenas),
        golden::digest(&golden::run_with(None, &mut arenas)),
        line_run(&mut arenas),
    );
    assert_eq!(leased, fresh);
}

/// The tentpole invariant: pausing the golden run mid-flight, serializing
/// a checkpoint through the full binary frame (bytes, not just the
/// in-memory struct), restoring into a *fresh* simulator, and resuming
/// must land on the exact golden digest — under both scheduler backends,
/// and regardless of which backend restores the snapshot.
#[test]
fn checkpoint_restore_round_trip_matches_golden_digest() {
    for sched in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        let mut arenas = SimArenas::new();
        let mut sim = golden::build_sim(Some(sched), &mut arenas);
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
    let mut arenas = SimArenas::new();
    let mut sim = golden::build_sim(Some(SchedulerBackend::Wheel), &mut arenas);
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
    let mut arenas = SimArenas::new();
    let mut sim = golden::build_sim(Some(SchedulerBackend::Wheel), &mut arenas);
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

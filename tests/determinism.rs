//! Cross-crate determinism: whole experiment scenarios reproduce
//! byte-for-byte, including every recorded statistic.

use pfcsim::prelude::*;

fn fig4_report() -> String {
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let mut cfg = SimConfig::default();
    cfg.stop_on_deadlock = false;
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    sim.add_flow(
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
    );
    sim.add_flow(
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    );
    sim.add_flow(FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]));
    let report = sim.run(SimTime::from_ms(2));
    // Serialize EVERYTHING measured: any nondeterminism anywhere shows up.
    serde_json::to_string(&report.stats).expect("stats serialize")
}

#[test]
fn fig4_statistics_are_byte_identical_across_runs() {
    let a = fig4_report();
    let b = fig4_report();
    assert_eq!(a, b, "simulation must be a pure function of its inputs");
    assert!(
        a.len() > 10_000,
        "the comparison is substantive: {} bytes",
        a.len()
    );
}

#[test]
fn stochastic_scenarios_reproduce_given_seed() {
    let run = |seed: u64| {
        let b = leaf_spine(2, 2, 2, LinkSpec::default());
        let mut cfg = SimConfig::default();
        cfg.seed = seed;
        let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
        // Poisson + on-off + ECN coin flips: every stochastic path at once.
        cfg_ecn(&mut sim);
        sim.add_flow(FlowSpec::poisson(
            0,
            b.hosts[0],
            b.hosts[3],
            BitRate::from_gbps(15),
        ));
        sim.add_flow(FlowSpec::on_off(
            1,
            b.hosts[1],
            b.hosts[2],
            BitRate::from_gbps(40),
            SimDuration::from_us(30),
            SimDuration::from_us(70),
        ));
        let r = sim.run(SimTime::from_ms(1));
        serde_json::to_string(&r.stats).expect("serialize")
    };
    fn cfg_ecn(_sim: &mut NetSim) {}
    assert_eq!(run(11), run(11));
    assert_ne!(run(11), run(12));
}

/// The dense scheduler regime, pinned: a saturated k=8 fat-tree (up/down
/// tables, 128 infinite cross-pod flows `i → i + 64`, occupancy sampling
/// off) puts dozens of events in each level-0 wheel slot, appended out of
/// `(time, seq)` order, so this debug build runs the wheel's lazy slot
/// sort under its `debug_assert!`s. The golden scenario is too sparse to.
#[test]
fn dense_fat_tree8_digest_is_pinned() {
    use pfcsim::net::golden;
    let built = fat_tree(8, LinkSpec::default());
    let cfg = SimConfig {
        sample_interval: None,
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(up_down_tables(&built.topo))
        .build();
    let n = built.hosts.len();
    for i in 0..n {
        sim.add_flow(FlowSpec::infinite(
            i as u32,
            built.hosts[i],
            built.hosts[(i + n / 2) % n],
        ));
    }
    let report = sim.run(SimTime::from_us(100));
    assert_eq!(report.events, 382_469, "event count");
    assert_eq!(
        golden::digest(&report),
        0xe6a2_0b32_2d4a_9437,
        "report digest"
    );
}

/// The engine's golden digest, guarded by tier-1: the fault-laden run of
/// `pfcsim::net::golden` through the plain step loop and a checkpoint
/// frame round trip. This is a debug build, so it also arms the queue's
/// and wheel's `debug_assert!`s (cursor monotonicity) on a scenario with
/// faults, PFC timers and recovery.
#[test]
fn golden_digest_holds_plain_and_across_a_checkpoint() {
    use pfcsim::net::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
    use pfcsim::simcore::snap::fnv1a;
    let build = || golden::build_sim(None, &mut SimArenas::new());

    let plain = build().run_with_drain(STOP_AT, DRAIN_UNTIL);
    assert_eq!(golden::digest(&plain), GOLDEN_DIGEST, "plain run");

    let mut sim = build();
    sim.schedule_flow_stops(STOP_AT);
    assert!(sim
        .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
        .is_none());
    let ckpt = sim.checkpoint().expect("checkpointable");
    let bytes = ckpt.to_bytes();
    // The frame itself is pinned (recorded before the encoder streamed).
    assert_eq!(bytes.len(), 907_470, "frame length");
    assert_eq!(fnv1a(&bytes), 0xd263_ed01_58ce_b65e, "frame bytes");
    assert_eq!(ckpt.digest(), fnv1a(&bytes), "streamed digest");
    let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
    let resumed = NetSim::resume(ckpt).expect("restorable").resume_run();
    assert_eq!(golden::digest(&resumed), GOLDEN_DIGEST, "checkpoint");
}

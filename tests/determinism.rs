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
/// off) keeps the delay lanes and the wheel's pause timers busy at once,
/// under this debug build's `debug_assert!`s. The golden scenario is too
/// sparse to. A short k=12 run of the same shape (612 nodes, 432 flows)
/// rides along: its forwarding tables have 612² entries, more than fit in
/// a core's L2 as `Vec` headers, which is where the tables' layout shows.
#[test]
fn dense_fat_tree8_digest_is_pinned() {
    use pfcsim::net::golden;
    for (k, us, events, digest) in [
        (8, 100, 382_469, 0xe6a2_0b32_2d4a_9437),
        (12, 20, 250_108, 0x6875_842d_b7c6_9cea),
    ] {
        let built = fat_tree(k, LinkSpec::default());
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
        let report = sim.run(SimTime::from_us(us));
        assert_eq!(report.events, events, "k={k}: event count");
        assert_eq!(golden::digest(&report), digest, "k={k}: report digest");
    }
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
    let build = || golden::build_sim(None);

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

/// A run paused, framed, decoded and resumed lands on the uninterrupted
/// run's report under both egress arbitrations. The incast mixes 1 500 B
/// and default-size flows, so DRR's quantum (the largest packet among the
/// flows) is not the default: a resume has to derive it from the restored
/// flows, since no frame carries it.
#[test]
fn resume_matches_the_uninterrupted_run_under_fifo_and_drr() {
    use pfcsim::net::golden;
    let horizon = SimTime::from_us(400);
    for arbitration in [Arbitration::Fifo, Arbitration::Drr] {
        let build = || {
            let b = leaf_spine(2, 1, 3, LinkSpec::default());
            let cfg = SimConfig {
                arbitration,
                ..SimConfig::default()
            };
            let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
            let jumbo = Bytes::new(1500);
            sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[5]).with_packet_size(jumbo));
            sim.add_flow(FlowSpec::infinite(1, b.hosts[1], b.hosts[5]));
            sim.add_flow(FlowSpec::infinite(2, b.hosts[3], b.hosts[5]).with_packet_size(jumbo));
            sim
        };
        let plain = golden::digest(&build().run(horizon));

        let mut sim = build();
        assert!(sim.advance_until(SimTime::from_us(100), horizon).is_none());
        let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
        let resumed = NetSim::resume(ckpt).expect("restorable").resume_run();
        assert_eq!(
            golden::digest(&resumed),
            plain,
            "{arbitration:?}: the resumed run diverged"
        );
    }
}

//! Integration tests reproducing the paper's core scenarios end-to-end.
//!
//! Each test is a miniature of a bench-crate experiment: Case 1 (Fig. 2 /
//! Eq. 3), Case 2 (Figs. 3–4) and Case 3 (Fig. 5), all under the canonical
//! configuration (40 Gbps links, 40 KB XOFF / 20 KB XON, FIFO egress,
//! 1000-byte packets, 12 MB shared buffer).

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

/// Flows 1 and 2 of Fig. 3(a): A=S0, B=S1, C=S2, D=S3.
/// Flow 1: a → A → B → C → D → d.  Flow 2: c → C → D → A → B → b.
fn square_base_flows(b: &Built) -> Vec<FlowSpec> {
    let (s, h) = (&b.switches, &b.hosts);
    vec![
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    ]
}

/// Flow 3 of Fig. 4(a): b → B → C → c.
fn flow3(b: &Built) -> FlowSpec {
    let (s, h) = (&b.switches, &b.hosts);
    FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]])
}

fn loop_sim(rate: BitRate, ttl: u8) -> NetSim {
    let b = two_switch_loop(LinkSpec::default());
    let mut tables = shortest_path_tables(&b.topo);
    install_cycle_route(
        &b.topo,
        &mut tables,
        &[b.switches[0], b.switches[1]],
        b.hosts[1],
    );
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .tables(tables)
        .build();
    sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], rate).with_ttl(ttl));
    sim
}

#[test]
fn case1_no_deadlock_at_or_below_eq3_threshold() {
    // Eq. 3: r_d = n*B/TTL = 2 * 40 Gbps / 16 = 5 Gbps.
    for gbps in [4, 5] {
        let mut sim = loop_sim(BitRate::from_gbps(gbps), 16);
        let report = sim.run(SimTime::from_ms(30));
        assert!(
            !report.verdict.is_deadlock(),
            "{gbps} Gbps <= threshold must not deadlock"
        );
        assert!(report.stats.drops_ttl > 1000, "loop drains by TTL expiry");
    }
}

#[test]
fn case1_deadlock_above_eq3_threshold() {
    let mut sim = loop_sim(BitRate::from_gbps(6), 16);
    let report = sim.run(SimTime::from_ms(30));
    assert!(report.verdict.is_deadlock(), "6 Gbps > 5 Gbps threshold");
}

#[test]
fn case1_threshold_scales_with_ttl() {
    // TTL 8 doubles the threshold to 10 Gbps: 8 Gbps is now safe.
    let mut sim = loop_sim(BitRate::from_gbps(8), 8);
    let report = sim.run(SimTime::from_ms(30));
    assert!(!report.verdict.is_deadlock(), "below the TTL-8 threshold");
    // ... and 12 Gbps is not.
    let mut sim = loop_sim(BitRate::from_gbps(12), 8);
    let report = sim.run(SimTime::from_ms(30));
    assert!(report.verdict.is_deadlock(), "above the TTL-8 threshold");
}

#[test]
fn fig3_cbd_without_deadlock_and_the_paper_pause_pattern() {
    let b = square(LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    for f in square_base_flows(&b) {
        sim.add_flow(f);
    }
    let report = sim.run(SimTime::from_ms(10));
    assert!(
        !report.verdict.is_deadlock(),
        "Fig. 3: CBD alone is not sufficient"
    );
    let p = |i: usize, j: usize| {
        report
            .stats
            .pause_count(b.switches[i], b.switches[j], Priority::DEFAULT)
    };
    // The paper's Fig. 3(c): L2 (B->C) and L4 (D->A) pause repeatedly;
    // L1 (A->B) and L3 (C->D) never do.
    assert_eq!(p(0, 1), 0, "L1 must never pause");
    assert_eq!(p(2, 3), 0, "L3 must never pause");
    assert!(p(1, 2) > 50, "L2 pauses repeatedly, got {}", p(1, 2));
    assert!(p(3, 0) > 50, "L4 pauses repeatedly, got {}", p(3, 0));
    // Stable state: both flows at B/2 = 20 Gbps.
    for f in [FlowId(1), FlowId(2)] {
        let bps = report.stats.flows[&f]
            .meter
            .average_bps(SimTime::ZERO, report.end_time)
            .unwrap();
        assert!((bps - 20e9).abs() / 20e9 < 0.05, "flow {f}: {bps}");
    }
}

#[test]
fn fig4_extra_flow_turns_cbd_into_deadlock() {
    let b = square(LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    for f in square_base_flows(&b) {
        sim.add_flow(f);
    }
    sim.add_flow(flow3(&b));
    let report = sim.run(SimTime::from_ms(10));
    match report.verdict {
        Verdict::Deadlock { ref witness, .. } => {
            // The witness must be the four-switch cycle.
            let pairs: std::collections::BTreeSet<(u32, u32)> =
                witness.iter().map(|k| (k.from.0, k.to.0)).collect();
            for (i, j) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
                assert!(
                    pairs.contains(&(b.switches[i as usize].0, b.switches[j as usize].0)),
                    "cycle edge S{i}->S{j} missing from witness {pairs:?}"
                );
            }
        }
        ref v => panic!("Fig. 4 must deadlock, got {v:?}"),
    }
}

#[test]
fn fig4_deadlock_survives_flow_stop() {
    // The paper's own verification: stop the flows, check pauses persist.
    let b = square(LinkSpec::default());
    let mut cfg = SimConfig::default();
    cfg.stop_on_deadlock = false;
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    for f in square_base_flows(&b) {
        sim.add_flow(f);
    }
    sim.add_flow(flow3(&b));
    let report = sim.run_with_drain(SimTime::from_ms(5), SimTime::from_ms(20));
    assert!(report.verdict.is_deadlock());
    assert!(report.quiesced, "frozen network quiesces");
    assert!(!report.buffered.is_zero(), "bytes remain wedged forever");
    assert!(
        !report.stats.permanently_paused().is_empty(),
        "pause intervals never close"
    );
}

#[test]
fn fig5_rate_limit_crossover() {
    let run = |gbps: u64| {
        let b = square(LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        for f in square_base_flows(&b) {
            sim.add_flow(f);
        }
        sim.add_flow(flow3(&b));
        let rx2 = b.topo.port_towards(b.switches[1], b.hosts[1]).unwrap().port;
        sim.try_set_ingress_shaper(
            b.switches[1],
            rx2,
            BitRate::from_gbps(gbps),
            Bytes::from_kb(2),
        )
        .expect("set_ingress_shaper");
        let report = sim.run(SimTime::from_ms(10));
        (report.verdict.is_deadlock(), report.stats.pause_frames)
    };
    let (dl2, pauses2) = run(2);
    assert!(!dl2, "2 Gbps limiter avoids deadlock");
    assert!(
        pauses2 > 0,
        "\"no deadlock even though all links have frequent PAUSE\""
    );
    let (dl4, _) = run(4);
    assert!(!dl4, "4 Gbps limiter still below this model's crossover");
    let (dl6, _) = run(6);
    assert!(dl6, "6 Gbps limiter is above the crossover");
}

#[test]
fn ttl_classes_cannot_beat_aggregate_loop_oversaturation() {
    // A reproduction *finding* about the §4 TTL-class sketch: at 8 Gbps
    // the loop is oversaturated in aggregate (per-link demand ≈ r·TTL/n =
    // 64 Gbps > B), so whichever TTL band ends up lowest-priority starves,
    // grows without bound, and deadlocks within its own class. Classing
    // raises robustness against *alignment*-driven deadlock (see the Fig. 4
    // test below) but cannot repeal the Eq. 2 capacity constraint.
    let make = |ttl_classes: Option<TtlClassConfig>| {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let mut cfg = SimConfig::default();
        cfg.ttl_class_mode = ttl_classes;
        let mut sim = SimBuilder::new(&b.topo).config(cfg).tables(tables).build();
        sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8)).with_ttl(16));
        sim.run(SimTime::from_ms(30))
    };
    let flat = make(None);
    assert!(
        flat.verdict.is_deadlock(),
        "8 Gbps > 5 Gbps: baseline deadlocks"
    );
    let classed = make(Some(TtlClassConfig {
        width: 4,
        base_class: 0,
        classes: 5,
    }));
    assert!(
        classed.verdict.is_deadlock(),
        "oversaturation deadlocks the starving band despite classing"
    );
}

#[test]
fn ttl_classes_defuse_the_alignment_driven_fig4_deadlock() {
    // Where TTL classes genuinely help: the Fig. 4 deadlock is alignment-
    // driven, not capacity-driven. Width-1 remaining-TTL bands put every
    // hop of every flow in a distinct class, so no dependency cycle exists
    // within any one class and the deadlock disappears.
    let b = square(LinkSpec::default());
    let mut cfg = SimConfig::default();
    cfg.ttl_class_mode = Some(TtlClassConfig {
        width: 1,
        base_class: 0,
        classes: 4,
    });
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    for f in square_base_flows(&b) {
        sim.add_flow(f);
    }
    sim.add_flow(flow3(&b));
    let report = sim.run(SimTime::from_ms(10));
    assert!(
        !report.verdict.is_deadlock(),
        "per-hop TTL bands break the Fig. 4 cycle"
    );
}

#[test]
fn hop_class_ladder_prevents_fig4_deadlock() {
    // The structured-buffer-pool baseline: with classes >= the 4-hop paths
    // the Fig. 4 workload cannot deadlock (at the cost of 4 lossless
    // classes).
    let b = square(LinkSpec::default());
    let mut cfg = SimConfig::default();
    cfg.hop_class_mode = Some(4);
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    for f in square_base_flows(&b) {
        sim.add_flow(f);
    }
    sim.add_flow(flow3(&b));
    let report = sim.run(SimTime::from_ms(10));
    assert!(
        !report.verdict.is_deadlock(),
        "hop-laddered classes break the cycle"
    );
}

#[test]
fn timely_delays_but_does_not_guarantee_deadlock_freedom() {
    // §4's other citation: TIMELY (RTT-gradient control, no switch ECN).
    // Finding: it stretches the deadlock-free window by ~an order of
    // magnitude relative to UDP (~160 us) but, because its oscillation
    // keeps brushing the PFC threshold, the four-way pause alignment can
    // still occur on long runs — "cannot completely prevent PFC" means
    // CC is mitigation, not a guarantee.
    let run_timely = |horizon: SimTime| {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.set_timely(TimelyConfig::for_line_rate(BitRate::from_gbps(40)));
        let paths = [
            vec![h[0], s[0], s[1], s[2], s[3], h[3]],
            vec![h[2], s[2], s[3], s[0], s[1], h[1]],
            vec![h[1], s[1], s[2], h[2]],
        ];
        for (i, p) in paths.iter().enumerate() {
            sim.add_flow(
                FlowSpec::timely(i as u32 + 1, p[0], *p.last().unwrap()).pinned(p.clone()),
            );
        }
        sim.run(horizon)
    };
    // Well past the UDP deadlock time (~160 us), TIMELY is still healthy
    // and every flow has real goodput.
    let short = run_timely(SimTime::from_ms(2));
    assert!(
        !short.verdict.is_deadlock(),
        "TIMELY must outlive the UDP deadlock by an order of magnitude"
    );
    for i in 1..=3u32 {
        let bps = short.stats.flows[&FlowId(i)]
            .meter
            .average_bps(SimTime::ZERO, short.end_time)
            .unwrap_or(0.0);
        assert!(bps > 5e9, "flow {i} got only {bps}");
    }
    assert!(
        short.stats.pause_frames > 0,
        "TIMELY's oscillation keeps generating pauses"
    );
}

/// The Shanibudi reference's twin scenarios (SNIPPETS.md: "cyclic
/// dependency without deadlock", "same dependency with an extra flow
/// causing deadlock") on `leaf_spine(4, 2, 1, ..)`: the square's ring
/// A–B–C–D laid on leaf0–spine0–leaf1–spine1. A spine has no host, so a
/// flow leaving the ring at a spine exits through a spare leaf, and flow 3
/// enters spine0 from one.
fn leaf_spine_twin_flows(b: &Built, with_flow3: bool) -> Vec<FlowSpec> {
    let (s, h) = (&b.switches, &b.hosts);
    let (a, bb, c, d) = (s[0], s[4], s[1], s[5]);
    let mut flows = vec![
        FlowSpec::infinite(1, h[0], h[2]).pinned(vec![h[0], a, bb, c, d, s[2], h[2]]),
        FlowSpec::infinite(2, h[1], h[3]).pinned(vec![h[1], c, d, a, bb, s[3], h[3]]),
    ];
    if with_flow3 {
        flows.push(FlowSpec::infinite(3, h[2], h[1]).pinned(vec![h[2], s[2], bb, c, h[1]]));
    }
    flows
}

#[test]
fn leaf_spine_twins_share_one_cbd_and_only_the_extra_flow_deadlocks() {
    let b = leaf_spine(4, 2, 1, LinkSpec::default());
    let tables = shortest_path_tables(&b.topo);
    let ring: std::collections::BTreeSet<NodeId> =
        [b.switches[0], b.switches[4], b.switches[1], b.switches[5]].into();
    let mut cycles = Vec::new();
    let mut deadlocked = Vec::new();
    for with_flow3 in [false, true] {
        let flows = leaf_spine_twin_flows(&b, with_flow3);
        let cbd = static_cbd(&b.topo, &tables, &flows, SimTime::ZERO);
        assert!(cbd.cbd, "flow3={with_flow3}: the ring is a CBD");
        assert_eq!(cbd.cycle.len(), 4);
        assert_eq!(
            cbd.cycle
                .iter()
                .map(|h| h.node)
                .collect::<std::collections::BTreeSet<_>>(),
            ring
        );
        cycles.push(cbd.cycle);
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .tables(tables.clone())
            .build();
        for f in flows {
            sim.add_flow(f);
        }
        deadlocked.push(sim.run(SimTime::from_ms(10)).verdict.is_deadlock());
    }
    assert_eq!(
        cycles[0], cycles[1],
        "the extra flow leaves the cycle unchanged"
    );
    eprintln!("verdicts: {deadlocked:?}");
    assert_eq!(
        deadlocked,
        [false, true],
        "two flows: no deadlock; three: deadlock"
    );
}

//! Canonical scenario constructors for every experiment.
//!
//! All scenarios use the paper's parameters unless stated: 40 Gbps links,
//! 1 µs propagation, 1000-byte packets, 12 MB shared buffer, 40 KB XOFF /
//! 20 KB XON static thresholds, FIFO egress (the NS-3 model), lossless
//! class 3.

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

/// A constructed scenario: the topology bundle, a ready simulator and the
/// dependency-cycle channels to watch, in paper label order.
pub struct Scenario {
    /// The topology with host/switch handles.
    pub built: Built,
    /// The simulator, flows added, ready to run.
    pub sim: NetSim,
    /// The cycle's directed channels `(from, to)` in label order
    /// (L1, L2, … in the paper's figures).
    pub cycle: Vec<(NodeId, NodeId)>,
}

impl Scenario {
    /// Run to `horizon`, then hand the simulator's reusable storage back
    /// to `arenas` — the sweep-worker idiom paired with the `_in` scenario
    /// constructors.
    pub fn run_in(mut self, horizon: SimTime, arenas: &mut SimArenas) -> RunReport {
        let report = self.sim.run(horizon);
        self.sim.recycle(arenas);
        report
    }

    /// [`Scenario::run_in`] for a caller that reads only the verdict: the
    /// run stops once its verdict is settled (`NetSim::run_to_verdict`).
    pub fn verdict_in(mut self, horizon: SimTime, arenas: &mut SimArenas) -> Verdict {
        let verdict = self.sim.run_to_verdict(horizon);
        self.sim.recycle(arenas);
        verdict
    }
}

/// A scenario's simulator keeps no occupancy series: a report that reads
/// one names its queues with `NetSim::watch_only`. `Ev::Sample` still
/// fires over the empty key set, so the run's events are those of one
/// that records, and telemetry still probes every queue.
fn unwatched(mut sim: NetSim) -> NetSim {
    sim.watch_only([]);
    sim
}

/// The canonical configuration described in the module docs.
pub fn paper_config() -> SimConfig {
    SimConfig::default()
}

/// Fig. 1: a 3-switch cycle A→B→C→A. Three infinite flows, each entering
/// at one switch and leaving two hops later, jointly wrap the ring.
pub fn fig1(cfg: SimConfig) -> Scenario {
    let built = ring(3, LinkSpec::default());
    let (s, h) = (built.switches.clone(), built.hosts.clone());
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build());
    for i in 0..3 {
        let path = vec![h[i], s[i], s[(i + 1) % 3], s[(i + 2) % 3], h[(i + 2) % 3]];
        sim.add_flow(FlowSpec::infinite(i as u32 + 1, h[i], h[(i + 2) % 3]).pinned(path));
    }
    let cycle = (0..3).map(|i| (s[i], s[(i + 1) % 3])).collect();
    Scenario { built, sim, cycle }
}

/// Fig. 2 / Case 1: a 2-switch routing loop; a CBR flow of `rate` with
/// initial `ttl` is injected at switch A toward a destination whose route
/// circulates A→B→A→…
pub fn routing_loop(cfg: SimConfig, rate: BitRate, ttl: u8) -> Scenario {
    routing_loop_n(cfg, rate, ttl, 2)
}

/// Case 1 generalized to an `n`-switch loop (for the Eq. 3 `n` sweep).
pub fn routing_loop_n(cfg: SimConfig, rate: BitRate, ttl: u8, n: usize) -> Scenario {
    routing_loop_n_in(cfg, rate, ttl, n, &mut SimArenas::new())
}

/// [`routing_loop_n`] leasing storage from `arenas`.
pub fn routing_loop_n_in(
    cfg: SimConfig,
    rate: BitRate,
    ttl: u8,
    n: usize,
    arenas: &mut SimArenas,
) -> Scenario {
    let built = if n == 2 {
        two_switch_loop(LinkSpec::default())
    } else {
        ring(n, LinkSpec::default())
    };
    let s = built.switches.clone();
    let mut tables = shortest_path_tables(&built.topo);
    install_cycle_route(&built.topo, &mut tables, &s, built.hosts[1]);
    let mut sim = unwatched(
        SimBuilder::new(&built.topo)
            .config(cfg)
            .tables(tables)
            .build_in(arenas),
    );
    sim.add_flow(FlowSpec::cbr(0, built.hosts[0], built.hosts[1], rate).with_ttl(ttl));
    let cycle = (0..s.len()).map(|i| (s[i], s[(i + 1) % s.len()])).collect();
    Scenario { built, sim, cycle }
}

/// Flows 1 and 2 of Fig. 3(a) on the square (A=S0 … D=S3):
/// flow 1: a→A→B→C→D→d, flow 2: c→C→D→A→B→b.
pub fn square_flows(built: &Built) -> Vec<FlowSpec> {
    let (s, h) = (&built.switches, &built.hosts);
    vec![
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    ]
}

/// Flow 3 of Fig. 4(a): b→B→C→c.
pub fn square_flow3(built: &Built) -> FlowSpec {
    let (s, h) = (&built.switches, &built.hosts);
    FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]])
}

/// The Fig. 3/4/5 scenario family. `with_flow3` adds flow 3 (Fig. 4);
/// `limiter` shapes switch B's host-facing ingress RX2 (Fig. 5).
pub fn square_scenario(cfg: SimConfig, with_flow3: bool, limiter: Option<BitRate>) -> Scenario {
    square_scenario_in(cfg, with_flow3, limiter, &mut SimArenas::new())
}

/// [`square_scenario`] leasing storage from `arenas`.
pub fn square_scenario_in(
    cfg: SimConfig,
    with_flow3: bool,
    limiter: Option<BitRate>,
    arenas: &mut SimArenas,
) -> Scenario {
    let built = square(LinkSpec::default());
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build_in(arenas));
    for f in square_flows(&built) {
        sim.add_flow(f);
    }
    if with_flow3 {
        sim.add_flow(square_flow3(&built));
    }
    if let Some(rate) = limiter {
        let rx2 = built
            .topo
            .port_towards(built.switches[1], built.hosts[1])
            .expect("B has a host port")
            .port;
        sim.try_set_ingress_shaper(built.switches[1], rx2, rate, Bytes::from_kb(2))
            .expect("set_ingress_shaper");
    }
    let s = &built.switches;
    let cycle = vec![(s[0], s[1]), (s[1], s[2]), (s[2], s[3]), (s[3], s[0])];
    Scenario { built, sim, cycle }
}

/// Case 1 as a *transient* event (E14): the two-switch topology with
/// correct shortest-path routes and a fault plan that, for each
/// `(install, repair)` pair, rewrites S1's entry for h1 to point back at
/// S0 (closing the loop) and later restores the host port. The
/// loop-existence window of each cycle is `repair - install`.
pub fn transient_loop_train(
    cfg: SimConfig,
    rate: BitRate,
    ttl: u8,
    windows: &[(SimTime, SimTime)],
) -> Scenario {
    transient_loop_train_in(cfg, rate, ttl, windows, &mut SimArenas::new())
}

/// [`transient_loop_train`] leasing storage from `arenas`.
pub fn transient_loop_train_in(
    cfg: SimConfig,
    rate: BitRate,
    ttl: u8,
    windows: &[(SimTime, SimTime)],
    arenas: &mut SimArenas,
) -> Scenario {
    let built = two_switch_loop(LinkSpec::default());
    let (s, h) = (built.switches.clone(), built.hosts.clone());
    let to_s0 = built
        .topo
        .port_towards(s[1], s[0])
        .expect("s1-s0 link")
        .port;
    let to_h1 = built
        .topo
        .port_towards(s[1], h[1])
        .expect("s1 host port")
        .port;
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build_in(arenas));
    sim.add_flow(FlowSpec::cbr(0, h[0], h[1], rate).with_ttl(ttl));
    // S0 already forwards h1-bound traffic to S1; pointing S1 back at S0
    // closes the loop, restoring the host port repairs it.
    let mut plan = FaultPlan::new();
    for &(install, repair) in windows {
        plan = plan.route_set(install, s[1], h[1], vec![to_s0]).route_set(
            repair,
            s[1],
            h[1],
            vec![to_h1],
        );
    }
    sim.set_fault_plan(plan).expect("valid transient-loop plan");
    let cycle = vec![(s[0], s[1]), (s[1], s[0])];
    Scenario { built, sim, cycle }
}

/// One install/repair cycle of [`transient_loop_train`].
pub fn transient_loop(
    cfg: SimConfig,
    rate: BitRate,
    ttl: u8,
    install_at: SimTime,
    repair_at: SimTime,
) -> Scenario {
    transient_loop_train(cfg, rate, ttl, &[(install_at, repair_at)])
}

/// [`transient_loop`] leasing storage from `arenas`.
pub fn transient_loop_in(
    cfg: SimConfig,
    rate: BitRate,
    ttl: u8,
    install_at: SimTime,
    repair_at: SimTime,
    arenas: &mut SimArenas,
) -> Scenario {
    transient_loop_train_in(cfg, rate, ttl, &[(install_at, repair_at)], arenas)
}

/// Case 1 from a *real* failure (E14): the square fabric under ECMP
/// shortest-path routing, one CBR flow h0→h3, the S0–S3 link cut at
/// 100 µs, and a network-wide reconvergence in which each switch applies
/// its new table after an independent uniform lag in `[0, jitter]`.
/// While switches disagree, h3-bound traffic can loop.
pub fn reconvergence_scenario(
    cfg: SimConfig,
    flow: u32,
    rate: BitRate,
    jitter: SimDuration,
) -> Scenario {
    reconvergence_scenario_in(cfg, flow, rate, jitter, &mut SimArenas::new())
}

/// [`reconvergence_scenario`] leasing storage from `arenas`.
pub fn reconvergence_scenario_in(
    cfg: SimConfig,
    flow: u32,
    rate: BitRate,
    jitter: SimDuration,
    arenas: &mut SimArenas,
) -> Scenario {
    let built = square(LinkSpec::default());
    let (s, h) = (built.switches.clone(), built.hosts.clone());
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build_in(arenas));
    sim.add_flow(FlowSpec::cbr(flow, h[0], h[3], rate).with_ttl(16));
    sim.set_fault_plan(
        FaultPlan::new()
            .link_down(SimTime::from_us(100), s[0], s[3])
            .route_reconverge(SimTime::from_us(110), SimDuration::ZERO, jitter),
    )
    .expect("valid reconvergence plan");
    let cycle = vec![(s[0], s[1]), (s[1], s[2]), (s[2], s[3]), (s[3], s[0])];
    Scenario { built, sim, cycle }
}

/// The DCQCN variant of Fig. 4 (E8): the same three flows but congestion-
/// controlled, with ECN marking at switches.
pub fn square_dcqcn(cfg: SimConfig, phantom: bool) -> Scenario {
    square_dcqcn_in(cfg, phantom, &mut SimArenas::new())
}

/// [`square_dcqcn`] leasing storage from `arenas`.
pub fn square_dcqcn_in(mut cfg: SimConfig, phantom: bool, arenas: &mut SimArenas) -> Scenario {
    let mut ecn = EcnConfig {
        kmin: Bytes::from_kb(5),
        kmax: Bytes::from_kb(40),
        pmax: 0.2,
        phantom_drain_permille: None,
    };
    if phantom {
        ecn.phantom_drain_permille = Some(950);
    }
    cfg.ecn = Some(ecn);
    let built = square(LinkSpec::default());
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build_in(arenas));
    sim.set_dcqcn(DcqcnConfig::for_line_rate(BitRate::from_gbps(40)));
    for mut f in square_flows(&built) {
        f.demand = Demand::Dcqcn;
        sim.add_flow(f);
    }
    let mut f3 = square_flow3(&built);
    f3.demand = Demand::Dcqcn;
    sim.add_flow(f3);
    let s = &built.switches;
    let cycle = vec![(s[0], s[1]), (s[1], s[2]), (s[2], s[3]), (s[3], s[0])];
    Scenario { built, sim, cycle }
}

/// The TIMELY variant of Fig. 4 (E8): same flows, RTT-gradient congestion
/// control, no switch (ECN) support required.
pub fn square_timely(cfg: SimConfig) -> Scenario {
    square_timely_in(cfg, &mut SimArenas::new())
}

/// [`square_timely`] leasing storage from `arenas`.
pub fn square_timely_in(cfg: SimConfig, arenas: &mut SimArenas) -> Scenario {
    let built = square(LinkSpec::default());
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build_in(arenas));
    sim.set_timely(TimelyConfig::for_line_rate(BitRate::from_gbps(40)));
    for mut f in square_flows(&built) {
        f.demand = Demand::Timely;
        sim.add_flow(f);
    }
    let mut f3 = square_flow3(&built);
    f3.demand = Demand::Timely;
    sim.add_flow(f3);
    let s = &built.switches;
    let cycle = vec![(s[0], s[1]), (s[1], s[2]), (s[2], s[3]), (s[3], s[0])];
    Scenario { built, sim, cycle }
}

/// The E7 tiering scenario: a 3-leaf / 2-spine fabric. `fan` hosts spread
/// over leaves 0 and 1 all blast one host on leaf 2 (incast), while a
/// victim flow crosses from leaf 0 to leaf 1 through the same spines.
pub struct TieringScenario {
    /// The topology bundle.
    pub built: Built,
    /// Simulator ready to run.
    pub sim: NetSim,
    /// The victim flow id.
    pub victim: FlowId,
}

/// Build the incast+victim scenario; `tiered` applies the threshold plan.
pub fn tiering_scenario(cfg: SimConfig, fan: usize, tiered: bool) -> TieringScenario {
    tiering_scenario_in(cfg, fan, tiered, &mut SimArenas::new())
}

/// [`tiering_scenario`] leasing storage from `arenas`.
pub fn tiering_scenario_in(
    cfg: SimConfig,
    fan: usize,
    tiered: bool,
    arenas: &mut SimArenas,
) -> TieringScenario {
    use pfcsim_mitigation::tiering::{plan_tiered_thresholds, TieringPolicy};
    let hosts_per_leaf = fan.div_ceil(2).max(2);
    let built = leaf_spine(3, 2, hosts_per_leaf, LinkSpec::default());
    let mut sim = unwatched(SimBuilder::new(&built.topo).config(cfg).build_in(arenas));
    // Incast: `fan` *bursty* senders from leaves 0 and 1 target the first
    // host on leaf 2 — §4's tiering case is about absorbing bursts, so the
    // workload bursts (line-rate ON periods, 25% duty cycle).
    let target = built.hosts[2 * hosts_per_leaf];
    let mut id = 1;
    for i in 0..fan {
        let leaf = i % 2;
        let host = built.hosts[leaf * hosts_per_leaf + i / 2];
        sim.add_flow(FlowSpec::on_off(
            id,
            host,
            target,
            BitRate::from_gbps(40),
            SimDuration::from_us(50),
            SimDuration::from_us(150),
        ));
        id += 1;
    }
    // Victim: last host of leaf 0 to last host of leaf 1.
    let victim_src = built.hosts[hosts_per_leaf - 1];
    let victim_dst = built.hosts[2 * hosts_per_leaf - 1];
    let victim = FlowId(id);
    sim.add_flow(FlowSpec::infinite(id, victim_src, victim_dst));
    if tiered {
        // A stronger-than-default policy: the spine tier absorbs the whole
        // incast transient instead of re-propagating it.
        let policy = TieringPolicy {
            downstream_xoff: pfcsim_simcore::units::Bytes::from_kb(20),
            upstream_xoff: pfcsim_simcore::units::Bytes::from_kb(200),
            per_tier_bonus: pfcsim_simcore::units::Bytes::from_kb(120),
            xon_percent: 50,
        };
        plan_tiered_thresholds(&built.topo, &policy).apply(&mut sim);
    }
    TieringScenario { built, sim, victim }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_wraps_the_ring() {
        let s = fig1(paper_config());
        assert_eq!(s.cycle.len(), 3);
        assert_eq!(s.built.switches.len(), 3);
    }

    #[test]
    fn loop_scenarios_build_for_various_n() {
        for n in [2usize, 3, 4] {
            let s = routing_loop_n(paper_config(), BitRate::from_gbps(1), 16, n);
            assert_eq!(s.cycle.len(), n);
        }
    }

    #[test]
    fn square_scenario_variants() {
        let s = square_scenario(paper_config(), false, None);
        assert_eq!(s.cycle.len(), 4);
        let _ = square_scenario(paper_config(), true, Some(BitRate::from_gbps(2)));
        let _ = square_dcqcn(paper_config(), true);
    }

    #[test]
    fn tiering_scenario_builds() {
        let t = tiering_scenario(paper_config(), 4, true);
        assert_eq!(t.built.switches.len(), 5);
        assert!(t.victim.0 > 0);
    }
}

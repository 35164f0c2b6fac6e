//! Cross-crate integration: analysis predictions vs simulator outcomes
//! over the paper's case studies — the "necessary but not sufficient"
//! demonstration as executable truth.

use pfcsim::prelude::*;

struct Case {
    name: &'static str,
    cbd: bool,
    deadlocked: bool,
}

fn run_case(
    name: &'static str,
    built: &Built,
    tables: ForwardingTables,
    specs: Vec<FlowSpec>,
    horizon: SimTime,
) -> Case {
    let g = BufferDependencyGraph::from_specs(&built.topo, &tables, &specs);
    let cbd = g.has_cbd();
    let mut sim = SimBuilder::new(&built.topo)
        .config(SimConfig::default())
        .tables(tables)
        .build();
    for f in specs {
        sim.add_flow(f);
    }
    let report = sim.run(horizon);
    Case {
        name,
        cbd,
        deadlocked: report.verdict.is_deadlock(),
    }
}

#[test]
fn the_papers_truth_table() {
    let mut cases = Vec::new();
    let horizon = SimTime::from_ms(8);

    // A plain line: no CBD, no deadlock.
    {
        let b = line(3, LinkSpec::default());
        let tables = shortest_path_tables(&b.topo);
        let specs = vec![
            FlowSpec::infinite(0, b.hosts[0], b.hosts[2]),
            FlowSpec::infinite(1, b.hosts[2], b.hosts[0]),
        ];
        cases.push(run_case("line", &b, tables, specs, horizon));
    }
    // Fig. 3: CBD, no deadlock.
    {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let tables = shortest_path_tables(&b.topo);
        let specs = vec![
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        ];
        cases.push(run_case("fig3", &b, tables, specs, horizon));
    }
    // Fig. 4: CBD, deadlock.
    {
        let b = square(LinkSpec::default());
        let (s, h) = (&b.switches, &b.hosts);
        let tables = shortest_path_tables(&b.topo);
        let specs = vec![
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
            FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]),
        ];
        cases.push(run_case("fig4", &b, tables, specs, horizon));
    }
    // Routing loop above threshold: CBD, deadlock.
    {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let specs =
            vec![FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8)).with_ttl(16)];
        cases.push(run_case("loop@8G", &b, tables, specs, SimTime::from_ms(25)));
    }
    // Routing loop below threshold: CBD, no deadlock.
    {
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let specs =
            vec![FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(3)).with_ttl(16)];
        cases.push(run_case("loop@3G", &b, tables, specs, SimTime::from_ms(25)));
    }

    let rows: Vec<SufficiencyRow> = cases
        .iter()
        .map(|c| SufficiencyRow {
            scenario: c.name.into(),
            cbd: c.cbd,
            deadlocked: c.deadlocked,
        })
        .collect();
    let verdict = SufficiencyVerdict::from_rows(&rows);

    // Necessity: no deadlock without CBD, ever.
    assert!(verdict.necessity_held(), "cases: {rows:?}");
    // Insufficiency: CBD cases exist that did NOT deadlock (fig3, loop@3G).
    assert!(verdict.demonstrates_insufficiency(), "cases: {rows:?}");
    assert_eq!(verdict.cbd_no_deadlock, 2);
    assert_eq!(verdict.cbd_and_deadlock, 2);
    assert_eq!(verdict.no_cbd_no_deadlock, 1);
}

#[test]
fn boundary_model_and_simulator_agree_on_nontrivial_grid() {
    // 2-switch loop: (rate, ttl) grid crossing the threshold both ways.
    for (gbps, ttl) in [(4u64, 16u8), (6, 16), (9, 8), (12, 8), (2, 32), (3, 32)] {
        let model = BoundaryModel::new(2, BitRate::from_gbps(40), ttl as u32);
        let predicted = model.predicts_deadlock(BitRate::from_gbps(gbps));
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
        sim.add_flow(
            FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(gbps)).with_ttl(ttl),
        );
        let simulated = sim.run(SimTime::from_ms(25)).verdict.is_deadlock();
        assert_eq!(
            predicted, simulated,
            "disagreement at rate {gbps} Gbps, TTL {ttl}"
        );
    }
}

#[test]
fn deadlock_witness_is_a_real_cbd_cycle() {
    // The runtime witness (frozen channels) must correspond to edges of
    // the analytic dependency graph.
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let tables = shortest_path_tables(&b.topo);
    let specs = vec![
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]),
    ];
    let g = BufferDependencyGraph::from_specs(&b.topo, &tables, &specs);
    let analytic: std::collections::BTreeSet<(NodeId, PortNo)> = g
        .cyclic_queues()
        .into_iter()
        .map(|q| (q.node, q.port))
        .collect();
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .tables(tables)
        .build();
    for f in specs {
        sim.add_flow(f);
    }
    let report = sim.run(SimTime::from_ms(8));
    let Verdict::Deadlock { witness, .. } = report.verdict else {
        panic!("fig4 must deadlock");
    };
    for key in &witness {
        let port = (b.topo.link_between(key.to, key.from, key.link))
            .expect("the witness names a link")
            .port;
        assert!(
            analytic.contains(&(key.to, port)),
            "frozen channel {key:?} is not an analytic CBD queue"
        );
    }
}

#[test]
fn mitigation_planners_defuse_fig4_end_to_end() {
    // The rate planner computes shapers from the BDG and they actually
    // prevent the deadlock.
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let tables = shortest_path_tables(&b.topo);
    let specs = vec![
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]),
    ];
    let plan = plan_rate_limits(
        &b.topo,
        &tables,
        &specs,
        BitRate::from_gbps(2),
        Bytes::from_kb(2),
    );
    assert!(!plan.is_empty());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .tables(tables)
        .build();
    for f in specs {
        sim.add_flow(f);
    }
    plan.apply(&mut sim);
    let report = sim.run(SimTime::from_ms(8));
    assert!(
        !report.verdict.is_deadlock(),
        "the planned shapers must prevent the Fig. 4 deadlock"
    );
}

#[test]
fn lash_layers_defuse_fig4_in_simulation() {
    // LASH assigns the three Fig. 4 flows to two priority layers with
    // acyclic per-layer dependencies; the simulator must then never
    // deadlock, at unchanged (shortest) paths.
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let paths = vec![
        (FlowId(1), vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        (FlowId(2), vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        (FlowId(3), vec![h[1], s[1], s[2], h[2]]),
    ];
    let assignment = lash_assign(&b.topo, &paths, 0, 8).expect("2 layers suffice");
    assert_eq!(assignment.layer_count, 2);
    let mut specs = vec![
        FlowSpec::infinite(1, h[0], h[3]).pinned(paths[0].1.clone()),
        FlowSpec::infinite(2, h[2], h[1]).pinned(paths[1].1.clone()),
        FlowSpec::infinite(3, h[1], h[2]).pinned(paths[2].1.clone()),
    ];
    assignment.apply(&mut specs);
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    for f in specs {
        sim.add_flow(f);
    }
    let report = sim.run(SimTime::from_ms(8));
    assert!(
        !report.verdict.is_deadlock(),
        "LASH-layered Fig. 4 must not deadlock"
    );
    // Without the layering, the same paths deadlock (guarded elsewhere,
    // re-checked here for the contrast).
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    for (i, (_, p)) in paths.iter().enumerate() {
        sim.add_flow(FlowSpec::infinite(i as u32 + 1, p[0], *p.last().unwrap()).pinned(p.clone()));
    }
    assert!(sim.run(SimTime::from_ms(8)).verdict.is_deadlock());
}

//! E3 — Figure 3: two flows create a CBD among four switches, yet no
//! deadlock forms.
//!
//! Regenerates every panel: (b) the dependency cycle, (c) pause events at
//! L1–L4 (L2/L4 repeatedly, L1/L3 never), (d–g) per-flow RX1 occupancy at
//! each switch, plus the 20/20 Gbps stable-state throughputs.

use pfcsim_core::bdg::BufferDependencyGraph;
use pfcsim_core::sufficiency::analyze_cycle_overlap;
use pfcsim_net::bdg::RxQueue;
use pfcsim_simcore::time::SimTime;
use pfcsim_topo::ids::{FlowId, NodeId, Priority};

use super::Opts;
use crate::scenarios::{paper_config, square_flows, square_scenario};
use crate::table::{fmt, Report, Table};

/// The RX1 ingress key of square switch `i`: the port facing the previous
/// switch in the A→B→C→D ring.
pub(crate) fn rx1_key(built: &pfcsim_topo::builders::Built, i: usize) -> RxQueue {
    let s = &built.switches;
    let prev = s[(i + 3) % 4];
    RxQueue {
        node: s[i],
        port: built.topo.port_towards(s[i], prev).expect("ring link").port,
        priority: Priority::DEFAULT,
    }
}

/// Occupancy row: label, series stats in KB.
pub(crate) fn occupancy_row(
    stats: &pfcsim_net::stats::NetStats,
    key: RxQueue,
    flow: FlowId,
    label: &str,
    xoff_kb: f64,
) -> Vec<String> {
    match stats.flow_occupancy.get(&(key, flow)) {
        Some(series) if !series.is_empty() => {
            let frac =
                series.fraction_at_or_above((xoff_kb * 1e3) as u64, SimTime::ZERO, SimTime::MAX);
            vec![
                label.into(),
                format!("{:.1}", series.min() as f64 / 1e3),
                format!("{:.1}", series.max() as f64 / 1e3),
                format!("{:.1}", series.mean() / 1e3),
                format!("{:.1}%", frac * 100.0),
            ]
        }
        _ => vec![label.into(), "-".into(), "-".into(), "-".into(), "-".into()],
    }
}

/// Run E3.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("E3 / Figure 3", "Two flows: CBD present, deadlock absent");
    let horizon = opts.horizon_ms(10);
    let mut sc = square_scenario(paper_config(), false, None);
    // Panels (d–g) read RX1 of every switch.
    sc.sim.watch_only((0..4).map(|i| rx1_key(&sc.built, i)));
    let cycle_nodes: Vec<NodeId> = sc.built.switches.clone();
    let cycle = sc.cycle.clone();
    let built = sc.built.clone();
    let result = sc.sim.run(horizon);

    // (b) the dependency graph.
    let specs = square_flows(&built);
    let tables = pfcsim_topo::routing::shortest_path_tables(&built.topo);
    let g = BufferDependencyGraph::from_specs(&built.topo, &tables, &specs);
    let cycles = g.cbd_cycles(8);
    let mut t = Table::new("Fig. 3(b): buffer dependency graph", &["property", "value"]);
    t.row(vec!["queues".into(), g.len().to_string()]);
    t.row(vec!["dependencies".into(), g.edge_count().to_string()]);
    t.row(vec!["CBD present".into(), fmt::yn(g.has_cbd())]);
    t.row(vec![
        "cycle".into(),
        cycles
            .first()
            .map(|c| {
                c.iter()
                    .map(|q| format!("RX1({})", built.topo.node(q.node).name))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            })
            .unwrap_or_else(|| "-".into()),
    ]);
    report.table(t);

    // (c) pause events per link.
    let mut t = Table::new(
        "Fig. 3(c): pause events at L1..L4 over the run",
        &["link", "pause_frames", "paper"],
    );
    let paper_expect = ["never", "repeatedly", "never", "repeatedly"];
    for (i, &(from, to)) in cycle.iter().enumerate() {
        t.row(vec![
            format!("L{} ({from}->{to})", i + 1),
            result
                .stats
                .pause_count(from, to, Priority::DEFAULT)
                .to_string(),
            paper_expect[i].into(),
        ]);
    }
    report.table(t);

    // (d-g) occupancy of the paper's watched flows at RX1 of A..D.
    let mut t = Table::new(
        "Fig. 3(d-g): per-flow occupancy at RX1 (KB; threshold 40)",
        &["queue", "min_kb", "max_kb", "mean_kb", "time>=xoff"],
    );
    let watch = [
        (0usize, FlowId(2), "flow2 @ RX1(A)"),
        (1, FlowId(1), "flow1 @ RX1(B)"),
        (2, FlowId(1), "flow1 @ RX1(C)"),
        (3, FlowId(2), "flow2 @ RX1(D)"),
    ];
    for (i, flow, label) in watch {
        t.row(occupancy_row(
            &result.stats,
            rx1_key(&built, i),
            flow,
            label,
            40.0,
        ));
    }
    report.table(t);

    // Throughputs.
    let mut t = Table::new("stable state throughput", &["flow", "gbps", "paper"]);
    for f in [FlowId(1), FlowId(2)] {
        let bps = result.stats.flows[&f]
            .meter
            .average_bps(SimTime::ZERO, result.end_time)
            .unwrap_or(0.0);
        t.row(vec![f.to_string(), fmt::gbps(bps), "20.00 (B/2)".into()]);
    }
    report.table(t);

    // Overlap analysis.
    let overlap = analyze_cycle_overlap(
        &result.stats,
        &cycle_nodes,
        Priority::DEFAULT,
        result.end_time,
    );
    let mut t = Table::new("pause overlap on the cycle", &["metric", "value"]);
    t.row(vec![
        "channels ever paused".into(),
        format!("{}/4", overlap.channels_ever_paused),
    ]);
    t.row(vec![
        "max simultaneously paused".into(),
        overlap.max_simultaneous.to_string(),
    ]);
    t.row(vec![
        "all-4 ever simultaneous".into(),
        fmt::yn(overlap.all_paused_simultaneously()),
    ]);
    report.table(t);

    // Optional CSV artifacts: the raw series behind panels (c)-(g).
    if let Some(dir) = &opts.dump_dir {
        std::fs::create_dir_all(dir).expect("create dump dir");
        for (i, flow, name) in [
            (0usize, FlowId(2), "fig3_occupancy_flow2_at_A"),
            (1, FlowId(1), "fig3_occupancy_flow1_at_B"),
            (2, FlowId(1), "fig3_occupancy_flow1_at_C"),
            (3, FlowId(2), "fig3_occupancy_flow2_at_D"),
        ] {
            let key = (rx1_key(&built, i), flow);
            if let Some(series) = result.stats.flow_occupancy.get(&key) {
                crate::dump::write_series(&dir.join(format!("{name}.csv")), series)
                    .expect("write occupancy csv");
            }
        }
        for (i, &(from, to)) in cycle.iter().enumerate() {
            if let Some(log) = result.stats.pause_log(from, to, Priority::DEFAULT) {
                crate::dump::write_events(
                    &dir.join(format!("fig3_pauses_L{}.csv", i + 1)),
                    &log.events,
                )
                .expect("write pause csv");
            }
        }
    }

    let mut t = Table::new("verdict", &["deadlock", "paper"]);
    t.row(vec![fmt::yn(result.verdict.is_deadlock()), "no".into()]);
    report.table(t);
    report.note(
        "CBD is present yet no deadlock forms: only L2/L4 ever pause, so the 4-cycle can \
         never be simultaneously paused — the paper's central 'necessary but not \
         sufficient' exhibit.",
    );
    report
}

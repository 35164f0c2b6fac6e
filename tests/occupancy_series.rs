//! What a run keeps of buffer occupancy. `NetSim::watch_only` decides
//! which occupancy series a run keeps and nothing else: telemetry's
//! occupancy probe still measures every switch ingress. The experiments'
//! scenarios keep no series unless a report reads one, and the occupancy
//! dumps of `repro all --quick --csv` are pinned, so a series dropped by
//! mistake cannot silently empty one.

use std::collections::BTreeSet;
use std::path::PathBuf;

use pfcsim::net::bdg::RxQueue;
use pfcsim::net::sim::{RunReport, SimBuilder};
use pfcsim::net::telemetry::TelemetryConfig;
use pfcsim::simcore::snap::fnv1a;
use pfcsim::simcore::time::SimTime;
use pfcsim::topo::builders::Built;
use pfcsim::topo::ids::{FlowId, NodeId, Priority};
use pfcsim_experiments::experiments::{e3_fig3, e5_fig5, Opts};
use pfcsim_experiments::scenarios::{paper_config, square_flows, square_scenario};

/// The default-class ingress of switch `at` facing node `from`.
fn rx(built: &Built, at: NodeId, from: NodeId) -> RxQueue {
    RxQueue {
        node: at,
        port: built.topo.port_towards(at, from).expect("adjacent").port,
        priority: Priority::DEFAULT,
    }
}

/// The Fig. 3 square under sampling-only telemetry for 500 µs, narrowed
/// to `watch` when given.
fn telemetry_run(watch: Option<Vec<RxQueue>>) -> (Built, RunReport) {
    let built = pfcsim::topo::builders::square(Default::default());
    let mut cfg = paper_config();
    cfg.telemetry = TelemetryConfig::sampling_only();
    let mut sim = SimBuilder::new(&built.topo).config(cfg).build();
    for f in square_flows(&built) {
        sim.add_flow(f);
    }
    if let Some(keys) = watch {
        sim.watch_only(keys);
    }
    let report = sim.run(SimTime::from_us(500));
    (built, report)
}

#[test]
fn watching_fewer_queues_leaves_telemetry_unchanged() {
    let json = |report: &RunReport| {
        serde_json::to_string(report.telemetry.as_ref().expect("telemetry is on")).unwrap()
    };
    let (built, all) = telemetry_run(None);
    let (_, none) = telemetry_run(Some(Vec::new()));
    let (s, h) = (&built.switches, &built.hosts);
    let (_, one) = telemetry_run(Some(vec![rx(&built, s[1], h[1])]));
    assert!(none.stats.occupancy.is_empty());
    assert_eq!(one.stats.occupancy.len(), 1);
    assert_eq!(json(&none), json(&all));
    assert_eq!(json(&one), json(&all));
    // The probe measures every switch ingress on the one class in use.
    let ingresses: usize = s.iter().map(|&n| built.topo.ports(n).len()).sum();
    let probed = &none.telemetry.as_ref().unwrap().occupancy;
    assert_eq!(probed.len(), ingresses);
    assert!(probed.values().all(|series| !series.is_empty()));
}

#[test]
fn a_scenario_keeps_only_the_series_it_watches() {
    let horizon = SimTime::from_us(300);
    let mut sc = square_scenario(paper_config(), true, None);
    let report = sc.sim.run(horizon);
    assert!(
        report.stats.occupancy.is_empty(),
        "a scenario watches nothing"
    );
    assert!(report.stats.flow_occupancy.is_empty());

    let mut sc = square_scenario(paper_config(), true, None);
    let (s, h) = (&sc.built.switches, &sc.built.hosts);
    // RX1(B) carries flows 1 and 2 from A; RX2(B) takes flow 3 from b.
    let (rx1, rx2) = (rx(&sc.built, s[1], s[0]), rx(&sc.built, s[1], h[1]));
    sc.sim.watch_only([rx2, rx1]);
    let report = sc.sim.run(horizon);
    let queues: BTreeSet<RxQueue> = report.stats.occupancy.keys().copied().collect();
    assert_eq!(queues, BTreeSet::from([rx1, rx2]));
    let flows: BTreeSet<(RxQueue, FlowId)> = report.stats.flow_occupancy.keys().copied().collect();
    let expected = [(rx1, FlowId(1)), (rx1, FlowId(2)), (rx2, FlowId(3))];
    assert_eq!(flows, BTreeSet::from(expected));
    let stats = &report.stats;
    let mut series = stats
        .occupancy
        .values()
        .chain(stats.flow_occupancy.values());
    assert!(series.all(|s| !s.is_empty()));
}

/// `fnv1a` of every occupancy dump `repro all --quick --csv` writes, as
/// the build before scenarios stopped keeping unread series wrote them.
const DUMPS: [(&str, u64); 6] = [
    ("fig3_occupancy_flow1_at_B", 0x9d43_12dd_8ae5_2790),
    ("fig3_occupancy_flow1_at_C", 0x7eff_cfe1_60b5_2791),
    ("fig3_occupancy_flow2_at_A", 0x7eff_cfe1_60b5_2791),
    ("fig3_occupancy_flow2_at_D", 0x9d43_12dd_8ae5_2790),
    ("fig5_occupancy_flow1_at_B_cap2g", 0xd59a_93f6_868c_981e),
    ("fig5_occupancy_flow1_at_B_cap6g", 0x7728_ed07_f168_d12d),
];

#[test]
fn quick_occupancy_dumps_are_pinned() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("occupancy-dumps");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Opts {
        quick: true,
        dump_dir: Some(dir.clone()),
    };
    e3_fig3::run(&opts);
    e5_fig5::run(&opts);
    let written: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("dump dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name.contains("occupancy"))
        .collect();
    let pinned: BTreeSet<String> = DUMPS
        .iter()
        .map(|(name, _)| format!("{name}.csv"))
        .collect();
    assert_eq!(written, pinned);
    for (name, pin) in DUMPS {
        let bytes = std::fs::read(dir.join(format!("{name}.csv"))).expect("dump");
        assert_eq!(fnv1a(&bytes), pin, "{name}: {} bytes", bytes.len());
    }
}

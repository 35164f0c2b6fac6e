//! Hybrid-vs-full-packet observational equivalence over randomized runs.
//!
//! The hybrid backend (`SimConfig::hybrid`) must be observationally
//! invisible: for any topology, traffic mix, fault script, and scan
//! cadence, the deadlock verdict (detection instant and witness), the
//! per-flow conservation totals, the pause log, and the end-of-run
//! buffered bytes must equal the full-packet reference — under both
//! scheduler backends. Scenarios mix eligible intra-rack bounded CBR
//! flows (which actually go fluid on the fat-tree) with shared,
//! pausing, deadlocking, and faulted packet traffic the classifier
//! must refuse or be undisturbed by.

use proptest::prelude::*;

use pfcsim_net::config::{SchedulerBackend, SimConfig};
use pfcsim_net::faults::FaultPlan;
use pfcsim_net::flow::{Demand, FlowSpec};
use pfcsim_net::hybrid::HybridConfig;
use pfcsim_net::sim::{RunReport, SimBuilder};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_topo::builders::{fat_tree, ring, square, Built, LinkSpec};
use pfcsim_topo::routing::install_cycle_route;

/// One generated fault as raw numbers (kind, time, endpoint selector,
/// parameter), mapped onto the drawn topology so every plan validates.
type RawFault = (u8, u16, u8, u16);

fn build_topo(sel: u8) -> Built {
    match sel % 4 {
        0 => square(LinkSpec::default()),
        1 => ring(4, LinkSpec::default()),
        2 => ring(6, LinkSpec::default()),
        _ => fat_tree(4, LinkSpec::default()),
    }
}

fn build_plan(b: &Built, raw: &[RawFault]) -> FaultPlan {
    let s = &b.switches;
    let h = &b.hosts;
    let mut plan = FaultPlan::new();
    for &(kind, t_us, which, p) in raw {
        let at = SimTime::from_us(30 + t_us as u64 % 700);
        let wi = which as usize;
        let (a, bb) = if wi.is_multiple_of(2) {
            (h[wi % h.len()], s[wi % s.len()])
        } else {
            (s[wi % s.len()], s[(wi + 1) % s.len()])
        };
        let sw = s[wi % s.len()];
        plan = match kind % 4 {
            0 => plan.link_down(at, a, bb),
            1 => plan.link_up(at, a, bb),
            2 => {
                let down_for = SimDuration::from_us(1 + p as u64 % 40);
                let period = down_for + SimDuration::from_us(1 + which as u64);
                plan.link_flap(at, a, bb, down_for, period, 1 + (p % 2) as u32)
            }
            _ => plan.pause_loss(at, sw, (p % 101) as f64 / 100.0),
        };
    }
    plan
}

/// Run one scenario with the hybrid backend pinned on or off.
#[allow(clippy::too_many_arguments)]
fn run_one(
    topo_sel: u8,
    cyclic: bool,
    sched: SchedulerBackend,
    scan_us: u64,
    raw: &[RawFault],
    seed: u64,
    fluid_pairs: usize,
    finite: bool,
    drain: bool,
    hybrid: bool,
) -> RunReport {
    let b = build_topo(topo_sel);
    let mut tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
    if cyclic && topo_sel % 4 != 3 {
        // The paper's cyclic-buffer-dependency pattern: some runs pause
        // hard and some deadlock — the verdict must match exactly.
        install_cycle_route(
            &b.topo,
            &mut tables,
            &b.switches,
            b.hosts[1 % b.hosts.len()],
        );
    }
    let mut cfg = SimConfig::default();
    cfg.seed = seed;
    cfg.scheduler = Some(sched);
    cfg.deadlock_scan_interval = Some(SimDuration::from_us(scan_us));
    // No occupancy sampling: it is a whole-run hybrid gate (sampled
    // series would record a fluid path's transients).
    cfg.sample_interval = None;
    cfg.stop_on_deadlock = !drain;
    cfg.hybrid = Some(HybridConfig { enabled: hybrid });
    let mut sim = SimBuilder::new(&b.topo).config(cfg).tables(tables).build();
    let n = b.hosts.len();
    // Shared packet traffic (never eligible: unbounded, stochastic, or
    // entangled with every other flow's footprint).
    sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1 % n], BitRate::from_gbps(10)).with_ttl(16));
    sim.add_flow(
        FlowSpec::cbr(1, b.hosts[3 % n], b.hosts[0], BitRate::from_gbps(5))
            .with_ttl(16)
            .stopping_at(SimTime::from_ms(1)),
    );
    sim.add_flow(FlowSpec::poisson(
        2,
        b.hosts[2 % n],
        b.hosts[4 % n],
        BitRate::from_gbps(3),
    ));
    sim.add_flow(
        FlowSpec::on_off(
            3,
            b.hosts[6 % n],
            b.hosts[1 % n],
            BitRate::from_gbps(8),
            SimDuration::from_us(40),
            SimDuration::from_us(60),
        )
        .starting_at(SimTime::from_us(10 + seed % 50)),
    );
    // Fluid candidates: intra-rack pairs on the fat-tree's upper racks
    // (hosts 2e/2e+1 share an edge switch), with dedicated endpoints so
    // switch exclusivity can hold. On the small topologies every switch
    // is shared and the classifier must refuse them all.
    for j in 0..fluid_pairs {
        let (src, dst) = (b.hosts[(8 + 2 * j) % n], b.hosts[(9 + 2 * j) % n]);
        let mut f = FlowSpec::cbr(
            10 + j as u32,
            src,
            dst,
            BitRate::from_gbps(2 + 3 * j as u64),
        )
        .with_ttl(16)
        .starting_at(SimTime::from_us(5 * j as u64));
        if finite {
            f.demand = Demand::CbrFinite {
                rate: BitRate::from_gbps(2 + 3 * j as u64),
                total: Bytes::from_kb(100 + 40 * j as u64),
            };
        } else {
            f = f.stopping_at(SimTime::from_us(600 + 100 * j as u64));
        }
        sim.add_flow(f);
    }
    if !raw.is_empty() {
        // Raw faults map onto whatever topology was drawn; a pair that
        // happens not to be adjacent here just runs faultless (both
        // sides of the comparison drop the plan identically).
        let _ = sim.set_fault_plan(build_plan(&b, raw));
    }
    if drain {
        sim.run_with_drain(SimTime::from_ms(1), SimTime::from_ms(2))
    } else {
        sim.run(SimTime::from_ms(2))
    }
}

/// Everything the hybrid backend promises to preserve, as one
/// comparable value: verdict (instant + witness), conservation totals
/// and meters per flow, the pause log, buffered bytes, end time, and
/// quiescence.
fn observables(r: &RunReport) -> (String, String, String, u64, SimTime, bool) {
    (
        format!("{:?}", r.verdict),
        serde_json::to_string(&r.stats.flows).expect("serialize"),
        serde_json::to_string(&r.stats.pause).expect("serialize"),
        r.buffered.get(),
        r.end_time,
        r.quiesced,
    )
}

fn assert_conservation(r: &RunReport) {
    for (id, f) in &r.stats.flows {
        let out = f.delivered_packets
            + f.dropped_no_route
            + f.dropped_overflow
            + f.dropped_pause_loss
            + f.dropped_ttl
            + f.dropped_link_down
            + f.unsent_packets
            + f.stuck_packets;
        // A packet on a wire at the horizon is accounted by neither
        // side (the stuck-walk only inspects NIC slots and switch
        // buffers), so mid-flight runs may under-account — but never
        // over-account, and quiescence leaves nothing on a wire.
        if r.quiesced {
            assert_eq!(
                f.injected_packets, out,
                "flow {id:?} leaks packets at quiescence (injected {} vs accounted {out})",
                f.injected_packets
            );
        } else {
            assert!(
                out <= f.injected_packets,
                "flow {id:?} over-accounts (injected {} vs accounted {out})",
                f.injected_packets
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any randomized run is observationally identical with the hybrid
    /// backend on and off, under both scheduler backends.
    #[test]
    fn hybrid_runs_match_full_packet_reference(
        topo_sel in 0u8..4,
        cyclic in any::<bool>(),
        heap in any::<bool>(),
        scan_us in 20u64..120,
        raw in prop::collection::vec((0u8..8, 0u16..700, 0u8..8, 0u16..1000), 0..4),
        seed in 0u64..1_000,
        fluid_pairs in 0usize..4,
        finite in any::<bool>(),
        drain in any::<bool>(),
    ) {
        let sched = if heap { SchedulerBackend::Heap } else { SchedulerBackend::Wheel };
        let full = run_one(
            topo_sel, cyclic, sched, scan_us, &raw, seed, fluid_pairs, finite, drain, false,
        );
        let hyb = run_one(
            topo_sel, cyclic, sched, scan_us, &raw, seed, fluid_pairs, finite, drain, true,
        );
        prop_assert_eq!(
            observables(&hyb),
            observables(&full),
            "hybrid run diverged under {:?} (fluid flows: {})",
            sched,
            hyb.fluid_flows
        );
        assert_conservation(&hyb);
        prop_assert!(
            hyb.events + hyb.events_elided <= full.events,
            "elided counter overclaims: {} + {} > {}",
            hyb.events,
            hyb.events_elided,
            full.events
        );
    }
}

/// Deterministic smoke: the fat-tree steady-state mix actually goes
/// fluid, elides a substantial share of the reference run's events, and
/// still reproduces it observably — including exact event accounting
/// once everything drains (every elided packet completed its chain).
#[test]
fn fat_tree_steady_state_actually_elides() {
    let full = run_one(
        3,
        false,
        SchedulerBackend::Wheel,
        40,
        &[],
        7,
        3,
        false,
        true,
        false,
    );
    let hyb = run_one(
        3,
        false,
        SchedulerBackend::Wheel,
        40,
        &[],
        7,
        3,
        false,
        true,
        true,
    );
    assert_eq!(observables(&hyb), observables(&full));
    assert_conservation(&hyb);
    assert_eq!(hyb.fluid_flows, 3, "all intra-rack pairs classify fluid");
    assert!(
        hyb.events_elided > 5_000,
        "steady-state elision too small: {}",
        hyb.events_elided
    );
    assert_eq!(
        hyb.events + hyb.events_elided,
        full.events,
        "a fully drained run accounts for every elided event"
    );
    // The fluid flows delivered everything they generated.
    for j in 0..3u32 {
        let f = &hyb.stats.flows[&pfcsim_topo::ids::FlowId(10 + j)];
        assert!(f.injected_packets > 0);
        assert_eq!(f.injected_packets, f.delivered_packets);
    }
}

/// Deterministic smoke for the deadlock path: the ring cycle under
/// stop-on-deadlock must detect at the identical instant with the
/// identical witness whether or not the hybrid backend is enabled.
#[test]
fn deadlock_detection_is_hybrid_invariant() {
    let full = run_one(
        1,
        true,
        SchedulerBackend::Wheel,
        25,
        &[],
        7,
        2,
        false,
        false,
        false,
    );
    let hyb = run_one(
        1,
        true,
        SchedulerBackend::Wheel,
        25,
        &[],
        7,
        2,
        false,
        false,
        true,
    );
    assert!(full.verdict.is_deadlock(), "scenario must deadlock");
    assert_eq!(observables(&hyb), observables(&full));
}

//! E12 — the fluid model vs the packet simulator: why flow-level analysis
//! cannot predict deadlock.
//!
//! §3.2–3.3 argue repeatedly that "stable state flow analysis does not
//! apply" and name a fluid model as future work. This experiment builds
//! that fluid model and runs it side by side with the packet simulator on
//! Figures 3 and 4: the fluid model nails the average throughputs in both
//! cases and is *identically blind* to what distinguishes them.

use pfcsim_core::fluid::{FluidConfig, FluidFlow, FluidNetwork};
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{square, Built, LinkSpec};
use pfcsim_topo::ids::FlowId;

use super::Opts;
use crate::scenarios::{paper_config, square_scenario};
use crate::table::{fmt, Report, Table};

struct SideBySide {
    fluid_thr: Vec<f64>,
    fluid_fabric_pauses: bool,
    fluid_deadlock: bool,
    packet_thr: Vec<f64>,
    packet_fabric_pauses: bool,
    packet_deadlock: bool,
}

/// The square's fluid flows: flows 1 and 2 infinite, flow 3 (when
/// present) infinite or capped at `cap`.
fn square_fluid_flows(b: &Built, with_flow3: bool, cap: Option<BitRate>) -> Vec<FluidFlow> {
    let (s, h) = (&b.switches, &b.hosts);
    let flow = |id, demand, path| FluidFlow {
        id: FlowId(id),
        demand,
        path,
    };
    let mut flows = vec![
        flow(1, None, vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        flow(2, None, vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    ];
    if with_flow3 {
        flows.push(flow(3, cap, vec![h[1], s[1], s[2], h[2]]));
    }
    flows
}

fn compare(opts: &Opts, with_flow3: bool) -> SideBySide {
    let b = square(LinkSpec::default());
    let flows = square_fluid_flows(&b, with_flow3, None);
    let n = flows.len();
    let steps = if opts.quick { 10_000 } else { 50_000 };
    let fluid = FluidNetwork::new(&b.topo, flows, FluidConfig::default()).run(steps);

    let horizon = opts.horizon_ms(10);
    let sc = square_scenario(paper_config(), with_flow3, None);
    let cycle = sc.cycle.clone();
    let packet = sc.run(horizon);

    let fluid_thr = (1..=n)
        .map(|i| fluid.throughput[&FlowId(i as u32)] / 1e9)
        .collect();
    let packet_thr = (1..=n)
        .map(|i| {
            packet.stats.flows[&FlowId(i as u32)]
                .meter
                .average_bps(SimTime::ZERO, packet.end_time)
                .unwrap_or(0.0)
                / 1e9
        })
        .collect();
    let packet_fabric_pauses = cycle.iter().any(|&(f, t)| {
        packet
            .stats
            .pause_count(f, t, pfcsim_topo::ids::Priority::DEFAULT)
            > 0
    });
    SideBySide {
        fluid_thr,
        fluid_fabric_pauses: fluid.pause_fraction.values().any(|&f| f > 0.01),
        fluid_deadlock: fluid.deadlock,
        packet_thr,
        packet_fabric_pauses,
        packet_deadlock: packet.verdict.is_deadlock(),
    }
}

/// Run E12.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E12 / fluid model",
        "Flow-level (fluid) analysis vs packet-level simulation on Figs. 3-4",
    );
    let cases = [("Fig. 3 (2 flows)", false), ("Fig. 4 (3 flows)", true)];
    for (label, s) in crate::sweep::parallel_map(&cases, |&(label, with_flow3)| {
        (label, compare(opts, with_flow3))
    }) {
        let mut t = Table::new(
            format!("{label}: fluid vs packet"),
            &["metric", "fluid model", "packet simulator"],
        );
        let fthr: Vec<String> = s.fluid_thr.iter().map(|x| format!("{x:.1}")).collect();
        let pthr: Vec<String> = s.packet_thr.iter().map(|x| format!("{x:.1}")).collect();
        t.row(vec![
            "per-flow Gbps".into(),
            fthr.join(" / "),
            pthr.join(" / "),
        ]);
        t.row(vec![
            "fabric pauses".into(),
            fmt::yn(s.fluid_fabric_pauses),
            fmt::yn(s.packet_fabric_pauses),
        ]);
        t.row(vec![
            "deadlock".into(),
            fmt::yn(s.fluid_deadlock),
            fmt::yn(s.packet_deadlock),
        ]);
        report.table(t);
    }
    // Fig. 5 in the fluid model: the limiter sweep that decides the packet
    // verdict is invisible to fluid analysis at *every* rate.
    let mut t = Table::new(
        "Fig. 5 sweep in the fluid model (flow 3 capped)",
        &["flow3_cap_gbps", "fluid deadlock", "packet deadlock (E5)"],
    );
    let rates: &[(u64, &str)] = if opts.quick {
        &[(2, "no"), (6, "yes")]
    } else {
        &[(1, "no"), (2, "no"), (4, "no"), (6, "yes"), (8, "yes")]
    };
    let steps = if opts.quick { 10_000 } else { 30_000 };
    let fluid_deadlocks = crate::sweep::parallel_map(rates, |&(g, _)| {
        let b = square(LinkSpec::default());
        let flows = square_fluid_flows(&b, true, Some(BitRate::from_gbps(g)));
        FluidNetwork::new(&b.topo, flows, FluidConfig::default())
            .run(steps)
            .deadlock
    });
    for (&(g, packet_verdict), fluid_deadlock) in rates.iter().zip(fluid_deadlocks) {
        t.row(vec![
            g.to_string(),
            fmt::yn(fluid_deadlock),
            packet_verdict.into(),
        ]);
    }
    report.table(t);

    report.note(
        "The fluid model reproduces the stable-state averages exactly (B/2 per flow) and \
         declares Fig. 3 and Fig. 4 equivalent — no fabric pause, no deadlock, in both; \
         the Fig. 5 limiter sweep is equally invisible to it at every rate. Only the \
         packet simulator distinguishes them. This is the paper's §3.2 claim ('we cannot \
         predict the instantaneous buffer occupancy ... from flow-level analysis') as a \
         measured artifact, and realizes the §3.3 future-work fluid model.",
    );
    report
}

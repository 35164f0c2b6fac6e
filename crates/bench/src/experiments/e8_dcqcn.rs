//! E8 — §4 "Preventing PFC from being generated": DCQCN and phantom
//! queues on the Fig. 4 workload.
//!
//! End-to-end congestion control slashes PAUSE generation (and with it the
//! deadlock risk), but its feedback latency means it "cannot completely
//! prevent PFC from being generated"; phantom queues signal earlier and
//! cut the residue further.

use pfcsim_simcore::time::SimTime;
use pfcsim_topo::ids::FlowId;

use super::Opts;
use crate::scenarios::{paper_config, square_dcqcn, square_scenario, square_timely};
use crate::table::{fmt, Report, Table};

struct Outcome {
    deadlock: bool,
    pauses: u64,
    cnps: u64,
    marked: u64,
    flow_gbps: Vec<f64>,
}

fn outcome(result: pfcsim_net::sim::RunReport) -> Outcome {
    let flow_gbps = [FlowId(1), FlowId(2), FlowId(3)]
        .iter()
        .map(|f| {
            result
                .stats
                .flows
                .get(f)
                .and_then(|fs| fs.meter.average_bps(SimTime::ZERO, result.end_time))
                .unwrap_or(0.0)
                / 1e9
        })
        .collect();
    let marked = result.stats.flows.values().map(|f| f.ecn_marked).sum();
    Outcome {
        deadlock: result.verdict.is_deadlock(),
        pauses: result.stats.pause_frames,
        cnps: result.stats.cnps,
        marked,
        flow_gbps,
    }
}

/// Run E8.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E8 / §4 DCQCN",
        "Preventing PFC generation: Fig. 4 workload under DCQCN (± phantom) and TIMELY",
    );
    let horizon = opts.horizon_ms(10);

    // Four independent variants, fanned out.
    let variants = [0usize, 1, 2, 3];
    let mut runs = crate::sweep::parallel_map(&variants, |&v| {
        let sc = match v {
            0 => square_scenario(paper_config(), true, None),
            1 => square_dcqcn(paper_config(), false),
            2 => square_dcqcn(paper_config(), true),
            _ => square_timely(paper_config()),
        };
        outcome(sc.run(horizon))
    })
    .into_iter();
    let udp = runs.next().expect("udp");
    let dcqcn = runs.next().expect("dcqcn");
    let phantom = runs.next().expect("phantom");
    let timely = runs.next().expect("timely");

    let mut t = Table::new(
        "UDP vs DCQCN vs DCQCN+phantom vs TIMELY (Fig. 4 workload)",
        &["metric", "udp", "dcqcn", "dcqcn+phantom", "timely"],
    );
    t.row(vec![
        "deadlock".into(),
        fmt::yn(udp.deadlock),
        fmt::yn(dcqcn.deadlock),
        fmt::yn(phantom.deadlock),
        fmt::yn(timely.deadlock),
    ]);
    t.row(vec![
        "PAUSE frames".into(),
        udp.pauses.to_string(),
        dcqcn.pauses.to_string(),
        phantom.pauses.to_string(),
        timely.pauses.to_string(),
    ]);
    t.row(vec![
        "ECN-marked pkts".into(),
        udp.marked.to_string(),
        dcqcn.marked.to_string(),
        phantom.marked.to_string(),
        "n/a (RTT-based)".into(),
    ]);
    t.row(vec![
        "CNPs".into(),
        udp.cnps.to_string(),
        dcqcn.cnps.to_string(),
        phantom.cnps.to_string(),
        "n/a".into(),
    ]);
    for (i, name) in ["flow1", "flow2", "flow3"].iter().enumerate() {
        t.row(vec![
            format!("{name} Gbps"),
            format!("{:.2}", udp.flow_gbps[i]),
            format!("{:.2}", dcqcn.flow_gbps[i]),
            format!("{:.2}", phantom.flow_gbps[i]),
            format!("{:.2}", timely.flow_gbps[i]),
        ]);
    }
    report.table(t);
    report.note(
        "DCQCN nearly eliminates PAUSE traffic and keeps the run deadlock-free. TIMELY \
         (no switch support, per-packet RTT gradients) oscillates at microsecond RTTs, \
         keeps brushing the PFC threshold (~an order of magnitude more residual pauses), \
         and on long runs the four-way pause alignment can still occur — incomplete \
         prevention is not prevention. This sharpens the paper's point: because feedback \
         latency means CC \"cannot completely prevent PFC from being generated\", CC \
         alone is mitigation, not a deadlock-freedom guarantee.",
    );
    report
}

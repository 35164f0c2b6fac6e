//! E13 — the real-world deadlock the paper cites (§2 / Guo et al.,
//! SIGCOMM 2016): "even for tree-based topology, cyclic buffer dependency
//! can still occur if up-down routing is not strictly followed", caused
//! by "the (unexpected) flooding of lossless class traffic".
//!
//! A leaf-spine fabric under valley-free routing loses one destination's
//! forwarding entry fabric-wide. With L3 semantics the traffic black-holes
//! (lossy but safe); with L2 flood-on-miss semantics the lossless class
//! storms across non-up-down paths and freezes the fabric.

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

use super::Opts;
use crate::table::{fmt, Report, Table};

fn run_storm(opts: &Opts, flood: bool) -> RunReport {
    let built = leaf_spine(2, 2, 2, LinkSpec::default());
    let tables = up_down_tables(&built.topo);
    let mut cfg = SimConfig::default();
    cfg.flood_on_miss = flood;
    cfg.stop_on_deadlock = false;
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(tables)
        .build();
    sim.watch_only([]);
    let victim_dst = built.hosts[2];
    sim.add_flow(FlowSpec::infinite(1, built.hosts[0], victim_dst).with_ttl(6));
    sim.add_flow(FlowSpec::infinite(2, built.hosts[3], built.hosts[1]).with_ttl(6));
    for sw in built.switches.clone() {
        sim.schedule_route_update(SimTime::from_us(50), sw, victim_dst, vec![]);
    }
    sim.run(opts.horizon_ms(5))
}

/// Run E13.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E13 / §2 flooding case",
        "Guo et al.'s real-world Clos deadlock: lossless flood on a route miss",
    );
    let l3 = run_storm(opts, false);
    let l2 = run_storm(opts, true);
    let mut t = Table::new(
        "route loss at t=50us: L3 drop-on-miss vs L2 flood-on-miss",
        &["metric", "L3 (drop)", "L2 (flood)"],
    );
    t.row(vec![
        "deadlock".into(),
        fmt::yn(l3.verdict.is_deadlock()),
        fmt::yn(l2.verdict.is_deadlock()),
    ]);
    t.row(vec![
        "flood replicas".into(),
        l3.stats.flood_replicas.to_string(),
        l2.stats.flood_replicas.to_string(),
    ]);
    t.row(vec![
        "no-route drops".into(),
        l3.stats.drops_no_route.to_string(),
        l2.stats.drops_no_route.to_string(),
    ]);
    t.row(vec![
        "misdelivered copies".into(),
        l3.stats.misdelivered.to_string(),
        l2.stats.misdelivered.to_string(),
    ]);
    t.row(vec![
        "PAUSE frames".into(),
        l3.stats.pause_frames.to_string(),
        l2.stats.pause_frames.to_string(),
    ]);
    report.table(t);
    report.note(
        "Valley-free routing is deadlock-free only while it is *followed*: one lost \
         forwarding entry plus standard L2 flooding sends lossless traffic down non-up-down \
         paths, builds the forbidden dependency cycle, and freezes the fabric — the \
         SIGCOMM 2016 production incident the paper builds its §2 argument on. Dropping on \
         miss (lossy) is safe; flooding losslessly is not.",
    );
    report
}

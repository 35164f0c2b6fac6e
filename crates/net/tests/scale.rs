//! Fabric-scale smoke tests: the simulator handles real Clos sizes with
//! the lossless invariants intact.

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

fn permutation_sim(k: usize, sample: bool) -> NetSim {
    let built = fat_tree(k, LinkSpec::default());
    let tables = up_down_tables(&built.topo);
    let mut cfg = SimConfig::default();
    if !sample {
        cfg.sample_interval = None;
        cfg.track_per_flow_occupancy = false;
    }
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(tables)
        .build();
    let n = built.hosts.len();
    for i in 0..n {
        sim.add_flow(FlowSpec::infinite(
            i as u32,
            built.hosts[i],
            built.hosts[(i + n / 2) % n],
        ));
    }
    sim
}

#[test]
fn fat_tree4_permutation_is_lossless_and_deadlock_free() {
    let mut sim = permutation_sim(4, true);
    let report = sim.run(SimTime::from_us(500));
    assert!(!report.verdict.is_deadlock());
    assert_eq!(report.stats.drops_overflow, 0);
    assert_eq!(report.stats.drops_no_route, 0);
    // Every flow moves packets.
    for (id, fs) in &report.stats.flows {
        assert!(fs.delivered_packets > 0, "flow {id} starved");
    }
}

/// A saturated cross-pod run of `k`-ary fat-tree for 100 µs: lossless,
/// live, and pinned to `(events, golden::digest)`. These are the dense
/// scheduler regime — delay lanes and wheel-resident pause timers
/// interleaving at every instant — so the pins hold the queue to the
/// exact `(time, seq)` pop order.
fn permutation_pinned(k: usize, events: u64, digest: u64) {
    let mut sim = permutation_sim(k, false);
    let report = sim.run(SimTime::from_us(100));
    assert!(!report.verdict.is_deadlock());
    assert_eq!(report.stats.drops_overflow, 0);
    let delivered: u64 = report
        .stats
        .flows
        .values()
        .map(|f| f.delivered_packets)
        .sum();
    assert!(
        delivered > 10_000,
        "the fabric must move real traffic: {delivered}"
    );
    assert_eq!(report.events, events, "event count");
    assert_eq!(pfcsim_net::golden::digest(&report), digest, "report digest");
}

#[test]
fn fat_tree8_permutation_scales() {
    // 128 hosts, 80 switches, 128 concurrent line-rate flows.
    permutation_pinned(8, 382_469, 0xe6a2_0b32_2d4a_9437);
}

#[test]
fn fat_tree16_permutation_scales() {
    // 1 024 hosts, 320 switches, 1 024 concurrent line-rate flows.
    permutation_pinned(16, 3_065_359, 0x7b47_1122_c3c7_e53a);
}

#[test]
fn fat_tree4_permutation_is_deterministic() {
    let run = || {
        let mut sim = permutation_sim(4, false);
        let r = sim.run(SimTime::from_us(300));
        let delivered: Vec<u64> = r
            .stats
            .flows
            .values()
            .map(|f| f.delivered_packets)
            .collect();
        (r.events, delivered)
    };
    assert_eq!(run(), run());
}

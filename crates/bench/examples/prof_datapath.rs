//! Profiling workloads, in two shapes:
//!
//! * `prof_datapath [ITERS]` — a saturated two-way `line(2)` run to 1 ms,
//!   in a loop (the shape `benchmark/`'s `net.sim.line2_ns_per_event` row
//!   times); prints the total event count.
//! * `prof_datapath fat_tree K US` — one cross-pod fat-tree run: up/down
//!   tables, one infinite flow per host `i → i + n/2`, occupancy sampling
//!   off, `US` simulated µs; prints events, wall ns/event and the report
//!   digest (`pfcsim_net::golden::digest`), so two builds can be compared
//!   for speed at an equal digest.
//! * `prof_datapath square GBPS US` — one Fig. 5 square run: flow 3
//!   behind a `GBPS` ingress limiter, the default configuration (1 µs
//!   occupancy sampling and per-flow occupancy on), `US` simulated µs;
//!   prints the same line, so the per-tick bookkeeping of two builds can
//!   be compared.
use pfcsim_experiments::scenarios::{paper_config, square_scenario};
use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::golden;
use pfcsim_net::sim::{RunReport, SimBuilder};
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{fat_tree, line, LinkSpec};
use pfcsim_topo::routing::up_down_tables;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let num = |i: usize, what: &str| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            panic!("usage: prof_datapath fat_tree K US | square GBPS US (bad {what})")
        })
    };
    if mode == Some("fat_tree") {
        fat_tree_run(num(1, "K") as usize, num(2, "US"));
        return;
    }
    if mode == Some("square") {
        square_run(num(1, "GBPS"), num(2, "US"));
        return;
    }
    let iters: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(400);
    let built = line(2, LinkSpec::default());
    let mut total = 0u64;
    for _ in 0..iters {
        let mut sim = SimBuilder::new(&built.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
        sim.add_flow(FlowSpec::infinite(1, built.hosts[1], built.hosts[0]));
        total += sim.run(SimTime::from_ms(1)).events;
    }
    println!("{total}");
}

fn fat_tree_run(k: usize, us: u64) {
    let built = fat_tree(k, LinkSpec::default());
    let cfg = SimConfig {
        sample_interval: None,
        ..SimConfig::default()
    };
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(up_down_tables(&built.topo))
        .build();
    let n = built.hosts.len();
    for i in 0..n {
        sim.add_flow(FlowSpec::infinite(
            i as u32,
            built.hosts[i],
            built.hosts[(i + n / 2) % n],
        ));
    }
    let t0 = Instant::now();
    let report = sim.run(SimTime::from_us(us));
    print_run(&format!("fat_tree k={k} {us} us"), &report, t0);
}

fn square_run(gbps: u64, us: u64) {
    let sc = square_scenario(paper_config(), true, Some(BitRate::from_gbps(gbps)));
    let mut sim = sc.sim;
    let t0 = Instant::now();
    let report = sim.run(SimTime::from_us(us));
    print_run(&format!("square {gbps} Gbps {us} us"), &report, t0);
}

fn print_run(what: &str, report: &RunReport, t0: Instant) {
    let ns = t0.elapsed().as_nanos() as f64;
    println!(
        "{what}: {} events, {:.1} ns/event, digest {:#018x}",
        report.events,
        ns / report.events as f64,
        golden::digest(report)
    );
}

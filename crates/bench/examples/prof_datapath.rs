//! Profiling workloads, in four shapes, all under a counting allocator:
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
//!   occupancy sampling and per-flow occupancy on, every switch ingress
//!   watched), `US` simulated µs;
//!   prints the same line, so the per-tick bookkeeping of two builds can
//!   be compared.
//! * `prof_datapath footprint K` — the `fat_tree K 100` run's heap, in
//!   exact bytes from a counting allocator: what the up/down tables hold,
//!   what building the simulator over them adds, and the live peak of
//!   the 100 µs saturated run.
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pfcsim_experiments::scenarios::{paper_config, square_scenario};
use pfcsim_net::bdg::RxQueue;
use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::golden;
use pfcsim_net::sim::{NetSim, RunReport, SimBuilder};
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{fat_tree, line, Built, LinkSpec};
use pfcsim_topo::ids::{PortNo, Priority};
use pfcsim_topo::routing::{up_down_tables, ForwardingTables};
use std::time::Instant;

thread_local! {
    /// Live heap bytes of this (the only) thread, and their peak.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn add(bytes: i64) {
    let live = LIVE.with(|n| {
        n.set(n.get() + bytes);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-local
// `Cell`s without destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's obligations are passed through to System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the live bytes it leaves behind.
fn live_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let num = |i: usize, what: &str| -> u64 {
        args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            panic!("usage: prof_datapath fat_tree K US | square GBPS US | footprint K (bad {what})")
        })
    };
    if mode == Some("fat_tree") {
        fat_tree_run(num(1, "K") as usize, num(2, "US"));
        return;
    }
    if mode == Some("footprint") {
        footprint(num(1, "K") as usize);
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
    let mut sim = fat_tree_sim(&built, up_down_tables(&built.topo));
    add_cross_pod_flows(&mut sim, &built);
    let t0 = Instant::now();
    let report = sim.run(SimTime::from_us(us));
    print_run(&format!("fat_tree k={k} {us} us"), &report, t0);
}

fn footprint(k: usize) {
    let built = fat_tree(k, LinkSpec::default());
    let (tables, table_bytes) = live_after(|| up_down_tables(&built.topo));
    let (mut sim, build_bytes) = live_after(|| fat_tree_sim(&built, tables));
    add_cross_pod_flows(&mut sim, &built);
    PEAK.with(|p| p.set(LIVE.with(Cell::get)));
    let t0 = Instant::now();
    let report = sim.run(SimTime::from_us(100));
    let kb = |b: i64| b as f64 / 1024.0;
    println!(
        "footprint k={k}: tables {:.1} KB, build {:.1} KB, run peak {:.1} KB",
        kb(table_bytes),
        kb(build_bytes),
        kb(PEAK.with(Cell::get))
    );
    print_run(&format!("fat_tree k={k} 100 us"), &report, t0);
}

/// A simulator over a fat-tree's `tables`, occupancy sampling off.
fn fat_tree_sim(built: &Built, tables: ForwardingTables) -> NetSim {
    let cfg = SimConfig {
        sample_interval: None,
        ..SimConfig::default()
    };
    SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(tables)
        .build()
}

/// One infinite flow per host `i → i + n/2`.
fn add_cross_pod_flows(sim: &mut NetSim, built: &Built) {
    let n = built.hosts.len();
    for i in 0..n {
        sim.add_flow(FlowSpec::infinite(
            i as u32,
            built.hosts[i],
            built.hosts[(i + n / 2) % n],
        ));
    }
}

fn square_run(gbps: u64, us: u64) {
    let sc = square_scenario(paper_config(), true, Some(BitRate::from_gbps(gbps)));
    let mut sim = sc.sim;
    // A scenario keeps no occupancy series; keep every switch ingress's,
    // as a run built outside the scenarios does.
    let topo = &sc.built.topo;
    let every: Vec<RxQueue> = (sc.built.switches.iter())
        .flat_map(|&node| {
            (0..topo.ports(node).len()).map(move |port| RxQueue {
                node,
                port: PortNo(port as u16),
                priority: Priority::DEFAULT,
            })
        })
        .collect();
    sim.watch_only(every);
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

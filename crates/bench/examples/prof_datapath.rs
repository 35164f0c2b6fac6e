//! Profiling driver: a saturated two-way `line(2)` run to 1 ms, in a loop
//! (the shape `benchmark/`'s `net.sim.line2_ns_per_event` row times).
use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::sim::SimBuilder;
use pfcsim_simcore::time::SimTime;
use pfcsim_topo::builders::{line, LinkSpec};

fn main() {
    let iters: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
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

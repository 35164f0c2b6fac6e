//! Seeded scenarios for `NetSim::run_to_verdict`'s soundness tests:
//! `run_to_verdict(h)` must equal `run(h).verdict`, witness and detection
//! instant included. Shared by `crates/net/tests/run_to_verdict.rs` (the
//! full sweep) and the root `tests/run_to_verdict.rs` (the tier-1 slice).
//!
//! A case is a function of `(seed, backend)`, so building it twice gives
//! two identical simulators: one runs to the horizon, the other to its
//! verdict. It draws a square, ring or leaf-spine fabric; CBR and
//! infinite flows, some stopping early; a loop installed in the tables
//! from the start; and up to three faults: link down, up and flap, route
//! reconvergence with jitter, a `RouteSet` loop installed and later
//! repaired (or not), a switch reboot, and PFC loss or delay.

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn us(&mut self, lo: u64, hi: u64) -> SimTime {
        SimTime::from_us(lo + self.below(hi - lo))
    }
}

/// One seeded scenario, ready to run, with what was drawn.
pub struct Case {
    pub sim: NetSim,
    pub horizon: SimTime,
    pub about: String,
}

/// Both ends of a switch-to-switch link.
fn switch_links(built: &Built) -> Vec<(NodeId, NodeId)> {
    let sw = |n: NodeId| built.switches.contains(&n);
    (built.topo.links().iter())
        .filter(|l| sw(l.a) && sw(l.b))
        .map(|l| (l.a, l.b))
        .collect()
}

/// `a` forwards `dst`-bound traffic to `b` and `b` back to `a`.
fn loop_routes(built: &Built, (a, b): (NodeId, NodeId)) -> [(NodeId, PortNo); 2] {
    let port = |x, y| built.topo.port_towards(x, y).expect("adjacent").port;
    [(a, port(a, b)), (b, port(b, a))]
}

/// The case `seed` draws on `backend`, simulated to at most `max_horizon`.
pub fn build(seed: u64, backend: SchedulerBackend, max_horizon: SimTime) -> Case {
    let mut rng = Rng::new(seed);
    let mut about = format!("seed {seed} {backend:?}:");
    let built = match rng.below(3) {
        0 => square(LinkSpec::default()),
        1 => ring(3 + rng.below(2) as usize, LinkSpec::default()),
        _ => leaf_spine(3, 2, 1, LinkSpec::default()),
    };
    about += &format!(" {} switches", built.switches.len());
    let links = switch_links(&built);
    let hosts = &built.hosts;
    let shortest = shortest_path_tables(&built.topo);

    let mut cfg = SimConfig::default();
    cfg.scheduler = Some(backend);
    cfg.seed = rng.next();
    cfg.sample_interval = None;
    cfg.stop_on_deadlock = rng.below(2) == 0;
    let scan = rng.pick(&[5u64, 20, 50]);
    cfg.deadlock_scan_interval = Some(SimDuration::from_us(scan));
    let mut tables = shortest.clone();
    if rng.below(4) == 0 {
        let (l, dst) = (rng.pick(&links), rng.pick(hosts));
        for (node, port) in loop_routes(&built, l) {
            tables.set(node, dst, vec![port]);
        }
        about += &format!(", loop {l:?} for {dst} from the start");
    }
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(tables)
        .build();

    for id in 0..1 + rng.below(3) as u32 {
        let src = rng.pick(hosts);
        let dst = loop {
            let d = rng.pick(hosts);
            if d != src {
                break d;
            }
        };
        let mut f = if rng.below(3) == 0 {
            FlowSpec::infinite(id, src, dst)
        } else {
            let gbps = rng.pick(&[5u64, 10, 20, 30, 40]);
            FlowSpec::cbr(id, src, dst, BitRate::from_gbps(gbps))
        };
        f = f.with_ttl(rng.pick(&[8u8, 16, 64]));
        if rng.below(3) == 0 {
            f = f.stopping_at(rng.us(50, 1_000));
        }
        about += &format!(", flow {id} {src}→{dst} {:?} ttl {}", f.demand, f.ttl);
        if let Some(stop) = f.stop {
            about += &format!(" stop {stop}");
        }
        sim.add_flow(f);
    }

    let mut plan = FaultPlan::new();
    for _ in 0..rng.below(4) {
        let at = rng.us(0, 1_000);
        let (a, b) = rng.pick(&links);
        let node = rng.pick(&built.switches);
        match rng.below(8) {
            0 => plan = plan.link_down(at, a, b),
            1 => {
                let up = at + SimDuration::from_us(1 + rng.below(500));
                plan = plan.link_down(at, a, b).link_up(up, a, b);
            }
            2 => {
                let down_for = SimDuration::from_us(5 + rng.below(100));
                let period = down_for + SimDuration::from_us(5 + rng.below(200));
                plan = plan.link_flap(at, a, b, down_for, period, 1 + rng.below(3) as u32);
            }
            3 => {
                let jitter = SimDuration::from_us(rng.pick(&[0u64, 50, 200, 1_000]));
                plan = plan.link_down(at, a, b).route_reconverge(
                    at + SimDuration::from_us(10),
                    SimDuration::ZERO,
                    jitter,
                );
            }
            4 => {
                let dst = rng.pick(hosts);
                let repair = (rng.below(3) != 0).then(|| at + SimDuration::from_us(rng.below(600)));
                for (n, port) in loop_routes(&built, (a, b)) {
                    plan = plan.route_set(at, n, dst, vec![port]);
                    if let Some(r) = repair {
                        plan = plan.route_set(r, n, dst, shortest.next_hops(n, dst).to_vec());
                    }
                }
            }
            5 => {
                let downtime = SimDuration::from_us(10 + rng.below(300));
                plan = plan.switch_reboot(at, node, downtime);
            }
            6 => plan = plan.pause_loss(at, node, 0.5),
            _ => plan = plan.pause_delay(at, node, SimDuration::from_us(3)),
        }
    }
    if !plan.is_empty() {
        about += &format!(", faults {:?}", plan.events);
        sim.set_fault_plan(plan).expect("a valid plan");
    }
    let horizon = rng.us(300, max_horizon.as_us().max(301));
    about += &format!(", horizon {horizon}");
    Case {
        sim,
        horizon,
        about,
    }
}

/// Run case `seed` both ways and compare. Returns whether `run_to_verdict`
/// stopped before the horizon.
pub fn check(seed: u64, backend: SchedulerBackend, max_horizon: SimTime) -> bool {
    let full = build(seed, backend, max_horizon);
    let want = {
        let mut sim = full.sim;
        sim.run(full.horizon).verdict
    };
    let Case {
        mut sim,
        horizon,
        about,
    } = build(seed, backend, max_horizon);
    let got = sim.run_to_verdict(horizon);
    assert_eq!(got, want, "{about}");
    sim.now() < horizon
}

/// E14 Table 1's shape: an 8 Gbps TTL-16 flow into the two-switch fabric,
/// a loop installed at 100 µs and repaired `window` later, with looping
/// packets still queued at the repair; the detector scans every `scan`.
/// Returns the simulator, the repair instant and the horizon.
pub fn drain_case(
    backend: SchedulerBackend,
    window: SimDuration,
    scan: SimDuration,
) -> (NetSim, SimTime, SimTime) {
    let built = two_switch_loop(LinkSpec::default());
    let (s, h) = (&built.switches, &built.hosts);
    let port = |x, y| built.topo.port_towards(x, y).expect("adjacent").port;
    let mut cfg = SimConfig::default();
    cfg.scheduler = Some(backend);
    cfg.stop_on_deadlock = false;
    cfg.deadlock_scan_interval = Some(scan);
    let mut sim = SimBuilder::new(&built.topo).config(cfg).build();
    sim.add_flow(FlowSpec::cbr(0, h[0], h[1], BitRate::from_gbps(8)).with_ttl(16));
    let install = SimTime::from_us(100);
    let repair = install + window;
    let plan = FaultPlan::new()
        .route_set(install, s[1], h[1], vec![port(s[1], s[0])])
        .route_set(repair, s[1], h[1], vec![port(s[1], h[1])]);
    sim.set_fault_plan(plan).expect("a valid plan");
    (sim, repair, SimTime::from_ms(20))
}

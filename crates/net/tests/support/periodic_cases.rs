//! Seeded and hand-written scenarios for the fast-forward's soundness
//! tests: `NetSim::run(h)` and `NetSim::run_to_verdict(h)` must equal
//! the reference `advance_until(h, h)`, which simulates every event —
//! report digest, verdict, scan counters and telemetry report alike.
//! Shared by `crates/net/tests/fast_forward.rs` (the full sweep) and the
//! root `tests/fast_forward.rs` (the tier-1 slice).
//!
//! A case is a function of its inputs, so building it three times gives
//! three identical simulators: one runs the reference, one `run`, one
//! `run_to_verdict`. The seeded cases draw routing loops of 2–4 switches
//! with TTL 8, 16 or 32 at rates around Eq. 3's `n·B/TTL` (CBR intervals
//! that divide the 50 µs detector step and ones that do not), the
//! Fig. 3/4 square with and without flow 3, and the square with the
//! engine's other knobs drawn (`variety`), with occupancy sampling and
//! `sampling_only` telemetry each on or off.

#![allow(dead_code)]

use pfcsim_net::golden;
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
}

/// A simulator ready to run, its horizon, and what was drawn.
pub struct Case {
    pub sim: NetSim,
    pub horizon: SimTime,
    pub about: String,
}

/// The paper configuration on `backend`, with the draws every seeded
/// case shares: sampling and telemetry on or off, stop on deadlock or
/// keep going.
fn config(rng: &mut Rng, backend: SchedulerBackend, about: &mut String) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.scheduler = Some(backend);
    cfg.seed = rng.next();
    if rng.below(2) == 0 {
        cfg.sample_interval = None;
    }
    if rng.below(2) == 0 {
        cfg.telemetry = TelemetryConfig::sampling_only();
        cfg.telemetry.sample_interval = SimDuration::from_us(rng.pick(&[1, 5, 50]));
    }
    cfg.stop_on_deadlock = rng.below(2) == 0;
    *about += &format!(
        " sample {:?}, telemetry {}, stop_on_deadlock {}",
        cfg.sample_interval, cfg.telemetry.enabled, cfg.stop_on_deadlock
    );
    cfg
}

/// Case 1's loop: a CBR flow of `rate` and `ttl` into an `n`-switch
/// routing loop.
pub fn routing_loop(cfg: SimConfig, n: usize, ttl: u8, rate: BitRate) -> NetSim {
    let built = if n == 2 {
        two_switch_loop(LinkSpec::default())
    } else {
        ring(n, LinkSpec::default())
    };
    let mut tables = shortest_path_tables(&built.topo);
    install_cycle_route(&built.topo, &mut tables, &built.switches, built.hosts[1]);
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(tables)
        .build();
    sim.add_flow(FlowSpec::cbr(0, built.hosts[0], built.hosts[1], rate).with_ttl(ttl));
    sim
}

/// The Fig. 3 square (flows 1 and 2), plus Fig. 4's flow 3 if asked.
pub fn square_case(cfg: SimConfig, with_flow3: bool) -> NetSim {
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    sim.add_flow(
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
    );
    sim.add_flow(
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    );
    if with_flow3 {
        sim.add_flow(FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]));
    }
    sim
}

/// The square with the engine's other knobs drawn: arbitration, class
/// scheduling, pause mode, ECN (phantom queues too), per-flow
/// occupancy, an ingress shaper, and two or three table-routed flows of
/// any demand — CBR, finite CBR, infinite, Poisson, on-off, DCQCN,
/// TIMELY — on a lossless or a lossy class.
pub fn variety(mut cfg: SimConfig, rng: &mut Rng, about: &mut String) -> NetSim {
    let b = square(LinkSpec::default());
    let h = &b.hosts;
    if rng.below(2) == 0 {
        cfg.arbitration = Arbitration::Fifo;
    }
    if rng.below(2) == 0 {
        cfg.class_scheduling = ClassScheduling::Wrr;
    }
    if rng.below(2) == 0 {
        cfg.pfc.mode = PauseMode::Quanta {
            quanta: rng.pick(&[200u16, 2_000]),
        };
    }
    cfg.track_per_flow_occupancy = rng.below(2) == 0;
    let ecn = rng.below(2) == 0;
    if ecn {
        cfg.ecn = Some(EcnConfig {
            phantom_drain_permille: (rng.below(2) == 0).then_some(950),
            ..EcnConfig::default()
        });
    }
    *about += &format!(
        ", variety {:?} {:?} {:?} ecn {:?} per-flow {}",
        cfg.arbitration,
        cfg.class_scheduling,
        cfg.pfc.mode,
        cfg.ecn.map(|e| e.phantom_drain_permille),
        cfg.track_per_flow_occupancy
    );
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    sim.set_timely(TimelyConfig::for_line_rate(BitRate::from_gbps(40)));
    if ecn {
        sim.set_dcqcn(DcqcnConfig::for_line_rate(BitRate::from_gbps(40)));
    }
    let dst = rng.pick(h);
    for id in 0..2 + rng.below(2) as u32 {
        let src = loop {
            let s = rng.pick(h);
            if s != dst {
                break s;
            }
        };
        let gbps = BitRate::from_mbps(rng.pick(&[3_200u64, 8_000, 16_000, 7_500]));
        let mut f = match rng.below(if ecn { 7 } else { 6 }) {
            0 => FlowSpec::cbr(id, src, dst, gbps),
            1 => FlowSpec {
                demand: Demand::CbrFinite {
                    rate: gbps,
                    total: Bytes::from_kb(400),
                },
                ..FlowSpec::infinite(id, src, dst)
            },
            2 => FlowSpec::infinite(id, src, dst),
            3 => FlowSpec::poisson(id, src, dst, gbps),
            4 => FlowSpec::on_off(
                id,
                src,
                dst,
                gbps,
                SimDuration::from_us(40),
                SimDuration::from_us(60),
            ),
            5 => FlowSpec::timely(id, src, dst),
            _ => FlowSpec {
                demand: Demand::Dcqcn,
                ..FlowSpec::infinite(id, src, dst)
            },
        };
        if rng.below(4) == 0 {
            f = f.with_priority(Priority(1));
        }
        *about += &format!(", flow {id} {src}→{dst} {:?} {:?}", f.demand, f.priority);
        sim.add_flow(f);
    }
    if rng.below(3) == 0 {
        let (sw, host) = (b.switches[1], h[1]);
        let port = b.topo.port_towards(sw, host).expect("host port").port;
        sim.set_ingress_shaper(sw, port, BitRate::from_gbps(10), Bytes::from_kb(2));
        *about += ", shaper";
    }
    sim
}

/// Rates (Gbps) whose 1000-byte CBR interval divides the 50 µs step.
const DIVIDING_GBPS: [f64; 6] = [1.6, 3.2, 4.0, 6.4, 8.0, 16.0];

/// The seeded case `seed` on `backend`, simulated to at most
/// `max_horizon`.
pub fn build(seed: u64, backend: SchedulerBackend, max_horizon: SimTime) -> Case {
    let mut rng = Rng::new(seed);
    let mut about = format!("seed {seed} {backend:?}:");
    let cfg = config(&mut rng, backend, &mut about);
    let family = rng.below(8);
    let sim = if family < 2 {
        let with_flow3 = rng.below(2) == 0;
        about += &format!(", square, flow 3 {with_flow3}");
        square_case(cfg, with_flow3)
    } else if family < 4 {
        variety(cfg, &mut rng, &mut about)
    } else {
        let n = 2 + rng.below(3) as usize;
        let ttl = rng.pick(&[8u8, 16, 32]);
        // Eq. 3: the loop deadlocks above n·B/TTL.
        let threshold = n as f64 * 40.0 / ttl as f64;
        let gbps = if rng.below(2) == 0 {
            rng.pick(&DIVIDING_GBPS)
        } else {
            threshold * rng.pick(&[0.5, 0.8, 0.95, 0.997, 1.03, 1.3])
        };
        about += &format!(", loop n {n} ttl {ttl} at {gbps:.3} Gbps");
        let rate = BitRate::from_mbps((gbps * 1000.0).round() as u64);
        routing_loop(cfg, n, ttl, rate)
    };
    let lo = max_horizon.as_us() / 3;
    let horizon = SimTime::from_us(lo + rng.below(max_horizon.as_us() - lo));
    about += &format!(", horizon {horizon}");
    Case {
        sim,
        horizon,
        about,
    }
}

/// Assert two reports agree on everything a digest, a verdict, the scan
/// counters and the telemetry report can see.
pub fn assert_same(got: &RunReport, want: &RunReport, about: &str) {
    assert_eq!(got.verdict, want.verdict, "{about}");
    assert_eq!(golden::digest(got), golden::digest(want), "{about}");
    assert_eq!(
        (got.deadlock_scans_run, got.deadlock_scans_skipped),
        (want.deadlock_scans_run, want.deadlock_scans_skipped),
        "{about}"
    );
    let telemetry = |r: &RunReport| serde_json::to_string(&r.telemetry).expect("serialize");
    assert_eq!(telemetry(got), telemetry(want), "{about}");
}

/// Run `make()`'s simulator three ways — the reference, `run` and
/// `run_to_verdict` — and compare. Returns `run`'s fast-forward.
pub fn check_with(make: impl Fn() -> NetSim, horizon: SimTime, about: &str) -> Option<FastForward> {
    let want = make()
        .advance_until(horizon, horizon)
        .expect("pausing at the horizon ends the run");
    assert!(
        want.fast_forward.is_none(),
        "{about}: the reference skipped"
    );
    let got = make().run(horizon);
    assert_same(&got, &want, about);
    assert_eq!(make().run_to_verdict(horizon), want.verdict, "{about}");
    got.fast_forward
}

/// Seeded case `seed` on `backend` both ways; returns whether `run`
/// fast-forwarded.
pub fn check(seed: u64, backend: SchedulerBackend, max_horizon: SimTime) -> bool {
    let about = build(seed, backend, max_horizon).about;
    let horizon = build(seed, backend, max_horizon).horizon;
    check_with(|| build(seed, backend, max_horizon).sim, horizon, &about).is_some()
}

/// Fig. 4's deadlock beside an independent CBR flow on a switch of its
/// own, with `stop_on_deadlock` off: the wedge is confirmed early and
/// stays, the CBR flow keeps its period.
pub fn deadlock_beside_cbr(backend: SchedulerBackend) -> NetSim {
    let spec = LinkSpec::default();
    let mut t = square(spec).topo;
    let (s0, side) = (NodeId(0), t.add_switch("side"));
    let (x, y) = (t.add_host("x"), t.add_host("y"));
    t.connect(side, s0, spec.rate, spec.delay);
    t.connect(x, side, spec.rate, spec.delay);
    t.connect(y, side, spec.rate, spec.delay);
    let b = square(spec);
    let (s, h) = (&b.switches, &b.hosts);
    let mut cfg = SimConfig::default();
    cfg.scheduler = Some(backend);
    cfg.stop_on_deadlock = false;
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    sim.add_flow(
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
    );
    sim.add_flow(
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    );
    sim.add_flow(FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]));
    sim.add_flow(FlowSpec::cbr(4, x, y, BitRate::from_gbps(8)));
    sim
}

/// A loop that settles early (n 2, TTL 16, 4 Gbps), with `late` added
/// just before the horizon: a flow stop, a fault or a route update.
pub fn late_change(backend: SchedulerBackend, late: &str, horizon: SimTime) -> NetSim {
    let mut cfg = SimConfig::default();
    cfg.scheduler = Some(backend);
    let at = horizon - SimDuration::from_us(30);
    let built = two_switch_loop(LinkSpec::default());
    let (s, h) = (&built.switches, &built.hosts);
    let mut tables = shortest_path_tables(&built.topo);
    install_cycle_route(&built.topo, &mut tables, s, h[1]);
    let mut sim = SimBuilder::new(&built.topo)
        .config(cfg)
        .tables(tables)
        .build();
    let flow = FlowSpec::cbr(0, h[0], h[1], BitRate::from_gbps(4)).with_ttl(16);
    let port = |x, y| built.topo.port_towards(x, y).expect("adjacent").port;
    match late {
        "stop" => sim.add_flow(flow.stopping_at(at)),
        "fault" => {
            sim.add_flow(flow);
            sim.set_fault_plan(FaultPlan::new().link_down(at, s[0], s[1]))
                .expect("a valid plan");
        }
        _ => {
            sim.add_flow(flow);
            sim.schedule_route_update(at, s[1], h[1], vec![port(s[1], h[1])]);
        }
    }
    sim
}

/// The same loop with `max_events` set to `budget`.
pub fn budgeted_loop(backend: SchedulerBackend, budget: u64) -> NetSim {
    let mut cfg = SimConfig::default();
    cfg.scheduler = Some(backend);
    cfg.max_events = budget;
    routing_loop(cfg, 2, 16, BitRate::from_gbps(4))
}

/// Every hand case on `backend`; returns how many fast-forwarded.
pub fn hand_cases(backend: SchedulerBackend, horizon: SimTime) -> usize {
    let mut skipped = 0;
    let about = format!("{backend:?} deadlock beside a periodic flow");
    let ff = check_with(|| deadlock_beside_cbr(backend), horizon, &about);
    skipped += usize::from(ff.is_some());
    for late in ["stop", "fault", "route"] {
        let about = format!("{backend:?} {late} pending before the horizon");
        let ff = check_with(|| late_change(backend, late, horizon), horizon, &about);
        skipped += usize::from(ff.is_some());
    }
    // A budget that runs out inside a span the run could skip.
    let total = budgeted_loop(backend, 0)
        .advance_until(horizon, horizon)
        .expect("ends")
        .events;
    for budget in [total / 2 + 7, total - 3] {
        let about = format!("{backend:?} max_events {budget} of {total}");
        let ff = check_with(|| budgeted_loop(backend, budget), horizon, &about);
        skipped += usize::from(ff.is_some());
    }
    // Scans off: nothing to step at, so nothing is skipped.
    let scans_off = || {
        let mut cfg = SimConfig::default();
        cfg.scheduler = Some(backend);
        cfg.deadlock_scan_interval = None;
        routing_loop(cfg, 2, 16, BitRate::from_gbps(4))
    };
    let about = format!("{backend:?} scans off");
    assert!(check_with(scans_off, horizon, &about).is_none(), "{about}");
    skipped
}

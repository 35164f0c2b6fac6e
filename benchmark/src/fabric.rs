//! `fabric_saturated` and `fabric_mixed`: one k=8 fat-tree run to its
//! horizon, in this process, through `SimBuilder` and `NetSim::run`.

use std::time::Instant;

use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::golden;
use pfcsim_net::hybrid::HybridConfig;
use pfcsim_net::sim::{NetSim, RunReport, SimBuilder};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{fat_tree, Built, LinkSpec};
use pfcsim_topo::routing::{up_down_tables, ForwardingTables};

use crate::expected::Expected;
use crate::gen;
use crate::host;
use crate::report::{measure_for, RunResult};
use crate::span::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Saturated,
    Mixed,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Saturated => "fabric_saturated",
            Kind::Mixed => "fabric_mixed",
        }
    }
}

/// How a run of the same scenario is executed. The scenario's verdict
/// and statistics must not depend on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub hybrid: Option<bool>,
    pub partitions: usize,
    pub trains: bool,
}

/// A built scenario: fabric, routing, traffic, horizon.
pub struct Fabric {
    pub kind: Kind,
    pub built: Built,
    pub tables: ForwardingTables,
    pub flows: Vec<FlowSpec>,
    pub horizon: SimTime,
}

impl Fabric {
    /// Build the scenario for `seed`. `smoke` shortens the horizon ten
    /// times.
    pub fn new(kind: Kind, seed: u64, smoke: bool) -> Fabric {
        let built = fat_tree(8, LinkSpec::default());
        let tables = up_down_tables(&built.topo);
        let h = &built.hosts;
        let scale = if smoke { 10 } else { 1 };
        let (flows, horizon) = match kind {
            Kind::Saturated => {
                let perm = gen::saturated_permutation(seed);
                let flows = (0..h.len())
                    .map(|i| FlowSpec::infinite(i as u32, h[i], h[perm[i]]))
                    .collect();
                (flows, SimTime::from_us(2_000 / scale))
            }
            Kind::Mixed => {
                let inputs = gen::mixed_inputs(seed);
                let horizon = SimTime::from_us(4_000 / scale);
                let stop = SimTime::from_us(3_600 / scale);
                let mut flows: Vec<FlowSpec> = (0..32)
                    .map(|i| FlowSpec::infinite(i as u32, h[i], h[inputs.hot[i]]))
                    .collect();
                // Edge switch e serves hosts 4e..4e+3; pods 2-7 are edges 8-31.
                for (j, &gbps) in inputs.cbr_gbps.iter().enumerate() {
                    let e = 8 + j;
                    flows.push(
                        FlowSpec::cbr(
                            32 + j as u32,
                            h[4 * e],
                            h[4 * e + 1],
                            BitRate::from_gbps(gbps),
                        )
                        .stopping_at(stop),
                    );
                }
                (flows, horizon)
            }
        };
        Fabric {
            kind,
            built,
            tables,
            flows,
            horizon,
        }
    }

    /// The plan the workload is measured under end to end.
    pub fn base_plan(&self) -> Plan {
        Plan {
            hybrid: match self.kind {
                Kind::Saturated => None,
                Kind::Mixed => Some(true),
            },
            partitions: 1,
            trains: true,
        }
    }

    /// A simulator with the flows registered, ready to run under `plan`.
    pub fn sim(&self, plan: Plan) -> NetSim {
        let cfg = SimConfig {
            sample_interval: None,
            max_events: 0,
            hybrid: plan.hybrid.map(|enabled| HybridConfig {
                enabled,
                ..HybridConfig::default()
            }),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(&self.built.topo)
            .config(cfg)
            .tables(self.tables.clone())
            .build();
        for f in &self.flows {
            sim.add_flow(f.clone());
        }
        sim.set_partitions(plan.partitions);
        if !plan.trains {
            sim.set_trains_enabled(false);
        }
        sim
    }

    /// One untraced run to the horizon: the report and its wall seconds.
    pub fn run(&self, plan: Plan) -> (RunReport, f64) {
        let mut sim = self.sim(plan);
        let t = Instant::now();
        let report = sim.run(self.horizon);
        (report, t.elapsed().as_secs_f64())
    }
}

pub fn delivered_packets(r: &RunReport) -> u64 {
    r.stats.flows.values().map(|f| f.delivered_packets).sum()
}

/// What every execution plan of one scenario must agree on.
pub fn outcome_key(r: &RunReport) -> String {
    format!(
        "verdict={:?};end={};buffered={};events={};stats={}",
        r.verdict,
        r.end_time,
        r.buffered,
        r.events + r.events_elided,
        serde_json::to_string(&r.stats).expect("stats serialize")
    )
}

/// The untraced end-to-end run of a fabric workload.
pub fn end_to_end(
    kind: Kind,
    seed: u64,
    seconds: f64,
    smoke: bool,
    expected: Option<&Expected>,
    started: Instant,
) -> RunResult {
    let mut res = RunResult::new(kind.name(), seed, false);
    let fabric = Fabric::new(kind, seed, smoke);
    let plan = fabric.base_plan();
    let (warm, _) = fabric.run(plan);
    let setup_s = started.elapsed().as_secs_f64();

    // Every repetition must reproduce the pinned digest, or, for a seed
    // without a pin, the warm-up's.
    let warm_digest = golden::digest(&warm);
    let pinned = expected.and_then(|e| e.digest(kind.name(), seed));
    let want = pinned.unwrap_or(warm_digest);
    res.checks
        .op(!warm.verdict.is_deadlock() && warm_digest == want, || {
            format!(
                "warm-up digest {warm_digest:#x}, expected {want:#x}, verdict {:?}",
                warm.verdict
            )
        });
    let delivered = delivered_packets(&warm);
    let (mut wall, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    measure_for(seconds, if smoke { 1 } else { 5 }, |rep| {
        let mut sim = fabric.sim(plan);
        let cpu0 = host::cpu_self();
        let t = Instant::now();
        let report = sim.run(fabric.horizon);
        let w = t.elapsed().as_secs_f64();
        cpu.push(host::cpu_self() - cpu0);
        wall.push(w);
        rate.push(delivered_packets(&report) as f64 / w);
        let got = golden::digest(&report);
        res.checks.op(got == want, || {
            format!("rep {rep} digest {got:#x}, expected {want:#x}")
        });
    });
    res.point("setup_s", setup_s);
    res.samples("wall_s", &wall);
    res.samples("cpu_s", &cpu);
    res.samples("work_per_s", &rate);
    let lat: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    res.samples("lat_p50_ms", &lat);
    res.point("peak_rss_mb", host::peak_rss_self_mb());
    res.notes.push(format!(
        "{} reps of one run() to {} us simulated; {} events, {} delivered packets, {} PAUSE frames per rep; digest {want:#018x}{}",
        wall.len(),
        fabric.horizon.as_us(),
        warm.events,
        delivered,
        warm.stats.pause_frames,
        if pinned.is_some() { " (pinned)" } else { " (self-consistency only)" }
    ));
    res
}

/// Digest of the base-plan report, for `--record`.
pub fn record(kind: Kind, seed: u64) -> u64 {
    let fabric = Fabric::new(kind, seed, false);
    golden::digest(&fabric.run(fabric.base_plan()).0)
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

/// What the traced pass learns from one fabric scenario.
pub struct FabricLayers {
    /// Report of the traced, windowed base-plan run.
    pub report: RunReport,
    pub build_s: Vec<f64>,
    /// Wall of `run()` under the base plan, untraced.
    pub base_wall: Vec<f64>,
    /// Wall of the windowed run with spans, one per repetition.
    pub traced_wall: Vec<f64>,
    pub analyze_s: Vec<f64>,
    pub allocs_per_kevent: f64,
    /// Wall under each alternative plan.
    pub packet_wall: Vec<f64>,
    pub hybrid_wall: Vec<f64>,
    pub p2_wall: Vec<f64>,
    pub trains_off_wall: Vec<f64>,
}

const WINDOW: SimDuration = SimDuration::from_us(100);

/// Allocations and simulated picoseconds of the steady windows.
#[derive(Default)]
struct Steady {
    allocs: u64,
    sim_ps: u64,
}

/// One run in 100 µs `advance_until` windows with a span per window and
/// an `analyze_deadlock` call at every pause point. Returns the report,
/// the build seconds and the run's wall seconds.
fn windowed_run(
    fabric: &Fabric,
    tr: &mut Tracer,
    analyze_s: &mut Vec<f64>,
    steady: &mut Steady,
) -> (RunReport, f64, f64) {
    let (mut sim, build_s) = tr.time("net.sim.build", || fabric.sim(fabric.base_plan()));
    let t = Instant::now();
    let mut at = SimTime::ZERO;
    loop {
        let from = at;
        at = (at + WINDOW).min(fabric.horizon);
        let allocs0 = crate::alloc::count();
        let (done, _) = tr.time("net.sim.advance", || sim.advance_until(at, fabric.horizon));
        // The first quarter of the run fills queues and arenas; count
        // allocations only in the steady windows after it.
        if from.as_ps() >= fabric.horizon.as_ps() / 4 {
            steady.allocs += crate::alloc::count() - allocs0;
            steady.sim_ps += at.as_ps() - from.as_ps();
        }
        if let Some(report) = done {
            return (report, build_s, t.elapsed().as_secs_f64());
        }
        let (witness, s) = tr.time("net.deadlock.analyze", || sim.analyze_deadlock());
        assert!(witness.is_none(), "up/down routing cannot deadlock");
        analyze_s.push(s);
    }
}

/// Run the scenario under every plan, traced and untraced, and check
/// that all of them agree on the outcome.
pub fn layers(
    kind: Kind,
    seed: u64,
    reps: usize,
    p2_reps: usize,
    smoke: bool,
    tr: &mut Tracer,
    res: &mut RunResult,
) -> FabricLayers {
    tr.context(kind.name(), 0);
    let fabric = Fabric::new(kind, seed, smoke);
    let base = fabric.base_plan();
    let mut analyze_s = Vec::new();
    let mut steady = Steady::default();
    let (mut traced_wall, mut build_s) = (Vec::new(), Vec::new());
    let mut report = None;
    for rep in 0..reps {
        tr.context(kind.name(), rep as u32);
        let (r, b, w) = windowed_run(&fabric, tr, &mut analyze_s, &mut steady);
        build_s.push(b);
        traced_wall.push(w);
        report = Some(r);
    }
    let report = report.expect("at least one repetition");
    // `NetSim` shows its event count only in the final report, so the
    // steady windows' events are the run's events times their share of
    // simulated time (the event rate of these workloads is flat).
    let steady_events = report.events as f64 * steady.sim_ps as f64 / fabric.horizon.as_ps() as f64;
    let want = outcome_key(&report);

    // The plans take turns, so that a drift in host speed falls on all
    // of them alike and the ratios between them stay meaningful.
    let other_hybrid = Plan {
        hybrid: Some(kind == Kind::Saturated),
        ..base
    };
    let plans = [
        ("base", base, reps),
        ("other-hybrid", other_hybrid, reps),
        (
            "trains-off",
            Plan {
                trains: false,
                ..base
            },
            reps,
        ),
        (
            "p2",
            Plan {
                partitions: 2,
                ..base
            },
            p2_reps,
        ),
    ];
    let mut walls: [Vec<f64>; 4] = Default::default();
    for rep in 0..reps.max(p2_reps) {
        for (i, (name, plan, count)) in plans.iter().enumerate() {
            if rep < *count {
                let (r, w) = fabric.run(*plan);
                res.checks.op(outcome_key(&r) == want, || {
                    format!(
                        "{} {name} rep {rep}: outcome differs from the windowed base run",
                        kind.name()
                    )
                });
                walls[i].push(w);
            }
        }
    }
    let [base_wall, other_wall, trains_off_wall, p2_wall] = walls;
    let (packet_wall, hybrid_wall) = match kind {
        Kind::Saturated => (base_wall.clone(), other_wall),
        Kind::Mixed => (other_wall, base_wall.clone()),
    };
    FabricLayers {
        report,
        build_s,
        base_wall,
        traced_wall,
        analyze_s,
        allocs_per_kevent: steady.allocs as f64 * 1e3 / steady_events,
        packet_wall,
        hybrid_wall,
        p2_wall,
        trains_off_wall,
    }
}

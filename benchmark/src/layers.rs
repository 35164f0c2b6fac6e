//! The traced pass: spans around every call into a layer's public
//! functions, and the per-layer metrics derived from them. The pass is
//! the same whichever workload is named; the workload selects only
//! which traced/untraced pair `trace.overhead_ratio` reports.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pfcsim_core::bdg::BufferDependencyGraph;
use pfcsim_core::freedom::verify_all_pairs;
use pfcsim_experiments::experiments as ex;
use pfcsim_experiments::scenarios::{paper_config, square_scenario_in};
use pfcsim_experiments::Opts;
use pfcsim_mitigation::buffer_classes::plan_all_pairs;
use pfcsim_mitigation::lash::lash_assign;
use pfcsim_mitigation::routing_restriction::{restriction_cost, up_down_arbitrary};
use pfcsim_mitigation::tiering::{plan_tiered_thresholds, TieringPolicy};
use pfcsim_mitigation::turn_model::xy_routing;
use pfcsim_net::checkpoint::Checkpoint;
use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::serve::{static_cbd, RoutePush, ServeConfig, ServeSession, Session};
use pfcsim_net::sim::{NetSim, SimArenas, SimBuilder};
use pfcsim_simcore::event::{EventId, EventQueue};
use pfcsim_simcore::snap;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_topo::builders::{
    fat_tree, jellyfish, leaf_spine, line, mesh2d, ring, torus2d, LinkSpec,
};
use pfcsim_topo::ids::{FlowId, Priority};
use pfcsim_topo::routing::{shortest_path_tables, trace_path, up_down_tables};

use crate::fabric::{self, delivered_packets, FabricLayers, Kind};
use crate::gen::{self, ChurnOp, Push, Rng};
use crate::paper;
use crate::report::RunResult;
use crate::service;
use crate::span::Tracer;
use crate::stats::{median, tail_percentile};

/// Repetition counts of the traced pass. Scenario sizes are fixed by
/// name; only these may shrink.
pub struct Reps {
    /// Runs of each fabric under each serial plan.
    pub twins: usize,
    /// Runs under `set_partitions(2)`, the slowest plan by far.
    pub p2: usize,
    pub micro: usize,
    /// In-process `what_if` queries of the stage ledger.
    pub what_if: usize,
    /// `what_if` queries of the socket pass.
    pub socket: usize,
    pub smoke: bool,
}

impl Reps {
    pub fn full() -> Reps {
        Reps {
            twins: 2,
            p2: 1,
            micro: 15,
            what_if: 40,
            socket: 150,
            smoke: false,
        }
    }

    pub fn smoke() -> Reps {
        Reps {
            twins: 1,
            p2: 1,
            micro: 3,
            what_if: 10,
            socket: 30,
            smoke: true,
        }
    }
}

fn ratio(num: &[f64], den: &[f64]) -> f64 {
    median(num) / median(den)
}

// ---------------------------------------------------------------------
// simcore
// ---------------------------------------------------------------------

/// ns per event of 10 000 random-deadline schedules, then popped dry.
fn sched_pop_ns() -> f64 {
    let mut rng = Rng::new(7, "simcore.sched_pop");
    let t = Instant::now();
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..10_000u64 {
        q.schedule(SimTime::from_ns(rng.next_u64() % 1_000_000), i);
    }
    let mut sum = 0u64;
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e9 / 10_000.0
}

/// ns per operation of the coalesced pause-timer pattern: 64 channels,
/// each refresh a `reschedule` in place, a pop every fourth step and a
/// cancel every sixteenth.
fn timer_churn_ns() -> f64 {
    const CHANNELS: usize = 64;
    let mut rng = Rng::new(11, "simcore.timer_churn");
    let t = Instant::now();
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut slot: [Option<EventId>; CHANNELS] = [None; CHANNELS];
    let mut sum = 0u64;
    for i in 0..10_000u64 {
        if i % 4 == 0 {
            if let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
        }
        let ch = rng.below(CHANNELS);
        let deadline = q.now() + SimDuration::from_ns(1 + rng.next_u64() % 65_536);
        match slot[ch] {
            Some(id) if q.reschedule(id, deadline) => {}
            _ => slot[ch] = Some(q.schedule(deadline, ch as u64)),
        }
        if i % 16 == 15 {
            if let Some(id) = slot[rng.below(CHANNELS)].take() {
                q.cancel(id);
            }
        }
    }
    while let Some((_, v)) = q.pop() {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e9 / 10_000.0
}

fn simcore(reps: &Reps, res: &mut RunResult) {
    let pops: Vec<f64> = (0..reps.micro * 4).map(|_| sched_pop_ns()).collect();
    let churn: Vec<f64> = (0..reps.micro * 4).map(|_| timer_churn_ns()).collect();
    res.samples("simcore.sched_pop_ns", &pops);
    res.samples("simcore.timer_churn_ns", &churn);
}

// ---------------------------------------------------------------------
// topo, core, mitigation
// ---------------------------------------------------------------------

fn topo_and_core(reps: &Reps, tr: &mut Tracer, res: &mut RunResult) {
    tr.context("layers", 0);
    let (mut build, mut routing, mut verify) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.micro {
        let (built, b) = tr.time("topo.fat_tree", || fat_tree(8, LinkSpec::default()));
        let (tables, r) = tr.time("topo.up_down_tables", || up_down_tables(&built.topo));
        build.push(b * 1e3);
        routing.push(r * 1e3);
        black_box(&tables);
    }
    let built = fat_tree(8, LinkSpec::default());
    let tables = up_down_tables(&built.topo);
    for _ in 0..reps.micro.min(5) {
        let (ok, s) = tr.time("core.verify_all_pairs", || {
            verify_all_pairs(&built.topo, &tables, Priority(3))
        });
        res.checks.op(ok.is_ok(), || {
            "up/down tables on k=8 are not deadlock-free".into()
        });
        verify.push(s * 1e3);
    }
    res.samples("topo.build_ms", &build);
    res.samples("topo.routing_ms", &routing);
    res.samples("core.verify_all_pairs_ms", &verify);

    // The buffer-dependency graph of a cyclic workload: shortest-path
    // all-pairs traffic on a 3x3 torus.
    let torus = torus2d(3, 3, LinkSpec::default());
    let sp = shortest_path_tables(&torus.topo);
    let mut specs = Vec::new();
    for (i, &s) in torus.hosts.iter().enumerate() {
        for (j, &d) in torus.hosts.iter().enumerate() {
            if i != j {
                specs.push(FlowSpec::infinite((i * torus.hosts.len() + j) as u32, s, d));
            }
        }
    }
    let (mut from_specs, mut cycles) = (Vec::new(), Vec::new());
    for _ in 0..reps.micro {
        let (g, s) = tr.time("core.bdg_from_specs", || {
            BufferDependencyGraph::from_specs(&torus.topo, &sp, &specs)
        });
        from_specs.push(s * 1e6);
        let (found, s) = tr.time("core.cbd_cycles", || g.cbd_cycles(16));
        res.checks.op(!found.is_empty(), || {
            "shortest paths on a torus show no CBD cycle".into()
        });
        cycles.push(s * 1e6);
    }
    res.samples("core.bdg_from_specs_us", &from_specs);
    res.samples("core.cbd_cycles_us", &cycles);
}

/// One pass over the planners E7 and E9 call, on their experiment inputs.
fn planners_once() {
    let spec = LinkSpec::default();
    let policy = TieringPolicy {
        downstream_xoff: Bytes::from_kb(20),
        upstream_xoff: Bytes::from_kb(200),
        per_tier_bonus: Bytes::from_kb(120),
        xon_percent: 50,
    };
    black_box(plan_tiered_thresholds(
        &leaf_spine(3, 2, 4, spec).topo,
        &policy,
    ));
    let jf = jellyfish(12, 3, 1, 7, spec);
    let rg = ring(6, spec);
    let to = torus2d(3, 3, spec);
    let mesh = mesh2d(3, 4, spec);
    for b in [&jf, &rg, &to, &mesh] {
        let t = up_down_arbitrary(&b.topo, b.switches[0]);
        black_box(restriction_cost(&b.topo, &t));
    }
    black_box(restriction_cost(&mesh.topo, &xy_routing(&mesh.topo)));
    for b in [
        ring(5, spec),
        ring(8, spec),
        torus2d(3, 3, spec),
        jellyfish(10, 3, 1, 7, spec),
    ] {
        let tables = shortest_path_tables(&b.topo);
        let mut paths = Vec::new();
        let mut id = 0u32;
        for &s in &b.hosts {
            for &d in &b.hosts {
                if s != d {
                    let tr = trace_path(&b.topo, &tables, FlowId(id), s, d, 64);
                    paths.push((FlowId(id), tr.nodes().to_vec()));
                    id += 1;
                }
            }
        }
        let _ = black_box(lash_assign(&b.topo, &paths, 0, 8));
    }
    let ft4 = fat_tree(4, spec);
    let ls = leaf_spine(4, 2, 2, spec);
    let long = line(7, spec);
    let pools = [
        (&ft4, up_down_tables(&ft4.topo)),
        (&ls, up_down_tables(&ls.topo)),
        (&jf, shortest_path_tables(&jf.topo)),
        (&to, shortest_path_tables(&to.topo)),
        (&long, shortest_path_tables(&long.topo)),
    ];
    for (b, tables) in &pools {
        for classes in [8, 2] {
            black_box(plan_all_pairs(
                &b.topo,
                tables,
                classes,
                Bytes::from_mb(12),
                Bytes::from_kb(40),
            ));
        }
    }
}

fn mitigation(reps: &Reps, tr: &mut Tracer, res: &mut RunResult) {
    let ms: Vec<f64> = (0..reps.micro.min(7))
        .map(|_| tr.time("mitigation.planners", planners_once).1 * 1e3)
        .collect();
    res.samples("mitigation.planners_ms", &ms);
}

// ---------------------------------------------------------------------
// net.sim, net.deadlock, net.hybrid, net.partition
// ---------------------------------------------------------------------

/// Saturated two-switch line for 1 ms: the datapath without fabric scale.
fn line2_ns_per_event(reps: &Reps) -> Vec<f64> {
    let built = line(2, LinkSpec::default());
    (0..reps.micro.min(7))
        .map(|_| {
            let mut sim = SimBuilder::new(&built.topo)
                .config(SimConfig::default())
                .build();
            sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
            sim.add_flow(FlowSpec::infinite(1, built.hosts[1], built.hosts[0]));
            let t = Instant::now();
            let r = sim.run(SimTime::from_us(if reps.smoke { 100 } else { 1_000 }));
            t.elapsed().as_secs_f64() * 1e9 / r.events as f64
        })
        .collect()
}

/// `analyze_deadlock` on the wedged Fig. 4 square: advance until the
/// detector has confirmed the deadlock, then time the fixpoint on the
/// frozen state.
fn analyze_wedged_us(reps: &Reps, tr: &mut Tracer, res: &mut RunResult) -> Vec<f64> {
    let mut cfg = paper_config();
    cfg.stop_on_deadlock = false;
    cfg.sample_interval = None;
    let horizon = SimTime::from_ms(20);
    let mut sc = square_scenario_in(cfg, true, None, &mut SimArenas::new());
    let mut at = SimTime::ZERO;
    while sc.sim.deadlock_state().is_none() && at < SimTime::from_ms(10) {
        at += SimDuration::from_us(100);
        if sc.sim.advance_until(at, horizon).is_some() {
            break;
        }
    }
    res.checks.op(sc.sim.deadlock_state().is_some(), || {
        "the Fig. 4 square did not deadlock".into()
    });
    (0..reps.micro * 4)
        .map(|_| {
            let (w, s) = tr.time("net.deadlock.analyze", || sc.sim.analyze_deadlock());
            res.checks.op(w.is_some(), || {
                "analyze_deadlock finds no witness on the wedged square".into()
            });
            s * 1e6
        })
        .collect()
}

fn fabrics(
    seed: u64,
    reps: &Reps,
    tr: &mut Tracer,
    res: &mut RunResult,
) -> (FabricLayers, FabricLayers) {
    let sat = fabric::layers(
        Kind::Saturated,
        seed,
        reps.twins,
        reps.p2,
        reps.smoke,
        tr,
        res,
    );
    let mix = fabric::layers(Kind::Mixed, seed, reps.twins, reps.p2, reps.smoke, tr, res);

    let r = &sat.report;
    let delivered = delivered_packets(r);
    let build_ms: Vec<f64> = sat.build_s.iter().map(|s| s * 1e3).collect();
    res.samples("net.sim.build_ms", &build_ms);
    res.point("net.sim.events", r.events as f64);
    res.point("net.sim.delivered_pkts", delivered as f64);
    res.point("net.sim.events_per_pkt", r.events as f64 / delivered as f64);
    res.point("net.sim.pause_frames", r.stats.pause_frames as f64);
    let ns: Vec<f64> = sat
        .base_wall
        .iter()
        .map(|w| w * 1e9 / r.events as f64)
        .collect();
    let eps: Vec<f64> = sat.base_wall.iter().map(|w| r.events as f64 / w).collect();
    res.samples("net.sim.ns_per_event", &ns);
    res.samples("net.sim.events_per_s", &eps);
    res.samples("net.sim.line2_ns_per_event", &line2_ns_per_event(reps));
    res.point("net.sim.allocs_per_kevent", sat.allocs_per_kevent);
    res.point(
        "net.sim.trains_gain_saturated",
        ratio(&sat.trains_off_wall, &sat.base_wall),
    );
    res.point(
        "net.sim.trains_gain_mixed",
        ratio(&mix.trains_off_wall, &mix.base_wall),
    );

    res.point("net.deadlock.scans_run", r.deadlock_scans_run as f64);
    res.point(
        "net.deadlock.scans_skipped",
        r.deadlock_scans_skipped as f64,
    );
    let analyze: Vec<f64> = sat.analyze_s.iter().map(|s| s * 1e6).collect();
    res.samples("net.deadlock.analyze_us", &analyze);
    let wedged = analyze_wedged_us(reps, tr, res);
    res.samples("net.deadlock.analyze_wedged_us", &wedged);

    let m = &mix.report;
    res.point("net.hybrid.events_elided", m.events_elided as f64);
    res.point("net.hybrid.fluid_flows", m.fluid_flows as f64);
    res.point("net.hybrid.demotions", m.hybrid_demotions as f64);
    res.point("net.hybrid.promotions", m.hybrid_promotions as f64);
    res.point(
        "net.hybrid.speedup_mixed",
        ratio(&mix.packet_wall, &mix.hybrid_wall),
    );
    res.point(
        "net.hybrid.overhead_saturated",
        ratio(&sat.hybrid_wall, &sat.base_wall),
    );
    res.point(
        "net.partition.p2_speedup_saturated",
        ratio(&sat.base_wall, &sat.p2_wall),
    );
    res.point(
        "net.partition.p2_speedup_mixed",
        ratio(&mix.base_wall, &mix.p2_wall),
    );
    res.notes.push(format!(
        "fabric_saturated base {:.3} s, p2 {:.3} s, trains-off {:.3} s, hybrid-on {:.3} s; fabric_mixed hybrid {:.3} s, packet twin {:.3} s, p2 {:.3} s, trains-off {:.3} s (medians of {} runs, p2 of {})",
        median(&sat.base_wall),
        median(&sat.p2_wall),
        median(&sat.trains_off_wall),
        median(&sat.hybrid_wall),
        median(&mix.hybrid_wall),
        median(&mix.packet_wall),
        median(&mix.p2_wall),
        median(&mix.trains_off_wall),
        reps.twins,
        reps.p2
    ));
    (sat, mix)
}

// ---------------------------------------------------------------------
// net.checkpoint, net.serve
// ---------------------------------------------------------------------

fn route_push(session: &Session, push: &Push) -> RoutePush {
    let topo = session.topo();
    let node = topo
        .find(&push.node)
        .expect("pool names a switch of the k=4 fat-tree");
    let dst = topo
        .find(&push.dst)
        .expect("pool names a host of the k=4 fat-tree");
    let peer = topo
        .find(&push.port)
        .expect("pool names a neighbour switch");
    let port = topo
        .port_towards(node, peer)
        .expect("pool names an adjacent switch")
        .port;
    RoutePush {
        node,
        dst,
        ports: vec![port],
    }
}

/// Seconds per stage of every in-process `what_if`, one entry a query.
#[derive(Default)]
struct Ledger {
    what_if: Vec<f64>,
    capture: Vec<f64>,
    encode: Vec<f64>,
    fnv: Vec<f64>,
    decode: Vec<f64>,
    resume: Vec<f64>,
    probe: Vec<f64>,
    cbd: Vec<f64>,
    oracle: Vec<f64>,
    /// `handle_line` of the same query, with and without a span.
    traced_line: Vec<f64>,
    bare_line: Vec<f64>,
    checkpoint_bytes: usize,
    allocs: u64,
}

/// The in-process stage ledger on the `serve_vet` session: each query
/// goes through `handle_line`, through `Session::what_if`, and then
/// through the stages of `what_if` called one by one from outside.
fn what_if_ledger(seed: u64, reps: &Reps, tr: &mut Tracer, res: &mut RunResult) -> Option<Ledger> {
    tr.context("serve_vet", 0);
    let mut serve = ServeSession::new(ServeConfig::default());
    let (_, open_s) = tr.time("net.serve.handle_line", || {
        serve.handle_line(&gen::serve_open_line())
    });
    res.point("net.serve.open_ms", open_s * 1e3);
    let advance = if reps.smoke { 20 } else { 200 };
    serve.handle_line(&format!("{{\"op\":\"advance\",\"to_us\":{advance}}}"));
    let pool = gen::vet_pool(seed);
    let window = SimDuration::from_us(gen::VET_WINDOW_US);
    let mut l = Ledger::default();
    for (i, d) in gen::vet_draws(seed, &pool, reps.what_if)
        .into_iter()
        .enumerate()
    {
        tr.context("serve_vet", i as u32);
        let line = gen::what_if_line(i as u64, "what_if", &pool[d]);
        let (resp, s) = tr.time("net.serve.handle_line", || serve.handle_line(&line).0);
        l.traced_line.push(s);
        let t = Instant::now();
        black_box(serve.handle_line(&line));
        l.bare_line.push(t.elapsed().as_secs_f64());
        let via_line = resp.and_then(|r| service::result_of(&r).ok());

        let session = serve.session_mut()?;
        let push = route_push(session, &pool[d]);
        let pushes = std::slice::from_ref(&push);
        let a0 = crate::alloc::count();
        let (doc, whole) = tr.time("net.serve.what_if", || session.what_if(pushes, window));
        l.allocs += crate::alloc::count() - a0;

        let now = session.now();
        let bound = (now + window).min(session.horizon());
        let (ckpt, capture) = tr.time("net.checkpoint.capture", || session.snapshot());
        let (Ok(doc), Ok(ckpt)) = (doc, ckpt) else {
            res.checks
                .op(false, || format!("what_if {i}: probe or snapshot failed"));
            continue;
        };
        let (bytes, encode) = tr.time("net.checkpoint.encode", || ckpt.to_bytes());
        let (digest, fnv) = tr.time("simcore.fnv1a", || snap::fnv1a(&bytes));
        let (decoded, decode) = tr.time("net.checkpoint.decode", || Checkpoint::from_bytes(&bytes));
        let (sim, resume) = tr.time("net.checkpoint.resume", || NetSim::resume(ckpt));
        let (Ok(_), Ok(mut sim)) = (decoded, sim) else {
            res.checks.op(false, || {
                format!("checkpoint {i} does not decode or resume")
            });
            continue;
        };
        let (deadlock, probe) = tr.time("net.serve.probe_run", || {
            sim.schedule_route_update(now, push.node, push.dst, push.ports.clone());
            match sim.advance_until(bound, session.horizon()) {
                Some(report) => report.verdict.is_deadlock(),
                None => sim.deadlock_state().is_some() || sim.analyze_deadlock().is_some(),
            }
        });
        let mut tables = session.tables().clone();
        tables.set(push.node, push.dst, push.ports.clone());
        let (cbd_doc, cbd) = tr.time("net.serve.static_cbd", || {
            static_cbd(session.topo(), &tables, session.flows(), now)
        });
        let (oracle_doc, oracle) = tr.time("net.serve.oracle", || {
            session.oracle_what_if(pushes, window)
        });

        let same = doc.resident_unchanged
            && doc.state_digest_before == digest
            && doc.verdict.deadlock == deadlock
            && doc.cbd.cbd == cbd_doc.cbd
            && oracle_doc.is_ok_and(|v| v.deadlock == deadlock)
            && via_line.is_some_and(|v| v["verdict"]["deadlock"] == deadlock);
        res.checks.op(same, || {
            format!(
                "what_if {i} ({}): probe, stages, oracle and protocol answers differ",
                pool[d].key()
            )
        });
        l.checkpoint_bytes = bytes.len();
        l.what_if.push(whole);
        l.capture.push(capture);
        l.encode.push(encode);
        l.fnv.push(fnv);
        l.decode.push(decode);
        l.resume.push(resume);
        l.probe.push(probe);
        l.cbd.push(cbd);
        l.oracle.push(oracle);
    }
    (!l.what_if.is_empty()).then_some(l)
}

fn report_ledger(l: &Ledger, res: &mut RunResult) {
    let scaled = |xs: &[f64], k: f64| xs.iter().map(|x| x * k).collect::<Vec<f64>>();
    // What `what_if` does itself: one capture, an encode and a digest
    // before and after the probe, one resume, the probe, one static CBD.
    let unattributed: Vec<f64> = (0..l.what_if.len())
        .map(|i| {
            let staged =
                l.capture[i] + 2.0 * (l.encode[i] + l.fnv[i]) + l.resume[i] + l.probe[i] + l.cbd[i];
            (l.what_if[i] - staged) * 1e3
        })
        .collect();
    res.samples("net.serve.what_if_ms", &scaled(&l.what_if, 1e3));
    res.samples("net.serve.probe_run_ms", &scaled(&l.probe, 1e3));
    res.samples("net.serve.static_cbd_us", &scaled(&l.cbd, 1e6));
    res.samples("net.serve.what_if_unattributed_ms", &unattributed);
    res.samples("net.serve.oracle_ms", &scaled(&l.oracle, 1e3));
    res.point(
        "net.serve.codec_overhead_us",
        (median(&l.bare_line) - median(&l.what_if)) * 1e6,
    );
    res.point(
        "net.serve.allocs_per_what_if",
        l.allocs as f64 / l.what_if.len() as f64,
    );
    res.samples("net.checkpoint.capture_us", &scaled(&l.capture, 1e6));
    res.samples("net.checkpoint.encode_ms", &scaled(&l.encode, 1e3));
    res.point("net.checkpoint.bytes", l.checkpoint_bytes as f64);
    res.samples("net.checkpoint.decode_ms", &scaled(&l.decode, 1e3));
    res.samples("net.checkpoint.resume_us", &scaled(&l.resume, 1e6));
    let mb_per_s: Vec<f64> = l
        .fnv
        .iter()
        .map(|s| l.checkpoint_bytes as f64 / 1e6 / s)
        .collect();
    res.samples("simcore.fnv_mb_per_s", &mb_per_s);
    res.notes.push(format!(
        "what_if {:.3} ms = capture {:.3} + 2 x encode {:.3} + 2 x fnv {:.3} + resume {:.3} + probe {:.3} + static_cbd {:.3} + unattributed {:.3}; oracle {:.3} ms (medians of {} queries, in-process)",
        median(&l.what_if) * 1e3,
        median(&l.capture) * 1e3,
        median(&l.encode) * 1e3,
        median(&l.fnv) * 1e3,
        median(&l.resume) * 1e3,
        median(&l.probe) * 1e3,
        median(&l.cbd) * 1e3,
        median(&unattributed),
        median(&l.oracle) * 1e3,
        l.what_if.len()
    ));
}

/// The same kind of queries over the socket; returns the median round
/// trip in seconds.
fn socket_pass(repro: &Path, seed: u64, reps: &Reps, res: &mut RunResult) -> Option<f64> {
    let mut s = match service::vet_open(repro, seed, reps.smoke) {
        Ok(s) => s,
        Err(e) => {
            res.checks
                .op(false, || format!("serve_vet socket pass: {e}"));
            return None;
        }
    };
    let (mut all, mut clean, mut dead, mut sizes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, draw) in gen::vet_draws(seed, &s.pool, reps.socket)
        .into_iter()
        .enumerate()
    {
        match service::vet_query(&mut s, i as u64, draw) {
            Ok(q) => {
                all.push(q.rtt * 1e3);
                if q.deadlock { &mut dead } else { &mut clean }.push(q.rtt * 1e3);
                sizes.push(q.bytes as f64);
                res.checks.op(true, String::new);
            }
            Err(e) => res.checks.op(false, || e),
        }
    }
    if let Err(e) = s.server.shutdown() {
        res.checks.op(false, || format!("shutdown: {e}"));
    }
    if clean.is_empty() || dead.is_empty() {
        return None;
    }
    let (label, tail) =
        tail_percentile(&all).unwrap_or(("max", all.iter().copied().fold(0.0, f64::max)));
    res.point("net.serve.lat_tail_ms", tail);
    res.notes.push(format!(
        "net.serve.lat_tail_ms is {label} of {} socket round trips",
        all.len()
    ));
    res.samples("net.serve.lat_clean_p50_ms", &clean);
    res.samples("net.serve.lat_deadlock_p50_ms", &dead);
    res.samples("net.serve.resp_bytes_p50", &sizes);
    Some(median(&all) * 1e-3)
}

/// One in-process replay of the `serve_churn` script; with a tracer,
/// every request gets a span and its duration is filed under its class.
fn churn_replay(
    script: &[(ChurnOp, String)],
    mut tr: Option<&mut Tracer>,
    by_op: &mut Vec<(ChurnOp, f64)>,
    res: &mut RunResult,
) -> f64 {
    let mut serve = ServeSession::new(ServeConfig::default());
    serve.handle_line(&gen::serve_open_line());
    let t = Instant::now();
    for (op, line) in script {
        let resp = match tr.as_deref_mut() {
            Some(tr) => {
                let (resp, s) = tr.time("net.serve.handle_line", || serve.handle_line(line).0);
                by_op.push((*op, s));
                resp
            }
            None => serve.handle_line(line).0,
        };
        let ok = resp.is_some_and(|r| service::result_of(&r).is_ok());
        res.checks
            .op(ok, || format!("in-process churn request failed: {line}"));
    }
    t.elapsed().as_secs_f64()
}

/// `serve_churn` in-process, once with a span per request and once
/// bare; returns both walls.
fn churn_in_process(seed: u64, reps: &Reps, tr: &mut Tracer, res: &mut RunResult) -> (f64, f64) {
    let cycles = service::CHURN_CYCLES / if reps.smoke { 4 } else { 1 };
    let script = gen::churn_script(seed, cycles);
    let mut by_op = Vec::with_capacity(script.len());
    tr.context("serve_churn", 0);
    let traced = churn_replay(&script, Some(tr), &mut by_op, res);
    let bare = churn_replay(&script, None, &mut by_op, res);
    let class = |want: ChurnOp, k: f64| -> Vec<f64> {
        by_op
            .iter()
            .filter(|(op, _)| *op == want)
            .map(|(_, s)| s * k)
            .collect()
    };
    res.samples("net.serve.commit_p50_us", &class(ChurnOp::Commit, 1e6));
    res.samples("net.serve.advance_p50_us", &class(ChurnOp::Advance, 1e6));
    res.samples("net.serve.status_p50_ms", &class(ChurnOp::Status, 1e3));
    res.samples("net.serve.cbd_p50_us", &class(ChurnOp::Cbd, 1e6));
    res.samples("net.serve.rebuild_p50_ms", &class(ChurnOp::Rebuild, 1e3));
    (traced, bare)
}

// ---------------------------------------------------------------------
// bench (pfcsim-experiments)
// ---------------------------------------------------------------------

/// Span name, metric name and entry point of one experiment.
type Experiment = (
    &'static str,
    &'static str,
    fn(&Opts) -> pfcsim_experiments::Report,
);

/// Each experiment in-process under a span; returns their summed wall.
fn experiments(reps: &Reps, tr: &mut Tracer, res: &mut RunResult) -> f64 {
    tr.context("paper_repro", 0);
    let opts = Opts {
        quick: reps.smoke,
        dump_dir: None,
    };
    let runs: [Experiment; paper::REPORTS] = [
        ("bench.e01", "bench.e01_s", ex::e1_fig1::run),
        ("bench.e02", "bench.e02_s", ex::e2_fig2::run),
        ("bench.e03", "bench.e03_s", ex::e3_fig3::run),
        ("bench.e04", "bench.e04_s", ex::e4_fig4::run),
        ("bench.e05", "bench.e05_s", ex::e5_fig5::run),
        ("bench.e06", "bench.e06_s", ex::e6_ttl::run),
        ("bench.e07", "bench.e07_s", ex::e7_tiering::run),
        ("bench.e08", "bench.e08_s", ex::e8_dcqcn::run),
        ("bench.e09", "bench.e09_s", ex::e9_baselines::run),
        ("bench.e10", "bench.e10_s", ex::e10_ablations::run),
        ("bench.e11", "bench.e11_s", ex::e11_recovery::run),
        ("bench.e12", "bench.e12_s", ex::e12_fluid::run),
        ("bench.e13", "bench.e13_s", ex::e13_flooding::run),
        ("bench.e14", "bench.e14_s", ex::e14_faults::run),
    ];
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu0 = crate::host::cpu_self();
    let mut total = 0.0;
    for (span, metric, run) in runs {
        let (report, s) = tr.time(span, || run(&opts));
        if metric == "bench.e02_s" {
            let agreement = report
                .tables
                .first()
                .and_then(|t| paper::model_agreement(&t.headers, &t.rows));
            match agreement {
                Some(x) => res.point("bench.model_agreement", x),
                None => res.checks.op(false, || "E2 has no Part A table".into()),
            }
        }
        black_box(report);
        res.point(metric, s);
        total += s;
    }
    let cpu = crate::host::cpu_self() - cpu0;
    res.point("bench.parallel_eff", cpu / (total * threads as f64));
    res.notes.push(format!(
        "E1-E14 in-process: wall {total:.3} s, cpu {cpu:.3} s on {threads} threads"
    ));

    let horizon = SimTime::from_us(200);
    let mut arenas = SimArenas::new();
    let laps: Vec<f64> = (0..reps.micro.max(8))
        .map(|_| {
            tr.time("bench.arena_lap", || {
                let sc = square_scenario_in(paper_config(), true, None, &mut arenas);
                black_box(sc.run_in(horizon, &mut arenas).events)
            })
            .1 * 1e3
        })
        .collect();
    // The first lap fills the arenas; the rest reuse them.
    res.samples("bench.arena_lap_ms", &laps[1..]);
    total
}

// ---------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------

pub fn traced_pass(
    workload: &'static str,
    repro: &Path,
    seed: u64,
    reps: &Reps,
) -> (RunResult, Tracer) {
    let mut res = RunResult::new(workload, seed, true);
    let mut tr = Tracer::new();
    crate::alloc::enable();

    simcore(reps, &mut res);
    topo_and_core(reps, &mut tr, &mut res);
    mitigation(reps, &mut tr, &mut res);
    let (sat, mix) = fabrics(seed, reps, &mut tr, &mut res);
    let ledger = what_if_ledger(seed, reps, &mut tr, &mut res);
    if let Some(l) = &ledger {
        report_ledger(l, &mut res);
    }
    let socket_p50 = socket_pass(repro, seed, reps, &mut res);
    if let (Some(l), Some(socket)) = (&ledger, socket_p50) {
        let in_process = median(&l.bare_line);
        res.point("net.serve.transport_us", (socket - in_process) * 1e6);
        res.notes.push(format!(
            "what_if p50: socket {:.3} ms, in-process handle_line {:.3} ms",
            socket * 1e3,
            in_process * 1e3
        ));
    }
    let (churn_traced, churn_bare) = churn_in_process(seed, reps, &mut tr, &mut res);
    let in_process_s = experiments(reps, &mut tr, &mut res);

    let overhead = match workload {
        "fabric_saturated" => Some(ratio(&sat.traced_wall, &sat.base_wall)),
        "fabric_mixed" => Some(ratio(&mix.traced_wall, &mix.base_wall)),
        // The experiments under spans in this process, against the
        // child process a reader runs.
        "paper_repro" => match paper::run_all(repro, reps.smoke, "t") {
            Ok(run) => Some(in_process_s / run.wall_s),
            Err(e) => {
                res.checks.op(false, || format!("repro all: {e}"));
                None
            }
        },
        "serve_vet" => ledger.as_ref().map(|l| ratio(&l.traced_line, &l.bare_line)),
        "serve_churn" => Some(churn_traced / churn_bare),
        other => unreachable!("{other} is not a workload"),
    };
    if let Some(x) = overhead {
        res.point("trace.overhead_ratio", x);
    }
    for (name, s, n) in tr.self_time_by_name().into_iter().take(12) {
        res.notes
            .push(format!("self time {name}: {s:.3} s over {n} spans"));
    }
    (res, tr)
}

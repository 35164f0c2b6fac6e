//! Engine micro-benchmarks, shared between `cargo bench` and `repro
//! bench`.
//!
//! The bodies live here (not in `benches/engine.rs`) so the `repro`
//! binary can run the same workloads and write a machine-readable
//! baseline (`BENCH_engine.json`) without a second copy of the
//! scenarios. One number per layer:
//!
//! * `event_queue/{wheel,heap}_schedule_pop_10k` — the scheduler alone,
//!   once per backend;
//! * `event_queue/{wheel,heap}_pause_timer_churn_10k` — per-channel
//!   short-deadline timers refreshed in place (`reschedule`), with
//!   occasional fires and cancels: the coalesced PFC pause-timer access
//!   pattern of the datapath;
//! * `datapath/line2_saturated_1ms` — full per-packet pipeline on the
//!   smallest topology that exercises PFC;
//! * `telemetry/line2_off_1ms` — the same line with telemetry explicitly
//!   disabled: the instrumentation-off overhead guard (must stay within
//!   ≤2% of the datapath number);
//! * `fabric/fat_tree4_permutation_200us` — routing + arbitration on a
//!   16-host fat-tree;
//! * `fabric/fat_tree8_torlocal_100us` — the same on a 128-host k=8
//!   fat-tree under rack-local rotation traffic;
//! * `hybrid/fat_tree8_steady_1ms{,_fullpkt}` — the hybrid fluid/packet
//!   backend on its intended steady-state workload (one intra-rack CBR
//!   flow per k=8 edge switch) and its full-packet twin; both rows use
//!   the same simulated-event total, so their events/sec ratio is the
//!   hybrid speedup;
//! * `detector/deadlock_scan_fat_tree4_incast_200us` — the deadlock
//!   analyzer under heavy pause churn (100 ns scan cadence, no true
//!   deadlock);
//! * `sweep/square_arena_reuse_8` — eight Fig. 4 runs leasing one
//!   `SimArenas`, the steady-state cost of a sweep iteration;
//! * `serve/what_if_fat_tree4_window100us` — resident-session what-if
//!   query latency (checkpoint → probe resume → 100 µs bounded run) on
//!   the golden fat-tree, in queries/sec;
//! * `serve/route_update_fat_tree4` — in-place route-update commit rate
//!   on the same resident session, in updates/sec.

use criterion::{black_box, take_results, BenchResult, Criterion, Throughput};

use pfcsim_net::config::SimConfig;
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::sim::{SimArenas, SimBuilder};
use pfcsim_net::telemetry::TelemetryConfig;
use pfcsim_simcore::event::{Backend, EventId, EventQueue};
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_topo::builders::{fat_tree, line, Built, LinkSpec};

fn event_queue_bench(c: &mut Criterion, samples: usize) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(10_000));
    g.sample_size(samples);
    for backend in [Backend::Wheel, Backend::Heap] {
        g.bench_function(&format!("{}_schedule_pop_10k", backend.name()), |b| {
            b.iter(|| {
                let mut q = EventQueue::with_backend(backend);
                let mut rng = SimRng::new(7);
                for i in 0..10_000u64 {
                    q.schedule(SimTime::from_ns(rng.gen_range(1_000_000)), i);
                }
                let mut sum = 0u64;
                while let Some((_, v)) = q.pop() {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum)
            })
        });
        // The coalesced PFC pause-timer pattern: each channel keeps at
        // most one pending expiry, and every pause refresh *reschedules*
        // it in place (a possibly-dead handle replaced by a fresh
        // schedule); timers occasionally fire (pop) or are cancelled on
        // RESUME. Short deadlines, high refresh ratio.
        g.bench_function(&format!("{}_pause_timer_churn_10k", backend.name()), |b| {
            b.iter(|| {
                const CHANNELS: usize = 64;
                let mut q = EventQueue::with_backend(backend);
                let mut rng = SimRng::new(11);
                let mut slot: [Option<EventId>; CHANNELS] = [None; CHANNELS];
                let mut sum = 0u64;
                for i in 0..10_000u64 {
                    if i % 4 == 0 {
                        if let Some((_, v)) = q.pop() {
                            sum = sum.wrapping_add(v);
                        }
                    }
                    let ch = rng.gen_range(CHANNELS as u64) as usize;
                    let deadline = q.now() + SimDuration::from_ns(1 + rng.gen_range(65_536));
                    match slot[ch] {
                        Some(id) if q.reschedule(id, deadline) => {}
                        _ => slot[ch] = Some(q.schedule(deadline, ch as u64)),
                    }
                    if i % 16 == 15 {
                        // RESUME arrived first: cancel the channel's timer.
                        let ch = rng.gen_range(CHANNELS as u64) as usize;
                        if let Some(id) = slot[ch].take() {
                            q.cancel(id);
                        }
                    }
                }
                while let Some((_, v)) = q.pop() {
                    sum = sum.wrapping_add(v);
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

fn line_forwarding_bench(c: &mut Criterion, samples: usize) {
    // A saturated 2-switch line: pure datapath throughput (events/sec).
    let built = line(2, LinkSpec::default());
    let mut g = c.benchmark_group("datapath");
    g.sample_size(samples);
    // Pre-measure the event count once so the group can report events/sec.
    let events = {
        let mut sim = SimBuilder::new(&built.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
        sim.add_flow(FlowSpec::infinite(1, built.hosts[1], built.hosts[0]));
        sim.run(SimTime::from_ms(1)).events
    };
    g.throughput(Throughput::Elements(events));
    g.bench_function("line2_saturated_1ms", |b| {
        b.iter(|| {
            let mut sim = SimBuilder::new(&built.topo)
                .config(SimConfig::default())
                .build();
            sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
            sim.add_flow(FlowSpec::infinite(1, built.hosts[1], built.hosts[0]));
            let r = sim.run(SimTime::from_ms(1));
            black_box(r.events)
        })
    });
    g.finish();
}

fn telemetry_off_bench(c: &mut Criterion, samples: usize) {
    // The same saturated line as `datapath/line2_saturated_1ms`, built
    // through the builder with telemetry explicitly disabled. The layer's
    // whole hot-path cost when off is one null-check per traced event, so
    // this workload must stay within noise (≤2%) of the plain datapath
    // number — the instrumentation-off overhead guard.
    let built = line(2, LinkSpec::default());
    let run_once = || {
        let mut sim = SimBuilder::new(&built.topo)
            .config(SimConfig::default())
            .telemetry(TelemetryConfig::default()) // enabled: false
            .build();
        sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
        sim.add_flow(FlowSpec::infinite(1, built.hosts[1], built.hosts[0]));
        sim.run(SimTime::from_ms(1)).events
    };
    let events = run_once();
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(samples);
    g.throughput(Throughput::Elements(events));
    g.bench_function("line2_off_1ms", |b| b.iter(|| black_box(run_once())));
    g.finish();
}

fn fat_tree_bench(c: &mut Criterion, samples: usize) {
    // Saturating flows `i -> dst(i)` over up/down routing on a k-ary
    // fat-tree; returns the event count.
    let run_once = |built: &Built, dst: fn(usize, usize) -> usize, horizon: SimTime| {
        let tables = pfcsim_topo::routing::up_down_tables(&built.topo);
        let mut cfg = SimConfig::default();
        cfg.sample_interval = None; // measure datapath, not sampling
        let mut sim = SimBuilder::new(&built.topo)
            .config(cfg)
            .tables(tables)
            .build();
        let n = built.hosts.len();
        for i in 0..n {
            sim.add_flow(FlowSpec::infinite(
                i as u32,
                built.hosts[i],
                built.hosts[dst(i, n)],
            ));
        }
        let r = sim.run(horizon);
        assert!(!r.verdict.is_deadlock());
        r.events
    };
    let rows: [(&str, usize, fn(usize, usize) -> usize, SimTime); 2] = [
        // 16 hosts, every flow crosses the core.
        (
            "fat_tree4_permutation_200us",
            4,
            |i, n| (i + n / 2) % n,
            SimTime::from_us(200),
        ),
        // 128 hosts, 80 switches, each host sending to the next host on
        // its own edge switch (rotation within the 4-host group).
        (
            "fat_tree8_torlocal_100us",
            8,
            |i, _| (i & !3) + (i + 1) % 4,
            SimTime::from_us(100),
        ),
    ];
    let mut g = c.benchmark_group("fabric");
    g.sample_size(samples);
    for (name, k, dst, horizon) in rows {
        let built = fat_tree(k, LinkSpec::default());
        g.throughput(Throughput::Elements(run_once(&built, dst, horizon)));
        g.bench_function(name, |b| {
            b.iter(|| black_box(run_once(&built, dst, horizon)))
        });
    }
    g.finish();
}

fn hybrid_fabric_bench(c: &mut Criterion, samples: usize) {
    // The hybrid fluid/packet backend on its intended workload: a k=8
    // fat-tree carrying one bounded intra-rack CBR flow per edge switch
    // (32 flows, each the sole user of its rack), so the classifier's
    // switch-exclusivity test admits every flow and the whole run is
    // closed-form except start/stop edges. The full-packet twin runs the
    // identical scenario with the backend disabled. Both rows report
    // *simulated* events/sec against the same event total (the drained
    // runs satisfy `events + events_elided == full.events`), so the pair
    // is directly comparable: the hybrid speedup is the ratio.
    let built = fat_tree(8, LinkSpec::default());
    let run_once = |hybrid: bool| {
        let tables = pfcsim_topo::routing::up_down_tables(&built.topo);
        let mut cfg = SimConfig::default();
        cfg.sample_interval = None; // occupancy sampling gates hybrid
        cfg.hybrid = Some(pfcsim_net::hybrid::HybridConfig {
            enabled: hybrid,
            ..Default::default()
        });
        let mut sim = SimBuilder::new(&built.topo)
            .config(cfg)
            .tables(tables)
            .build();
        let n = built.hosts.len();
        for e in 0..n / 4 {
            // Hosts 4e..4e+3 share edge switch e; pair the first two.
            sim.add_flow(
                FlowSpec::cbr(
                    e as u32,
                    built.hosts[4 * e],
                    built.hosts[4 * e + 1],
                    pfcsim_simcore::units::BitRate::from_gbps(10 + (e % 16) as u64),
                )
                .stopping_at(SimTime::from_us(900)),
            );
        }
        let r = sim.run(SimTime::from_ms(1));
        assert!(!r.verdict.is_deadlock());
        assert!(r.quiesced, "steady-state run must drain by the horizon");
        r
    };
    let full = run_once(false);
    let hyb = run_once(true);
    assert_eq!(
        hyb.fluid_flows,
        (built.hosts.len() / 4) as u64,
        "every intra-rack pair must classify fluid"
    );
    assert_eq!(
        hyb.events + hyb.events_elided,
        full.events,
        "a drained hybrid run accounts for every elided event"
    );
    let mut g = c.benchmark_group("hybrid");
    g.sample_size(samples);
    // Same element count for both rows: simulated events, not popped
    // events — the hybrid row's wall clock shrinks, not its work done.
    g.throughput(Throughput::Elements(full.events));
    g.bench_function("fat_tree8_steady_1ms", |b| {
        b.iter(|| black_box(run_once(true).events))
    });
    g.bench_function("fat_tree8_steady_1ms_fullpkt", |b| {
        b.iter(|| black_box(run_once(false).events))
    });
    g.finish();
}

fn deadlock_scan_bench(c: &mut Criterion, samples: usize) {
    // The detector's worst realistic case: a 15-to-1 incast on an
    // up/down-routed fat-tree keeps many switch-to-switch channels paused
    // (heavy churn, deep queues) while staying provably deadlock-free, and
    // a 100 ns scan cadence makes the analyzer the first-order cost.
    let built = fat_tree(4, LinkSpec::default());
    let run_once = || {
        let tables = pfcsim_topo::routing::up_down_tables(&built.topo);
        let mut cfg = SimConfig::default();
        cfg.sample_interval = None; // measure the detector, not sampling
        cfg.deadlock_scan_interval = Some(SimDuration::from_ns(100));
        let mut sim = SimBuilder::new(&built.topo)
            .config(cfg)
            .tables(tables)
            .build();
        let n = built.hosts.len();
        for i in 1..n {
            sim.add_flow(FlowSpec::infinite(i as u32, built.hosts[i], built.hosts[0]));
        }
        let r = sim.run(SimTime::from_us(200));
        assert!(!r.verdict.is_deadlock(), "up/down routing is deadlock-free");
        r.events
    };
    let events = run_once();
    let mut g = c.benchmark_group("detector");
    g.sample_size(samples);
    g.throughput(Throughput::Elements(events));
    g.bench_function("deadlock_scan_fat_tree4_incast_200us", |b| {
        b.iter(|| black_box(run_once()))
    });
    g.finish();
}

fn arena_reuse_bench(c: &mut Criterion, samples: usize) {
    // A miniature sweep: the same Fig. 4 scenario built and run 8 times
    // against one leased `SimArenas`. After the first lap every lap
    // should reuse capacity instead of allocating, which is the state
    // `sweep::parallel_map_with` workers live in.
    const RUNS: u64 = 8;
    let horizon = SimTime::from_us(200);
    let lap = |arenas: &mut SimArenas| {
        let sc = crate::scenarios::square_scenario_in(
            crate::scenarios::paper_config(),
            true,
            None,
            arenas,
        );
        sc.run_in(horizon, arenas).events
    };
    let events = lap(&mut SimArenas::new()) * RUNS;
    let mut g = c.benchmark_group("sweep");
    g.sample_size(samples);
    g.throughput(Throughput::Elements(events));
    g.bench_function("square_arena_reuse_8", |b| {
        b.iter(|| {
            let mut arenas = SimArenas::new();
            let mut total = 0u64;
            for _ in 0..RUNS {
                total = total.wrapping_add(lap(&mut arenas));
            }
            black_box(total)
        })
    });
    g.finish();
}

fn serve_bench(c: &mut Criterion, samples: usize) {
    use pfcsim_net::serve::{RoutePush, Session, SessionSpec, Update};

    // A resident sentinel on the golden fat-tree: a neighbour
    // permutation at 5 Gbps per host, advanced 50 µs so queues carry
    // realistic state, answering a controller's pre-commit traffic.
    let built = fat_tree(4, LinkSpec::default());
    let open_session = || {
        let n = built.hosts.len();
        let flows = (0..n)
            .map(|i| {
                FlowSpec::cbr(
                    i as u32,
                    built.hosts[i],
                    built.hosts[(i + 1) % n],
                    pfcsim_simcore::units::BitRate::from_gbps(5),
                )
            })
            .collect();
        let mut spec = SessionSpec::new(built.topo.clone(), flows);
        spec.horizon = SimTime::from_us(1_000_000);
        let mut session = Session::open(spec).expect("serve bench session");
        session
            .apply(Update::AdvanceTo(SimTime::from_us(50)))
            .expect("warm-up advance");
        session
    };
    let push_for = |session: &Session| {
        let node = *built.switches.last().expect("fat-tree has switches");
        let dst = built.hosts[0];
        let ports = session.tables().next_hops(node, dst).to_vec();
        assert!(!ports.is_empty(), "core switch routes host 0");
        RoutePush { node, dst, ports }
    };

    const QUERIES: u64 = 8;
    let mut g = c.benchmark_group("serve");
    g.sample_size(samples);
    g.throughput(Throughput::Elements(QUERIES));
    g.bench_function("what_if_fat_tree4_window100us", |b| {
        let mut session = open_session();
        let push = push_for(&session);
        let window = SimDuration::from_us(100);
        b.iter(|| {
            for _ in 0..QUERIES {
                let doc = session
                    .what_if(std::slice::from_ref(&push), window)
                    .expect("what_if");
                assert!(doc.resident_unchanged);
                black_box(doc);
            }
        })
    });
    g.finish();

    const UPDATES: u64 = 64;
    let mut g = c.benchmark_group("serve");
    g.sample_size(samples);
    g.throughput(Throughput::Elements(UPDATES));
    g.bench_function("route_update_fat_tree4", |b| {
        let mut session = open_session();
        let push = push_for(&session);
        b.iter(|| {
            for _ in 0..UPDATES {
                black_box(
                    session
                        .apply(Update::RouteUpdate(push.clone()))
                        .expect("commit"),
                );
            }
        })
    });
    g.finish();
}

/// `cargo bench` entry point: scheduler micro-benchmarks (both backends).
pub fn bench_event_queue(c: &mut Criterion) {
    event_queue_bench(c, 3);
}

/// `cargo bench` entry point: line datapath.
pub fn bench_line_forwarding(c: &mut Criterion) {
    line_forwarding_bench(c, 10);
}

/// `cargo bench` entry point: instrumentation-off overhead guard.
pub fn bench_telemetry_off(c: &mut Criterion) {
    telemetry_off_bench(c, 10);
}

/// `cargo bench` entry point: fat-tree fabric.
pub fn bench_fat_tree_all_to_all(c: &mut Criterion) {
    fat_tree_bench(c, 10);
}

/// `cargo bench` entry point: hybrid fluid/packet backend vs its
/// full-packet twin.
pub fn bench_hybrid_fabric(c: &mut Criterion) {
    hybrid_fabric_bench(c, 10);
}

/// `cargo bench` entry point: deadlock detector under pause churn.
pub fn bench_deadlock_scan(c: &mut Criterion) {
    deadlock_scan_bench(c, 10);
}

/// `cargo bench` entry point: arena-reuse sweep lap.
pub fn bench_arena_reuse(c: &mut Criterion) {
    arena_reuse_bench(c, 10);
}

/// `cargo bench` entry point: resident serve-session latency.
pub fn bench_serve(c: &mut Criterion) {
    serve_bench(c, 10);
}

/// Run all engine benchmarks and return the recorded measurements
/// (drains the criterion stub's registry first, so only this run's
/// numbers are returned).
pub fn run_engine_benches(quick: bool) -> Vec<BenchResult> {
    let _ = take_results();
    // Median-of-N with an untimed warm-up (see the criterion stub): odd
    // sample counts make the median a single real measurement, and even
    // the quick tier takes enough samples for a defensible stddev.
    let (s_small, s_big) = if quick { (3, 5) } else { (7, 15) };
    let mut c = Criterion::default();
    event_queue_bench(&mut c, s_big);
    line_forwarding_bench(&mut c, s_small.max(3));
    telemetry_off_bench(&mut c, s_small.max(3));
    fat_tree_bench(&mut c, s_small);
    hybrid_fabric_bench(&mut c, s_small);
    deadlock_scan_bench(&mut c, s_small);
    arena_reuse_bench(&mut c, s_small);
    serve_bench(&mut c, s_small);
    take_results()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_benches_record_all_workloads() {
        let results = run_engine_benches(true);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "event_queue/wheel_schedule_pop_10k",
                "event_queue/wheel_pause_timer_churn_10k",
                "event_queue/heap_schedule_pop_10k",
                "event_queue/heap_pause_timer_churn_10k",
                "datapath/line2_saturated_1ms",
                "telemetry/line2_off_1ms",
                "fabric/fat_tree4_permutation_200us",
                "fabric/fat_tree8_torlocal_100us",
                "hybrid/fat_tree8_steady_1ms",
                "hybrid/fat_tree8_steady_1ms_fullpkt",
                "detector/deadlock_scan_fat_tree4_incast_200us",
                "sweep/square_arena_reuse_8",
                "serve/what_if_fat_tree4_window100us",
                "serve/route_update_fat_tree4"
            ]
        );
        for r in &results {
            assert!(r.mean_seconds > 0.0, "{} measured nothing", r.name);
            assert!(
                r.elements_per_sec().unwrap_or(0.0) > 0.0,
                "{} has no throughput",
                r.name
            );
        }
    }
}

//! End-to-end telemetry tests: the JSONL trace sink round-trips through
//! its parser against the in-memory sink, filters really narrow the
//! stream, disabled telemetry leaves the report empty, and every pause
//! ratio sample is what the final pause logs say it should be.

use pfcsim_net::prelude::*;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{line, square, LinkSpec};
use pfcsim_topo::graph::Topology;
use pfcsim_topo::ids::{FlowId, NodeId};

/// Run a 3-switch line with two flows under the given telemetry config.
fn run_line(telemetry: TelemetryConfig) -> RunReport {
    let built = line(3, LinkSpec::default());
    let mut cfg = SimConfig::default();
    cfg.telemetry = telemetry;
    let mut sim = SimBuilder::new(&built.topo).config(cfg).build();
    sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[2]));
    sim.add_flow(FlowSpec::infinite(1, built.hosts[1], built.hosts[0]));
    sim.run(SimTime::from_us(200))
}

#[test]
fn jsonl_sink_round_trips_against_memory_sink() {
    // Identical simulations; only the sink differs. The JSONL stream,
    // parsed back from disk, must equal the in-memory capture.
    let mem = run_line(TelemetryConfig::on());
    let mem_t = mem.telemetry.expect("telemetry on");
    assert!(
        mem_t.trace_recorded > 0,
        "scenario produced no trace events"
    );
    assert_eq!(mem_t.trace.len() as u64, mem_t.trace_recorded);

    let path = format!("{}/trace_roundtrip.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let mut telem = TelemetryConfig::on();
    telem.sink = TraceSinkKind::Jsonl { path: path.clone() };
    let jsonl = run_line(telem);
    let jsonl_t = jsonl.telemetry.expect("telemetry on");
    assert_eq!(jsonl_t.trace_recorded, mem_t.trace_recorded);
    assert!(
        jsonl_t.trace.is_empty(),
        "file sink retains nothing in-memory"
    );

    let text = std::fs::read_to_string(&path).expect("trace file written");
    assert!(text.starts_with("{\"schema\":\"pfcsim-trace/1\"}"));
    let parsed = parse_jsonl_trace(&text).expect("stream parses");
    assert_eq!(parsed, mem_t.trace);
}

#[test]
fn flow_filter_narrows_the_stream() {
    let all = run_line(TelemetryConfig::on());
    let all_t = all.telemetry.expect("telemetry on");

    let mut telem = TelemetryConfig::on();
    telem.filter = TraceFilter::flows([FlowId(1)]);
    let one = run_line(telem);
    let one_t = one.telemetry.expect("telemetry on");

    assert!(one_t.trace_recorded > 0);
    assert!(one_t.trace_recorded < all_t.trace_recorded);
    // Every retained event belongs to flow 1: its injections say so.
    for ev in &one_t.trace {
        if let TraceEvent::Injected { flow, .. } = ev {
            assert_eq!(*flow, FlowId(1));
        }
    }

    // A mask admitting no 802.1p class records nothing.
    let mut telem = TelemetryConfig::on();
    telem.filter.priority_mask = 0;
    let none = run_line(telem);
    assert_eq!(none.telemetry.expect("telemetry on").trace_recorded, 0);
}

#[test]
fn null_sink_counts_but_retains_nothing() {
    let r = run_line(TelemetryConfig::sampling_only());
    let t = r.telemetry.expect("telemetry on");
    assert!(t.trace_recorded > 0);
    assert!(t.trace.is_empty());
    // Probes still sampled.
    assert!(t.samples_taken > 0);
    assert!(t.mean_goodput_bps(FlowId(0)).unwrap() > 0.0);
}

#[test]
fn disabled_telemetry_reports_nothing() {
    let r = run_line(TelemetryConfig::default());
    assert!(r.telemetry.is_none());
}

/// Telemetry on, into rings that hold every sample of a run to
/// `horizon`.
fn sampling_to(horizon: SimTime) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.telemetry = TelemetryConfig::sampling_only();
    cfg.telemetry.ring_capacity = (horizon - SimTime::ZERO).as_us() as usize + 1;
    cfg
}

/// The Fig. 3 square: flows 1 and 2, no flow 3.
fn fig3(horizon: SimTime) -> NetSim {
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let mut sim = SimBuilder::new(&b.topo)
        .config(sampling_to(horizon))
        .build();
    sim.add_flow(
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
    );
    sim.add_flow(
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    );
    sim
}

/// A 2:1 incast of two 30 Gbps flows that stop at 400 µs, pausing the
/// senders' uplinks, beside a 10 Gbps flow that keeps going: the run
/// then settles into a periodic steady state.
fn burst_then_steady(horizon: SimTime) -> NetSim {
    let spec = LinkSpec::default();
    let mut t = Topology::new();
    let (s0, s1) = (t.add_switch("s0"), t.add_switch("s1"));
    t.connect(s0, s1, spec.rate, spec.delay);
    let sink = t.add_host("sink");
    t.connect(sink, s1, spec.rate, spec.delay);
    let hosts: Vec<NodeId> = (0..3)
        .map(|i| {
            let h = t.add_host(format!("h{i}"));
            t.connect(h, s0, spec.rate, spec.delay);
            h
        })
        .collect();
    let mut sim = SimBuilder::new(&t).config(sampling_to(horizon)).build();
    for (i, &h) in hosts[..2].iter().enumerate() {
        let burst = FlowSpec::cbr(i as u32, h, sink, BitRate::from_gbps(30));
        sim.add_flow(burst.stopping_at(SimTime::from_us(400)));
    }
    sim.add_flow(FlowSpec::cbr(2, hosts[2], sink, BitRate::from_gbps(10)));
    sim
}

/// Time `log` spent paused up to `t`.
fn paused_by(log: &PauseLog, t: SimTime) -> SimDuration {
    let mut total = SimDuration::ZERO;
    for &(start, end) in log.intervals.intervals() {
        let end = end.map_or(t, |e| e.min(t));
        if end > start {
            total += end - start;
        }
    }
    total
}

/// Rebuild every pause-ratio sample from the final pause logs and the
/// tick instants: the paused time each tick's window saw over its
/// length. Returns the number of samples checked.
fn assert_pause_ratios_recompute(r: &RunReport) -> usize {
    let t = r.telemetry.as_ref().expect("telemetry on");
    let iv = t.sample_interval;
    let mut checked = 0;
    for (key, ring) in &t.pause_ratio {
        assert_eq!(ring.pushed(), ring.len() as u64, "{key:?}: ring evicted");
        let log = &r.stats.pause[key];
        let mut prev_tick: Option<SimTime> = None;
        for (at, ratio) in ring.iter() {
            let from = at - iv;
            if let Some(p) = prev_tick {
                assert_eq!(p, from, "{key:?}: a tick without a sample");
            }
            let paused = paused_by(log, at) - paused_by(log, from);
            let want = paused.as_ps() as f64 / iv.as_ps() as f64;
            assert_eq!(ratio.to_bits(), want.to_bits(), "{key:?} at {at}");
            prev_tick = Some(at);
            checked += 1;
        }
    }
    checked
}

#[test]
fn pause_ratio_samples_equal_a_recomputation() {
    let horizon = SimTime::from_us(1_500);
    // Every event simulated.
    let plain = fig3(horizon)
        .advance_until(horizon, horizon)
        .expect("ran to the horizon");
    assert!(plain.fast_forward.is_none());
    assert!(assert_pause_ratios_recompute(&plain) > 1_000);

    // Checkpointed mid-span and resumed: pause at the middle of the
    // first span at least 4 µs long.
    let (key, (start, end)) = (plain.stats.pause.iter())
        .find_map(|(key, log)| {
            (log.intervals.intervals().iter())
                .find(|&&(s, e)| e.is_some_and(|e| e - s >= SimDuration::from_us(4)))
                .map(|&(s, e)| (*key, (s, e.expect("closed"))))
        })
        .expect("a long pause span");
    let mid = start + SimDuration::from_ps((end - start).as_ps() / 2);
    let mut sim = fig3(horizon);
    assert!(sim.advance_until(mid, horizon).is_none());
    let mut resumed = NetSim::resume(sim.checkpoint().expect("checkpoint")).expect("resume");
    let resumed = resumed.resume_run();
    assert!(resumed.stats.paused_at(key.from, key.to, key.priority, mid));
    assert_eq!(
        assert_pause_ratios_recompute(&resumed),
        assert_pause_ratios_recompute(&plain)
    );

    // Fast-forwarded: the skipped periods' samples are extended, not
    // simulated, and must still agree with the extended logs and with
    // every event simulated.
    let horizon = SimTime::from_ms(4);
    let fast = burst_then_steady(horizon).run(horizon);
    assert!(fast.fast_forward.is_some(), "the run did not fast-forward");
    assert!(
        fast.stats
            .pause
            .values()
            .map(|log| log.intervals.count())
            .sum::<usize>()
            > 20
    );
    let checked = assert_pause_ratios_recompute(&fast);
    assert!(checked > 7_000, "{checked} samples");
    let full = burst_then_steady(horizon).advance_until(horizon, horizon);
    assert_eq!(checked, assert_pause_ratios_recompute(&full.expect("ran")));
}

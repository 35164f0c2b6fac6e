//! The hybrid fluid/packet backend beside faults, and across a frame.
//!
//! A fluid flow's path switches carry no other flow and never pause, so
//! a fault that cannot reach the flow's own links changes nothing for
//! it: PFC loss or delay armed at a path switch acts on PFC frames the
//! switch never sends, and a link of a path switch that the flow does not
//! use carries nothing. Each such run reports what the full-packet run
//! reports and elides exactly what the fault-free hybrid run elides. A
//! fault on a path link keeps the flow packet.
//!
//! `tests/data/hybrid_line2.ckpt` is a mid-flight frame of [`lone_cbr`]
//! written by a build whose `HybridConfig` still had the
//! `demote_fraction`, `capacity_margin` and `promote_after` knobs. This
//! build refuses it with `ConfigDigestMismatch`; a frame it writes itself
//! resumes to the uninterrupted run.

use pfcsim::net::golden;
use pfcsim::prelude::*;

/// When the frames pause, and the horizon.
const PAUSE_AT: SimTime = SimTime::from_us(300);
const HORIZON: SimTime = SimTime::from_ms(1);

/// `golden::digest` of [`lone_cbr`] run to [`HORIZON`], interrupted or not.
const LONE_CBR_DIGEST: u64 = 0x7bb30b15420dba50;

fn config(hybrid: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    // Occupancy sampling would gate the backend off.
    cfg.sample_interval = None;
    cfg.hybrid = Some(HybridConfig { enabled: hybrid });
    cfg
}

/// `line(2)` carrying one bounded 8 Gbps CBR flow h0 → h1, which the
/// classifier admits fluid.
fn lone_cbr() -> NetSim {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo).config(config(true)).build();
    sim.add_flow(
        FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8))
            .stopping_at(SimTime::from_us(800)),
    );
    sim
}

/// `line(3)`: S0 – S1 – S2 with one host on each. The flow h0 → h1 runs
/// over S0 and S1; S1's link to S2 carries nothing.
fn beside_faults(hybrid: bool, plan: impl FnOnce(&Built) -> FaultPlan) -> RunReport {
    let b = line(3, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo).config(config(hybrid)).build();
    sim.add_flow(
        FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8))
            .stopping_at(SimTime::from_us(800)),
    );
    sim.set_fault_plan(plan(&b)).expect("a valid plan");
    sim.run(HORIZON)
}

/// What the hybrid backend must leave unchanged.
fn observables(r: &RunReport) -> (String, String, u64, SimTime, Bytes, bool) {
    (
        format!("{:?}", r.verdict),
        serde_json::to_string(&r.stats.flows).expect("serialize"),
        r.stats.pause_frames,
        r.end_time,
        r.buffered,
        r.quiesced,
    )
}

#[test]
fn faults_beside_a_fluid_path_change_nothing() {
    let quiet = beside_faults(true, |_| FaultPlan::new());
    assert_eq!(quiet.fluid_flows, 1, "the flow runs fluid");
    assert!(quiet.events_elided > 0);
    let at = SimTime::from_us(200);
    let cases: [(&str, &dyn Fn(&Built) -> FaultPlan); 3] = [
        ("PFC loss at a path switch", &|b| {
            FaultPlan::new().pause_loss(at, b.switches[1], 0.5)
        }),
        ("PFC delay at a path switch", &|b| {
            FaultPlan::new().pause_delay(at, b.switches[0], SimDuration::from_us(5))
        }),
        ("link down, then up, beside the path", &|b| {
            let (s1, s2) = (b.switches[1], b.switches[2]);
            FaultPlan::new()
                .link_down(at, s1, s2)
                .link_up(SimTime::from_us(400), s1, s2)
        }),
    ];
    for (about, plan) in cases {
        let full = beside_faults(false, plan);
        let hyb = beside_faults(true, plan);
        assert!(!hyb.stats.faults.is_empty(), "{about}: the fault fired");
        assert_eq!(observables(&hyb), observables(&full), "{about}");
        assert_eq!(hyb.fluid_flows, 1, "{about}");
        assert_eq!(hyb.events_elided, quiet.events_elided, "{about}");
    }
}

#[test]
fn a_fault_on_a_path_link_keeps_the_flow_packet() {
    let at = SimTime::from_us(200);
    let plan = |b: &Built| FaultPlan::new().link_down(at, b.switches[0], b.switches[1]);
    let full = beside_faults(false, plan);
    let hyb = beside_faults(true, plan);
    assert_eq!(hyb.fluid_flows, 0);
    assert_eq!(hyb.events_elided, 0);
    assert_eq!(observables(&hyb), observables(&full));
    assert_eq!(hyb.events, full.events);
}

#[test]
fn a_frame_written_with_the_old_knobs_is_refused() {
    let bytes = std::fs::read("tests/data/hybrid_line2.ckpt").expect("committed frame");
    let header = u64::from_le_bytes(bytes[19..27].try_into().expect("8 bytes"));
    match Checkpoint::from_bytes(&bytes) {
        Err(CheckpointError::ConfigDigestMismatch { checkpoint, live }) => {
            // The header names the config the frame was written under;
            // the payload decodes to this build's config of the same run,
            // which no longer carries the three knobs.
            assert_eq!(checkpoint, header);
            assert_eq!(live, config_digest(&config(true)));
        }
        other => panic!("expected ConfigDigestMismatch, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn a_hybrid_frame_resumes_to_the_uninterrupted_run() {
    let whole = lone_cbr().run(HORIZON);
    assert_eq!(whole.fluid_flows, 1);
    assert_eq!(golden::digest(&whole), LONE_CBR_DIGEST);

    let mut sim = lone_cbr();
    assert!(
        sim.advance_until(PAUSE_AT, HORIZON).is_none(),
        "paused mid-flight"
    );
    let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes).expect("own frame");
    assert_eq!(ckpt.to_bytes(), bytes, "re-encodes byte for byte");
    let resumed = NetSim::resume(ckpt).expect("restorable").resume_run();
    assert_eq!(golden::digest(&resumed), LONE_CBR_DIGEST);
    assert_eq!(
        (resumed.fluid_flows, resumed.events_elided),
        (whole.fluid_flows, whole.events_elided)
    );
}

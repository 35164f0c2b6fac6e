//! The fault-laden golden scenario and its report digest.
//!
//! One E14-style run — CBR + Poisson traffic on the square topology, a
//! link failure, jittered route reconvergence (transient loops), lossy
//! PFC on one switch, a link flap, and the recovery watchdog armed —
//! whose `RunReport` digest is pinned to [`GOLDEN_DIGEST`]. The
//! `determinism_golden` integration test asserts the digest across
//! scheduler backends, arena reuse, and checkpoint/restore round trips;
//! the `repro` binary drives the same scenario for `repro golden` /
//! `repro resume` and the checkpoint-parity CI smoke. Living here (rather than in the
//! test file) keeps every consumer running the *same* scenario, so a
//! digest divergence always means engine behaviour moved.

use pfcsim_simcore::snap::fnv1a;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::builders::{square, LinkSpec};

use crate::config::{SchedulerBackend, SimConfig};
use crate::faults::FaultPlan;
use crate::flow::FlowSpec;
use crate::recovery::RecoveryConfig;
use crate::sim::{NetSim, RunReport, SimBuilder, Verdict};

/// Recorded from the pre-refactor engine (BinaryHeap event queue,
/// BTreeMap-keyed datapath). If an *intentional* behaviour change moves
/// the digest, re-record it and say so in the commit message — a silent
/// change means a refactor altered event ordering or accounting.
pub const GOLDEN_DIGEST: u64 = 0x6b4f3ae3d876a714;

/// When the golden run force-stops its flows (Fig. 4 methodology).
pub const STOP_AT: SimTime = SimTime::from_ms(3);

/// The golden run's drain horizon.
pub const DRAIN_UNTIL: SimTime = SimTime::from_ms(6);

/// Canonical digest of everything observable in a report: the
/// workspace's FNV-1a ([`fnv1a`]) over its canonical text. JSON of
/// `NetStats` is deterministic (ordered maps throughout), so the digest
/// is sensitive to every counter, series sample, pause interval and
/// fault record.
pub fn digest(r: &RunReport) -> u64 {
    let verdict = match &r.verdict {
        Verdict::NoDeadlock => "no-deadlock".to_string(),
        Verdict::Deadlock {
            detected_at,
            witness,
        } => format!("deadlock@{detected_at}:{witness:?}"),
    };
    let canon = format!(
        "verdict={verdict};end={};buffered={};quiesced={};events={};stats={}",
        r.end_time,
        r.buffered,
        r.quiesced,
        r.events,
        serde_json::to_string(&r.stats).expect("stats serialize"),
    );
    fnv1a(canon.as_bytes())
}

/// Build the golden simulator — flows registered, fault plan installed,
/// recovery armed — ready for `run_with_drain(STOP_AT, DRAIN_UNTIL)` or
/// a checkpointable `schedule_flow_stops` + `advance_until` split.
pub fn build_sim(sched: Option<SchedulerBackend>) -> NetSim {
    let b = square(LinkSpec::default());
    let mut cfg = SimConfig::default();
    cfg.seed = 42;
    cfg.stop_on_deadlock = false;
    cfg.scheduler = sched;
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[2], BitRate::from_gbps(20)).with_ttl(16));
    sim.add_flow(FlowSpec::cbr(1, b.hosts[1], b.hosts[3], BitRate::from_gbps(20)).with_ttl(16));
    sim.add_flow(FlowSpec::poisson(
        2,
        b.hosts[2],
        b.hosts[0],
        BitRate::from_gbps(5),
    ));
    let plan = FaultPlan::new()
        .link_down(SimTime::from_us(100), b.switches[0], b.switches[3])
        .route_reconverge(
            SimTime::from_us(120),
            SimDuration::from_us(30),
            SimDuration::from_us(400),
        )
        .pause_loss(SimTime::from_us(50), b.switches[1], 0.2)
        .link_flap(
            SimTime::from_us(900),
            b.switches[1],
            b.switches[2],
            SimDuration::from_us(80),
            SimDuration::from_us(300),
            2,
        )
        .link_up(SimTime::from_ms(2), b.switches[0], b.switches[3])
        .route_reconverge(
            SimTime::from_us(2100),
            SimDuration::from_us(20),
            SimDuration::ZERO,
        );
    sim.set_fault_plan(plan).expect("valid plan");
    sim.try_enable_recovery(RecoveryConfig::default())
        .expect("enable_recovery");
    sim
}

/// Run the golden scenario end-to-end with an explicit scheduler backend.
pub fn run_with(sched: Option<SchedulerBackend>) -> RunReport {
    build_sim(sched).run_with_drain(STOP_AT, DRAIN_UNTIL)
}

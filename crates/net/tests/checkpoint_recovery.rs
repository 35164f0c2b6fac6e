//! Checkpoint/restore across the recovery watchdog's timeline.
//!
//! The hardest state to snapshot is a run that is *mid-recovery*: the
//! detector has confirmed a permanent deadlock (verdict recorded, channels
//! marked paused at some epoch), the watchdog has begun force-draining,
//! and the deadlock keeps re-forming. A checkpoint taken between the
//! confirming scan and the later drain actions must restore every piece
//! of that machinery — paused-channel bitmap, detector epoch, pending
//! `RecoveryScan` events, drop counters — or the resumed run's recovery
//! timeline diverges from the uninterrupted one.

use pfcsim_net::checkpoint::Checkpoint;
use pfcsim_net::config::{SchedulerBackend, SimConfig};
use pfcsim_net::flow::FlowSpec;
use pfcsim_net::golden;
use pfcsim_net::recovery::RecoveryConfig;
use pfcsim_net::sim::{NetSim, RunReport, SimBuilder, Verdict};
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_topo::builders::{line, square, LinkSpec};

const HORIZON: SimTime = SimTime::from_ms(5);

/// The Fig. 4 cyclic-buffer-dependency scenario with the recovery
/// watchdog armed: three pinned infinite flows whose routes close a cycle
/// through all four switches, deadlocking early and re-forming after
/// every drain.
fn fig4_sim(sched: SchedulerBackend) -> NetSim {
    let b = square(LinkSpec::default());
    let (s, h) = (&b.switches, &b.hosts);
    let mut cfg = SimConfig::default();
    cfg.stop_on_deadlock = false;
    cfg.scheduler = Some(sched);
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    sim.add_flow(
        FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
    );
    sim.add_flow(
        FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
    );
    sim.add_flow(FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]));
    sim.try_enable_recovery(RecoveryConfig::default())
        .expect("enable_recovery");
    sim
}

fn detected_at(r: &RunReport) -> SimTime {
    match &r.verdict {
        Verdict::Deadlock { detected_at, .. } => *detected_at,
        Verdict::NoDeadlock => panic!("scenario must deadlock"),
    }
}

#[test]
fn checkpoint_mid_recovery_resumes_identical_timeline() {
    for sched in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        // Uninterrupted baseline: deadlock confirmed, then repeated
        // (lossy) drain actions as it re-forms.
        let baseline = fig4_sim(sched).run(HORIZON);
        let confirmed = detected_at(&baseline);
        assert!(
            baseline.stats.recovery_actions >= 2,
            "deadlock must re-form so drains continue past the pause point"
        );
        let base_digest = golden::digest(&baseline);

        // Pause after the confirming scan but before the next watchdog
        // tick (default interval 100 us), i.e. between confirmation and
        // the later drains.
        let pause = confirmed + SimDuration::from_us(50);
        assert!(pause < HORIZON);
        let mut sim = fig4_sim(sched);
        assert!(
            sim.advance_until(pause, HORIZON).is_none(),
            "mid-recovery run must still be busy at the pause point"
        );
        assert!(sim.now() <= pause);

        // Full file round trip: save, load, resume in a fresh simulator.
        let path = std::env::temp_dir().join(format!(
            "pfcsim-ckpt-recovery-{}-{sched:?}.snap",
            std::process::id()
        ));
        sim.checkpoint()
            .expect("checkpointable")
            .save(&path)
            .expect("save");
        drop(sim);
        let ckpt = Checkpoint::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(ckpt.sim_time(), pause);
        let report = NetSim::resume(ckpt).expect("restorable").resume_run();

        assert_eq!(
            golden::digest(&report),
            base_digest,
            "resumed recovery timeline diverged under {sched:?}"
        );
        assert_eq!(detected_at(&report), confirmed);
        assert_eq!(
            report.stats.recovery_actions,
            baseline.stats.recovery_actions
        );
        assert_eq!(report.stats.drops_recovery, baseline.stats.drops_recovery);
    }
}

/// Checkpointing a run whose datapath is saturated — every busy port has
/// a tx completion pending in the event queue at any pause point — must
/// be safe and exact: the resumed run lands on the uninterrupted run's
/// digest.
#[test]
fn checkpoint_on_saturated_datapath_resumes_identical_timeline() {
    const HORIZON: SimTime = SimTime::from_us(800);
    for sched in [SchedulerBackend::Wheel, SchedulerBackend::Heap] {
        // Converging infinite flows keep every inter-switch port busy.
        let mk_sched = || {
            let b = line(3, LinkSpec::default());
            let mut cfg = SimConfig::default();
            cfg.scheduler = Some(sched);
            let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
            sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[2]));
            sim.add_flow(FlowSpec::infinite(1, b.hosts[1], b.hosts[2]));
            sim.add_flow(FlowSpec::infinite(2, b.hosts[2], b.hosts[0]));
            sim
        };
        let baseline = golden::digest(&mk_sched().run(HORIZON));

        let mut sim = mk_sched();
        assert!(
            sim.advance_until(SimTime::from_us(250), HORIZON).is_none(),
            "saturated run must still be busy at the pause point"
        );
        let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
        drop(sim);
        let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
        let report = NetSim::resume(ckpt).expect("restorable").resume_run();
        assert_eq!(
            golden::digest(&report),
            baseline,
            "saturated-datapath checkpoint diverged under {sched:?}"
        );
    }
}

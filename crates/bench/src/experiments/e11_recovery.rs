//! E11 — reactive recovery, the §1 "last resort", quantified.
//!
//! The paper dismisses detect-and-reset mechanisms as "inelegant,
//! disruptive". This experiment measures exactly how disruptive: arm a
//! recovery watchdog on the Fig. 4 deadlock, count destroyed packets and
//! re-formations, and compare goodput against both the frozen baseline
//! and a properly mitigated run.

use pfcsim_net::prelude::*;
use pfcsim_simcore::time::SimTime;

use super::Opts;
use crate::scenarios::{paper_config, square_scenario};
use crate::sweep::parallel_map;
use crate::table::{fmt, Report, Table};

struct Outcome {
    delivered: u64,
    destroyed: u64,
    actions: u64,
    deadlocked: bool,
}

fn run_variant(
    horizon: SimTime,
    recovery: Option<RecoveryConfig>,
    limiter: Option<pfcsim_simcore::units::BitRate>,
) -> Outcome {
    let mut cfg = paper_config();
    cfg.stop_on_deadlock = false;
    let mut sc = square_scenario(cfg, true, limiter);
    if let Some(rc) = recovery {
        sc.sim.try_enable_recovery(rc).expect("enable_recovery");
    }
    let r = sc.run(horizon);
    Outcome {
        delivered: r.stats.flows.values().map(|f| f.delivered_packets).sum(),
        destroyed: r.stats.drops_recovery,
        actions: r.stats.recovery_actions,
        deadlocked: r.verdict.is_deadlock(),
    }
}

/// Run E11.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E11 / reactive recovery",
        "Detect-and-reset on the Fig. 4 deadlock: goodput restored, losslessness destroyed",
    );
    let horizon = opts.horizon_ms(5);
    // The four variants are independent runs: fan them out.
    let variants: [(
        Option<RecoveryStrategy>,
        Option<pfcsim_simcore::units::BitRate>,
    ); 4] = [
        (None, None),
        (Some(RecoveryStrategy::DrainOneQueue), None),
        (Some(RecoveryStrategy::DrainWitness), None),
        (None, Some(pfcsim_simcore::units::BitRate::from_gbps(2))),
    ];
    let mut outcomes = parallel_map(&variants, |&(strategy, limiter)| {
        let recovery = strategy.map(|s| RecoveryConfig {
            strategy: s,
            ..RecoveryConfig::default()
        });
        run_variant(horizon, recovery, limiter)
    })
    .into_iter();
    let frozen = outcomes.next().expect("frozen");
    let one = outcomes.next().expect("one");
    let all = outcomes.next().expect("all");
    let mitigated = outcomes.next().expect("mitigated");

    let mut t = Table::new(
        "recovery vs freeze vs proactive mitigation",
        &[
            "variant",
            "deadlocked",
            "delivered_pkts",
            "destroyed_pkts",
            "interventions",
        ],
    );
    for (name, o) in [
        ("no recovery (frozen)", &frozen),
        ("recovery: drain one queue", &one),
        ("recovery: drain witness", &all),
        ("proactive: 2 Gbps limiter", &mitigated),
    ] {
        t.row(vec![
            name.into(),
            fmt::yn(o.deadlocked),
            o.delivered.to_string(),
            o.destroyed.to_string(),
            o.actions.to_string(),
        ]);
    }
    report.table(t);
    report.note(format!(
        "Recovery restores goodput ({}x the frozen run) but destroys {} packets over {} \
         interventions — the deadlock re-forms as long as its cause persists. The \
         proactive limiter delivers comparable goodput with zero loss: the paper's case \
         for prevention over reaction.",
        if frozen.delivered > 0 {
            one.delivered / frozen.delivered.max(1)
        } else {
            0
        },
        one.destroyed,
        one.actions,
    ));
    report
}

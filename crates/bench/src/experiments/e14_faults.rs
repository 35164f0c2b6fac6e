//! E14 — fault injection: real failures as deadlock *causes*.
//!
//! The paper's Case 1 needs a transient routing loop, which production
//! fabrics only exhibit between a failure and the end of reconvergence.
//! This experiment closes that loop (literally): it scripts link
//! failures, laggy route reconvergence, and repeated route flaps with
//! the fault subsystem, and measures when the resulting *transient*
//! loops harden into *permanent* deadlocks.
//!
//! Three questions, one table each:
//!  1. How long must a loop exist before it wedges? (the Eq. 3 fill
//!     time, measured by sweeping the install→repair window)
//!  2. How likely is a deadlock after a real link failure, as a function
//!     of reconvergence-lag jitter? (per-switch disagreement windows)
//!  3. What does the recovery watchdog buy when route flaps keep
//!     re-wedging the fabric? (E11's question under churn)

use pfcsim_net::prelude::*;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::ids::FlowId;

use super::Opts;
use crate::scenarios::{
    paper_config, reconvergence_scenario, transient_loop, transient_loop_train, Scenario,
};
use crate::sweep::parallel_map;
use crate::table::{fmt, Report, Table};

/// The detection instant, if the run deadlocked.
fn deadlock_at(r: &RunReport) -> Option<SimTime> {
    match &r.verdict {
        Verdict::Deadlock { detected_at, .. } => Some(*detected_at),
        Verdict::NoDeadlock => None,
    }
}

fn delivered(r: &RunReport) -> u64 {
    r.stats.flows.values().map(|f| f.delivered_packets).sum()
}

/// Table 2's reconvergence-lag jitter values, µs.
pub const JITTERS_US: [u64; 5] = [0, 100, 500, 2000, 5000];

/// Table 2's `(jitter µs, flow, seed)` grid: every jitter value over a
/// flow × seed grid (4 × 3 in full mode, 2 × 2 quick).
pub fn reconvergence_grid(opts: &Opts) -> Vec<(u64, u32, u64)> {
    let (flows, seeds) = if opts.quick { (2u32, 2u64) } else { (4, 3) };
    JITTERS_US
        .iter()
        .flat_map(|&j| (0..flows).flat_map(move |f| (0..seeds).map(move |s| (j, f, s))))
        .collect()
}

/// Table 2's run at one grid point, ready to run.
pub fn reconvergence_run((jitter_us, flow, seed): (u64, u32, u64)) -> Scenario {
    let mut cfg = paper_config();
    cfg.seed = seed;
    cfg.stop_on_deadlock = false;
    reconvergence_scenario(
        cfg,
        flow,
        BitRate::from_gbps(30),
        SimDuration::from_us(jitter_us),
    )
}

/// Run E14.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E14 / fault injection",
        "Transient loops from failures, flaps and laggy reconvergence, and when they wedge",
    );

    // ── Table 1: loop-existence window vs. the Eq. 3 fill time ──────
    // Install the two-switch loop at 100 µs, repair it `window` later.
    // 8 Gbps is above the 2-switch boundary rate (Eq. 3: 5 Gbps at
    // TTL 16), so the loop *will* wedge — if it lives long enough.
    let horizon = opts.horizon_ms(20);
    let install = SimTime::from_us(100);
    let mut t = Table::new(
        "transient routing loop: install→repair window vs deadlock (8 Gbps, TTL 16)",
        &[
            "window_us",
            "deadlocked",
            "detected_at",
            "delivered_pkts",
            "goodput_gbps",
        ],
    );
    let mut fill_window_us = None;
    let windows = [25u64, 50, 100, 200, 400, 800, 1600];
    // Telemetry probes ride along (trace discarded): the flow's sampled
    // goodput series collapses toward zero exactly when the wedge hardens.
    for (window_us, at, del, goodput) in parallel_map(&windows, |&window_us| {
        let mut cfg = paper_config();
        cfg.stop_on_deadlock = false; // let the repair fire; the wedge survives it
        cfg.telemetry = TelemetryConfig::sampling_only();
        let sc = transient_loop(
            cfg,
            BitRate::from_gbps(8),
            16,
            install,
            install + SimDuration::from_us(window_us),
        );
        let r = sc.run(horizon);
        let goodput = r
            .telemetry
            .as_ref()
            .and_then(|t| t.mean_goodput_bps(FlowId(0)))
            .unwrap_or(0.0);
        (window_us, deadlock_at(&r), delivered(&r), goodput)
    }) {
        if at.is_some() && fill_window_us.is_none() {
            fill_window_us = Some(window_us);
        }
        t.row(vec![
            window_us.to_string(),
            fmt::yn(at.is_some()),
            at.map_or("—".into(), |d| d.to_string()),
            del.to_string(),
            format!("{:.2}", goodput / 1e9),
        ]);
    }
    report.table(t);
    report.note(match fill_window_us {
        Some(w) => format!(
            "Above the Eq. 3 rate the loop only needs to exist for ~{w} µs before the \
             boundary queues pass XOFF and the wedge becomes permanent — repairing the \
             route afterwards changes nothing. Shorter windows drain without incident."
        ),
        None => "No window in the sweep wedged at this horizon — widen the sweep.".into(),
    });

    // ── Table 2: reconvergence-lag jitter vs deadlock probability ────
    // A real failure on the square: cut S0–S3, then let every switch
    // recompute shortest paths with an independent uniform lag in
    // [0, jitter]. Whether a given flow loops depends on the ECMP hash
    // (flow id) and on which switch lags behind (seed), so each jitter
    // value is tried over a flow × seed grid.
    let horizon2 = opts.horizon_ms(30);
    let grid = reconvergence_grid(opts);
    let trials = grid.len() / JITTERS_US.len();
    let mut t = Table::new(
        "link failure + laggy reconvergence: deadlock probability (square, 30 Gbps)",
        &["jitter", "deadlocks", "trials", "probability"],
    );
    // The full (jitter, flow, seed) grid is one flat fan-out; wedge
    // counts are tallied per jitter value from the ordered results. Only
    // the verdict is read, so each run stops once it is settled.
    let grid_wedged = parallel_map(&grid, |&point| {
        reconvergence_run(point).verdict(horizon2).is_deadlock()
    });
    let mut wedged_at_max_jitter = 0usize;
    for &jitter_us in &JITTERS_US {
        let jitter = SimDuration::from_us(jitter_us);
        let wedged = grid
            .iter()
            .zip(&grid_wedged)
            .filter(|((j, _, _), &w)| *j == jitter_us && w)
            .count();
        wedged_at_max_jitter = wedged;
        t.row(vec![
            if jitter_us == 0 {
                "0 (atomic)".into()
            } else {
                format!("{jitter}")
            },
            wedged.to_string(),
            trials.to_string(),
            format!("{:.2}", wedged as f64 / trials as f64),
        ]);
    }
    report.table(t);
    report.note(format!(
        "Atomic reconvergence (zero jitter) never deadlocks: routes are always loop-free. \
         As per-switch lag spread grows, the disagreement window outlives the fill time \
         for more flow/seed combinations ({wedged_at_max_jitter}/{trials} at the widest \
         jitter here) — the paper's Case 1 as a probability, not an anecdote."
    ));

    // ── Table 3: route flaps vs the recovery watchdog ────────────────
    // Three install/repair cycles, each window long past the fill time:
    // the fabric re-wedges after every flap. Without the watchdog the
    // first wedge is final; with it, each wedge costs a bounded drain
    // and goodput returns until the next flap.
    let horizon3 = opts.horizon_ms(16);
    let train: Vec<(SimTime, SimTime)> = (0..3)
        .map(|k| {
            let install = SimTime::from_us(100 + 5_000 * k);
            (install, install + SimDuration::from_us(800))
        })
        .collect();
    let mut t = Table::new(
        "route flap train (3 cycles) with and without detect-and-reset",
        &[
            "variant",
            "deadlocked",
            "delivered_pkts",
            "destroyed_pkts",
            "interventions",
        ],
    );
    let variants = [
        ("no recovery (first wedge is final)", None),
        (
            "watchdog: drain one queue",
            Some(RecoveryConfig {
                strategy: RecoveryStrategy::DrainOneQueue,
                ..RecoveryConfig::default()
            }),
        ),
        (
            "watchdog: drain witness",
            Some(RecoveryConfig {
                strategy: RecoveryStrategy::DrainWitness,
                ..RecoveryConfig::default()
            }),
        ),
    ];
    let mut flap_outcomes = Vec::new();
    for (name, r) in parallel_map(&variants, |(name, recovery)| {
        let mut cfg = paper_config();
        cfg.stop_on_deadlock = false;
        let mut sc = transient_loop_train(cfg, BitRate::from_gbps(8), 16, &train);
        if let Some(rc) = *recovery {
            sc.sim.try_enable_recovery(rc).expect("enable_recovery");
        }
        (*name, sc.run(horizon3))
    }) {
        t.row(vec![
            name.into(),
            fmt::yn(r.verdict.is_deadlock()),
            delivered(&r).to_string(),
            r.stats.drops_recovery.to_string(),
            r.stats.recovery_actions.to_string(),
        ]);
        flap_outcomes.push((delivered(&r), r.stats.recovery_actions));
    }
    report.table(t);
    let (frozen_del, _) = flap_outcomes[0];
    let (rec_del, rec_actions) = flap_outcomes[1];
    report.note(format!(
        "Every flap re-wedges the loop, so the watchdog must keep intervening \
         ({rec_actions} times here) — recovery treats symptoms. It still delivers \
         {rec_del} packets where the frozen fabric manages {frozen_del}: under churn, \
         detect-and-reset is the difference between degraded and dead, at the price \
         of the lossless guarantee."
    ));
    report
}

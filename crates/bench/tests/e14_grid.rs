//! E14 Table 2 reads only each run's verdict, so its runs stop once the
//! verdict is settled (`Scenario::verdict`). Over Table 2's exact
//! 60-point grid that verdict, detection instant and witness included,
//! equals the one the full 30 ms run reports.

use pfcsim_experiments::experiments::e14_faults::{reconvergence_grid, reconvergence_run};
use pfcsim_experiments::experiments::Opts;
use pfcsim_experiments::sweep::parallel_map;
use pfcsim_simcore::time::SimTime;

#[test]
#[cfg_attr(debug_assertions, ignore = "60 full 30 ms runs: run with --release")]
fn table2_verdicts_equal_the_full_runs() {
    let grid = reconvergence_grid(&Opts::default());
    assert_eq!(grid.len(), 60);
    let horizon = SimTime::from_ms(30);
    let rows = parallel_map(&grid, |&point| {
        let full = reconvergence_run(point).run(horizon).verdict;
        let mut sc = reconvergence_run(point);
        let early = sc.sim.run_to_verdict(horizon);
        (point, full, early, sc.sim.now())
    });
    // Stop instants of the clean runs and of the deadlocking ones.
    let (mut clean, mut wedged) = (Vec::new(), Vec::new());
    for (point, full, early, stopped_at) in rows {
        assert_eq!(early, full, "grid point {point:?}");
        assert!(
            stopped_at < horizon,
            "grid point {point:?} ran to the horizon"
        );
        if full.is_deadlock() {
            &mut wedged
        } else {
            &mut clean
        }
        .push(stopped_at);
    }
    for (what, stops) in [("clean", &clean), ("deadlocking", &wedged)] {
        if let (Some(lo), Some(hi)) = (stops.iter().min(), stops.iter().max()) {
            eprintln!("{} {what} runs decided at {lo}..{hi}", stops.len());
        }
    }
    assert!(!clean.is_empty() && !wedged.is_empty());
}

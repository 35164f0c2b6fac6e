//! E14's full-mode report, rendered as `repro all --json` writes it, is
//! pinned to the `e14` digest in `benchmark/expected.json`. Table 2's 60
//! runs stop once their verdict is settled (`NetSim::run_to_verdict`), so
//! the whole experiment now fits a debug-build test.

use pfcsim::simcore::snap::fnv1a;
use pfcsim_experiments::experiments::{e14_faults, Opts};

#[test]
fn e14_full_report_is_pinned() {
    let report = e14_faults::run(&Opts::default());
    let json = serde_json::to_string_pretty(&report.to_json()).expect("json");
    assert_eq!(fnv1a(json.as_bytes()), 0xf7b1_1a19_9831_4d07, "{json}");
}

//! Smoke test: every experiment runs in quick mode and its headline
//! qualitative claims hold. This is what makes `cargo test` a regression
//! gate for the whole reproduction, not just the library.

use pfcsim_experiments::experiments::{self, Opts};
use pfcsim_experiments::Report;

fn cell(report: &Report, table_idx: usize, row: usize, col: usize) -> &str {
    &report.tables[table_idx].rows[row][col]
}

#[test]
fn all_experiments_run_and_agree_with_the_paper() {
    let opts = Opts {
        quick: true,
        dump_dir: None,
    };
    let reports = experiments::run_all(&opts);
    assert_eq!(reports.len(), 14, "E1..E14");
    for r in &reports {
        assert!(!r.tables.is_empty(), "{} produced no tables", r.id);
        for t in &r.tables {
            assert!(!t.rows.is_empty(), "{}::{} is empty", r.id, t.name);
        }
        // Serialization for --json must never panic.
        let _ = r.to_json();
        // Rendering is non-empty.
        assert!(r.render().len() > 100);
    }

    // E1: deadlock on the 3-ring.
    assert_eq!(cell(&reports[0], 0, 0, 0), "yes");

    // E2: prediction agreement note.
    assert!(reports[1]
        .notes
        .iter()
        .any(|n| n.contains("agreement on all 10 rates: yes")));

    // E3: no deadlock; L1 row shows zero pauses.
    let fig3_verdict = &reports[2];
    let verdict_table = fig3_verdict
        .tables
        .iter()
        .find(|t| t.name == "verdict")
        .expect("verdict table");
    assert_eq!(verdict_table.rows[0][0], "no");

    // E4: deadlock yes.
    let e4 = &reports[3];
    let vt = e4
        .tables
        .iter()
        .find(|t| t.name.starts_with("verdict"))
        .expect("verdict table");
    assert_eq!(vt.rows[0][1], "yes");

    // E5: at least one safe and one deadlocked rate in the sweep.
    let sweep = &reports[4].tables[0];
    let verdicts: Vec<&str> = sweep.rows.iter().map(|r| r[1].as_str()).collect();
    assert!(
        verdicts.contains(&"no") && verdicts.contains(&"yes"),
        "{verdicts:?}"
    );

    // E6: flat loop deadlocks; per-hop bands defuse Fig. 4.
    let e6 = &reports[5];
    let fig4_table = e6
        .tables
        .iter()
        .find(|t| t.name.contains("Fig. 4 workload"))
        .expect("fig4 ttl table");
    assert_eq!(fig4_table.rows[0][1], "yes", "flat deadlocks");
    assert_eq!(fig4_table.rows[1][1], "no", "banded does not");

    // E8: dcqcn column shows no deadlock.
    let e8 = &reports[7].tables[0];
    assert_eq!(e8.rows[0][2], "no", "dcqcn avoids deadlock");

    // E9: commodity 2-class column is all "no" in the buffer-pool table.
    let e9 = &reports[8];
    let pools = e9
        .tables
        .iter()
        .find(|t| t.name.contains("structured buffer pools"))
        .expect("pools table");
    assert!(pools.rows.iter().all(|r| r[3] == "no"));

    // E11: recovery destroys packets; frozen run does not.
    let e11 = &reports[10].tables[0];
    assert_eq!(e11.rows[0][3], "0", "frozen run destroys nothing");
    assert_ne!(e11.rows[1][3], "0", "recovery is lossy");

    // E13: flood deadlocks, drop does not.
    let e13 = &reports[12].tables[0];
    assert_eq!(e13.rows[0][1], "no", "L3 drop is safe");
    assert_eq!(e13.rows[0][2], "yes", "L2 flood freezes");

    // E14: short loop-existence windows are harmless, long ones wedge,
    // and the watchdog restores goodput under route flaps.
    let e14_window = &reports[13].tables[0];
    assert_eq!(e14_window.rows[0][1], "no", "shortest window drains");
    let last = e14_window.rows.last().expect("window rows");
    assert_eq!(last[1], "yes", "longest window wedges");
    let e14_flap = &reports[13].tables[2];
    assert_eq!(e14_flap.rows[0][4], "0", "no watchdog, no interventions");
    assert_ne!(e14_flap.rows[1][4], "0", "watchdog intervenes under flaps");
    let frozen: u64 = e14_flap.rows[0][2].parse().expect("delivered count");
    let recovered: u64 = e14_flap.rows[1][2].parse().expect("delivered count");
    assert!(
        recovered > frozen * 3,
        "watchdog restores goodput under churn"
    );

    // E12: fluid blind to the Fig. 4 deadlock, packet sees it.
    let e12_fig4 = &reports[11].tables[1];
    let deadlock_row = e12_fig4
        .rows
        .iter()
        .find(|r| r[0] == "deadlock")
        .expect("deadlock row");
    assert_eq!(deadlock_row[1], "no", "fluid");
    assert_eq!(deadlock_row[2], "yes", "packet");
}

/// Through the real binary: the retired `bench` and `chaos` subcommands
/// are usage errors, and so are a value flag without its value and a
/// microsecond count whose picoseconds overflow — exit 2, usage on
/// stderr, nothing run and nothing written.
#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("pfcsim-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // One more than `u64::MAX / PS_PER_US` microseconds.
    let over = "18446744073710";
    for args in [
        &["bench"][..],
        &["chaos"],
        &["golden", "--checkpoint"],
        &["golden", "--checkpoint", "--pause-at-us", "1500"],
        &["golden", "--checkpoint", "x", "--pause-at-us", over],
        &["golden", "--checkpoint", "x", "--checkpoint-every-us", over],
        &["all", "--json", "--quick"],
        &["metrics", "--out"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(left.is_empty(), "usage errors created {left:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

//! `paper_repro`: `repro all` (E1–E14, full mode) as a child process —
//! what a reader of the paper runs. Its inputs do not depend on the
//! seed: every experiment pins its own.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::expected::Expected;
use crate::gen::fnv1a;
use crate::host;
use crate::report::{measure_for, RunResult};

pub const REPORTS: usize = 14;

/// One finished `repro all`.
pub struct ReproRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// FNV of each report's JSON, by slug (`e1` … `e14`).
    pub reports: BTreeMap<String, u64>,
    /// Share of E2 Part A sweep points whose simulated verdict equals
    /// the Eq. 3 prediction.
    pub model_agreement: f64,
}

/// Share of the rows of E2's Part A table whose simulated verdict
/// equals the Eq. 3 prediction.
pub fn model_agreement(headers: &[String], rows: &[Vec<String>]) -> Option<f64> {
    let col = |name: &str| headers.iter().position(|h| h == name);
    let (pred, sim) = (col("Eq.3 predicts")?, col("simulated")?);
    let agree = rows
        .iter()
        .filter(|r| r.get(pred).is_some() && r.get(pred) == r.get(sim))
        .count();
    (!rows.is_empty()).then(|| agree as f64 / rows.len() as f64)
}

/// The same, from the report's JSON.
fn model_agreement_json(e2: &Value) -> Option<f64> {
    let table = e2.get("tables")?.as_array()?.first()?;
    let strings = |v: &Value| -> Option<Vec<String>> {
        v.as_array()?
            .iter()
            .map(|c| c.as_str().map(str::to_string))
            .collect()
    };
    let headers = strings(table.get("headers")?)?;
    let rows: Option<Vec<Vec<String>>> =
        table.get("rows")?.as_array()?.iter().map(strings).collect();
    model_agreement(&headers, &rows?)
}

/// Run `repro all --json <dir>` once and digest what it wrote.
pub fn run_all(repro: &Path, smoke: bool, tag: &str) -> Result<ReproRun, String> {
    let dir = PathBuf::from(format!("benchmark/out/paper-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = Command::new(repro);
    cmd.arg("all").arg("--json").arg(&dir);
    if smoke {
        cmd.arg("--quick");
    }
    let cpu0 = host::cpu_children();
    let t = Instant::now();
    let status = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::cpu_children() - cpu0;
    if !status.success() {
        return Err(format!("repro all exited with {status}"));
    }
    let mut reports = BTreeMap::new();
    let mut agreement = None;
    for i in 1..=REPORTS {
        let slug = format!("e{i}");
        let bytes = std::fs::read(dir.join(format!("{slug}.json")))
            .map_err(|e| format!("report {slug}: {e}"))?;
        if i == 2 {
            let v: Value = serde_json::from_str(&String::from_utf8_lossy(&bytes))
                .map_err(|e| format!("report e2: {e}"))?;
            agreement = model_agreement_json(&v);
        }
        reports.insert(slug, fnv1a(&bytes));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ReproRun {
        wall_s,
        cpu_s,
        reports,
        model_agreement: agreement.ok_or("report e2 has no Part A table")?,
    })
}

/// Count one operation per report (and one for the model agreement):
/// equal to the pin where one exists, and to the first run otherwise.
pub fn check(
    run: &ReproRun,
    first: &ReproRun,
    expected: Option<&Expected>,
    res: &mut RunResult,
    rep: &str,
) {
    for (slug, &got) in &run.reports {
        let want = expected
            .and_then(|e| e.report(slug))
            .unwrap_or(first.reports[slug]);
        res.checks.op(got == want, || {
            format!("{rep}: report {slug} digest {got:#x}, expected {want:#x}")
        });
    }
    let want = expected
        .and_then(Expected::model_agreement)
        .unwrap_or(first.model_agreement);
    res.checks.op(run.model_agreement == want, || {
        format!(
            "{rep}: model agreement {}, expected {want}",
            run.model_agreement
        )
    });
}

pub fn end_to_end(
    repro: &Path,
    seed: u64,
    seconds: f64,
    smoke: bool,
    expected: Option<&Expected>,
    started: Instant,
) -> RunResult {
    let mut res = RunResult::new("paper_repro", seed, false);
    let warm = match run_all(repro, smoke, "w") {
        Ok(r) => r,
        Err(e) => {
            res.checks.op(false, || format!("warm-up: {e}"));
            return res;
        }
    };
    let setup_s = started.elapsed().as_secs_f64();
    check(&warm, &warm, expected, &mut res, "warm-up");
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    measure_for(seconds, if smoke { 1 } else { 3 }, |rep| {
        match run_all(repro, smoke, "r") {
            Ok(r) => {
                check(&r, &warm, expected, &mut res, &format!("rep {rep}"));
                wall.push(r.wall_s);
                cpu.push(r.cpu_s);
            }
            Err(e) => res.checks.op(false, || format!("rep {rep}: {e}")),
        }
    });
    if wall.is_empty() {
        return res;
    }
    let rate: Vec<f64> = wall.iter().map(|w| REPORTS as f64 / w).collect();
    let lat: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    res.point("setup_s", setup_s);
    res.samples("wall_s", &wall);
    res.samples("cpu_s", &cpu);
    res.samples("work_per_s", &rate);
    res.samples("lat_p50_ms", &lat);
    res.point("peak_rss_mb", host::peak_rss_children_mb());
    res.notes.push(format!(
        "{} reps of `repro all`; model agreement {} over the E2 Part A sweep (simulated, not host time); the seed does not reach this workload",
        wall.len(),
        warm.model_agreement
    ));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_agreement_counts_matching_rows() {
        let e2: Value = serde_json::from_str(
            r#"{"tables": [{"headers": ["inject_gbps", "Eq.3 predicts", "simulated"],
                "rows": [["1", "no", "no"], ["6", "yes", "yes"], ["5", "no", "yes"], ["7", "yes", "yes"]]}]}"#,
        )
        .expect("json");
        assert_eq!(model_agreement_json(&e2), Some(0.75));
        let empty: Value = serde_json::from_str(r#"{"tables": []}"#).expect("json");
        assert_eq!(model_agreement_json(&empty), None);
    }
}

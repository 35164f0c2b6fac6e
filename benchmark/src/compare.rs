//! `compare A.json B.json`: two result sets of the same benchmark, one
//! row per (workload, metric).
//!
//! Every end-to-end metric gets its bound: B is `worse` when its median
//! is worse than A's by more than the bound, `unresolved` when either
//! run's own quartile spread is wider than the bound, `better` when it
//! gained more than the bound, else `same`. Every exact counter must be
//! equal. The exit code is non-zero on `worse`, on an exact mismatch,
//! and when either set has a failed operation.

use serde_json::Value;

use crate::names::{self, Better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
    Equal,
    Mismatch,
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Missing => "missing",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Mismatch | Verdict::Missing)
    }
}

/// Median, q1, q3 of one metric in one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Cell {
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn judge(a: Cell, b: Cell, better: Better, bound: f64) -> Verdict {
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn cell(run: &Value, metric: &str) -> Option<Cell> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Cell {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn find_run<'a>(set: &'a Value, workload: &str, traced: bool) -> Option<&'a Value> {
    set.get("runs")?
        .as_array()?
        .iter()
        .find(|r| r["workload"] == workload && r["traced"] == traced)
}

fn render_row(w: &str, metric: &str, ca: Option<Cell>, cb: Option<Cell>, v: Verdict) -> String {
    let num = |c: Option<Cell>| c.map_or("-".to_string(), |c| format!("{:.6}", c.median));
    let change = match (ca, cb) {
        (Some(x), Some(y)) if x.median != 0.0 => {
            format!("{:+.1}%", (y.median - x.median) / x.median.abs() * 100.0)
        }
        _ => "-".into(),
    };
    let quartiles =
        |c: Option<Cell>| c.map_or(String::new(), |c| format!("[{:.4} {:.4}]", c.q1, c.q3));
    format!(
        "{w:<18} {metric:<34} {:>14} {:>14} {change:>8}  {} A{} B{}\n",
        num(ca),
        num(cb),
        v.as_str(),
        quartiles(ca),
        quartiles(cb)
    )
}

/// Compare two result sets; returns the table and whether B passes.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<34} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "change"
    );
    let mut pass = true;
    let mut row = |w: &str, metric: &str, ca: Option<Cell>, cb: Option<Cell>, v: Verdict| {
        out.push_str(&render_row(w, metric, ca, cb, v));
        pass &= !v.fails();
    };
    for w in &names::WORKLOADS {
        for traced in [false, true] {
            let pass_name = if traced {
                "(traced run)"
            } else {
                "(untraced run)"
            };
            let (ra, rb) = match (find_run(a, w.name, traced), find_run(b, w.name, traced)) {
                (Some(ra), Some(rb)) => (ra, rb),
                (None, None) => continue,
                _ => {
                    row(w.name, pass_name, None, None, Verdict::Missing);
                    continue;
                }
            };
            if ra["correct"] != true || rb["correct"] != true {
                row(w.name, "failed operations", None, None, Verdict::Mismatch);
            }
            if traced {
                for m in names::PER_LAYER.iter().filter(|m| m.exact) {
                    let (ca, cb) = (cell(ra, m.name), cell(rb, m.name));
                    let v = match (ca, cb) {
                        (Some(x), Some(y)) if x.median == y.median => Verdict::Equal,
                        (Some(_), Some(_)) => Verdict::Mismatch,
                        _ => Verdict::Missing,
                    };
                    row(w.name, m.name, ca, cb, v);
                }
            } else {
                for m in &names::END_TO_END {
                    let (ca, cb) = (cell(ra, m.name), cell(rb, m.name));
                    let v = match (ca, cb) {
                        (Some(x), Some(y)) => judge(x, y, m.better, m.bound),
                        _ => Verdict::Missing,
                    };
                    row(w.name, m.name, ca, cb, v);
                }
            }
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(median: f64, q1: f64, q3: f64) -> Cell {
        Cell { median, q1, q3 }
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let tight = |m: f64| c(m, m * 0.99, m * 1.01);
        assert_eq!(
            judge(tight(1.0), tight(1.05), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            judge(tight(1.0), tight(1.15), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(1.0), tight(0.85), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(tight(1.0), tight(0.85), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(1.0), tight(1.15), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(c(1.0, 0.9, 1.1), tight(1.02), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // A regression past the bound is reported even when noisy.
        assert_eq!(
            judge(c(1.0, 0.9, 1.1), tight(1.2), Better::Lower, 0.1),
            Verdict::Worse
        );
    }

    fn set(wall: f64, events: u64, correct: bool) -> Value {
        let text = format!(
            r#"{{"runs": [
              {{"workload": "fabric_saturated", "traced": false, "correct": {correct},
                "metrics": {{"wall_s": {{"median": {wall}, "q1": {wall}, "q3": {wall}, "n": 5}}}}}},
              {{"workload": "fabric_saturated", "traced": true, "correct": true,
                "metrics": {{"net.sim.events": {{"median": {events}.0, "q1": {events}.0, "q3": {events}.0, "n": 1}}}}}}
            ]}}"#
        );
        serde_json::from_str(&text).expect("json")
    }

    #[test]
    fn compare_fails_on_worse_mismatch_and_failed_runs() {
        // Metrics absent from both sets are reported missing; build the
        // verdict from the rows that are present.
        let rows = |a: &Value, b: &Value| compare(a, b).0;
        let same = rows(&set(1.0, 100, true), &set(1.02, 100, true));
        assert!(same.contains("wall_s") && same.contains(" same "));
        assert!(same.contains("net.sim.events") && same.contains(" equal "));
        assert!(rows(&set(1.0, 100, true), &set(1.5, 100, true)).contains(" worse "));
        assert!(rows(&set(1.0, 100, true), &set(1.0, 101, true)).contains("MISMATCH"));
        assert!(rows(&set(1.0, 100, true), &set(1.0, 100, false)).contains("failed operations"));
        // A set compared with itself still lacks the metrics this
        // fixture leaves out, so only the rows above are asserted.
        assert!(!compare(&set(1.0, 100, true), &set(1.5, 100, true)).1);
    }
}

//! What one run of the benchmark produces, and how it is printed.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::names;
use crate::stats::Summary;

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; `what` names it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Repeat `rep` until `seconds` have passed, and at least `min_reps`
/// times.
pub fn measure_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep(i);
        i += 1;
    }
}

/// The result of one run: metric name → summary, plus the checks.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub metrics: BTreeMap<&'static str, Summary>,
    pub checks: Checks,
    /// Free-form lines for the reader (sample counts, tail percentiles,
    /// where the time went).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            traced,
            metrics: BTreeMap::new(),
            checks: Checks::default(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, s: Summary) {
        assert!(
            names::end_to_end(name).is_some() || names::per_layer(name).is_some(),
            "{name} is not in the catalogue"
        );
        self.metrics.insert(name, s);
    }

    pub fn samples(&mut self, name: &'static str, xs: &[f64]) {
        self.set(name, Summary::of(xs));
    }

    pub fn point(&mut self, name: &'static str, x: f64) {
        self.set(name, Summary::point(x));
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    fn unit(name: &str) -> &'static str {
        names::end_to_end(name)
            .map(|m| m.unit)
            .or_else(|| names::per_layer(name).map(|m| m.unit))
            .expect("catalogued metric")
    }

    /// Every metric by name with its unit, for the reader.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} seed {} {} ==\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for (name, s) in &self.metrics {
            out.push_str(&format!(
                "{name:<38} {:>16.6} {:<8}",
                s.median,
                Self::unit(name)
            ));
            if s.n > 1 {
                out.push_str(&format!(" q1 {:.6} q3 {:.6} n {}", s.q1, s.q3, s.n));
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out.push_str(&format!(
            "attempted {} failed {} fail_ratio {:.6}\n",
            self.checks.attempted,
            self.checks.failed,
            self.checks.failed as f64 / self.checks.attempted.max(1) as f64
        ));
        for f in &self.checks.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(s.median),
                    Self::unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// The same result with quartiles and sample counts, for `compare`.
    pub fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\"}}",
                    json_number(s.median),
                    json_number(s.q1),
                    json_number(s.q3),
                    s.n,
                    Self::unit(name)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{{}}}}}",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// A float with all its digits, in a form JSON accepts.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metrics are finite");
    let s = format!("{x}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::new("fabric_saturated", 1, false);
        r.point("wall_s", 1.25);
        r.samples("cpu_s", &[1.0, 3.0]);
        r.checks.op(true, String::new);
        r.checks.op(false, || "rep 1".into());
        let v: serde_json::Value = serde_json::from_str(&r.result_line()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], false);
        assert_eq!(v["attempted"], 2u64);
        assert_eq!(v["failed"], 1u64);
        assert_eq!(v["metrics"]["cpu_s"]["value"], 2.0);
        assert_eq!(v["metrics"]["wall_s"]["unit"], "s");
        assert!(serde_json::from_str::<serde_json::Value>(&r.detail_json()).is_ok());
        assert!(r.render().contains("FAILED: rep 1"));
    }

    #[test]
    fn measure_for_honours_the_minimum() {
        let mut n = 0;
        measure_for(0.0, 3, |_| n += 1);
        assert_eq!(n, 3);
    }
}

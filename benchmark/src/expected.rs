//! Correctness pins (`benchmark/expected.json`).
//!
//! For the default seed and one held-out seed the file holds the digest
//! of every fabric report, the final `serve_churn` state digest and the
//! verdict of every `serve_vet` pool push; for `paper_repro`, whose
//! inputs do not depend on the seed, the FNV of each experiment report
//! and the E2 model agreement. Other seeds run with self-consistency
//! checks only. Only a `[benchmark]` change may re-record the file
//! (`run.sh --record`).

use std::collections::BTreeMap;

use serde_json::Value;

pub const PATH: &str = "benchmark/expected.json";
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7;

pub struct Expected(Value);

fn hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        serde_json::from_str(&text)
            .map(Expected)
            .map_err(|e| format!("{PATH}: {e}"))
    }

    fn seed(&self, seed: u64) -> Option<&Value> {
        self.0.get("seeds")?.get(&seed.to_string())
    }

    /// Pinned digest of a fabric report, or of the final churn state.
    pub fn digest(&self, workload: &str, seed: u64) -> Option<u64> {
        hex(self.seed(seed)?.get(workload)?)
    }

    /// Pinned verdict (deadlock or not) of one `serve_vet` pool push.
    pub fn vet_verdict(&self, seed: u64, push_key: &str) -> Option<bool> {
        self.seed(seed)?.get("serve_vet")?.get(push_key)?.as_bool()
    }

    /// Pinned FNV of one `repro all` report, by slug (`e1` … `e14`).
    pub fn report(&self, slug: &str) -> Option<u64> {
        hex(self.0.get("paper_repro")?.get("reports")?.get(slug)?)
    }

    pub fn model_agreement(&self) -> Option<f64> {
        self.0.get("paper_repro")?.get("model_agreement")?.as_f64()
    }
}

/// What `--record` gathers for one seed.
#[derive(Default)]
pub struct SeedPins {
    pub fabric_saturated: u64,
    pub fabric_mixed: u64,
    pub serve_churn: u64,
    pub serve_vet: BTreeMap<String, bool>,
}

/// Write the pins file.
pub fn write(
    reports: &BTreeMap<String, u64>,
    model_agreement: f64,
    seeds: &BTreeMap<u64, SeedPins>,
) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"paper_repro\": {\n");
    out.push_str(&format!(
        "    \"model_agreement\": {model_agreement:?},\n    \"reports\": {{\n"
    ));
    let rows: Vec<String> = reports
        .iter()
        .map(|(slug, d)| format!("      \"{slug}\": \"{d:#018x}\""))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n    }\n  },\n  \"seeds\": {\n");
    let blocks: Vec<String> = seeds
        .iter()
        .map(|(seed, p)| {
            let vet: Vec<String> = p
                .serve_vet
                .iter()
                .map(|(k, v)| format!("        \"{k}\": {v}"))
                .collect();
            format!(
                "    \"{seed}\": {{\n      \"fabric_saturated\": \"{:#018x}\",\n      \
                 \"fabric_mixed\": \"{:#018x}\",\n      \"serve_churn\": \"{:#018x}\",\n      \
                 \"serve_vet\": {{\n{}\n      }}\n    }}",
                p.fabric_saturated,
                p.fabric_mixed,
                p.serve_churn,
                vet.join(",\n")
            )
        })
        .collect();
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  }\n}\n");
    std::fs::write(PATH, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_read_what_write_produces() {
        let text = r#"{"paper_repro": {"model_agreement": 1.0, "reports": {"e2": "0x00000000000000ff"}},
            "seeds": {"7": {"fabric_mixed": "0x0000000000000010", "serve_vet": {"a>b>c": true}}}}"#;
        let e = Expected(serde_json::from_str(text).expect("json"));
        assert_eq!(e.report("e2"), Some(255));
        assert_eq!(e.report("e3"), None);
        assert_eq!(e.model_agreement(), Some(1.0));
        assert_eq!(e.digest("fabric_mixed", 7), Some(16));
        assert_eq!(e.digest("fabric_mixed", 8), None);
        assert_eq!(e.vet_verdict(7, "a>b>c"), Some(true));
        assert_eq!(e.vet_verdict(7, "x"), None);
    }
}

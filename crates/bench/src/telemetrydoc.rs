//! Document builders behind `repro metrics` and `repro trace`.
//!
//! Both subcommands instrument the same canonical scenario — the Fig. 3
//! square with flows 1 and 2, the paper's minimal deadlocking pair — and
//! write a *versioned* machine-readable artifact:
//!
//! * `repro metrics` samples the run through the telemetry layer, builds
//!   the [`METRICS_SCHEMA`] JSON document with [`metrics_doc`], writes it
//!   to `--out`, then reads the file back and renders the printed table
//!   **from the parsed document** ([`metrics_report_from_json`]) — the
//!   table is downstream of the schema, so schema drift is visible.
//! * `repro trace` streams the per-packet trace through a JSONL sink
//!   ([`TraceSinkKind::Jsonl`]) to `--out`, parses the file back with
//!   [`parse_jsonl_trace`], and
//!   summarizes the parsed events ([`trace_report`]).
//!
//! The builders live in the library (not the binary) so the schema-
//! stability tests exercise exactly what the CLI ships.

use pfcsim_net::prelude::*;
use pfcsim_net::telemetry::{MetricKind, TelemetryConfig, TelemetryReport, METRICS_SCHEMA};
use pfcsim_net::trace::TraceEvent;
use pfcsim_simcore::time::SimTime;
use serde_json::Value;

use crate::scenarios;
use crate::table::{Report, Table};

/// Name tag the metrics document carries for its canonical scenario.
pub const METRICS_SCENARIO: &str = "square/fig3-flows-1-2";

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn val<T: serde::Serialize>(x: T) -> Value {
    serde_json::to_value(x).expect("to_value")
}

/// Run the canonical instrumented scenario (the Fig. 3 square, flows 1
/// and 2) under the given telemetry configuration and return the report.
pub fn instrumented_square(quick: bool, telemetry: TelemetryConfig) -> RunReport {
    let mut cfg = scenarios::paper_config();
    cfg.telemetry = telemetry;
    let mut sc = scenarios::square_scenario(cfg, false, None);
    let horizon = if quick {
        SimTime::from_us(300)
    } else {
        SimTime::from_ms(2)
    };
    sc.sim.run(horizon)
}

/// Build the versioned `repro metrics` JSON document from a sampled
/// [`TelemetryReport`].
pub fn metrics_doc(quick: bool, t: &TelemetryReport) -> Value {
    let metrics: Vec<Value> = t
        .registry
        .iter()
        .map(|(desc, series)| {
            obj(vec![
                ("name", val(&desc.name)),
                (
                    "kind",
                    val(match desc.kind {
                        MetricKind::Counter => "counter",
                        MetricKind::Gauge => "gauge",
                    }),
                ),
                ("unit", val(&desc.unit)),
                ("help", val(&desc.help)),
                ("samples", val(series.len() as u64)),
                ("pushed", val(series.pushed())),
                ("last", val(series.last().map(|(_, v)| v).unwrap_or(0.0))),
                ("mean", val(series.mean())),
                ("max", val(series.max())),
            ])
        })
        .collect();
    let goodput: Vec<Value> = t
        .goodput_bps
        .iter()
        .map(|(flow, series)| {
            obj(vec![
                ("flow", val(flow.0 as u64)),
                ("mean_bps", val(series.mean())),
                ("max_bps", val(series.max())),
            ])
        })
        .collect();
    obj(vec![
        ("schema", val(METRICS_SCHEMA)),
        ("scenario", val(METRICS_SCENARIO)),
        ("quick", val(quick)),
        (
            "sample_interval_us",
            val(t.sample_interval.as_ps() as f64 / 1e6),
        ),
        ("samples_taken", val(t.samples_taken)),
        ("trace_recorded", val(t.trace_recorded)),
        ("metrics", Value::Array(metrics)),
        (
            "probes",
            obj(vec![
                ("pause_channels", val(t.pause_ratio.len() as u64)),
                ("mean_pause_ratio", val(t.mean_pause_ratio())),
                ("watched_ingresses", val(t.occupancy.len() as u64)),
                ("peak_occupancy_bytes", val(t.peak_occupancy())),
                ("goodput", Value::Array(goodput)),
            ]),
        ),
    ])
}

fn field<'a>(v: &'a Value, k: &str) -> Result<&'a Value, String> {
    v.get(k)
        .ok_or_else(|| format!("metrics document missing field {k:?}"))
}

fn field_f64(v: &Value, k: &str) -> Result<f64, String> {
    field(v, k)?
        .as_f64()
        .ok_or_else(|| format!("metrics field {k:?} is not a number"))
}

fn field_u64(v: &Value, k: &str) -> Result<u64, String> {
    field(v, k)?
        .as_u64()
        .ok_or_else(|| format!("metrics field {k:?} is not an integer"))
}

fn field_str<'a>(v: &'a Value, k: &str) -> Result<&'a str, String> {
    field(v, k)?
        .as_str()
        .ok_or_else(|| format!("metrics field {k:?} is not a string"))
}

/// Render the `repro metrics` tables from a **parsed** metrics document,
/// validating the schema tag. This is the only path the CLI prints
/// through, so whatever it shows was really round-tripped through the
/// file on disk.
pub fn metrics_report_from_json(doc: &Value) -> Result<Report, String> {
    match field_str(doc, "schema")? {
        METRICS_SCHEMA => {}
        other => return Err(format!("unsupported metrics schema {other:?}")),
    }
    let scenario = field_str(doc, "scenario")?;
    let mut report = Report::new(
        "repro metrics",
        format!("sampled engine telemetry ({scenario})"),
    );

    let mut t = Table::new(
        "engine metrics (registry series)",
        &["metric", "kind", "unit", "samples", "last", "mean", "max"],
    );
    let metrics = field(doc, "metrics")?
        .as_array()
        .ok_or_else(|| "metrics field \"metrics\" is not an array".to_string())?;
    for m in metrics {
        t.row(vec![
            field_str(m, "name")?.to_string(),
            field_str(m, "kind")?.to_string(),
            field_str(m, "unit")?.to_string(),
            field_u64(m, "samples")?.to_string(),
            format!("{:.0}", field_f64(m, "last")?),
            format!("{:.1}", field_f64(m, "mean")?),
            format!("{:.0}", field_f64(m, "max")?),
        ]);
    }
    report.table(t);

    let probes = field(doc, "probes")?;
    let mut t = Table::new("keyed probes (ring series)", &["probe", "value"]);
    t.row(vec![
        "pause channels sampled".into(),
        field_u64(probes, "pause_channels")?.to_string(),
    ]);
    t.row(vec![
        "mean pause ratio".into(),
        format!("{:.4}", field_f64(probes, "mean_pause_ratio")?),
    ]);
    t.row(vec![
        "watched ingresses".into(),
        field_u64(probes, "watched_ingresses")?.to_string(),
    ]);
    t.row(vec![
        "peak ingress occupancy (bytes)".into(),
        format!("{:.0}", field_f64(probes, "peak_occupancy_bytes")?),
    ]);
    let goodput = field(probes, "goodput")?
        .as_array()
        .ok_or_else(|| "metrics field \"goodput\" is not an array".to_string())?;
    for g in goodput {
        t.row(vec![
            format!("flow {} mean goodput (Gbps)", field_u64(g, "flow")?),
            format!("{:.2}", field_f64(g, "mean_bps")? / 1e9),
        ]);
    }
    report.table(t);

    report.note(format!(
        "schema {}; {} telemetry samples at {:.1} us cadence; {} trace events recorded",
        METRICS_SCHEMA,
        field_u64(doc, "samples_taken")?,
        field_f64(doc, "sample_interval_us")?,
        field_u64(doc, "trace_recorded")?,
    ));
    Ok(report)
}

/// Summarize a parsed JSONL trace stream as a per-event-kind count table.
/// `recorded` is the sink's own post-filter count, shown beside the line
/// count actually parsed back so a truncated file is visible.
pub fn trace_report(path: &str, events: &[TraceEvent], recorded: u64) -> Report {
    let mut injected = 0u64;
    let mut hops = 0u64;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for ev in events {
        match ev {
            TraceEvent::Injected { .. } => injected += 1,
            TraceEvent::Hop { .. } => hops += 1,
            TraceEvent::Delivered { .. } => delivered += 1,
            TraceEvent::Dropped { .. } => dropped += 1,
        }
    }
    let mut report = Report::new("repro trace", format!("JSONL trace stream ({path})"));
    let mut t = Table::new("parsed trace events", &["event", "count"]);
    t.row(vec!["injected".into(), injected.to_string()]);
    t.row(vec!["hop".into(), hops.to_string()]);
    t.row(vec!["delivered".into(), delivered.to_string()]);
    t.row(vec!["dropped".into(), dropped.to_string()]);
    t.row(vec!["total parsed".into(), events.len().to_string()]);
    t.row(vec!["sink recorded".into(), recorded.to_string()]);
    report.table(t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_net::telemetry::TraceSinkKind;
    use pfcsim_topo::ids::NodeId;

    #[test]
    fn metrics_doc_round_trips_and_renders() {
        let run = instrumented_square(true, TelemetryConfig::sampling_only());
        let t = run.telemetry.expect("telemetry was on");
        let doc = metrics_doc(true, &t);
        // Through the serializer and back, as the CLI does via the file.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let report = metrics_report_from_json(&parsed).unwrap();
        assert!(!report.tables.is_empty());
        assert!(report.render().contains("datapath.packets_delivered"));
    }

    #[test]
    fn metrics_report_rejects_wrong_schema() {
        let doc = obj(vec![("schema", val("pfcsim-metrics/999"))]);
        assert!(metrics_report_from_json(&doc).is_err());
        assert!(metrics_report_from_json(&Value::Null).is_err());
    }

    #[test]
    fn trace_report_counts_by_kind() {
        let events = vec![
            TraceEvent::Hop {
                t: SimTime::from_us(1),
                pkt: 0,
                node: NodeId(1),
                ttl: 5,
            },
            TraceEvent::Hop {
                t: SimTime::from_us(2),
                pkt: 0,
                node: NodeId(2),
                ttl: 4,
            },
        ];
        let r = trace_report("x.jsonl", &events, 2);
        let s = r.render();
        assert!(s.contains("| hop"));
        assert!(s.contains("2"));
    }

    #[test]
    fn null_sink_config_builds() {
        let c = TelemetryConfig::sampling_only();
        assert!(c.enabled);
        assert_eq!(c.sink, TraceSinkKind::Null);
    }
}

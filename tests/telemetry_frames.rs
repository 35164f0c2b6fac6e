//! Telemetry pins. The `repro metrics --quick` document and the
//! `repro trace --quick` JSONL stream keep their FNV digests, and three
//! checkpoint frames of a paused telemetry run — one per trace sink,
//! committed under `tests/data/` — decode, re-encode byte for byte, and
//! resume to the uninterrupted run: the same report, telemetry JSON
//! included, and for the JSONL sink the same trace-file bytes.

use pfcsim::prelude::*;
use pfcsim::simcore::snap::fnv1a;
use pfcsim_experiments::telemetrydoc;

/// `fnv1a` of the `repro metrics --quick` document as written.
const METRICS_DOC_DIGEST: u64 = 0xc6dabaef0fa51e42;
/// `fnv1a` of the `repro trace --quick` JSONL stream.
const TRACE_STREAM_DIGEST: u64 = 0x3dae5a35575ab36a;

#[test]
fn metrics_document_and_trace_stream_digests_are_pinned() {
    let run = telemetrydoc::instrumented_square(true, TelemetryConfig::on());
    let doc = telemetrydoc::metrics_doc(true, &run.telemetry.expect("telemetry on"));
    let text = serde_json::to_string_pretty(&doc).expect("json") + "\n";
    assert_eq!(
        fnv1a(text.as_bytes()),
        METRICS_DOC_DIGEST,
        "metrics document moved"
    );

    let path = format!("{}/telemetry-pin.trace.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let mut telemetry = TelemetryConfig::on();
    telemetry.sink = TraceSinkKind::Jsonl { path: path.clone() };
    telemetrydoc::instrumented_square(true, telemetry);
    let stream = std::fs::read(&path).expect("trace stream written");
    assert_eq!(fnv1a(&stream), TRACE_STREAM_DIGEST, "trace stream moved");
}

const PAUSE_AT: SimTime = SimTime::from_us(20);
const HORIZON: SimTime = SimTime::from_us(40);
/// Relative to the package root, where the tests run: the frame embeds
/// the path, so it must name the same file on every checkout.
const JSONL_PATH: &str = "target/tmp/telemetry-frame.trace.jsonl";

/// A 3-switch line with two hosts sending into a third (so PFC pauses
/// and the pause probe has spans to sample), telemetry on at a 5 µs
/// cadence into 64-slot rings, flow 1's trace going to `sink`.
fn build(sink: TraceSinkKind) -> NetSim {
    let b = line(3, LinkSpec::default());
    let mut cfg = SimConfig::default();
    cfg.telemetry = TelemetryConfig {
        sample_interval: SimDuration::from_us(5),
        ring_capacity: 64,
        filter: TraceFilter::flows([FlowId(1)]),
        sink,
        ..TelemetryConfig::on()
    };
    let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
    sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[2]));
    sim.add_flow(FlowSpec::infinite(1, b.hosts[1], b.hosts[2]));
    sim
}

/// Everything a report says: the golden digest of the verdict and
/// statistics, and the telemetry report as JSON.
fn fingerprint(r: &RunReport) -> (u64, String) {
    let telemetry = serde_json::to_string(r.telemetry.as_ref().expect("telemetry on"));
    (pfcsim::net::golden::digest(r), telemetry.expect("json"))
}

fn data(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The committed frame: it decodes, re-encodes to the same bytes, and
/// is the frame this build writes when it pauses the run there.
fn committed_frame(name: &str, sink: TraceSinkKind) -> Checkpoint {
    let frame = data(name);
    let ckpt = Checkpoint::from_bytes(&frame).expect("the committed frame decodes");
    assert_eq!(ckpt.to_bytes(), frame, "{name}: re-encoding moved bytes");
    let mut sim = build(sink);
    assert!(sim.advance_until(PAUSE_AT, HORIZON).is_none());
    let fresh = sim.checkpoint().expect("checkpointable").to_bytes();
    assert_eq!(fresh, frame, "{name}: this build writes another frame");
    ckpt
}

/// Resume `name` and check it against the run never interrupted.
fn resumes_to(name: &str, ckpt: Checkpoint, plain: &RunReport) -> TelemetryReport {
    let resumed = NetSim::resume(ckpt).expect("restorable").resume_run();
    assert_eq!(
        fingerprint(&resumed),
        fingerprint(plain),
        "{name}: resume diverged"
    );
    resumed.telemetry.expect("telemetry on")
}

#[test]
fn a_memory_sink_frame_resumes_to_the_uninterrupted_run() {
    let name = "telemetry_memory.ckpt";
    let plain = build(TraceSinkKind::Memory).run(HORIZON);
    let ckpt = committed_frame(name, TraceSinkKind::Memory);
    let t = resumes_to(name, ckpt, &plain);
    assert!(!t.trace.is_empty() && t.samples_taken > 0 && !t.pause_ratio.is_empty());
}

#[test]
fn a_null_sink_frame_resumes_to_the_uninterrupted_run() {
    let name = "telemetry_null.ckpt";
    let plain = build(TraceSinkKind::Null).run(HORIZON);
    let ckpt = committed_frame(name, TraceSinkKind::Null);
    let t = resumes_to(name, ckpt, &plain);
    assert!(t.trace.is_empty() && t.trace_recorded > 0);
}

#[test]
fn a_jsonl_sink_frame_resumes_to_the_same_trace_file() {
    let name = "telemetry_jsonl.ckpt";
    let sink = TraceSinkKind::Jsonl {
        path: JSONL_PATH.into(),
    };
    let dir = std::path::Path::new(JSONL_PATH)
        .parent()
        .expect("a directory");
    std::fs::create_dir_all(dir).expect("trace directory");
    let plain = build(sink.clone()).run(HORIZON);
    let whole = std::fs::read(JSONL_PATH).expect("uninterrupted trace");
    // Pausing the run rewrites the file up to the pause: the committed
    // prefix, which the resume appends to.
    let ckpt = committed_frame(name, sink);
    let prefix = data("telemetry_jsonl.prefix.jsonl");
    assert_eq!(std::fs::read(JSONL_PATH).expect("paused trace"), prefix);
    assert!(whole.len() > prefix.len() && whole.starts_with(&prefix));
    resumes_to(name, ckpt, &plain);
    let resumed = std::fs::read(JSONL_PATH).expect("resumed trace");
    assert!(resumed == whole, "the resumed trace file differs");
}

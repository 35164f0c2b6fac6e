//! Unified instrumentation: a table of engine metrics, ring-buffered
//! time-series probes, and a trace sink.
//!
//! The paper's whole argument rests on *observing* transient in-network
//! state — per-port PAUSE spans, ingress occupancy against the XOFF
//! threshold, flow rates near the boundary `r_d = n·B/TTL`. This module
//! turns the simulator's scattered debug hooks into one layer:
//!
//! * [`MetricRegistry`] — engine-wide counters and gauges of the
//!   datapath, PFC machinery, deadlock detector, fault injector, and
//!   scheduler, one row each in a const table, snapshotted on the
//!   telemetry cadence into [`RingSeries`].
//! * Keyed probes — per-channel pause ratio and resume latency, per-
//!   ingress occupancy vs. XOFF/XON, per-flow goodput — also ring-
//!   buffered, so a long run's memory stays bounded.
//! * The trace sink [`TraceSinkKind`] names — where per-packet
//!   [`TraceEvent`]s go: an in-memory buffer (the classic behaviour), a
//!   streaming JSON Lines file (parse it back with [`parse_jsonl_trace`]),
//!   or a count only, each behind a [`TraceFilter`] with per-flow /
//!   per-node / per-class selection.
//!
//! A running simulator keeps what telemetry has recorded as one record:
//! the report being built, the sink's data, and the sampler's delta
//! trackers. A checkpoint stores that record as it is. The one part that
//! is not data, a JSONL sink's open file, sits beside it; a resume
//! reopens the file for append.
//!
//! Telemetry is **off by default** and costs the hot path one pointer
//! null-check when off: no events are scheduled, no series allocated, and
//! the golden determinism digest is bit-identical (DESIGN.md §6 records
//! the measured off-cost).
//!
//! Enable it through [`TelemetryConfig`] on
//! [`SimConfig::telemetry`](crate::config::SimConfig) (or
//! [`SimBuilder::telemetry`](crate::sim::SimBuilder)); the sampled
//! [`TelemetryReport`] comes back on
//! [`RunReport::telemetry`](crate::sim::RunReport).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::series::RingSeries;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_topo::ids::{FlowId, NodeId, Priority};

use crate::bdg::RxQueue;
use crate::stats::PauseKey;
use crate::trace::TraceEvent;

/// Schema tag carried by every serialized [`TelemetryReport`].
pub const TELEMETRY_SCHEMA: &str = "pfcsim-telemetry/1";
/// Schema tag of the `repro metrics` JSON document.
pub const METRICS_SCHEMA: &str = "pfcsim-metrics/1";
/// Schema tag on the header line of a JSONL trace stream.
pub const TRACE_SCHEMA: &str = "pfcsim-trace/1";

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// What a metric's value means over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically non-decreasing (frames sent, packets dropped).
    Counter,
    /// Instantaneous level (channels paused, bytes buffered).
    Gauge,
}

/// The engine-state source a metric samples from; the sampler maps an
/// id to a value without any per-event bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricId {
    /// Datapath: packets handed to source NICs.
    PacketsInjected,
    /// Datapath: packets received by destination hosts.
    PacketsDelivered,
    /// Datapath: bytes received by destination hosts.
    BytesDelivered,
    /// Datapath: packets destroyed, all causes.
    DropsTotal,
    /// PFC: PAUSE frames sent network-wide.
    PauseFrames,
    /// PFC: RESUME frames sent network-wide.
    ResumeFrames,
    /// PFC: channels currently in a paused span.
    ChannelsPaused,
    /// Deadlock detector: periodic scans that ran the analyzer.
    DeadlockScansRun,
    /// Deadlock detector: scans skipped by the epoch heuristic.
    DeadlockScansSkipped,
    /// Fault injector: faults applied so far.
    FaultsApplied,
    /// Fault injector: PFC frames destroyed by an armed loss process.
    PauseFramesLost,
    /// Scheduler: events processed so far.
    EventsProcessed,
    /// Scheduler: meaningful events still pending.
    EventsPending,
}

/// Descriptor of one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDesc {
    /// Stable dotted name, e.g. `pfc.pause_frames`.
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Unit label, e.g. `frames`, `bytes`, `events`.
    pub unit: String,
    /// One-line human description.
    pub help: String,
}

/// Every metric a run samples, in report order: id, stable dotted name
/// (unique), kind, unit and one-line help.
#[rustfmt::skip]
const METRICS: &[(MetricId, &str, MetricKind, &str, &str)] = {
    use MetricId::*;
    use MetricKind::*;
    &[
        (PacketsInjected, "datapath.packets_injected", Counter, "packets", "packets handed to source NICs"),
        (PacketsDelivered, "datapath.packets_delivered", Counter, "packets", "packets received by destination hosts"),
        (BytesDelivered, "datapath.bytes_delivered", Counter, "bytes", "bytes received by destination hosts"),
        (DropsTotal, "datapath.drops_total", Counter, "packets", "packets destroyed, all causes"),
        (PauseFrames, "pfc.pause_frames", Counter, "frames", "PAUSE frames sent network-wide"),
        (ResumeFrames, "pfc.resume_frames", Counter, "frames", "RESUME frames sent network-wide"),
        (ChannelsPaused, "pfc.channels_paused", Gauge, "channels", "channels currently inside a paused span"),
        (DeadlockScansRun, "deadlock.scans_run", Counter, "scans", "periodic scans that ran the analyzer"),
        (DeadlockScansSkipped, "deadlock.scans_skipped", Counter, "scans", "scans skipped by the epoch heuristic"),
        (FaultsApplied, "faults.applied", Counter, "faults", "fault-plan events applied so far"),
        (PauseFramesLost, "faults.pause_frames_lost", Counter, "frames", "PFC frames destroyed by an armed loss process"),
        (EventsProcessed, "scheduler.events_processed", Counter, "events", "simulator events processed"),
        (EventsPending, "scheduler.events_pending", Gauge, "events", "meaningful events still queued"),
    ]
};

/// Engine-wide metrics: descriptors plus the ring series each one is
/// sampled into.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricRegistry {
    metrics: Vec<(MetricDesc, MetricId, RingSeries)>,
}

impl MetricRegistry {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True iff there are no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Sampled series of a metric by name.
    pub fn series(&self, name: &str) -> Option<&RingSeries> {
        self.metrics
            .iter()
            .find(|(d, _, _)| d.name == name)
            .map(|(_, _, s)| s)
    }

    /// Metrics with their series, in report order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDesc, &RingSeries)> {
        self.metrics.iter().map(|(d, _, s)| (d, s))
    }

    /// Snapshot every metric at `t`, reading each value from `value_of`.
    pub(crate) fn record_all(&mut self, t: SimTime, mut value_of: impl FnMut(MetricId) -> f64) {
        for (_, id, series) in &mut self.metrics {
            series.push(t, value_of(*id));
        }
    }

    /// Every metric's value now, in report order.
    pub(crate) fn values(&self, mut value_of: impl FnMut(MetricId) -> f64) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|(_, id, _)| value_of(*id))
            .collect()
    }
}

/// The registry every run starts from: [`METRICS`], each sampled into
/// a ring of `ring_capacity` slots.
pub(crate) fn default_registry(ring_capacity: usize) -> MetricRegistry {
    let metrics = METRICS
        .iter()
        .map(|&(id, name, kind, unit, help)| {
            let desc = MetricDesc {
                name: name.into(),
                kind,
                unit: unit.into(),
                help: help.into(),
            };
            (desc, id, RingSeries::with_capacity(ring_capacity))
        })
        .collect();
    MetricRegistry { metrics }
}

// ---------------------------------------------------------------------
// Trace filter and sink
// ---------------------------------------------------------------------

/// Selects which per-packet [`TraceEvent`]s reach the configured sink.
/// All three dimensions must match; a `None` dimension admits everything.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceFilter {
    /// Only these flows (`None` = every flow).
    pub flows: Option<Vec<FlowId>>,
    /// Only events at these nodes (`None` = everywhere). An `Injected`
    /// event matches its source host, a `Delivered` its destination.
    pub nodes: Option<Vec<NodeId>>,
    /// 802.1p class mask: bit `p` admits priority `p` (`0xFF` = all).
    pub priority_mask: u8,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            flows: None,
            nodes: None,
            priority_mask: 0xFF,
        }
    }
}

impl TraceFilter {
    /// Admit only the given flows.
    pub fn flows(flows: impl IntoIterator<Item = FlowId>) -> Self {
        TraceFilter {
            flows: Some(flows.into_iter().collect()),
            ..Self::default()
        }
    }

    /// True iff an event for `flow` at priority `priority` passes.
    pub fn admits(&self, flow: FlowId, priority: Priority, ev: &TraceEvent) -> bool {
        if self.priority_mask >> priority.0 & 1 == 0 {
            return false;
        }
        if let Some(flows) = &self.flows {
            if !flows.contains(&flow) {
                return false;
            }
        }
        if let Some(nodes) = &self.nodes {
            let at = match ev {
                TraceEvent::Injected { src, .. } => *src,
                TraceEvent::Hop { node, .. } => *node,
                TraceEvent::Delivered { host, .. } => *host,
                TraceEvent::Dropped { node, .. } => *node,
            };
            if !nodes.contains(&at) {
                return false;
            }
        }
        true
    }
}

/// Which trace sink a run keeps. Lives in the (clonable, serializable)
/// config.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceSinkKind {
    /// Buffer events in memory; they surface as [`TelemetryReport::trace`].
    Memory,
    /// Stream events as JSON Lines to a file (schema header line first).
    Jsonl {
        /// Output path, created (truncated) at build time.
        path: String,
    },
    /// Count and discard.
    Null,
}

/// Events a memory sink retains; recording past it only counts.
const MEMORY_SINK_CAP: u64 = 1_000_000;

/// What a trace sink holds: a memory sink's events, a JSONL sink's path
/// (its file is the durable state), and every sink's post-filter count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Sink {
    /// Events retained in memory up to `cap`; recording stops at the cap,
    /// nothing is evicted.
    Memory {
        events: Vec<TraceEvent>,
        cap: u64,
        recorded: u64,
    },
    /// Events streamed as JSON Lines to `path`.
    Jsonl { path: String, recorded: u64 },
    /// Events counted and discarded.
    Null { recorded: u64 },
}

impl Sink {
    /// An empty sink of the configured kind.
    fn new(kind: &TraceSinkKind) -> Self {
        match kind {
            TraceSinkKind::Memory => Sink::Memory {
                events: Vec::new(),
                cap: MEMORY_SINK_CAP,
                recorded: 0,
            },
            TraceSinkKind::Jsonl { path } => Sink::Jsonl {
                path: path.clone(),
                recorded: 0,
            },
            TraceSinkKind::Null => Sink::Null { recorded: 0 },
        }
    }

    /// Events recorded so far (post-filter, pre-cap).
    pub(crate) fn recorded(&self) -> u64 {
        match self {
            Sink::Memory { recorded, .. }
            | Sink::Jsonl { recorded, .. }
            | Sink::Null { recorded } => *recorded,
        }
    }

    /// Whether a run configured with `kind` can hold this sink: the same
    /// variant, for JSONL the same path, and no more events than the cap.
    pub(crate) fn fits(&self, kind: &TraceSinkKind) -> bool {
        match (self, kind) {
            (Sink::Memory { events, cap, .. }, TraceSinkKind::Memory) => {
                events.len() as u64 <= *cap
            }
            (Sink::Jsonl { path, .. }, TraceSinkKind::Jsonl { path: configured }) => {
                path == configured
            }
            (Sink::Null { .. }, TraceSinkKind::Null) => true,
            _ => false,
        }
    }
}

/// Parse a JSONL trace stream back into events, validating the schema
/// header line.
pub fn parse_jsonl_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| "empty trace stream".to_string())?;
    let hv: serde_json::Value =
        serde_json::from_str(header).map_err(|e| format!("bad trace header: {e:?}"))?;
    match hv.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == TRACE_SCHEMA => {}
        Some(s) => return Err(format!("unsupported trace schema {s:?}")),
        None => return Err("trace header missing schema".into()),
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("bad trace line {}: {e:?}", i + 2))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Telemetry configuration, carried on
/// [`SimConfig::telemetry`](crate::config::SimConfig). Disabled by
/// default: a default-config run schedules no telemetry events and its
/// results are bit-identical to an uninstrumented engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Master switch. Off ⇒ zero scheduled events, no series, no sink.
    pub enabled: bool,
    /// Probe cadence.
    pub sample_interval: SimDuration,
    /// Ring capacity of every sampled series (memory bound per key).
    pub ring_capacity: usize,
    /// Sample per-channel pause ratio and resume latency.
    pub pause_probe: bool,
    /// Sample per-ingress occupancy and its XOFF/XON thresholds.
    pub occupancy_probe: bool,
    /// Sample per-flow goodput.
    pub goodput_probe: bool,
    /// Which per-packet events reach the sink.
    pub filter: TraceFilter,
    /// Which sink the run keeps.
    pub sink: TraceSinkKind,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_interval: SimDuration::from_us(1),
            ring_capacity: 4096,
            pause_probe: true,
            occupancy_probe: true,
            goodput_probe: true,
            filter: TraceFilter::default(),
            sink: TraceSinkKind::Memory,
        }
    }
}

impl TelemetryConfig {
    /// The default configuration with the master switch on.
    pub fn on() -> Self {
        TelemetryConfig {
            enabled: true,
            ..Self::default()
        }
    }

    /// Telemetry on with the per-packet trace only counted
    /// ([`TraceSinkKind::Null`]): keyed probes and registry metrics
    /// only. The cheap configuration for experiments that want series
    /// without retaining events.
    pub fn sampling_only() -> Self {
        TelemetryConfig {
            enabled: true,
            sink: TraceSinkKind::Null,
            ..Self::default()
        }
    }

    /// Validate ranges (called from `SimConfig::validate`).
    pub fn validate(&self) -> Result<(), Error> {
        if !self.enabled {
            return Ok(());
        }
        if self.sample_interval.is_zero() {
            return Err("telemetry sample interval must be positive".into());
        }
        if self.ring_capacity == 0 {
            return Err("telemetry ring capacity must be positive".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Everything telemetry sampled during a run, returned on
/// [`RunReport::telemetry`](crate::sim::RunReport).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Always [`TELEMETRY_SCHEMA`].
    pub schema: String,
    /// The cadence the series were sampled at.
    pub sample_interval: SimDuration,
    /// Engine-wide metrics: descriptors plus sampled rings.
    pub registry: MetricRegistry,
    /// Fraction of each sample window a channel spent paused, per
    /// directed (link, priority), in `[0, 1]`.
    pub pause_ratio: BTreeMap<PauseKey, RingSeries>,
    /// Mean XOFF→XON span length (µs) of pause intervals that closed
    /// within each sample window; a sample appears only for windows in
    /// which some interval closed.
    pub resume_latency_us: BTreeMap<PauseKey, RingSeries>,
    /// Ingress-queue occupancy (bytes) per (switch, port, class): every
    /// switch ingress × every priority in use, whatever the run watches
    /// (`NetSim::watch_only` narrows only `NetStats::occupancy`).
    pub occupancy: BTreeMap<RxQueue, RingSeries>,
    /// Effective XOFF threshold (bytes) beside each occupancy series —
    /// a moving line under dynamic-alpha thresholds.
    pub xoff_threshold: BTreeMap<RxQueue, RingSeries>,
    /// Effective XON threshold (bytes) beside each occupancy series.
    pub xon_threshold: BTreeMap<RxQueue, RingSeries>,
    /// Per-flow goodput (bits/s) over each sample window.
    pub goodput_bps: BTreeMap<FlowId, RingSeries>,
    /// Number of telemetry samples taken.
    pub samples_taken: u64,
    /// Trace events the sink accepted (post-filter).
    pub trace_recorded: u64,
    /// Events retained by a memory sink (empty for other sinks).
    pub trace: Vec<TraceEvent>,
}

impl TelemetryReport {
    fn new(cfg: &TelemetryConfig) -> Self {
        TelemetryReport {
            schema: TELEMETRY_SCHEMA.to_string(),
            sample_interval: cfg.sample_interval,
            registry: default_registry(cfg.ring_capacity),
            pause_ratio: BTreeMap::new(),
            resume_latency_us: BTreeMap::new(),
            occupancy: BTreeMap::new(),
            xoff_threshold: BTreeMap::new(),
            xon_threshold: BTreeMap::new(),
            goodput_bps: BTreeMap::new(),
            samples_taken: 0,
            trace_recorded: 0,
            trace: Vec::new(),
        }
    }

    /// Mean of every channel's pause-ratio series (0.0 if none sampled):
    /// the fabric-wide fraction of time spent paused.
    pub fn mean_pause_ratio(&self) -> f64 {
        if self.pause_ratio.is_empty() {
            return 0.0;
        }
        self.pause_ratio.values().map(RingSeries::mean).sum::<f64>() / self.pause_ratio.len() as f64
    }

    /// Largest occupancy sample across every watched ingress (bytes).
    pub fn peak_occupancy(&self) -> f64 {
        self.occupancy
            .values()
            .map(RingSeries::max)
            .fold(0.0, f64::max)
    }

    /// Mean sampled goodput of one flow (bits/s), if it was sampled.
    pub fn mean_goodput_bps(&self, flow: FlowId) -> Option<f64> {
        self.goodput_bps.get(&flow).map(RingSeries::mean)
    }
}

// ---------------------------------------------------------------------
// Live state (owned by NetSim while a run is in flight)
// ---------------------------------------------------------------------

/// What telemetry has recorded so far, as a checkpoint stores it: the
/// report under construction, the sink's data, and the sampler's delta
/// trackers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TelemetryRecord {
    pub(crate) report: TelemetryReport,
    pub(crate) sink: Sink,
    /// Cumulative paused duration per channel at the previous sample.
    pub(crate) last_pause_dur: BTreeMap<PauseKey, SimDuration>,
    /// Closed-interval count per channel at the previous sample.
    pub(crate) last_closed: BTreeMap<PauseKey, usize>,
    /// Delivered bytes per dense flow index at the previous sample.
    pub(crate) last_flow_bytes: Vec<u64>,
    /// When the previous sample was taken.
    pub(crate) last_sample_at: SimTime,
}

/// Live telemetry state: the config, the record, and a JSONL sink's open
/// file. Boxed behind an `Option` on `NetSim`, so the hot path pays one
/// null-check when telemetry is off.
pub(crate) struct TelemetryState {
    pub(crate) cfg: TelemetryConfig,
    pub(crate) rec: TelemetryRecord,
    /// A JSONL sink's file; `None` for the other sinks, and after the
    /// first write error.
    pub(crate) file: Option<BufWriter<File>>,
    /// The queues the occupancy probe reads: every switch ingress ×
    /// every priority in use, whatever the run watches. Derived when the
    /// run starts or resumes, so no frame carries it.
    pub(crate) probe_keys: Vec<RxQueue>,
}

impl TelemetryState {
    /// Live state around `rec`. A fresh run's JSONL sink file is created
    /// (truncated) with the schema header line; a resumed run's is
    /// reopened for append, so the stream written before the checkpoint
    /// is extended, not truncated. A file that cannot be created is a bad
    /// config; one that cannot be reopened is a frame this host cannot
    /// resume.
    pub(crate) fn open(
        cfg: TelemetryConfig,
        rec: TelemetryRecord,
        fresh: bool,
    ) -> Result<Self, Error> {
        let file = match &rec.sink {
            Sink::Jsonl { path, .. } => {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .create(true)
                    .append(!fresh)
                    .truncate(fresh)
                    .open(path);
                let file = file.map_err(|e| match fresh {
                    true => Error::Config(format!("cannot open trace sink {path}: {e}")),
                    false => Error::Unsupported(format!("cannot reopen trace sink {path}: {e}")),
                })?;
                Some(BufWriter::new(file))
            }
            Sink::Memory { .. } | Sink::Null { .. } => None,
        };
        let mut t = TelemetryState {
            cfg,
            rec,
            file,
            probe_keys: Vec::new(),
        };
        if fresh {
            t.write_line(format_args!("{{\"schema\":\"{TRACE_SCHEMA}\"}}"));
        }
        Ok(t)
    }

    /// Route one trace event through the filter into the sink.
    #[inline]
    pub(crate) fn trace(&mut self, flow: FlowId, priority: Priority, ev: &TraceEvent) {
        if !self.cfg.filter.admits(flow, priority, ev) {
            return;
        }
        match &mut self.rec.sink {
            Sink::Memory {
                events,
                cap,
                recorded,
            } => {
                *recorded += 1;
                if (events.len() as u64) < *cap {
                    events.push(*ev);
                }
            }
            Sink::Jsonl { recorded, .. } => {
                *recorded += 1;
                if self.file.is_some() {
                    let line = serde_json::to_string(ev).expect("TraceEvent serializes");
                    self.write_line(line);
                }
            }
            Sink::Null { recorded } => *recorded += 1,
        }
    }

    /// Write one line to a JSONL sink's file.
    fn write_line(&mut self, line: impl std::fmt::Display) {
        if let Some(Err(e)) = self.file.as_mut().map(|out| writeln!(out, "{line}")) {
            self.write_failed(e);
        }
    }

    /// Flush a JSONL sink's file, so it holds every event the record
    /// counts: at a checkpoint and at the end of the run.
    pub(crate) fn flush(&mut self) {
        if let Some(Err(e)) = self.file.as_mut().map(Write::flush) {
            self.write_failed(e);
        }
    }

    /// The first write error is reported on stderr and closes the file:
    /// later events are counted, not written.
    fn write_failed(&mut self, e: std::io::Error) {
        self.file = None;
        if let Sink::Jsonl { path, .. } = &self.rec.sink {
            crate::warn::warn_once(&format!("trace-sink:{path}"), || {
                format!("pfcsim: trace sink {path}: {e}; later events are counted, not written")
            });
        }
    }

    /// Close out the run: flush the sink and hand the report over with
    /// the sink's count and retained events.
    pub(crate) fn finalize(mut self) -> TelemetryReport {
        self.flush();
        let TelemetryRecord {
            mut report, sink, ..
        } = self.rec;
        report.trace_recorded = sink.recorded();
        if let Sink::Memory { events, .. } = sink {
            report.trace = events;
        }
        report
    }

    /// Hand the report over, leaving an empty one: for a simulator
    /// about to be replaced by its own checkpoint image.
    pub(crate) fn take_report(&mut self) -> TelemetryReport {
        std::mem::replace(&mut self.rec.report, TelemetryReport::new(&self.cfg))
    }
}

/// How far telemetry had got at one instant of a run: what
/// [`TelemetryRecord::extend_periods`] repeats from.
#[derive(Debug, Clone)]
pub(crate) struct TelemetryMark {
    /// Per metric: samples pushed, and its value then.
    registry: Vec<(u64, f64)>,
    pause_ratio: BTreeMap<PauseKey, u64>,
    resume_latency_us: BTreeMap<PauseKey, u64>,
    occupancy: BTreeMap<RxQueue, u64>,
    xoff_threshold: BTreeMap<RxQueue, u64>,
    xon_threshold: BTreeMap<RxQueue, u64>,
    goodput_bps: BTreeMap<FlowId, u64>,
    samples_taken: u64,
    recorded: u64,
    last_pause_dur: BTreeMap<PauseKey, SimDuration>,
    last_closed: BTreeMap<PauseKey, usize>,
    last_flow_bytes: Vec<u64>,
}

/// Samples pushed per keyed ring.
fn pushed<K: Ord + Copy>(rings: &BTreeMap<K, RingSeries>) -> BTreeMap<K, u64> {
    rings.iter().map(|(k, r)| (*k, r.pushed())).collect()
}

/// Repeat every keyed ring's last period `k` more times; keyed probes
/// sample state that repeats with the run, so no value grows.
fn extend_rings<K: Ord>(
    rings: &mut BTreeMap<K, RingSeries>,
    mark: &BTreeMap<K, u64>,
    k: u64,
    period: SimDuration,
) {
    for (key, ring) in rings.iter_mut() {
        ring.extend_periods(mark.get(key).copied().unwrap_or(0), k, period, 0.0);
    }
}

impl TelemetryRecord {
    /// The record before the first sample: an empty report and sink of
    /// the configured kind.
    pub(crate) fn fresh(cfg: &TelemetryConfig) -> Self {
        TelemetryRecord {
            report: TelemetryReport::new(cfg),
            sink: Sink::new(&cfg.sink),
            last_pause_dur: BTreeMap::new(),
            last_closed: BTreeMap::new(),
            last_flow_bytes: Vec::new(),
            last_sample_at: SimTime::ZERO,
        }
    }

    /// Where every series and delta tracker stands now; `value_of` reads
    /// the metrics.
    pub(crate) fn mark(&self, value_of: impl FnMut(MetricId) -> f64) -> TelemetryMark {
        let r = &self.report;
        let values = r.registry.values(value_of);
        TelemetryMark {
            registry: (r.registry.metrics.iter().zip(values))
                .map(|((_, _, ring), v)| (ring.pushed(), v))
                .collect(),
            pause_ratio: pushed(&r.pause_ratio),
            resume_latency_us: pushed(&r.resume_latency_us),
            occupancy: pushed(&r.occupancy),
            xoff_threshold: pushed(&r.xoff_threshold),
            xon_threshold: pushed(&r.xon_threshold),
            goodput_bps: pushed(&r.goodput_bps),
            samples_taken: r.samples_taken,
            recorded: self.sink.recorded(),
            last_pause_dur: self.last_pause_dur.clone(),
            last_closed: self.last_closed.clone(),
            last_flow_bytes: self.last_flow_bytes.clone(),
        }
    }

    /// The record of a run whose last period — from `mark` to now —
    /// repeats `k` more times. `values` are the metrics now: a metric
    /// that grew by `v` over the period grows by `v` per repetition (a
    /// counter), one that did not stays put (a gauge). Only a null sink
    /// can be fast-forwarded: it keeps a count, not the events.
    pub(crate) fn extend_periods(
        &mut self,
        mark: &TelemetryMark,
        values: &[f64],
        k: u64,
        period: SimDuration,
    ) {
        use crate::stats::extend_count;
        let TelemetryRecord {
            report,
            sink,
            last_pause_dur,
            last_closed,
            last_flow_bytes,
            last_sample_at,
        } = self;
        let TelemetryReport {
            schema: _,
            sample_interval: _,
            registry,
            pause_ratio,
            resume_latency_us,
            occupancy,
            xoff_threshold,
            xon_threshold,
            goodput_bps,
            samples_taken,
            // Both are filled from the sink when the run finishes.
            trace_recorded: _,
            trace: _,
        } = report;
        for (((_, _, ring), &(from, then)), &now) in (registry.metrics.iter_mut())
            .zip(&mark.registry)
            .zip(values)
        {
            ring.extend_periods(from, k, period, now - then);
        }
        extend_rings(pause_ratio, &mark.pause_ratio, k, period);
        extend_rings(resume_latency_us, &mark.resume_latency_us, k, period);
        extend_rings(occupancy, &mark.occupancy, k, period);
        extend_rings(xoff_threshold, &mark.xoff_threshold, k, period);
        extend_rings(xon_threshold, &mark.xon_threshold, k, period);
        extend_rings(goodput_bps, &mark.goodput_bps, k, period);
        extend_count(samples_taken, mark.samples_taken, k);
        match sink {
            Sink::Null { recorded } => extend_count(recorded, mark.recorded, k),
            Sink::Memory { .. } | Sink::Jsonl { .. } => {
                unreachable!("only a null sink is fast-forwarded")
            }
        }
        for (key, d) in last_pause_dur.iter_mut() {
            let then = mark
                .last_pause_dur
                .get(key)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            *d += (*d - then).saturating_mul(k);
        }
        for (key, n) in last_closed.iter_mut() {
            let then = mark.last_closed.get(key).copied().unwrap_or(0);
            *n += k as usize * (*n - then);
        }
        for (b, &then) in last_flow_bytes.iter_mut().zip(&mark.last_flow_bytes) {
            extend_count(b, then, k);
        }
        *last_sample_at += period.saturating_mul(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfcsim_topo::ids::NodeId;

    fn ev(node: u32) -> TraceEvent {
        TraceEvent::Hop {
            t: SimTime::from_us(1),
            pkt: 0,
            node: NodeId(node),
            ttl: 4,
        }
    }

    #[test]
    fn filter_dimensions() {
        let hop = ev(5);
        let all = TraceFilter::default();
        assert!(all.admits(FlowId(0), Priority(0), &hop));
        let by_flow = TraceFilter::flows([FlowId(1)]);
        assert!(!by_flow.admits(FlowId(0), Priority(0), &hop));
        assert!(by_flow.admits(FlowId(1), Priority(0), &hop));
        let by_node = TraceFilter {
            nodes: Some(vec![NodeId(5)]),
            ..TraceFilter::default()
        };
        assert!(by_node.admits(FlowId(0), Priority(0), &hop));
        let elsewhere = TraceFilter {
            nodes: Some(vec![NodeId(9)]),
            ..TraceFilter::default()
        };
        assert!(!elsewhere.admits(FlowId(0), Priority(0), &hop));
        let prio3 = TraceFilter {
            priority_mask: 1 << 3,
            ..TraceFilter::default()
        };
        assert!(!prio3.admits(FlowId(0), Priority(0), &hop));
        assert!(prio3.admits(FlowId(0), Priority(3), &hop));
    }

    #[test]
    fn memory_sink_caps_but_counts() {
        let cfg = TelemetryConfig::on();
        let rec = TelemetryRecord::fresh(&cfg);
        let mut t = TelemetryState::open(cfg, rec, true).expect("memory sink");
        let Sink::Memory { cap, .. } = &mut t.rec.sink else {
            panic!("the default sink keeps events in memory");
        };
        *cap = 2;
        for _ in 0..5 {
            t.trace(FlowId(0), Priority(0), &ev(1));
        }
        let report = t.finalize();
        assert_eq!(report.trace_recorded, 5);
        assert_eq!(report.trace.len(), 2);
    }

    /// `/dev/full` opens, and every write to it fails: the sink keeps
    /// counting, stops writing, and the first error reaches stderr.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_jsonl_write_error_is_reported() {
        let path = "/dev/full";
        let mut cfg = TelemetryConfig::on();
        cfg.sink = TraceSinkKind::Jsonl { path: path.into() };
        let rec = TelemetryRecord::fresh(&cfg);
        let mut t = TelemetryState::open(cfg, rec, true).expect("/dev/full opens");
        for _ in 0..1_000 {
            t.trace(FlowId(0), Priority(0), &ev(1));
        }
        t.flush();
        assert!(t.file.is_none(), "the error closed the file");
        assert_eq!(t.finalize().trace_recorded, 1_000);
        let key = format!("trace-sink:{path}");
        assert!(
            !crate::warn::warn_once(&key, String::new),
            "the write error was not reported"
        );
    }

    #[test]
    fn parser_rejects_wrong_schema() {
        assert!(parse_jsonl_trace("{\"schema\":\"bogus/9\"}\n").is_err());
        assert!(parse_jsonl_trace("").is_err());
    }

    #[test]
    fn registry_samples_every_metric() {
        let mut r = default_registry(16);
        assert_eq!(r.len(), METRICS.len());
        assert!(r.series("pfc.pause_frames").is_some());
        r.record_all(SimTime::from_us(1), |_| 7.0);
        assert_eq!(
            r.series("pfc.pause_frames").unwrap().last(),
            Some((SimTime::from_us(1), 7.0))
        );
    }

    /// Every id is sampled once, under a name no other metric has.
    #[test]
    fn metrics_table_names_each_id_once() {
        for (i, (id, name, ..)) in METRICS.iter().enumerate() {
            for (other, other_name, ..) in &METRICS[..i] {
                assert_ne!(id, other, "{id:?} is in the table twice");
                assert_ne!(name, other_name, "{name} names two metrics");
            }
        }
        // Thirteen distinct ids: every `MetricId` variant.
        assert_eq!(METRICS.len(), 13);
    }

    #[test]
    fn config_validation() {
        TelemetryConfig::default().validate().unwrap();
        let mut t = TelemetryConfig::on();
        t.validate().unwrap();
        t.ring_capacity = 0;
        assert!(t.validate().is_err());
        let mut t = TelemetryConfig::on();
        t.sample_interval = SimDuration::ZERO;
        assert!(t.validate().is_err());
    }
}

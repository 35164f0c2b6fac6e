//! Unified instrumentation: a typed metrics registry, ring-buffered
//! time-series probes, and pluggable trace sinks.
//!
//! The paper's whole argument rests on *observing* transient in-network
//! state — per-port PAUSE spans, ingress occupancy against the XOFF
//! threshold, flow rates near the boundary `r_d = n·B/TTL`. This module
//! turns the simulator's scattered debug hooks into one layer:
//!
//! * [`MetricRegistry`] — engine-wide counters and gauges registered by
//!   the datapath, PFC machinery, deadlock detector, fault injector, and
//!   scheduler, snapshotted on the telemetry cadence into [`RingSeries`].
//! * Keyed probes — per-channel pause ratio and resume latency, per-
//!   ingress occupancy vs. XOFF/XON, per-flow goodput — also ring-
//!   buffered, so a long run's memory stays bounded.
//! * [`TraceSink`] — where per-packet [`TraceEvent`]s go: an in-memory
//!   buffer ([`MemorySink`], the classic behaviour), a streaming JSON
//!   Lines file ([`JsonlSink`]), or a counting bit-bucket ([`NullSink`]),
//!   each behind a [`TraceFilter`] with per-flow / per-node / per-class
//!   selection.
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
use std::io::Write;

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::series::RingSeries;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_topo::ids::{FlowId, NodeId, Priority};

use crate::stats::{IngressKey, PauseKey};
use crate::trace::TraceEvent;

/// Schema tag carried by every serialized [`TelemetryReport`].
pub const TELEMETRY_SCHEMA: &str = "pfcsim-telemetry/1";
/// Schema tag of the `repro metrics` JSON document.
pub const METRICS_SCHEMA: &str = "pfcsim-metrics/1";
/// Schema tag on the header line of a [`JsonlSink`] trace stream.
pub const TRACE_SCHEMA: &str = "pfcsim-trace/1";

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// What a registered metric's value means over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonically non-decreasing (frames sent, packets dropped).
    Counter,
    /// Instantaneous level (channels paused, bytes buffered).
    Gauge,
}

/// The engine-state source a registered metric samples from. Each
/// subsystem registers its ids at run start; the sampler maps an id to a
/// value without any per-event bookkeeping.
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

/// Descriptor of one registered metric.
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

/// Typed registry of engine-wide metrics: descriptors plus the ring
/// series each one is sampled into.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricRegistry {
    metrics: Vec<(MetricDesc, MetricId, RingSeries)>,
}

impl MetricRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a metric; its samples go into a fresh ring of
    /// `ring_capacity` slots.
    ///
    /// # Panics
    /// Panics on a duplicate name.
    pub fn register(
        &mut self,
        id: MetricId,
        name: &str,
        kind: MetricKind,
        unit: &str,
        help: &str,
        ring_capacity: usize,
    ) {
        assert!(
            self.series(name).is_none(),
            "metric {name} registered twice"
        );
        self.metrics.push((
            MetricDesc {
                name: name.to_string(),
                kind,
                unit: unit.to_string(),
                help: help.to_string(),
            },
            id,
            RingSeries::with_capacity(ring_capacity),
        ));
    }

    /// Descriptors of every registered metric, in registration order.
    pub fn descriptors(&self) -> impl Iterator<Item = &MetricDesc> {
        self.metrics.iter().map(|(d, _, _)| d)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True iff nothing is registered.
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

    /// Registered metrics with their series, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricDesc, &RingSeries)> {
        self.metrics.iter().map(|(d, _, s)| (d, s))
    }

    /// Snapshot every registered metric at `t`, reading each value from
    /// `value_of`.
    pub(crate) fn record_all(&mut self, t: SimTime, mut value_of: impl FnMut(MetricId) -> f64) {
        for (_, id, series) in &mut self.metrics {
            series.push(t, value_of(*id));
        }
    }

    /// Every registered metric's value now, in registration order.
    pub(crate) fn values(&self, mut value_of: impl FnMut(MetricId) -> f64) -> Vec<f64> {
        self.metrics
            .iter()
            .map(|(_, id, _)| value_of(*id))
            .collect()
    }
}

/// The registry every run starts from: one entry per engine subsystem
/// counter/gauge, sampled into rings of `ring_capacity` slots.
pub(crate) fn default_registry(ring_capacity: usize) -> MetricRegistry {
    use MetricId::*;
    use MetricKind::*;
    let mut r = MetricRegistry::new();
    let cap = ring_capacity;
    r.register(
        PacketsInjected,
        "datapath.packets_injected",
        Counter,
        "packets",
        "packets handed to source NICs",
        cap,
    );
    r.register(
        PacketsDelivered,
        "datapath.packets_delivered",
        Counter,
        "packets",
        "packets received by destination hosts",
        cap,
    );
    r.register(
        BytesDelivered,
        "datapath.bytes_delivered",
        Counter,
        "bytes",
        "bytes received by destination hosts",
        cap,
    );
    r.register(
        DropsTotal,
        "datapath.drops_total",
        Counter,
        "packets",
        "packets destroyed, all causes",
        cap,
    );
    r.register(
        PauseFrames,
        "pfc.pause_frames",
        Counter,
        "frames",
        "PAUSE frames sent network-wide",
        cap,
    );
    r.register(
        ResumeFrames,
        "pfc.resume_frames",
        Counter,
        "frames",
        "RESUME frames sent network-wide",
        cap,
    );
    r.register(
        ChannelsPaused,
        "pfc.channels_paused",
        Gauge,
        "channels",
        "channels currently inside a paused span",
        cap,
    );
    r.register(
        DeadlockScansRun,
        "deadlock.scans_run",
        Counter,
        "scans",
        "periodic scans that ran the analyzer",
        cap,
    );
    r.register(
        DeadlockScansSkipped,
        "deadlock.scans_skipped",
        Counter,
        "scans",
        "scans skipped by the epoch heuristic",
        cap,
    );
    r.register(
        FaultsApplied,
        "faults.applied",
        Counter,
        "faults",
        "fault-plan events applied so far",
        cap,
    );
    r.register(
        PauseFramesLost,
        "faults.pause_frames_lost",
        Counter,
        "frames",
        "PFC frames destroyed by an armed loss process",
        cap,
    );
    r.register(
        EventsProcessed,
        "scheduler.events_processed",
        Counter,
        "events",
        "simulator events processed",
        cap,
    );
    r.register(
        EventsPending,
        "scheduler.events_pending",
        Gauge,
        "events",
        "meaningful events still queued",
        cap,
    );
    r
}

// ---------------------------------------------------------------------
// Trace filters and sinks
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

/// Which built-in [`TraceSink`] a run instantiates. Lives in the (clonable,
/// serializable) config.
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

/// Destination for filtered per-packet trace events.
pub trait TraceSink: Send {
    /// Record one event.
    fn record(&mut self, ev: &TraceEvent);
    /// Flush buffered output (file sinks); called once at run end.
    fn flush(&mut self) {}
    /// Hand back buffered events, if this sink retains them.
    fn take_events(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }
    /// Events recorded so far (post-filter, pre-cap).
    fn recorded(&self) -> u64;
    /// Capture this sink's state for a checkpoint, if it supports being
    /// checkpointed. The built-in sinks do; a writer-backed [`JsonlSink`]
    /// returns `None`, which makes checkpointing a run that uses one a
    /// clean error instead of a silently lossy resume.
    fn snapshot(&self) -> Option<SinkSnapshot> {
        None
    }
}

/// Checkpointable state of a built-in [`TraceSink`] (see
/// [`TraceSink::snapshot`] and the `checkpoint` module). A restored
/// [`MemorySink`] carries its retained events verbatim; a restored
/// [`JsonlSink`] reopens its file in append mode so the stream written
/// before the checkpoint is extended, not truncated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SinkSnapshot {
    /// A [`MemorySink`]: retained events, retention cap, recorded count.
    Memory {
        /// Events retained at snapshot time.
        events: Vec<TraceEvent>,
        /// Retention cap.
        cap: u64,
        /// Post-filter recorded count.
        recorded: u64,
    },
    /// A path-backed [`JsonlSink`]; the file itself is the durable state.
    Jsonl {
        /// The sink's output path, reopened for append on restore.
        path: String,
        /// Post-filter recorded count.
        recorded: u64,
    },
    /// A [`NullSink`]: only the count survives (by design).
    Null {
        /// Post-filter recorded count.
        recorded: u64,
    },
}

/// The classic behaviour: keep events in memory up to a cap (recording
/// stops at the cap; nothing is evicted).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
    cap: usize,
    recorded: u64,
}

impl MemorySink {
    /// An empty sink retaining at most `cap` events.
    pub fn new(cap: usize) -> Self {
        MemorySink {
            events: Vec::new(),
            cap,
            recorded: 0,
        }
    }

    /// Events retained so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Rebuild a sink from a [`SinkSnapshot::Memory`] (checkpoint resume).
    pub(crate) fn restore(events: Vec<TraceEvent>, cap: usize, recorded: u64) -> Self {
        MemorySink {
            events,
            cap,
            recorded,
        }
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: &TraceEvent) {
        self.recorded += 1;
        if self.events.len() < self.cap {
            self.events.push(*ev);
        }
    }

    fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }

    fn snapshot(&self) -> Option<SinkSnapshot> {
        Some(SinkSnapshot::Memory {
            events: self.events.clone(),
            cap: self.cap as u64,
            recorded: self.recorded,
        })
    }
}

/// Counts events and discards them — for measuring trace overhead, or
/// when only the keyed series matter.
#[derive(Debug, Default)]
pub struct NullSink {
    recorded: u64,
}

impl NullSink {
    /// A fresh counting bit-bucket.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {
        self.recorded += 1;
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }

    fn snapshot(&self) -> Option<SinkSnapshot> {
        Some(SinkSnapshot::Null {
            recorded: self.recorded,
        })
    }
}

/// Streams events as JSON Lines: one header object carrying
/// [`TRACE_SCHEMA`], then one [`TraceEvent`] object per line. Parse the
/// stream back with [`parse_jsonl_trace`].
///
/// Write errors are sticky: the first one is remembered (see
/// [`JsonlSink::error`]) and later writes are skipped.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    recorded: u64,
    error: Option<String>,
    /// Output path when file-backed (`None` for raw writers); gives the
    /// sink an on-disk identity a checkpoint can reopen in append mode.
    path: Option<String>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("recorded", &self.recorded)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Create (truncate) `path` and write the schema header line.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let mut sink = Self::from_writer(Box::new(std::io::BufWriter::new(file)));
        sink.path = Some(path.to_string());
        Ok(sink)
    }

    /// Reopen `path` in append mode *without* rewriting the schema header
    /// — the stream written before a checkpoint is extended, not
    /// truncated (checkpoint resume).
    pub(crate) fn resume(path: &str, recorded: u64) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlSink {
            out: Box::new(std::io::BufWriter::new(file)),
            recorded,
            error: None,
            path: Some(path.to_string()),
        })
    }

    /// Stream into an arbitrary writer (tests, pipes). Writes the schema
    /// header line immediately.
    pub fn from_writer(mut out: Box<dyn Write + Send>) -> Self {
        let error = writeln!(out, "{{\"schema\":\"{TRACE_SCHEMA}\"}}")
            .err()
            .map(|e| e.to_string());
        JsonlSink {
            out,
            recorded: 0,
            error,
            path: None,
        }
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.recorded += 1;
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(ev).expect("TraceEvent serializes");
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e.to_string());
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e.to_string());
        }
    }

    fn recorded(&self) -> u64 {
        self.recorded
    }

    fn snapshot(&self) -> Option<SinkSnapshot> {
        // Only file-backed sinks can be reopened on resume; raw writers
        // have no on-disk identity to return to.
        self.path.as_ref().map(|path| SinkSnapshot::Jsonl {
            path: path.clone(),
            recorded: self.recorded,
        })
    }
}

/// Parse a [`JsonlSink`] stream back into events, validating the schema
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
    /// Which built-in sink to instantiate.
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

    /// Telemetry on with the per-packet trace discarded ([`NullSink`]):
    /// keyed probes and registry metrics only. The cheap configuration
    /// for experiments that want series without retaining events.
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
    /// Ingress-queue occupancy (bytes) per watched (switch, port, class).
    pub occupancy: BTreeMap<IngressKey, RingSeries>,
    /// Effective XOFF threshold (bytes) beside each occupancy series —
    /// a moving line under dynamic-alpha thresholds.
    pub xoff_threshold: BTreeMap<IngressKey, RingSeries>,
    /// Effective XON threshold (bytes) beside each occupancy series.
    pub xon_threshold: BTreeMap<IngressKey, RingSeries>,
    /// Per-flow goodput (bits/s) over each sample window.
    pub goodput_bps: BTreeMap<FlowId, RingSeries>,
    /// Number of telemetry samples taken.
    pub samples_taken: u64,
    /// Trace events the sink accepted (post-filter).
    pub trace_recorded: u64,
    /// Events retained by a [`MemorySink`] (empty for other sinks).
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

/// Live telemetry state: the report being built plus the delta trackers
/// the sampler needs. Boxed behind an `Option` on `NetSim`, so the hot
/// path pays one null-check when telemetry is off.
pub(crate) struct TelemetryState {
    pub(crate) cfg: TelemetryConfig,
    pub(crate) report: TelemetryReport,
    pub(crate) sink: Box<dyn TraceSink>,
    /// Cumulative paused duration per channel at the previous sample.
    pub(crate) last_pause_dur: BTreeMap<PauseKey, SimDuration>,
    /// Closed-interval count per channel at the previous sample.
    pub(crate) last_closed: BTreeMap<PauseKey, usize>,
    /// Delivered bytes per dense flow index at the previous sample.
    pub(crate) last_flow_bytes: Vec<u64>,
    /// When the previous sample was taken.
    pub(crate) last_sample_at: SimTime,
}

impl TelemetryState {
    /// Build live state from a validated config, instantiating the
    /// configured sink.
    pub(crate) fn new(cfg: TelemetryConfig) -> Result<Self, String> {
        let sink: Box<dyn TraceSink> = match &cfg.sink {
            TraceSinkKind::Memory => Box::new(MemorySink::new(1_000_000)),
            TraceSinkKind::Null => Box::new(NullSink::new()),
            TraceSinkKind::Jsonl { path } => Box::new(
                JsonlSink::create(path)
                    .map_err(|e| format!("cannot open trace sink {path}: {e}"))?,
            ),
        };
        let report = TelemetryReport::new(&cfg);
        Ok(TelemetryState {
            cfg,
            report,
            sink,
            last_pause_dur: BTreeMap::new(),
            last_closed: BTreeMap::new(),
            last_flow_bytes: Vec::new(),
            last_sample_at: SimTime::ZERO,
        })
    }

    /// Route one trace event through the filter into the sink.
    #[inline]
    pub(crate) fn trace(&mut self, flow: FlowId, priority: Priority, ev: &TraceEvent) {
        if self.cfg.filter.admits(flow, priority, ev) {
            self.sink.record(ev);
        }
    }

    /// Close out the run: flush the sink, drain retained events into the
    /// report, and return it.
    pub(crate) fn finalize(mut self) -> TelemetryReport {
        self.sink.flush();
        self.report.trace_recorded = self.sink.recorded();
        self.report.trace = self.sink.take_events();
        self.report
    }

    /// Capture everything a checkpoint needs to rebuild this state.
    /// Errors when the sink cannot be checkpointed (a writer-backed
    /// [`JsonlSink`]).
    pub(crate) fn snapshot(&mut self) -> Result<TelemetrySnapshot, String> {
        // Flush first so a file sink's on-disk bytes are consistent with
        // the recorded count the snapshot carries.
        self.sink.flush();
        let sink = self.sink.snapshot().ok_or_else(|| {
            "this trace sink cannot be checkpointed: a writer-backed sink \
             has no state a resume could rebuild"
                .to_string()
        })?;
        Ok(TelemetrySnapshot {
            report: self.report.clone(),
            sink,
            last_pause_dur: self.last_pause_dur.clone(),
            last_closed: self.last_closed.clone(),
            last_flow_bytes: self.last_flow_bytes.clone(),
            last_sample_at: self.last_sample_at,
        })
    }

    /// Rebuild live state from a checkpoint snapshot. `cfg` comes from
    /// the restored `SimConfig` (the snapshot does not duplicate it).
    pub(crate) fn restore(cfg: TelemetryConfig, snap: TelemetrySnapshot) -> Result<Self, String> {
        let sink: Box<dyn TraceSink> = match snap.sink {
            SinkSnapshot::Memory {
                events,
                cap,
                recorded,
            } => Box::new(MemorySink::restore(events, cap as usize, recorded)),
            SinkSnapshot::Null { recorded } => Box::new(NullSink { recorded }),
            SinkSnapshot::Jsonl { path, recorded } => Box::new(
                JsonlSink::resume(&path, recorded)
                    .map_err(|e| format!("cannot reopen trace sink {path}: {e}"))?,
            ),
        };
        Ok(TelemetryState {
            cfg,
            report: snap.report,
            sink,
            last_pause_dur: snap.last_pause_dur,
            last_closed: snap.last_closed,
            last_flow_bytes: snap.last_flow_bytes,
            last_sample_at: snap.last_sample_at,
        })
    }
}

/// How far telemetry had got at one instant of a run: what
/// [`TelemetrySnapshot::extend_periods`] repeats from.
#[derive(Debug, Clone)]
pub(crate) struct TelemetryMark {
    /// Per registered metric: samples pushed, and its value then.
    registry: Vec<(u64, f64)>,
    pause_ratio: BTreeMap<PauseKey, u64>,
    resume_latency_us: BTreeMap<PauseKey, u64>,
    occupancy: BTreeMap<IngressKey, u64>,
    xoff_threshold: BTreeMap<IngressKey, u64>,
    xon_threshold: BTreeMap<IngressKey, u64>,
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

impl TelemetryState {
    /// Hand the report over, leaving an empty one: for a simulator
    /// about to be replaced by its own checkpoint image.
    pub(crate) fn take_report(&mut self) -> TelemetryReport {
        std::mem::replace(&mut self.report, TelemetryReport::new(&self.cfg))
    }

    /// Where every series and delta tracker stands now; `value_of` reads
    /// the registered metrics.
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
}

impl TelemetrySnapshot {
    /// The telemetry of a run whose last period — from `mark` to now —
    /// repeats `k` more times. `values` are the registered metrics now:
    /// a metric that grew by `v` over the period grows by `v` per
    /// repetition (a counter), one that did not stays put (a gauge).
    /// Only a null sink can be fast-forwarded: it keeps a count, not
    /// the events.
    pub(crate) fn extend_periods(
        &mut self,
        mark: &TelemetryMark,
        values: &[f64],
        k: u64,
        period: SimDuration,
    ) {
        use crate::stats::extend_count;
        let TelemetrySnapshot {
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
            SinkSnapshot::Null { recorded } => extend_count(recorded, mark.recorded, k),
            SinkSnapshot::Memory { .. } | SinkSnapshot::Jsonl { .. } => {
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

/// Serializable image of a [`TelemetryState`] inside a checkpoint: the
/// report under construction, the sink's checkpointable state, and the
/// sampler's delta trackers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct TelemetrySnapshot {
    pub(crate) report: TelemetryReport,
    pub(crate) sink: SinkSnapshot,
    pub(crate) last_pause_dur: BTreeMap<PauseKey, SimDuration>,
    pub(crate) last_closed: BTreeMap<PauseKey, usize>,
    pub(crate) last_flow_bytes: Vec<u64>,
    pub(crate) last_sample_at: SimTime,
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
        let mut s = MemorySink::new(2);
        for _ in 0..5 {
            s.record(&ev(1));
        }
        assert_eq!(s.recorded(), 5);
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.take_events().len(), 2);
    }

    #[test]
    fn jsonl_sink_round_trips_through_parser() {
        let buf: Vec<u8> = Vec::new();
        let shared = std::sync::Arc::new(std::sync::Mutex::new(buf));
        struct W(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for W {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::from_writer(Box::new(W(shared.clone())));
        let events = [ev(1), ev(2)];
        for e in &events {
            sink.record(e);
        }
        sink.flush();
        assert!(sink.error().is_none());
        let text = String::from_utf8(shared.lock().unwrap().clone()).unwrap();
        let parsed = parse_jsonl_trace(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parser_rejects_wrong_schema() {
        assert!(parse_jsonl_trace("{\"schema\":\"bogus/9\"}\n").is_err());
        assert!(parse_jsonl_trace("").is_err());
    }

    #[test]
    fn registry_registers_and_samples() {
        let mut r = default_registry(16);
        assert!(r.len() >= 10);
        assert!(r.series("pfc.pause_frames").is_some());
        r.record_all(SimTime::from_us(1), |_| 7.0);
        assert_eq!(
            r.series("pfc.pause_frames").unwrap().last(),
            Some((SimTime::from_us(1), 7.0))
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut r = MetricRegistry::new();
        r.register(MetricId::PauseFrames, "x", MetricKind::Counter, "", "", 4);
        r.register(MetricId::PauseFrames, "x", MetricKind::Counter, "", "", 4);
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

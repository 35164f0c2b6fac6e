//! # pfcsim-net — packet-level lossless-Ethernet (PFC) simulator
//!
//! The substrate behind the paper's experiments: a deterministic,
//! byte-accurate simulator of PFC (IEEE 802.1Qbb) datacenter fabrics.
//!
//! * [`bdg`] — the buffer dependency graph over switch ingress buffers,
//!   with Tarjan SCCs, Johnson cycle enumeration, the first-cycle witness
//!   and Eq. 3 (Figures 2(b)/3(b)/4(b));
//! * [`packet`] — data packets and PFC PAUSE/RESUME frames;
//! * [`switch`] — shared-buffer switches with per-(ingress, priority) PFC
//!   accounting, per-(egress, priority) queues, DRR/FIFO arbitration;
//! * [`host`] — PFC-respecting NICs and traffic sources;
//! * [`hybrid`] — the fluid/packet co-simulation backend eliding
//!   uncongested constant-rate flows in closed form;
//! * [`flow`] — infinite-demand / CBR / finite / DCQCN flows;
//! * [`shaper`] — token-bucket ingress rate limiting (Case 3);
//! * [`dcqcn`] — DCQCN congestion control with optional phantom queues;
//! * [`sim`] — the event loop, run protocols and reports;
//! * [`deadlock`] — the fixpoint detector proving pauses permanent;
//! * [`faults`] — scripted link failures, flaps, lossy PFC, reboots, and
//!   route reconvergence with transient loops;
//! * [`stats`] — pause logs, occupancy series, per-flow counters;
//! * [`telemetry`] — metrics table, ring-buffered probes, trace sink;
//! * [`checkpoint`] — crash-safe snapshot/resume of a mid-flight run;
//! * [`serve`] — resident deadlock-sentinel sessions behind a versioned
//!   JSONL protocol (route vetting, bounded what-if probes);
//! * [`golden`] — the fault-laden golden scenario and its pinned digest;
//! * [`config`] — PFC thresholds, pause modes, arbitration, ECN.
//!
//! ```
//! use pfcsim_net::prelude::*;
//! use pfcsim_topo::prelude::*;
//! use pfcsim_simcore::prelude::*;
//!
//! // Two hosts, two switches, one infinite-demand flow.
//! let built = line(2, LinkSpec::default());
//! let mut sim = SimBuilder::new(&built.topo)
//!     .telemetry(TelemetryConfig::on())
//!     .build();
//! sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
//! let report = sim.run(SimTime::from_us(100));
//! assert!(!report.verdict.is_deadlock());
//! let telemetry = report.telemetry.expect("telemetry was enabled");
//! assert!(telemetry.samples_taken > 0);
//! ```

#![warn(missing_docs)]

pub mod bdg;
pub mod checkpoint;
pub mod config;
pub mod dcqcn;
pub mod deadlock;
pub mod faults;
pub mod flow;
pub mod golden;
pub mod host;
pub mod hybrid;
pub mod packet;
pub(crate) mod precheck;
pub mod recovery;
pub mod report;
pub mod serve;
pub mod shaper;
pub mod sim;
pub mod stats;
pub mod switch;
pub mod telemetry;
pub mod timely;
pub mod trace;
pub(crate) mod warn;

/// Number of 802.1p priority classes.
pub const PRIORITY_COUNT: usize = 8;

/// Common imports.
pub mod prelude {
    pub use crate::checkpoint::{config_digest, Checkpoint, CheckpointError};
    pub use crate::config::{
        Arbitration, ClassScheduling, EcnConfig, PauseMode, PfcConfig, SchedulerBackend, SimConfig,
        TtlClassConfig,
    };
    pub use crate::dcqcn::{DcqcnConfig, DcqcnState};
    pub use crate::faults::{FaultAction, FaultEvent, FaultKind, FaultPlan, FaultRecord};
    pub use crate::flow::{Demand, FlowSpec, RouteKind};
    pub use crate::hybrid::HybridConfig;
    pub use crate::packet::{Frame, Packet, PfcFrame, PfcOp};
    pub use crate::recovery::{RecoveryConfig, RecoveryStrategy};
    pub use crate::serve::{
        static_cbd, Answer, Applied, CbdDoc, CbdHop, Control, DecidedBy, Query, RoutePush,
        ServeConfig, ServeSession, Session, SessionSpec, StatusDoc, ThresholdDoc, Update,
        VerdictDoc, WhatIfDoc, SERVE_SCHEMA,
    };
    pub use crate::shaper::TokenBucket;
    pub use crate::sim::{FastForward, NetSim, RunReport, SimBuilder, Verdict};
    pub use crate::stats::{FlowStats, NetStats, PauseKey, PauseLog};
    pub use crate::telemetry::{
        parse_jsonl_trace, MetricDesc, MetricId, MetricKind, MetricRegistry, TelemetryConfig,
        TelemetryReport, TraceFilter, TraceSinkKind, METRICS_SCHEMA, TELEMETRY_SCHEMA,
        TRACE_SCHEMA,
    };
    pub use crate::timely::{TimelyConfig, TimelyState};
    pub use crate::trace::{by_packet, DropReason, TraceEvent};
}

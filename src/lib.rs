//! # pfcsim — PFC deadlocks in datacenter networks
//!
//! Facade crate for the `pfcsim` workspace, a full reproduction of
//! *"Deadlocks in Datacenter Networks: Why Do They Form, and How to Avoid
//! Them"* (Hu et al., HotNets 2016).
//!
//! The workspace provides, from the bottom up:
//!
//! * [`simcore`] — deterministic discrete-event engine (picosecond time,
//!   exact rate arithmetic, seeded RNG, recorders);
//! * [`topo`] — datacenter topologies (Clos/fat-tree, leaf-spine, BCube,
//!   Jellyfish, rings) and routing, including deliberate loop injection;
//! * [`net`] — a packet-level lossless-Ethernet simulator: shared-buffer
//!   switches with per-(ingress, priority) PFC accounting, 802.1Qbb
//!   PAUSE/RESUME, DRR egress arbitration, TTL expiry, token-bucket rate
//!   limiters, DCQCN, and built-in deadlock detection;
//! * [`analysis`] — the paper's contribution: buffer-dependency graphs,
//!   cycle detection, the boundary-state model (Eq. 1–3), deadlock-freedom
//!   verification and sufficiency analysis;
//! * [`mitigation`] — the §4 mitigation planners (TTL classes, rate
//!   limiting, threshold tiering, buffer classes, routing restriction).
//!
//! ## Stable API surface
//!
//! Two entry points are considered stable:
//!
//! * **Batch**: `net::sim::SimBuilder` → [`try_build`] → `NetSim::run`.
//!   Every fallible mutation has a canonical `try_*` form returning the
//!   workspace-wide [`Error`]; the panicking setters are thin `expect`
//!   shims over them.
//! * **Resident**: [`session`] — open a long-running [`session::Session`]
//!   that ingests route updates, link events, and flow changes, and
//!   answers pre-commit what-if deadlock queries without disturbing the
//!   resident state. `repro serve` exposes it as a JSONL service.
//!
//! [`try_build`]: net::sim::SimBuilder::try_build
//!
//! ## Quickstart
//!
//! ```
//! use pfcsim::prelude::*;
//!
//! // The paper's Case 1: a two-switch routing loop at 40 Gbps with TTL 16
//! // deadlocks iff the injection rate exceeds n*B/TTL = 5 Gbps (Eq. 3).
//! let threshold = BoundaryModel::new(2, BitRate::from_gbps(40), 16).deadlock_threshold();
//! assert_eq!(threshold, BitRate::from_gbps(5));
//!
//! // Simulate it.
//! let built = two_switch_loop(LinkSpec::default());
//! let mut tables = shortest_path_tables(&built.topo);
//! install_cycle_route(&built.topo, &mut tables,
//!                     &[built.switches[0], built.switches[1]], built.hosts[1]);
//! let mut sim = SimBuilder::new(&built.topo).tables(tables).build();
//! sim.add_flow(FlowSpec::cbr(0, built.hosts[0], built.hosts[1],
//!                            BitRate::from_gbps(6)).with_ttl(16));
//! let report = sim.run(SimTime::from_ms(30));
//! assert!(report.verdict.is_deadlock());   // 6 > 5: Eq. 3 says so, and it does
//! ```
//!
//! ## Instrumented simulation
//!
//! Build a topology, configure a simulator through [`SimBuilder`]
//! (`net::sim::SimBuilder`), run it, and read the sampled telemetry back
//! off the report:
//!
//! ```
//! use pfcsim::prelude::*;
//!
//! let built = line(2, LinkSpec::default());
//! let mut sim = SimBuilder::new(&built.topo)
//!     .config(SimConfig::default())
//!     .telemetry(TelemetryConfig::on())
//!     .build();
//! sim.add_flow(FlowSpec::infinite(0, built.hosts[0], built.hosts[1]));
//! let report = sim.run(SimTime::from_us(200));
//!
//! let telemetry = report.telemetry.expect("telemetry was enabled");
//! assert_eq!(telemetry.schema, TELEMETRY_SCHEMA);
//! assert!(telemetry.samples_taken > 0);
//! // Engine-wide metrics are registered under stable dotted names...
//! let delivered = telemetry.registry.series("datapath.packets_delivered").unwrap();
//! assert!(delivered.last().unwrap().1 > 0.0);
//! // ...and keyed probes ride along (per-flow goodput, in bits/s).
//! assert!(telemetry.mean_goodput_bps(FlowId(0)).unwrap() > 0.0);
//! ```
//!
//! [`SimBuilder`]: net::sim::SimBuilder

pub use pfcsim_core as analysis;
pub use pfcsim_mitigation as mitigation;
pub use pfcsim_net as net;
pub use pfcsim_simcore as simcore;
pub use pfcsim_topo as topo;

/// The workspace-wide error type: every fallible `try_*` mutation,
/// checkpoint operation, and serve-protocol request resolves to it.
pub use pfcsim_simcore::error::Error;

/// The resident deadlock-sentinel session API (`pfcsim serve`).
///
/// A stable facade over [`net::serve`]: open a [`session::Session`]
/// with [`session::SessionSpec`], mutate it with [`session::Update`],
/// interrogate it with [`session::Query`] (status, static CBD, bounded
/// what-if probes), and snapshot it for crash-safe handoff. The
/// [`session::ServeSession`] wrapper speaks the versioned JSONL wire
/// protocol used by `repro serve`.
pub mod session {
    pub use pfcsim_net::serve::{
        static_cbd, Answer, Applied, CbdDoc, CbdHop, Control, DecidedBy, Query, RoutePush,
        ServeConfig, ServeSession, Session, SessionSpec, StatusDoc, ThresholdDoc, Update,
        VerdictDoc, WhatIfDoc, SERVE_SCHEMA,
    };
}

/// Convenience re-exports spanning the whole workspace.
pub mod prelude {
    pub use pfcsim_core::prelude::*;
    pub use pfcsim_mitigation::prelude::*;
    pub use pfcsim_net::prelude::*;
    pub use pfcsim_simcore::prelude::*;
    pub use pfcsim_topo::prelude::*;
}

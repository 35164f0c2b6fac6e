//! The packet-level lossless-Ethernet simulator.
//!
//! [`NetSim`] instantiates one [`crate::switch::Switch`] per switch
//! node and one [`crate::host::Host`] per host node of a
//! [`Topology`], then processes a deterministic event stream: packet
//! arrivals, transmissions, PFC PAUSE/RESUME, shaper releases, flow
//! start/stop, occupancy sampling and deadlock scans.
//!
//! ## Parts
//!
//! A `NetSim` is two parts and a thin event loop around them. The
//! `Datapath` (`datapath.rs`, host side in `nic.rs`) holds what the
//! per-packet handlers read and write; the `ControlPlane` (`control.rs`)
//! holds tables, faults, recovery and the detector's cadence and verdict;
//! this file keeps the queue, the clocks, the run protocols,
//! checkpoint capture and restore, and the telemetry and hybrid boxes. A
//! field lives in the part whose handlers write it. One function,
//! `NetSim::from_image`, builds both parts from a checkpoint image and
//! derives every field a frame does not carry; a new simulator resumes
//! the image of its run before the first event (`Checkpoint::fresh`).
//!
//! ## Run protocols
//!
//! * [`NetSim::run`] — simulate to a horizon; the deadlock analyzer runs
//!   periodically (see `SimConfig::deadlock_scan_interval`) and, by
//!   default, stops the run as soon as a deadlock is confirmed.
//! * [`NetSim::run_with_drain`] — the paper's own Fig. 4 methodology: stop
//!   every flow at `stop_at`, then let the network drain. If the event
//!   queue quiesces while bytes remain buffered, those bytes can *never*
//!   move: a permanent deadlock.
//! * [`NetSim::run_to_verdict`] — `run(h).verdict`, returned as soon as
//!   it is settled.
//!
//! All three step at the detector's cadence and fast-forward a run that
//! settles into a periodic steady state (`period.rs`): the report is
//! byte-identical to the one simulating every period gives.
//! [`NetSim::advance_until`], the checkpointable protocol every `serve`
//! path uses, simulates every event.

mod control;
mod datapath;
mod nic;
mod period;

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::event::EventQueue;
use pfcsim_simcore::time::SimTime;
use pfcsim_simcore::units::Bytes;
use pfcsim_simcore::wheel::DEFAULT_TICK_SHIFT;
use pfcsim_topo::graph::Topology;
use pfcsim_topo::ids::{FlowId, NodeId, PortNo, Priority};
use pfcsim_topo::routing::ForwardingTables;

pub(crate) use control::{ControlPlane, RebootState, RouteUpdate};
pub(crate) use datapath::{Datapath, FlowArena, FrameSlab, PortInfo};
pub(crate) use period::Mark;
pub use period::{fast_forwarded_runs, FastForward};

use crate::checkpoint::{Checkpoint, CheckpointError, QueueSnapshot};
use crate::config::SimConfig;
use crate::deadlock::DeadlockTracker;
use crate::flow::Demand;
use crate::packet::Packet;
use crate::precheck::{self, window_is_deadlock_free};
use crate::stats::{NetStats, PauseKey};
use crate::switch::InFlight;
use crate::telemetry::{TelemetryConfig, TelemetryReport, TelemetryState};
use crate::trace::TraceEvent;
use period::Recurrence;

/// Simulator events.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Ev {
    Arrive {
        node: NodeId,
        port: PortNo,
        /// Index into the datapath's frame slab. Carrying the payload by
        /// value would make `Arrive` the fattest variant by far and bloat
        /// every slot in the event arena (see the size assert below).
        frame: u32,
    },
    TxDone {
        node: NodeId,
        port: PortNo,
    },
    HostTxDone {
        host: NodeId,
    },
    HostWake {
        host: NodeId,
    },
    FlowTick {
        flow: FlowId,
    },
    OnOffToggle {
        flow: FlowId,
    },
    FlowStart {
        flow: FlowId,
    },
    FlowStop {
        flow: FlowId,
    },
    ShaperRelease {
        node: NodeId,
        port: PortNo,
    },
    PauseRefresh {
        node: NodeId,
        port: PortNo,
        prio: u8,
    },
    PauseExpire {
        node: NodeId,
        port: PortNo,
        prio: u8,
    },
    Cnp {
        flow: FlowId,
    },
    RttSample {
        flow: FlowId,
        rtt_ps: u64,
    },
    DcqcnAlpha {
        flow: FlowId,
    },
    DcqcnRate {
        flow: FlowId,
    },
    RouteUpdate {
        idx: usize,
    },
    Fault {
        idx: usize,
    },
    SwitchRestore {
        node: NodeId,
    },
    Sample,
    DeadlockScan,
    RecoveryScan,
    /// Telemetry probe tick (see [`crate::telemetry`]); scheduled only
    /// when `SimConfig::telemetry.enabled`, so an off-telemetry run's
    /// event count is untouched.
    TelemetrySample,
}

// Every queue slot embeds an `Ev`, so the fattest variant sets the size of
// the whole event arena. Two words covers every variant once `Arrive` goes
// through the frame slab; a change that grows past this bound belongs in a
// side table, not in the event.
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

pub(crate) fn is_meaningful(ev: &Ev) -> bool {
    !matches!(ev, Ev::Sample | Ev::DeadlockScan | Ev::TelemetrySample)
}

/// Why [`NetSim::step_until`] stopped popping events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOutcome {
    /// The step limit was reached with work still queued.
    LimitReached,
    /// The queue quiesced: nothing can ever change again.
    Quiesced,
    /// The configured `max_events` budget ran out.
    MaxEvents,
    /// `stop_on_deadlock` fired.
    DeadlockStop,
}

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No deadlock was detected.
    NoDeadlock,
    /// A permanent deadlock: the listed channels can never resume.
    Deadlock {
        /// Time the deadlock was first confirmed (scan granularity).
        detected_at: SimTime,
        /// A deadlocked cycle (or the full frozen set) of paused channels.
        witness: Vec<PauseKey>,
    },
}

impl Verdict {
    /// True iff the run deadlocked.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Verdict::Deadlock { .. })
    }
}

/// Result of a run: verdict plus everything measured.
#[derive(Debug)]
pub struct RunReport {
    /// Deadlock verdict.
    pub verdict: Verdict,
    /// Simulated time when the run ended.
    pub end_time: SimTime,
    /// Bytes still buffered in switches at the end.
    pub buffered: Bytes,
    /// True iff the event queue fully quiesced (nothing can ever change).
    pub quiesced: bool,
    /// Number of events processed.
    pub events: u64,
    /// Events the hybrid fluid/packet backend did not have to execute
    /// (see [`crate::hybrid`]); zero when the backend is off or idle.
    pub events_elided: u64,
    /// Flows that ran fluid.
    pub fluid_flows: u64,
    /// Always 0: a fluid flow stays fluid for the whole run (see
    /// [`crate::hybrid`]). Kept only because the benchmark reads it.
    pub hybrid_demotions: u64,
    /// Always 0, as `hybrid_demotions`.
    pub hybrid_promotions: u64,
    /// Periodic deadlock scans that actually ran the analyzer.
    pub deadlock_scans_run: u64,
    /// Periodic deadlock scans skipped by the epoch heuristic (nothing
    /// paused/resumed and no byte moved since the last clean scan).
    pub deadlock_scans_skipped: u64,
    /// All measurements.
    pub stats: NetStats,
    /// Sampled telemetry series (see [`crate::telemetry`]); `Some` iff
    /// the run was built with `SimConfig::telemetry.enabled`.
    pub telemetry: Option<TelemetryReport>,
    /// The seed the run was configured with (`SimConfig::seed`) — recorded
    /// so a report is reproducible from itself.
    pub seed: u64,
    /// Set iff the run skipped whole periods of a periodic steady state
    /// (see the module doc). Everything else in the report is what
    /// simulating every period gives, so no digest or frame reads this.
    pub fast_forward: Option<FastForward>,
    /// Digest of the full `SimConfig` (see
    /// [`crate::checkpoint::config_digest`]); pairs with `seed` to pin
    /// the exact configuration a report came from, and is what a resume
    /// checks a checkpoint against.
    pub config_digest: u64,
}

/// Empty: arena leasing is gone and every simulator is built fresh.
/// `benchmark/src/layers.rs` still names this type; it goes with that
/// call in ROADMAP item 1.
#[doc(hidden)]
#[derive(Default)]
pub struct SimArenas;

impl SimArenas {
    /// Empty; goes with `SimArenas` in ROADMAP item 1.
    #[doc(hidden)]
    pub fn new() -> Self {
        SimArenas
    }
}

/// Builds a [`NetSim`]: topology (required), then any of config,
/// explicit forwarding tables and telemetry.
///
/// ```ignore
/// let sim = SimBuilder::new(&topo)
///     .config(cfg)
///     .telemetry(TelemetryConfig::on())
///     .build();
/// ```
///
/// Every build allocates its own event queue, flow arena and frame slab,
/// and a simulator drops them when its run ends: nothing is carried from
/// one run to the next. [`SimBuilder::try_build`] is the canonical entry
/// point: it surfaces invalid configs and topologies as a typed
/// [`Error`] instead of panicking, which is what the resident
/// [`serve`](crate::serve) session requires.
pub struct SimBuilder<'a> {
    topo: &'a Topology,
    cfg: SimConfig,
    tables: Option<ForwardingTables>,
}

impl<'a> SimBuilder<'a> {
    /// Start building a simulator over `topo` with the default config and
    /// shortest-path forwarding tables.
    pub fn new(topo: &'a Topology) -> Self {
        SimBuilder {
            topo,
            cfg: SimConfig::default(),
            tables: None,
        }
    }

    /// Replace the whole simulation config.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the telemetry layer's config (shorthand for mutating
    /// `SimConfig::telemetry`).
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = telemetry;
        self
    }

    /// Use explicit forwarding tables instead of shortest-path routing.
    pub fn tables(mut self, tables: ForwardingTables) -> Self {
        self.tables = Some(tables);
        self
    }

    /// Build, reporting config/topology/sink problems as `Err`.
    pub fn try_build(self) -> Result<NetSim, Error> {
        NetSim::construct(self.topo, self.cfg, self.tables)
    }

    /// Build.
    ///
    /// # Panics
    /// Panics on an invalid config or topology, or an unopenable sink.
    pub fn build(self) -> NetSim {
        self.try_build().expect("SimBuilder::build")
    }
}

/// The simulator. Build with [`SimBuilder`], add flows, then call a run
/// method exactly once.
pub struct NetSim {
    /// What the per-packet handlers read and write.
    pub(crate) dp: Datapath,
    /// Tables, faults, recovery, the detector's cadence and verdict.
    pub(crate) cp: ControlPlane,
    pub(crate) queue: EventQueue<Ev>,
    /// Pending events other than `Sample`, `DeadlockScan` and
    /// `TelemetrySample`; zero means nothing can change any more.
    pub(crate) meaningful: u64,
    pub(crate) events: u64,
    pub(crate) horizon: SimTime,
    pub(crate) started: bool,
    finished: bool,
    /// Every counter and log a report carries; both parts write it.
    pub(crate) stats: NetStats,
    /// Live telemetry state (`None` = telemetry off). Boxed so the
    /// disabled case costs the struct one word and the hot path one
    /// null-check.
    pub(crate) telem: Option<Box<TelemetryState>>,
    /// Hybrid fluid/packet region state (`Some` only when `start()`
    /// classified at least one flow fluid; see [`crate::hybrid`]). Boxed
    /// so the common all-packet case costs one word and one null check.
    pub(crate) hybrid: Option<Box<crate::hybrid::HybridState>>,
    /// Earliest force-stop from `run_with_drain`, recorded before
    /// `start()` so hybrid classification can cap generation exactly.
    pub(crate) drain_stop: Option<SimTime>,
    /// The periods this run skipped, once it has.
    fast_forward: Option<FastForward>,
}

impl NetSim {
    /// The one true constructor, reached through [`SimBuilder`]: the run's
    /// image before its first event, resumed.
    pub(crate) fn construct(
        topo: &Topology,
        cfg: SimConfig,
        tables: Option<ForwardingTables>,
    ) -> Result<Self, Error> {
        cfg.validate()?;
        topo.validate()?;
        let tables = tables.unwrap_or_else(|| pfcsim_topo::routing::shortest_path_tables(topo));
        let img = Checkpoint::fresh(topo, cfg, tables);
        if cfg!(debug_assertions) {
            if let Err(e) = img.check_state() {
                panic!("the fresh image breaks a frame rule: {e}");
            }
        }
        NetSim::from_image(img, true)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The simulator's effective configuration (after builder defaults and
    /// recovery/fault installation). Useful for pairing a live run against
    /// a checkpoint via [`crate::checkpoint::Checkpoint::verify_config`].
    pub fn config(&self) -> &SimConfig {
        &self.dp.cfg
    }

    /// The live forwarding tables (reflecting every route update applied
    /// so far). Read-only; mutate via [`NetSim::tables_mut`] before the
    /// run or [`NetSim::schedule_route_update`] mid-run.
    pub fn tables(&self) -> &ForwardingTables {
        &self.cp.tables
    }

    /// Whether a run method has started executing events.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Whether the run has finished (quiesced, hit its horizon, or hit
    /// the event budget). A finished simulator cannot advance further.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The deadlock recorded so far by the periodic scan (or a recovery
    /// detection), if any: `(detected_at, witness)`. Unlike
    /// [`RunReport::verdict`] this is readable mid-run — the resident
    /// [`serve`](crate::serve) session polls it between advances.
    pub fn deadlock_state(&self) -> Option<(SimTime, &[PauseKey])> {
        self.cp.deadlock.as_ref().map(|(t, w)| (*t, w.as_slice()))
    }

    pub(super) fn trace(&mut self, flow: FlowId, prio: Priority, ev: TraceEvent) {
        if self.dp.traced.get(flow.0 as usize) == Some(&true)
            && self.stats.trace.len() < self.dp.trace_cap
        {
            self.stats.trace.push(ev);
        }
        if let Some(t) = self.telem.as_mut() {
            t.trace(flow, prio, &ev);
        }
    }

    // ------------------------------------------------------------------
    // Run protocols
    // ------------------------------------------------------------------

    /// Simulate until `horizon` (or a confirmed deadlock / quiescence).
    pub fn run(&mut self, horizon: SimTime) -> RunReport {
        self.run_inner(horizon)
    }

    /// The paper's Fig. 4 methodology: force-stop every flow at `stop_at`,
    /// then drain until `drain_until`. Quiescence with buffered bytes is a
    /// proven permanent deadlock.
    pub fn run_with_drain(&mut self, stop_at: SimTime, drain_until: SimTime) -> RunReport {
        assert!(stop_at <= drain_until, "drain must extend past stop");
        self.schedule_flow_stops(stop_at);
        self.run_inner(drain_until)
    }

    /// `self.run(horizon).verdict`, returned at the first step boundary
    /// where it is settled — for a run that reads nothing but its verdict.
    ///
    /// Steps with [`NetSim::advance_until`] at the detector's cadence
    /// (`deadlock_scan_interval`; with scanning off, one step to the
    /// horizon). After each step: a confirmed deadlock is never
    /// overwritten, so it is the verdict; and when the static pre-check
    /// finds no buffer-dependency cycle that any packet in or entering the
    /// network can close under the live tables, with no route update, fault
    /// or switch restore still to fire, no later state can deadlock (paper
    /// §3), so the verdict is `NoDeadlock`. A run that settles into a
    /// periodic steady state skips its whole periods as [`NetSim::run`]
    /// does and simulates the rest, so the final scan sees the state the
    /// full run ends in. A run stopped early is left paused, not
    /// finished.
    pub fn run_to_verdict(&mut self, horizon: SimTime) -> Verdict {
        let Some(step) = self.dp.cfg.deadlock_scan_interval.filter(|s| !s.is_zero()) else {
            return self.run(horizon).verdict;
        };
        self.horizon = horizon;
        if !self.started {
            self.start();
        }
        let steps = horizon.saturating_since(self.now()).div_duration(step);
        let mut watch = self.fast_forward_step().map(|_| Recurrence::new(steps));
        let mut pause = self.now().min(horizon);
        let mut ws = precheck::Workspace::default();
        loop {
            if let Some(report) = self.advance_until(pause, horizon) {
                return report.verdict;
            }
            if let Some((detected_at, witness)) = self.deadlock_state() {
                return Verdict::Deadlock {
                    detected_at,
                    witness: witness.to_vec(),
                };
            }
            // `advance_until` pops everything up to `pause`, so no route
            // update is pending at now: the live tables are the ones every
            // packet is routed with until the next pending change.
            debug_assert!(self.queue.peek_time().is_none_or(|t| t > self.now()));
            if window_is_deadlock_free(&mut ws, &self.dp, &self.queue, &self.cp.tables, false) {
                return Verdict::NoDeadlock;
            }
            if let Some(at) = watch.as_mut().and_then(|rec| self.fast_forward(rec, pause)) {
                (watch, pause) = (None, at);
            }
            pause = pause.checked_add(step).map_or(horizon, |t| t.min(horizon));
        }
    }

    /// Schedule a force-stop of every registered flow at `stop_at` (the
    /// first half of [`NetSim::run_with_drain`], split out so a
    /// checkpointable run can pair it with [`NetSim::advance_until`]).
    pub fn schedule_flow_stops(&mut self, stop_at: SimTime) {
        assert!(!self.started, "run methods may be called once");
        // A FlowStop at stop_at for every flow; stopping a flow twice is
        // harmless (the handler is idempotent).
        // Sorted by id to preserve the scheduling order (and hence the
        // event tie-breaking) of the original id-keyed map.
        let mut ids: Vec<FlowId> = self.dp.flows.spec.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        for id in ids {
            self.sched(stop_at, Ev::FlowStop { flow: id });
        }
        self.drain_stop = Some(match self.drain_stop {
            Some(prev) => prev.min(stop_at),
            None => stop_at,
        });
    }

    pub(super) fn start(&mut self) {
        assert!(!self.started, "a NetSim can only run once");
        self.started = true;
        // Sorted by id: scheduling order fixes event tie-breaking, and the
        // original id-keyed map iterated in id order.
        let mut flow_ids: Vec<FlowId> = self.dp.flows.spec.iter().map(|s| s.id).collect();
        flow_ids.sort_unstable();
        for id in flow_ids {
            let i = self.dp.fidx(id);
            let (start, stop, demand) = {
                let spec = &self.dp.flows.spec[i];
                (spec.start, spec.stop, spec.demand)
            };
            if matches!(demand, Demand::Dcqcn) {
                assert!(
                    self.dp.dcqcn_cfg.is_some(),
                    "flow {id} uses Demand::Dcqcn but set_dcqcn was not called"
                );
                assert!(
                    self.dp.cfg.ecn.is_some(),
                    "DCQCN requires SimConfig::ecn marking"
                );
                let fb = self.compute_feedback_delay(id);
                self.dp.flows.rt[i].feedback_delay = fb;
            }
            if matches!(demand, Demand::Timely) {
                assert!(
                    self.dp.timely_cfg.is_some(),
                    "flow {id} uses Demand::Timely but set_timely was not called"
                );
                let fb = self.compute_feedback_delay(id);
                self.dp.flows.rt[i].feedback_delay = fb;
            }
            self.sched(start, Ev::FlowStart { flow: id });
            if let Some(stop) = stop {
                self.sched(stop, Ev::FlowStop { flow: id });
            }
        }
        let updates: Vec<(SimTime, usize)> = self
            .cp
            .route_updates
            .iter()
            .enumerate()
            .map(|(i, u)| (u.at, i))
            .collect();
        for (at, idx) in updates {
            self.sched(at, Ev::RouteUpdate { idx });
        }
        // Freeze the sampled and probed key sets: rebuilding them per
        // sample was a measurable cost on dense fabrics.
        let every = self.dp.ingress_queues();
        if let Some(t) = self.telem.as_mut() {
            t.probe_keys = every.clone();
        }
        self.cp.sample_keys = match &self.cp.watch_keys {
            Some(v) => v.clone(),
            None => every,
        };
        if self.dp.cfg.sample_interval.is_some() {
            self.sched(SimTime::ZERO, Ev::Sample);
        }
        if self.dp.cfg.deadlock_scan_interval.is_some() {
            self.sched(SimTime::ZERO, Ev::DeadlockScan);
        }
        if self.telem.is_some() {
            self.sched(SimTime::ZERO, Ev::TelemetrySample);
        }
        if let Some(rc) = self.dp.cfg.recovery {
            self.sched(SimTime::ZERO + rc.check_interval, Ev::RecoveryScan);
        }
        for idx in 0..self.cp.fault_events.len() {
            self.sched(self.cp.fault_events[idx].0, Ev::Fault { idx });
        }
        // Last: classify flows for the hybrid fluid/packet backend, now
        // that stops, faults, and route updates are all on the books.
        self.hybrid_classify();
    }

    pub(super) fn run_inner(&mut self, horizon: SimTime) -> RunReport {
        self.horizon = horizon;
        if !self.started {
            self.start();
        }
        assert!(!self.finished, "run methods may be called once");
        if let Some(step) = self.fast_forward_step() {
            // Step at the detector's cadence until the state recurs (then
            // jump) or the run ends.
            let steps = horizon.saturating_since(self.now()).div_duration(step);
            let mut rec = Recurrence::new(steps);
            let mut pause = self.now().min(horizon);
            loop {
                if let Some(report) = self.advance_until(pause, horizon) {
                    return report;
                }
                if self.fast_forward(&mut rec, pause).is_some() {
                    break;
                }
                pause = pause.checked_add(step).map_or(horizon, |t| t.min(horizon));
            }
        }
        let outcome = self.step_until(horizon);
        self.finalize(matches!(outcome, StepOutcome::Quiesced))
    }

    /// Run until `pause_at`, or a terminal condition, whichever comes
    /// first — the checkpointable run protocol. `horizon` is the run's
    /// *final* horizon: periodic events (sampling, deadlock scans,
    /// recovery, telemetry) gate their rescheduling on it, so it must be
    /// the eventual end time even while execution pauses earlier.
    ///
    /// Returns `None` if the run paused at `pause_at` with work remaining
    /// (checkpoint, then continue with [`NetSim::resume_run`] — possibly
    /// in a different process), or `Some(report)` if the run ended
    /// (quiescence, `max_events`, a deadlock stop, or `pause_at ==
    /// horizon`).
    pub fn advance_until(&mut self, pause_at: SimTime, horizon: SimTime) -> Option<RunReport> {
        assert!(pause_at <= horizon, "pause must not pass the horizon");
        self.horizon = horizon;
        if !self.started {
            self.start();
        }
        assert!(!self.finished, "run methods may be called once");
        match self.step_until(pause_at) {
            StepOutcome::LimitReached if pause_at < horizon => None,
            outcome => Some(self.finalize(matches!(outcome, StepOutcome::Quiesced))),
        }
    }

    /// Continue a paused or checkpoint-restored run to its horizon and
    /// produce the report. The resumed stream of events is bit-identical
    /// to an uninterrupted run's (see the `checkpoint` module).
    pub fn resume_run(&mut self) -> RunReport {
        assert!(self.started, "resume_run continues a started run");
        assert!(!self.finished, "run methods may be called once");
        let horizon = self.horizon;
        let outcome = self.step_until(horizon);
        self.finalize(matches!(outcome, StepOutcome::Quiesced))
    }

    /// Pop-and-handle events up to `limit` (which may fall short of
    /// `self.horizon` when pausing for a checkpoint), in the queue's
    /// `(time, seq)` order.
    pub(crate) fn step_until(&mut self, limit: SimTime) -> StepOutcome {
        loop {
            if self.dp.cfg.max_events > 0 && self.events >= self.dp.cfg.max_events {
                return StepOutcome::MaxEvents;
            }
            if self.meaningful == 0 {
                return StepOutcome::Quiesced;
            }
            let Some((_, ev)) = self.queue.pop_before(limit) else {
                return if self.queue.is_empty() {
                    StepOutcome::Quiesced
                } else {
                    StepOutcome::LimitReached
                };
            };
            if is_meaningful(&ev) {
                self.meaningful -= 1;
            }
            self.events += 1;
            self.handle(ev);
            if self.dp.cfg.stop_on_deadlock && self.cp.deadlock.is_some() {
                return StepOutcome::DeadlockStop;
            }
        }
    }

    /// Close out the run and build the report (shared tail of every run
    /// protocol).
    pub(super) fn finalize(&mut self, quiesced: bool) -> RunReport {
        // Fluid flows fold against the boundary the *run* actually
        // stopped at — computed before the final scan below so a
        // deadlock first confirmed here (at the end instant) keeps
        // horizon-inclusive boundary semantics.
        let hybrid_folds = self.hybrid_compute_folds();
        // Final scan: catches deadlocks formed after the last periodic scan
        // (or with scanning disabled).
        if self.cp.deadlock.is_none() {
            self.confirm_deadlock();
        }
        // Fold the hot-path per-flow counters into the reported map. An
        // entry appears iff the flow's stats were ever touched, preserving
        // the old lazily-populated `flow_mut` entry semantics.
        for i in 0..self.dp.flows.spec.len() {
            if self.dp.flows.touched[i] {
                let merged = std::mem::take(&mut self.dp.flows.stats[i]);
                self.stats.flows.insert(self.dp.flows.spec[i].id, merged);
            }
        }
        // Account packets still waiting in source backlogs so per-flow
        // conservation (injected = delivered + dropped + unsent) holds at
        // every run end.
        let leftover: Vec<(FlowId, u64, Bytes)> = self
            .dp
            .flows
            .spec
            .iter()
            .zip(self.dp.flows.rt.iter())
            .filter(|(_, rt)| !rt.backlog.is_empty())
            .map(|(spec, rt)| {
                (
                    spec.id,
                    rt.backlog.len() as u64,
                    rt.backlog.iter().map(|p| p.size).sum(),
                )
            })
            .collect();
        for (id, pkts, bytes) in leftover {
            let fs = self.stats.flow_mut(id);
            fs.unsent_packets += pkts;
            fs.unsent_bytes += bytes;
        }
        // Packets still inside the network — wedged in a deadlock or
        // simply in transit at the horizon — so per-flow conservation
        // (injected = delivered + dropped + unsent + stuck) balances at
        // every run end. Exact at quiescence: with no meaningful events
        // pending, nothing is on the wire.
        let mut stuck: BTreeMap<FlowId, (u64, Bytes)> = BTreeMap::new();
        {
            let mut add = |pkt: &Packet| {
                let e = stuck.entry(pkt.flow).or_insert((0, Bytes::ZERO));
                e.0 += 1;
                e.1 += pkt.size;
            };
            for sw in self.dp.switches.iter().flatten() {
                for eg in &sw.egress {
                    for q in eg.queues.iter() {
                        for qp in q.iter() {
                            add(&qp.pkt);
                        }
                    }
                    if let Some(InFlight::Data(qp)) = &eg.in_flight {
                        add(&qp.pkt);
                    }
                }
                for ing in &sw.ingress {
                    for pkt in &ing.shaper_q {
                        add(pkt);
                    }
                }
            }
            for pkt in self.dp.host_in_flight.iter().flatten() {
                add(pkt);
            }
        }
        for (f, (pkts, bytes)) in stuck {
            let fs = self.stats.flow_mut(f);
            fs.stuck_packets = pkts;
            fs.stuck_bytes = bytes;
        }
        let mut buffered = self.buffered_bytes();
        // Quiescence with buffered bytes is a deadlock even if the fixpoint
        // was inconclusive (it cannot be: nothing can move at quiescence).
        if self.cp.deadlock.is_none() && quiesced && !buffered.is_zero() {
            self.cp.deadlock = Some((self.now(), self.stats.permanently_paused()));
        }
        // Fold the fluid flows' closed-form effects through: conservation
        // counters add on top of the packet-side stuck-walk (which
        // assigns), and the analytic in-flight tail joins the buffered
        // total — after the quiescence rule above, which reasons about
        // packet-side buffers only (a fluid tail is empty at quiescence).
        let hybrid_totals = hybrid_folds.map(|(folds, totals)| {
            self.hybrid_apply_folds(&folds);
            buffered += totals.buffered;
            totals
        });
        self.finished = true;
        let verdict = match &self.cp.deadlock {
            Some((at, witness)) => Verdict::Deadlock {
                detected_at: *at,
                witness: witness.clone(),
            },
            None => Verdict::NoDeadlock,
        };
        let telemetry = self.telem.take().map(|t| t.finalize());
        RunReport {
            verdict,
            end_time: self.now().min(self.horizon),
            buffered,
            quiesced,
            events: self.events,
            events_elided: hybrid_totals.as_ref().map_or(0, |t| t.events_elided),
            fluid_flows: hybrid_totals.as_ref().map_or(0, |t| t.fluid_flows),
            hybrid_demotions: 0,
            hybrid_promotions: 0,
            deadlock_scans_run: self.cp.scans_run,
            deadlock_scans_skipped: self.cp.scans_skipped,
            stats: std::mem::take(&mut self.stats),
            telemetry,
            seed: self.dp.cfg.seed,
            fast_forward: self.fast_forward,
            config_digest: crate::checkpoint::config_digest(&self.dp.cfg),
        }
    }

    pub(crate) fn sched(&mut self, at: SimTime, ev: Ev) {
        if is_meaningful(&ev) {
            self.meaningful += 1;
        }
        self.queue.push(at, ev);
    }

    /// Does nothing: serialization trains are gone. `benchmark/src/fabric.rs`
    /// still calls this for its trains-off twin and this PR may not touch
    /// `benchmark/`; the next `[benchmark]` PR removes that twin, the two
    /// `net.sim.trains_gain_*` rows, `PFCSIM_NO_TRAINS` from `host.rs`'s
    /// scrub list, and this shim together.
    #[doc(hidden)]
    pub fn set_trains_enabled(&mut self, _: bool) {}

    /// Does nothing: partitioned execution is gone. `benchmark/src/fabric.rs`
    /// calls this on every run (1 for the measured plan, 2 for the traced
    /// `p2` twin) and a PR outside `[benchmark]` may not touch `benchmark/`;
    /// the same `[benchmark]` PR removes the `p2` twin, the two
    /// `net.partition.p2_speedup_*` rows, the partition env knob from
    /// `host.rs`/`run.sh`, and this shim together.
    #[doc(hidden)]
    pub fn set_partitions(&mut self, _: usize) {}

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    pub(super) fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive { node, port, frame } => {
                let frame = self.dp.frames.take(frame);
                self.on_arrive(node, port, frame)
            }
            Ev::TxDone { node, port } => self.on_tx_done(node, port),
            Ev::HostTxDone { host } => self.on_host_tx_done(host),
            Ev::HostWake { host } => {
                let now = self.now();
                if let Some(h) = self.dp.hosts[host.0 as usize].as_mut() {
                    if h.wake_at == Some(now) {
                        h.wake_at = None;
                    }
                }
                self.host_try_send(host);
            }
            Ev::FlowTick { flow } => self.on_flow_tick(flow),
            Ev::OnOffToggle { flow } => self.on_onoff_toggle(flow),
            Ev::FlowStart { flow } => self.on_flow_start(flow),
            Ev::FlowStop { flow } => self.on_flow_stop(flow),
            Ev::ShaperRelease { node, port } => self.on_shaper_release(node, port),
            Ev::PauseRefresh { node, port, prio } => self.on_pause_refresh(node, port, prio),
            Ev::PauseExpire { node, port, prio } => self.on_pause_expire(node, port, prio),
            Ev::Cnp { flow } => self.on_cnp(flow),
            Ev::RttSample { flow, rtt_ps } => self.on_rtt_sample(flow, rtt_ps),
            Ev::DcqcnAlpha { flow } => self.on_dcqcn_alpha(flow),
            Ev::DcqcnRate { flow } => self.on_dcqcn_rate(flow),
            Ev::RouteUpdate { idx } => {
                let u = self.cp.route_updates[idx].clone();
                self.cp.tables.set(u.node, u.dst, u.ports);
            }
            Ev::Fault { idx } => self.on_fault(idx),
            Ev::SwitchRestore { node } => self.on_switch_restore(node),
            Ev::Sample => self.on_sample(),
            Ev::DeadlockScan => self.on_deadlock_scan(),
            Ev::RecoveryScan => self.on_recovery_scan(),
            Ev::TelemetrySample => self.on_telemetry_sample(),
        }
    }

    /// Total bytes currently buffered in all switches.
    pub fn buffered_bytes(&self) -> Bytes {
        self.dp.switches.iter().flatten().map(|s| s.buffered).sum()
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume (see `crate::checkpoint` for the format)
    // ------------------------------------------------------------------

    /// Capture a complete mid-run image. Pair with
    /// [`NetSim::advance_until`] to pause at a checkpoint cadence, and
    /// [`NetSim::resume`] to restore; the resumed run's report is
    /// bit-identical to the uninterrupted run's.
    ///
    /// Errors when the run has not started (nothing to capture) or has
    /// already finished.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, CheckpointError> {
        if !self.started || self.finished {
            return Err(CheckpointError::Unsupported(
                "only a started, unfinished run can be checkpointed".into(),
            ));
        }
        // Flushed first, so a JSONL sink's file holds every event the
        // record counts.
        let telemetry = self.telem.as_deref_mut().map(|t| {
            t.flush();
            t.rec.clone()
        });
        let (dp, cp) = (&self.dp, &self.cp);
        Ok(Checkpoint {
            topo: dp.topo.clone(),
            cfg: dp.cfg.clone(),
            tables: cp.tables.clone(),
            dcqcn_cfg: dp.dcqcn_cfg,
            timely_cfg: dp.timely_cfg,
            queue: QueueSnapshot {
                backend: self.queue.backend(),
                tick_shift: self.queue.tick_shift(),
                now: self.queue.now(),
                next_seq: self.queue.next_seq(),
                entries: self.queue.live_entries(),
            },
            meaningful: self.meaningful,
            horizon: self.horizon,
            events: self.events,
            switches: dp.switches.clone(),
            hosts: dp.hosts.clone(),
            tx_pause: dp.tx_pause.clone(),
            switch_pfc: dp.switch_pfc.clone(),
            host_in_flight: dp.host_in_flight.clone(),
            frames: dp.frames.slots.clone(),
            frame_free: dp.frames.free.clone(),
            link_up: dp.link_up.clone(),
            flows: dp.flows.spec.clone(),
            rt: dp.flows.rt.clone(),
            fstats: dp.flows.stats.clone(),
            fstats_touched: dp.flows.touched.clone(),
            fmap: dp.flows.map.clone(),
            pinned: dp.flows.pinned.clone(),
            traced: dp.traced.clone(),
            next_pkt_id: dp.next_pkt_id,
            rng: dp.rng.clone(),
            fault_rng: cp.fault_rng.clone(),
            dl_paused: cp.dl.paused_channels(),
            dl_epoch: cp.dl.epoch(),
            last_clean_scan: cp.last_clean_scan,
            scans_run: cp.scans_run,
            scans_skipped: cp.scans_skipped,
            deadlock: cp.deadlock.clone(),
            fault_events: cp.fault_events.clone(),
            route_updates: cp.route_updates.clone(),
            pfc_loss: dp.pfc_loss.clone(),
            pfc_delay: dp.pfc_delay.clone(),
            pause_headroom: dp.pause_headroom,
            reboots: cp.reboots.clone(),
            hybrid: self.hybrid.clone(),
            stats: self.stats.clone(),
            watch_keys: cp.watch_keys.clone(),
            used_prios: dp.used_prios(),
            sample_keys: cp.sample_keys.clone(),
            telemetry,
            trace_cap: dp.trace_cap as u64,
        })
    }

    /// Restore a checkpoint into a runnable simulator. Continue with
    /// [`NetSim::resume_run`]; the resulting report is bit-identical to the
    /// uninterrupted run's.
    ///
    /// The image was checked whole by `Checkpoint::check_state` when it
    /// was decoded.
    pub fn resume(ckpt: Checkpoint) -> Result<NetSim, CheckpointError> {
        NetSim::from_image(ckpt, false)
    }

    /// The one builder of a simulator: the image's every field, plus
    /// what no frame carries — the port table, the DRR quantum (from the
    /// flows), the pause-timer handles (from the queue's live
    /// `PauseExpire`s), the detector's channel arena and telemetry's
    /// probe keys — derived here, so no path can store such a field and
    /// another forget it. A `fresh` image is a run's state before its
    /// first event: a JSONL trace sink is created with its header line
    /// and the run starts when first advanced. Otherwise the sink is
    /// reopened for append and the run continues where it was captured.
    fn from_image(img: Checkpoint, fresh: bool) -> Result<NetSim, Error> {
        let Checkpoint {
            topo,
            cfg,
            tables,
            dcqcn_cfg,
            timely_cfg,
            queue,
            meaningful,
            horizon,
            events,
            switches,
            hosts,
            tx_pause,
            switch_pfc,
            host_in_flight,
            frames,
            frame_free,
            link_up,
            flows,
            rt,
            fstats,
            fstats_touched,
            fmap,
            pinned,
            traced,
            next_pkt_id,
            rng,
            fault_rng,
            dl_paused,
            dl_epoch,
            last_clean_scan,
            scans_run,
            scans_skipped,
            deadlock,
            fault_events,
            route_updates,
            pfc_loss,
            pfc_delay,
            pause_headroom,
            reboots,
            hybrid,
            stats,
            watch_keys,
            // A frame field nothing reads: `ingress_queues` derives the
            // classes in use from the flows (ROADMAP item 12).
            used_prios: _,
            sample_keys,
            telemetry,
            trace_cap,
        } = img;
        let telem = telemetry.map(|rec| TelemetryState::open(cfg.telemetry.clone(), rec, fresh));
        let mut telem = telem.transpose()?.map(Box::new);
        // The exact backend and tick geometry of the image, every live
        // entry reinserted with its `(time, seq)` key.
        let mut q = EventQueue::with_backend_and_tick_shift(
            queue.backend,
            queue.tick_shift.unwrap_or(DEFAULT_TICK_SHIFT),
        );
        q.restore_state(queue.now, queue.next_seq, queue.entries);
        let (port_info, port_base) = Datapath::port_table(&topo, &cfg);
        let quantum = (flows.iter())
            .map(|f| f.packet_size.unwrap_or(cfg.default_packet_size).get())
            .fold(cfg.default_packet_size.get(), u64::max);
        let mut dp = Datapath {
            topo,
            cfg,
            pause_timer: vec![None; port_info.len() * Priority::COUNT],
            port_info,
            port_base,
            quantum,
            tx_pause,
            switches,
            hosts,
            switch_pfc,
            flows: FlowArena {
                spec: flows,
                rt,
                stats: fstats,
                touched: fstats_touched,
                map: fmap,
                pinned,
            },
            host_in_flight,
            frames: FrameSlab {
                slots: frames,
                free: frame_free,
            },
            link_up,
            pfc_loss,
            pfc_delay,
            pause_headroom,
            rng,
            next_pkt_id,
            dcqcn_cfg,
            timely_cfg,
            traced,
            trace_cap: trace_cap as usize,
        };
        // Coalescing keeps at most one pending `PauseExpire` per channel,
        // and a restored queue holds every entry in a slot, so each has a
        // handle.
        q.for_each_live(|id, _, ev| {
            if let Ev::PauseExpire { node, port, prio } = *ev {
                let c = dp.chan(node, port, prio as usize);
                dp.pause_timer[c] = id;
            }
        });
        let dl = DeadlockTracker::new(&dp.topo, &dp.port_info, &dp.port_base, &dl_paused, dl_epoch);
        if let Some(t) = telem.as_mut() {
            t.probe_keys = dp.ingress_queues();
        }
        Ok(NetSim {
            cp: ControlPlane {
                tables,
                route_updates,
                fault_events,
                fault_rng,
                reboots,
                dl,
                last_clean_scan,
                scans_run,
                scans_skipped,
                cross_check_deadlock: false,
                deadlock,
                watch_keys,
                sample_keys,
            },
            dp,
            queue: q,
            meaningful,
            events,
            horizon,
            started: !fresh,
            finished: false,
            stats,
            telem,
            hybrid,
            drain_stop: None,
            fast_forward: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdg::RxQueue;
    use crate::flow::FlowSpec;
    use pfcsim_simcore::units::BitRate;
    use pfcsim_topo::builders::{line, LinkSpec};

    #[test]
    fn single_flow_delivers_at_line_rate() {
        let b = line(2, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
        let report = sim.run(SimTime::from_ms(1));
        assert!(!report.verdict.is_deadlock());
        let fs = &report.stats.flows[&FlowId(0)];
        // 40 Gbps for 1 ms = 5 MB = 5000 packets, minus pipeline fill.
        assert!(
            fs.delivered_packets > 4900,
            "delivered {}",
            fs.delivered_packets
        );
        assert_eq!(fs.dropped_ttl, 0);
        assert_eq!(report.stats.drops_overflow, 0);
    }

    #[test]
    fn cbr_flow_throughput_matches_rate() {
        let b = line(2, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::cbr(
            0,
            b.hosts[0],
            b.hosts[1],
            BitRate::from_gbps(10),
        ));
        let report = sim.run(SimTime::from_ms(2));
        let fs = &report.stats.flows[&FlowId(0)];
        let bps = fs
            .meter
            .average_bps(SimTime::ZERO, SimTime::from_ms(2))
            .expect("traffic flowed");
        assert!((bps - 10e9).abs() / 10e9 < 0.02, "goodput {bps} vs 10 Gbps");
    }

    #[test]
    fn incast_triggers_pfc_without_loss() {
        // Two hosts on S0 both blast one host on S1: the S0->S1 link is
        // 2:1 oversubscribed, ingress counters grow, PFC pauses the hosts.
        let spec = LinkSpec::default();
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let h0 = t.add_host("h0");
        let h1 = t.add_host("h1");
        let sink = t.add_host("sink");
        t.connect(s0, s1, spec.rate, spec.delay);
        t.connect(h0, s0, spec.rate, spec.delay);
        t.connect(h1, s0, spec.rate, spec.delay);
        t.connect(sink, s1, spec.rate, spec.delay);
        let mut sim = SimBuilder::new(&t).config(SimConfig::default()).build();
        sim.add_flow(FlowSpec::infinite(0, h0, sink));
        sim.add_flow(FlowSpec::infinite(1, h1, sink));
        let report = sim.run(SimTime::from_ms(1));
        assert!(!report.verdict.is_deadlock());
        assert!(report.stats.pause_frames > 0, "oversubscription must pause");
        assert_eq!(report.stats.drops_overflow, 0, "lossless");
        // Fair split: each flow gets ~20 Gbps.
        for f in [FlowId(0), FlowId(1)] {
            let fs = &report.stats.flows[&f];
            let bps = fs
                .meter
                .average_bps(SimTime::ZERO, SimTime::from_ms(1))
                .unwrap();
            assert!((bps - 20e9).abs() / 20e9 < 0.1, "flow {f} got {bps}");
        }
    }

    #[test]
    fn conservation_of_packets() {
        let b = line(3, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::cbr(
            0,
            b.hosts[0],
            b.hosts[2],
            BitRate::from_gbps(7),
        ));
        sim.add_flow(FlowSpec::cbr(
            1,
            b.hosts[2],
            b.hosts[0],
            BitRate::from_gbps(9),
        ));
        let report = sim.run_with_drain(SimTime::from_ms(1), SimTime::from_ms(5));
        assert!(report.quiesced, "everything should drain");
        assert_eq!(report.buffered, Bytes::ZERO);
        for fs in report.stats.flows.values() {
            assert_eq!(
                fs.injected_packets,
                fs.delivered_packets + fs.dropped_ttl + fs.dropped_no_route + fs.unsent_packets,
                "conservation"
            );
            assert_eq!(fs.dropped_ttl, 0);
        }
    }

    #[test]
    fn ttl_expiry_drops_in_routing_loop() {
        use pfcsim_topo::builders::two_switch_loop;
        use pfcsim_topo::routing::install_cycle_route;
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .tables(tables)
            .build();
        // 1 Gbps is far below the 5 Gbps deadlock threshold: all packets
        // must die of TTL expiry, no deadlock.
        sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(1)).with_ttl(16));
        let report = sim.run_with_drain(SimTime::from_ms(1), SimTime::from_ms(5));
        assert!(!report.verdict.is_deadlock());
        let fs = &report.stats.flows[&FlowId(0)];
        assert_eq!(fs.delivered_packets, 0);
        assert!(fs.dropped_ttl > 100, "looped packets must expire");
        assert_eq!(
            fs.injected_packets,
            fs.dropped_ttl + fs.delivered_packets + fs.dropped_no_route
        );
    }

    #[test]
    fn routing_loop_above_threshold_deadlocks() {
        use pfcsim_topo::builders::two_switch_loop;
        use pfcsim_topo::routing::install_cycle_route;
        let b = two_switch_loop(LinkSpec::default());
        let mut tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
        install_cycle_route(
            &b.topo,
            &mut tables,
            &[b.switches[0], b.switches[1]],
            b.hosts[1],
        );
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .tables(tables)
            .build();
        // 8 Gbps > n*B/TTL = 5 Gbps: the paper's Eq. 3 predicts deadlock.
        sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(8)).with_ttl(16));
        let report = sim.run(SimTime::from_ms(50));
        assert!(
            report.verdict.is_deadlock(),
            "verdict: {:?}",
            report.verdict
        );
    }

    #[test]
    fn deterministic_replay() {
        let b = line(2, LinkSpec::default());
        let run = || {
            let mut sim = SimBuilder::new(&b.topo)
                .config(SimConfig::default())
                .build();
            sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
            sim.add_flow(FlowSpec::infinite(1, b.hosts[1], b.hosts[0]));
            let r = sim.run(SimTime::from_us(300));
            (
                r.events,
                r.stats.flows[&FlowId(0)].delivered_packets,
                r.stats.pause_frames,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "duplicate flow id")]
    fn duplicate_flow_rejected() {
        let b = line(2, LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
        sim.add_flow(FlowSpec::infinite(0, b.hosts[1], b.hosts[0]));
    }

    #[test]
    fn pinned_path_is_honoured() {
        use pfcsim_topo::builders::square;
        let b = square(LinkSpec::default());
        let mut sim = SimBuilder::new(&b.topo)
            .config(SimConfig::default())
            .build();
        // Pin the LONG way round: h0 -> S0 -> S1 -> S2 -> h2 even though
        // S0 -> S3 -> S2 has equal length (shortest tables could pick it).
        sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[2]).pinned(vec![
            b.hosts[0],
            b.switches[0],
            b.switches[1],
            b.switches[2],
            b.hosts[2],
        ]));
        let report = sim.run(SimTime::from_us(200));
        let fs = &report.stats.flows[&FlowId(0)];
        assert!(fs.delivered_packets > 0);
        // Traffic transited S1: its ingress from S0 saw bytes, so the
        // occupancy series for that ingress existed (sampled ≥ 0 values).
        let s1_from_s0 = RxQueue {
            node: b.switches[1],
            port: b
                .topo
                .port_towards(b.switches[1], b.switches[0])
                .unwrap()
                .port,
            priority: Priority::DEFAULT,
        };
        assert!(report.stats.occupancy.contains_key(&s1_from_s0));
    }

    /// Two switches joined by a 1 µs and a 5 µs link: a flow's feedback
    /// delay sums the links its packets take, the slow one included.
    #[test]
    fn feedback_delay_sums_the_parallel_link_taken() {
        use pfcsim_simcore::time::SimDuration;
        use pfcsim_topo::graph::Topology;
        use pfcsim_topo::routing::shortest_path_tables;
        let mut topo = Topology::new();
        let (a, b) = (topo.add_switch("A"), topo.add_switch("B"));
        let (ha, hb) = (topo.add_host("hA"), topo.add_host("hB"));
        let rate = BitRate::from_gbps(40);
        topo.connect(a, b, rate, SimDuration::from_us(1));
        topo.connect(a, b, rate, SimDuration::from_us(5));
        topo.connect(ha, a, rate, SimDuration::from_us(1));
        topo.connect(hb, b, rate, SimDuration::from_us(1));
        let mut tables = shortest_path_tables(&topo);
        tables.set(a, hb, vec![PortNo(1)]);
        tables.set(b, ha, vec![PortNo(0)]);
        let mut sim = SimBuilder::new(&topo).tables(tables).build();
        sim.add_flow(FlowSpec::infinite(0, ha, hb));
        sim.add_flow(FlowSpec::infinite(1, hb, ha));
        assert_eq!(
            sim.compute_feedback_delay(FlowId(0)),
            SimDuration::from_us(7)
        );
        assert_eq!(
            sim.compute_feedback_delay(FlowId(1)),
            SimDuration::from_us(3)
        );
    }
}

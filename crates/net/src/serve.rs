//! # Resident deadlock-sentinel sessions (`pfcsim serve`)
//!
//! A [`Session`] is a long-running simulator instance that a routing
//! controller keeps open next to a live fabric: it owns a resident
//! [`NetSim`] plus the declarative state that produced it (topology,
//! forwarding tables, traffic matrix, fault log), accepts incremental
//! mutations (route updates, link up/down, flow add/remove), and answers
//! *pre-commit* questions — "would this route push deadlock the fabric?"
//! — without disturbing the resident state.
//!
//! Three verdict layers, cheapest first (the paper's §3–§4 pipeline):
//!
//! 1. **Static CBD** ([`static_cbd`]): walk every active flow's path,
//!    build the (switch, ingress-port) buffer-dependency graph, and look
//!    for a cycle. No cycle ⇒ no PFC deadlock, full stop.
//! 2. **Boundary threshold** (Eq. 3): for a found cycle, the minimum
//!    aggregate injection rate that can sustain a deadlock is
//!    `r_d = n·B/TTL` — below it, paused queues always drain before the
//!    pause frontier wraps the loop.
//! 3. **Bounded what-if simulation** ([`Session::what_if`]): checkpoint
//!    the resident run, resume the checkpoint into a throwaway probe,
//!    apply the candidate pushes, and advance the probe a bounded window,
//!    stopping at the first confirmed deadlock. The probe's verdict is
//!    exact (packet-level) and the resident is untouched: the probe owns
//!    its checkpoint, and the session reports the resident's state digest
//!    from before and after it.
//!
//! Layer 1's necessity half decides most pushes on its own: before it
//! probes, `what_if` builds the dependency graph of every packet that is
//! in, or can enter, the network during the window (the resident's held
//! bytes included). When that graph is acyclic no schedule can deadlock,
//! and the answer is `deadlock: false` with no probe
//! ([`DecidedBy::Static`]). The check lives in `precheck`, which
//! [`NetSim::run_to_verdict`] shares for batch runs.
//!
//! ## The canonical-state invariant
//!
//! The resident simulator is always byte-identical to a fresh batch run
//! of the session's declarative state: build the base sim, pre-schedule
//! *baked* route entries and the fault log, then replay *unbaked* route
//! entries at their commit times and advance to `now`. This is exactly
//! what [`Session::oracle_what_if`] does, and the checkpoint module's
//! pause-invariance guarantee (pausing and resuming is bit-identical to
//! running uninterrupted) makes the resident and the oracle agree to the
//! byte — the property the `serve_protocol` proptests pin.
//!
//! Structural mutations (flow add/remove, link up/down) cannot be
//! applied to a mid-flight packet simulation, so they *bake* the route
//! log and rebuild the resident by replay. A rebuild re-derives the
//! canonical state from scratch; it **defines** the session's new
//! canonical state, and the oracle mirrors the same construction.
//!
//! ## Wire protocol
//!
//! [`ServeSession`] wraps a [`Session`] in a versioned JSONL protocol
//! (schema [`SERVE_SCHEMA`]): one request object per line in, one
//! response object per line out. See the README "Serving" section for
//! the schema; `repro serve` exposes it over stdin or a Unix socket.
//! Each line is decoded once into a typed request, and each response is
//! emitted straight into its line: no `Value` tree either way.

use std::borrow::Cow;

use serde::{Deserialize, Serialize, Sink};
use serde_json::{Number, RawValue, Writer};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::time::{SimDuration, SimTime, PS_PER_US};
use pfcsim_simcore::units::BitRate;
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, NodeId, PortNo, Priority};
use pfcsim_topo::routing::{shortest_path_tables, ForwardingTables};

use crate::bdg::{deadlock_threshold, BufferDependencyGraph, MERGED};
use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::faults::FaultPlan;
use crate::flow::{Demand, FlowSpec, RouteKind};
use crate::precheck::{self, window_is_deadlock_free};
use crate::sim::{NetSim, RunReport, SimBuilder, Verdict};
use crate::stats::{NetStats, PauseKey};

/// Protocol identifier carried in every request/response line.
pub const SERVE_SCHEMA: &str = "pfcsim-serve/1";

/// Default what-if probe window when a request does not specify one.
pub const DEFAULT_WHAT_IF_WINDOW: SimDuration = SimDuration::from_us(2_000);

/// Default session horizon (sim time) when a spec does not specify one.
pub const DEFAULT_HORIZON: SimTime = SimTime::from_us(60_000_000);

// ---------------------------------------------------------------------------
// Typed response documents
// ---------------------------------------------------------------------------

/// Emit an object of `"name" => value` members into a [`Sink`], each
/// value a [`Serialize`]: a response document described once, in wire
/// order, with its wire names.
macro_rules! emit_object {
    ($sink:expr, $($key:literal => $value:expr),+ $(,)?) => {{
        let sink = $sink;
        sink.object([$($key),+].len());
        $(
            sink.key($key);
            Serialize::emit(&$value, &mut *sink);
        )+
    }};
}

/// A deadlock verdict in document form (the default is the clean one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerdictDoc {
    /// Whether a permanent deadlock was confirmed.
    pub deadlock: bool,
    /// When the fixpoint first confirmed it.
    pub detected_at: Option<SimTime>,
    /// The witness: a cyclic core of permanently-paused channels.
    pub witness: Vec<PauseKey>,
}

impl VerdictDoc {
    /// Convert a run verdict.
    pub fn from_verdict(v: &Verdict) -> Self {
        match v {
            Verdict::NoDeadlock => VerdictDoc::default(),
            Verdict::Deadlock {
                detected_at,
                witness,
            } => VerdictDoc::deadlock(*detected_at, witness.clone()),
        }
    }

    /// A deadlock confirmed at `at`.
    fn deadlock(at: SimTime, witness: Vec<PauseKey>) -> Self {
        VerdictDoc {
            deadlock: true,
            detected_at: Some(at),
            witness,
        }
    }
}

impl Serialize for VerdictDoc {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        emit_object!(sink,
            "deadlock" => self.deadlock,
            "detected_at_us" => self.detected_at.map(SimTime::as_us),
            // `{from, to, priority}` per paused channel.
            "witness" => self.witness,
        )
    }
}

/// One hop of a static buffer-dependency cycle: a switch ingress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CbdHop {
    /// The switch.
    pub node: NodeId,
    /// The ingress port whose buffer the dependency runs through.
    pub port: PortNo,
}

impl Serialize for CbdHop {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        emit_object!(sink, "node" => self.node.0, "port" => self.port.0)
    }
}

/// The boundary-state deadlock-rate threshold for a cycle (paper Eq. 3):
/// `r_d = n · B / TTL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdDoc {
    /// Distinct switches on the loop (`n`).
    pub loop_switches: usize,
    /// Minimum TTL among flows feeding the loop.
    pub min_ttl: u8,
    /// Minimum link bandwidth on the loop (`B`, conservative).
    pub bandwidth: BitRate,
    /// The threshold rate `r_d`.
    pub threshold: BitRate,
}

impl Serialize for ThresholdDoc {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        emit_object!(sink,
            "loop_switches" => self.loop_switches,
            "min_ttl" => self.min_ttl,
            "bandwidth_bps" => self.bandwidth.bps(),
            "threshold_bps" => self.threshold.bps(),
        )
    }
}

/// Result of the static cyclic-buffer-dependency analysis (the default
/// is the acyclic answer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CbdDoc {
    /// Whether the active flows' paths form a cyclic buffer dependency.
    pub cbd: bool,
    /// A witness cycle of switch ingress ports (empty when `!cbd`).
    pub cycle: Vec<CbdHop>,
    /// Eq. 3 threshold for the witness cycle (`None` when `!cbd` or the
    /// loop's minimum TTL is zero).
    pub threshold: Option<ThresholdDoc>,
}

impl Serialize for CbdDoc {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        emit_object!(sink,
            "cbd" => self.cbd,
            "cycle" => self.cycle,
            "threshold" => self.threshold,
        )
    }
}

/// Which layer answered a [`Session::what_if`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecidedBy {
    /// The window's buffer-dependency graph is acyclic: no schedule can
    /// deadlock, so no probe ran.
    Static,
    /// The bounded packet-level probe.
    Probe,
}

impl DecidedBy {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            DecidedBy::Static => "static",
            DecidedBy::Probe => "probe",
        }
    }
}

/// Result of a bounded what-if query.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfDoc {
    /// The deadlock verdict.
    pub verdict: VerdictDoc,
    /// How far the verdict holds: commit time + window, capped at the
    /// session horizon.
    pub probed_until: SimTime,
    /// Events the probe processed until its verdict settled — through
    /// `probed_until`, or to the first confirmed deadlock (probe cost, not
    /// resident cost; 0 when no probe ran).
    pub probe_events: u64,
    /// Whether the static pre-check or the probe gave the verdict.
    pub decided_by: DecidedBy,
    /// FNV-1a digest of the resident checkpoint before the probe.
    pub state_digest_before: u64,
    /// Same digest taken after the probe returned.
    pub state_digest_after: u64,
    /// Proof the probe left the resident untouched (`before == after`).
    pub resident_unchanged: bool,
    /// Static CBD analysis of the *post-push* forwarding tables.
    pub cbd: CbdDoc,
}

impl Serialize for WhatIfDoc {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        emit_object!(sink,
            "verdict" => self.verdict,
            "probed_until_us" => self.probed_until.as_us(),
            "probe_events" => self.probe_events,
            "decided_by" => self.decided_by.as_str(),
            "state_digest_before" => self.state_digest_before,
            "state_digest_after" => self.state_digest_after,
            "resident_unchanged" => self.resident_unchanged,
            "cbd" => self.cbd,
        )
    }
}

/// A session status snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusDoc {
    /// Mutation counter (increments on every successful state change).
    pub version: u64,
    /// Resident simulation clock.
    pub now: SimTime,
    /// Flows in the session traffic matrix (including stopped ones).
    pub flow_count: usize,
    /// Events the resident simulation has processed.
    pub events: u64,
    /// Whether the resident run ended (quiesced or reached the horizon).
    pub finished: bool,
    /// The confirmed deadlock, if any (a confirmed deadlock is permanent).
    pub verdict: Option<VerdictDoc>,
    /// Checkpoint digest of the resident state (`None` once finished —
    /// a finished run cannot be checkpointed).
    pub state_digest: Option<u64>,
    /// `what_if` answers the static pre-check gave this session.
    pub what_if_static: u64,
    /// `what_if` answers the probe gave this session.
    pub what_if_probe: u64,
}

impl Serialize for StatusDoc {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        /// `what_if` answers by deciding layer.
        struct ByLayer(u64, u64);
        impl Serialize for ByLayer {
            fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
                emit_object!(sink, "static" => self.0, "probe" => self.1)
            }
        }
        emit_object!(sink,
            "version" => self.version,
            "now_us" => self.now.as_us(),
            "flow_count" => self.flow_count,
            "events" => self.events,
            "finished" => self.finished,
            "verdict" => self.verdict,
            "state_digest" => self.state_digest,
            "what_if_decided_by" => ByLayer(self.what_if_static, self.what_if_probe),
        )
    }
}

/// Acknowledgement of a committed mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// Session version after the mutation.
    pub version: u64,
    /// Resident clock after the mutation.
    pub now: SimTime,
    /// Whether the mutation finished the resident run (e.g. an advance
    /// that reached the horizon, or a rebuild that quiesced).
    pub finished: bool,
}

impl Serialize for Applied {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        emit_object!(sink,
            "version" => self.version,
            "now_us" => self.now.as_us(),
            "finished" => self.finished,
        )
    }
}

// ---------------------------------------------------------------------------
// Session facade types
// ---------------------------------------------------------------------------

/// A candidate forwarding-table entry: `node`'s next hops toward `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePush {
    /// Switch whose table changes.
    pub node: NodeId,
    /// Destination the entry routes.
    pub dst: NodeId,
    /// Replacement next-hop port set (ECMP-selected per flow).
    pub ports: Vec<PortNo>,
}

/// A state mutation accepted by [`Session::apply`].
#[derive(Debug, Clone)]
pub enum Update {
    /// Commit a forwarding-table change at the current sim time.
    RouteUpdate(RoutePush),
    /// Fail a link at the current sim time (structural: rebuilds).
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Repair a link at the current sim time (structural: rebuilds).
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Add a flow to the traffic matrix (structural: rebuilds). A start
    /// time in the past is clamped to the current sim time.
    FlowAdd(FlowSpec),
    /// Stop a flow now (structural: rebuilds). A flow that has not
    /// started yet is dropped from the matrix entirely.
    FlowRemove(FlowId),
    /// Advance the resident simulation to an absolute sim time.
    AdvanceTo(SimTime),
}

/// A read-only question answered by [`Session::query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Version, clock, digest, confirmed verdict.
    Status,
    /// Static cyclic-buffer-dependency analysis of the current tables.
    Cbd,
    /// Bounded what-if probe of candidate route pushes.
    WhatIf {
        /// Candidate pushes, applied together at the current sim time.
        updates: Vec<RoutePush>,
        /// Probe duration past the current sim time.
        window: SimDuration,
    },
    /// The same question put to the batch oracle
    /// ([`Session::oracle_what_if`]).
    Oracle {
        /// Candidate pushes, applied together at the current sim time.
        updates: Vec<RoutePush>,
        /// Probe duration past the current sim time.
        window: SimDuration,
    },
}

/// Answer to a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answer to [`Query::Status`].
    Status(StatusDoc),
    /// Answer to [`Query::Cbd`].
    Cbd(CbdDoc),
    /// Answer to [`Query::WhatIf`].
    WhatIf(WhatIfDoc),
    /// Answer to [`Query::Oracle`].
    Oracle(VerdictDoc),
}

/// Everything needed to open a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The fabric.
    pub topo: Topology,
    /// Simulator configuration. `stop_on_deadlock` is forced off: a
    /// resident sentinel must stay queryable after confirming a deadlock.
    pub config: SimConfig,
    /// Initial traffic matrix.
    pub flows: Vec<FlowSpec>,
    /// Initial forwarding tables (`None` ⇒ shortest-path).
    pub tables: Option<ForwardingTables>,
    /// Final sim-time horizon of the resident run.
    pub horizon: SimTime,
}

impl SessionSpec {
    /// A spec with default config, shortest-path tables, and the default
    /// horizon.
    pub fn new(topo: Topology, flows: Vec<FlowSpec>) -> Self {
        SessionSpec {
            topo,
            config: SimConfig::default(),
            flows,
            tables: None,
            horizon: DEFAULT_HORIZON,
        }
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A committed route-log entry. `baked` entries are pre-scheduled when
/// the session rebuilds; unbaked entries replay at their commit times
/// (mirroring the in-place schedule the live resident performed).
#[derive(Debug, Clone)]
struct RouteEntry {
    at: SimTime,
    node: NodeId,
    dst: NodeId,
    ports: Vec<PortNo>,
    baked: bool,
}

/// A committed link up/down entry (always replayed via the fault plan).
#[derive(Debug, Clone, Copy)]
struct LinkEntry {
    at: SimTime,
    up: bool,
    a: NodeId,
    b: NodeId,
}

/// The resident simulator and its memoized state digest: one encode and
/// FNV pass per resident *state*, however many queries read it. `sim_mut`
/// is the only way to a `&mut NetSim` and forgets the digest; `NetSim` has
/// no interior mutability, so nothing else can change what it covers.
/// (`capture` needs `&mut` only because a checkpoint flushes trace sinks.)
struct Resident {
    sim: NetSim,
    digest: Option<u64>,
    /// Digests computed rather than remembered.
    computed: u64,
}

impl Resident {
    fn sim(&self) -> &NetSim {
        &self.sim
    }

    fn sim_mut(&mut self) -> &mut NetSim {
        self.digest = None;
        &mut self.sim
    }

    fn capture(&mut self) -> Result<Checkpoint, Error> {
        self.sim.checkpoint()
    }

    /// Capture the resident with its `stats` moved into the image, not
    /// copied, for `f`, which hands back the stats the resident keeps.
    fn capture_lending<T>(
        &mut self,
        f: impl FnOnce(Checkpoint) -> (T, NetStats),
    ) -> Result<T, Error> {
        let stats = std::mem::take(&mut self.sim.stats);
        let mut img = match self.sim.checkpoint() {
            Ok(img) => img,
            Err(e) => {
                self.sim.stats = stats;
                return Err(e);
            }
        };
        img.stats = stats;
        let (out, stats) = f(img);
        self.sim.stats = stats;
        Ok(out)
    }

    fn digest(&mut self) -> Result<u64, Error> {
        if let Some(d) = self.digest {
            // Where tests run, every hit is checked the slow way.
            #[cfg(debug_assertions)]
            assert_eq!(
                d,
                pfcsim_simcore::snap::fnv1a(&self.capture()?.to_bytes()),
                "resident changed under a memoized state digest"
            );
            return Ok(d);
        }
        let d = self.capture_lending(|img| (img.digest(), img.stats))?;
        self.computed += 1;
        self.digest = Some(d);
        Ok(d)
    }
}

/// A resident deadlock-sentinel session. See the [module docs](self).
pub struct Session {
    topo: Topology,
    cfg: SimConfig,
    base_tables: ForwardingTables,
    /// Declarative view of the tables including every committed push.
    cur_tables: ForwardingTables,
    flows: Vec<FlowSpec>,
    route_log: Vec<RouteEntry>,
    link_log: Vec<LinkEntry>,
    horizon: SimTime,
    version: u64,
    resident: Resident,
    finished: Option<RunReport>,
    /// `what_if` answers by [`DecidedBy::Static`] and by
    /// [`DecidedBy::Probe`].
    what_if_static: u64,
    what_if_probe: u64,
    /// The pre-check's reusable graph and walk state.
    precheck: precheck::Workspace,
    /// `what_if`'s undo log: each pushed entry's previous port list.
    undo: Vec<(NodeId, NodeId, Vec<PortNo>)>,
}

/// Build the canonical simulation for the given declarative state and
/// drive it to `upto`: base sim + flows + fault plan + pre-scheduled
/// baked route entries, primed to t = 0, then unbaked route entries
/// replayed at their commit times. This is the single construction both
/// the resident (on open/rebuild) and the batch oracle use — their
/// agreement is the serve protocol's correctness argument.
#[allow(clippy::too_many_arguments)]
fn build_and_replay(
    topo: &Topology,
    cfg: &SimConfig,
    base: &ForwardingTables,
    flows: &[FlowSpec],
    links: &[LinkEntry],
    routes: &[RouteEntry],
    horizon: SimTime,
    upto: SimTime,
) -> Result<(NetSim, Option<RunReport>), Error> {
    let mut sim = SimBuilder::new(topo)
        .config(cfg.clone())
        .tables(base.clone())
        .try_build()?;
    for f in flows {
        sim.try_add_flow(f.clone())?;
    }
    if !links.is_empty() {
        let plan = links.iter().fold(FaultPlan::new(), |p, l| {
            if l.up {
                p.link_up(l.at, l.a, l.b)
            } else {
                p.link_down(l.at, l.a, l.b)
            }
        });
        sim.set_fault_plan(plan)?;
    }
    for r in routes.iter().filter(|r| r.baked) {
        sim.schedule_route_update(r.at, r.node, r.dst, r.ports.clone());
    }
    // Prime to t = 0, exactly like Session::open. Every later advance
    // and schedule below then happens from a started, paused run — the
    // same sequence of calls the resident made, so event sequence
    // numbers (and therefore tie-breaks) match bit-for-bit.
    let mut fin = sim.advance_until(SimTime::ZERO, horizon);
    for r in routes.iter().filter(|r| !r.baked) {
        if fin.is_some() {
            break;
        }
        if r.at > sim.now() {
            fin = sim.advance_until(r.at, horizon);
            if fin.is_some() {
                break;
            }
        }
        sim.schedule_route_update(r.at, r.node, r.dst, r.ports.clone());
    }
    if fin.is_none() && upto > sim.now() {
        fin = sim.advance_until(upto, horizon);
    }
    Ok((sim, fin))
}

impl Session {
    /// Open a session: build the resident simulation and prime it to
    /// t = 0 so it is checkpointable (what-if probes need a started run).
    pub fn open(spec: SessionSpec) -> Result<Session, Error> {
        if spec.horizon == SimTime::ZERO {
            return Err(Error::Config("session horizon must be positive".into()));
        }
        let mut cfg = spec.config;
        // A sentinel must survive its own bad news: keep simulating past
        // a confirmed deadlock so status/what-if queries stay available.
        cfg.stop_on_deadlock = false;
        let base_tables = spec
            .tables
            .unwrap_or_else(|| shortest_path_tables(&spec.topo));
        let (sim, finished) = build_and_replay(
            &spec.topo,
            &cfg,
            &base_tables,
            &spec.flows,
            &[],
            &[],
            spec.horizon,
            SimTime::ZERO,
        )?;
        Ok(Session {
            cur_tables: base_tables.clone(),
            topo: spec.topo,
            cfg,
            base_tables,
            flows: spec.flows,
            route_log: Vec::new(),
            link_log: Vec::new(),
            horizon: spec.horizon,
            version: 0,
            resident: Resident {
                sim,
                digest: None,
                computed: 0,
            },
            finished,
            what_if_static: 0,
            what_if_probe: 0,
            precheck: precheck::Workspace::default(),
            undo: Vec::new(),
        })
    }

    /// The fabric.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Declarative forwarding tables, including every committed push.
    pub fn tables(&self) -> &ForwardingTables {
        &self.cur_tables
    }

    /// The session traffic matrix.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// Mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Resident simulation clock.
    pub fn now(&self) -> SimTime {
        self.resident.sim().now()
    }

    /// Final sim-time horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Whether the resident run ended (mutations are rejected after).
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The final report, once the resident run ended.
    pub fn final_report(&self) -> Option<&RunReport> {
        self.finished.as_ref()
    }

    fn ensure_live(&self) -> Result<(), Error> {
        if self.finished.is_some() {
            return Err(Error::State(
                "session run has finished; only status/cbd queries remain".into(),
            ));
        }
        Ok(())
    }

    fn validate_route(&self, node: NodeId, dst: NodeId, ports: &[PortNo]) -> Result<(), Error> {
        let n = self.topo.node_count();
        if node.0 as usize >= n {
            return Err(Error::Config(format!("unknown node {}", node.0)));
        }
        if dst.0 as usize >= n {
            return Err(Error::Config(format!("unknown destination {}", dst.0)));
        }
        if !matches!(self.topo.node(node).kind, NodeKind::Switch) {
            return Err(Error::Config(format!(
                "route updates target switches, and {} is a host",
                self.topo.node(node).name
            )));
        }
        if ports.is_empty() {
            return Err(Error::Config(
                "a route update needs at least one next-hop port".into(),
            ));
        }
        let avail = self.topo.ports(node).len();
        for p in ports {
            if p.0 as usize >= avail {
                return Err(Error::Config(format!(
                    "switch {} has no port {} (it has {})",
                    self.topo.node(node).name,
                    p.0,
                    avail
                )));
            }
        }
        Ok(())
    }

    fn applied(&self) -> Applied {
        Applied {
            version: self.version,
            now: self.now(),
            finished: self.finished.is_some(),
        }
    }

    /// Mark every route entry baked and return the log (rebuilds
    /// pre-schedule the whole history).
    fn baked_log(&self) -> Vec<RouteEntry> {
        self.route_log
            .iter()
            .map(|r| RouteEntry {
                baked: true,
                ..r.clone()
            })
            .collect()
    }

    /// Rebuild the resident from candidate declarative state; commits
    /// only on success, so a failed rebuild leaves the session intact.
    fn rebuild(
        &mut self,
        flows: Vec<FlowSpec>,
        links: Vec<LinkEntry>,
        routes: Vec<RouteEntry>,
    ) -> Result<(), Error> {
        let upto = self.now();
        let (sim, finished) = build_and_replay(
            &self.topo,
            &self.cfg,
            &self.base_tables,
            &flows,
            &links,
            &routes,
            self.horizon,
            upto,
        )?;
        *self.resident.sim_mut() = sim;
        self.finished = finished;
        self.flows = flows;
        self.link_log = links;
        self.route_log = routes;
        Ok(())
    }

    /// Commit a mutation. Validation happens before any state change: a
    /// rejected update leaves the session byte-identical (checkpoint
    /// digests prove it).
    pub fn apply(&mut self, update: Update) -> Result<Applied, Error> {
        self.ensure_live()?;
        match update {
            Update::RouteUpdate(push) => {
                self.validate_route(push.node, push.dst, &push.ports)?;
                let now = self.now();
                // In-place: the resident is paused, so the update can be
                // scheduled at the current instant without a rebuild.
                let sim = self.resident.sim_mut();
                sim.schedule_route_update(now, push.node, push.dst, push.ports.clone());
                self.route_log.push(RouteEntry {
                    at: now,
                    node: push.node,
                    dst: push.dst,
                    ports: push.ports.clone(),
                    baked: false,
                });
                self.cur_tables.set(push.node, push.dst, push.ports);
            }
            Update::LinkDown { a, b } | Update::LinkUp { a, b } => {
                let up = matches!(update, Update::LinkUp { .. });
                if self.topo.port_towards(a, b).is_none() {
                    return Err(Error::Config(format!(
                        "no link between nodes {} and {}",
                        a.0, b.0
                    )));
                }
                let mut links = self.link_log.clone();
                links.push(LinkEntry {
                    at: self.now(),
                    up,
                    a,
                    b,
                });
                self.rebuild(self.flows.clone(), links, self.baked_log())?;
            }
            Update::FlowAdd(mut spec) => {
                let now = self.now();
                if spec.start < now {
                    spec.start = now;
                }
                if spec.stop.is_some_and(|s| s <= spec.start) {
                    return Err(Error::Config(format!(
                        "flow {} would stop before it starts",
                        spec.id.0
                    )));
                }
                let mut flows = self.flows.clone();
                flows.push(spec);
                // try_add_flow inside the rebuild validates the spec
                // (duplicate id, host endpoints, pinned-path adjacency)
                // against a throwaway sim; failure leaves us untouched.
                self.rebuild(flows, self.link_log.clone(), self.baked_log())?;
            }
            Update::FlowRemove(id) => {
                let now = self.now();
                let mut flows = self.flows.clone();
                let Some(idx) = flows.iter().position(|f| f.id == id) else {
                    return Err(Error::Config(format!("unknown flow id {}", id.0)));
                };
                if flows[idx].start >= now {
                    flows.remove(idx);
                } else {
                    let stop = flows[idx].stop.map_or(now, |s| s.min(now));
                    flows[idx].stop = Some(stop);
                }
                self.rebuild(flows, self.link_log.clone(), self.baked_log())?;
            }
            Update::AdvanceTo(t) => {
                if t < self.now() {
                    return Err(Error::State(format!(
                        "cannot advance backwards: now is {} µs, target {} µs",
                        self.now().as_us(),
                        t.as_us()
                    )));
                }
                if t > self.horizon {
                    return Err(Error::State(format!(
                        "advance target {} µs is past the session horizon {} µs",
                        t.as_us(),
                        self.horizon.as_us()
                    )));
                }
                if t > self.now() {
                    self.finished = self.resident.sim_mut().advance_until(t, self.horizon);
                }
            }
        }
        self.version += 1;
        Ok(self.applied())
    }

    /// Answer a read-only query.
    pub fn query(&mut self, q: Query) -> Result<Answer, Error> {
        match q {
            Query::Status => self.status().map(Answer::Status),
            Query::Cbd => Ok(Answer::Cbd(self.cbd())),
            Query::WhatIf { updates, window } => self.what_if(&updates, window).map(Answer::WhatIf),
            Query::Oracle { updates, window } => {
                self.oracle_what_if(&updates, window).map(Answer::Oracle)
            }
        }
    }

    /// Session status (version, clock, digest, confirmed verdict).
    pub fn status(&mut self) -> Result<StatusDoc, Error> {
        let live = self.finished.is_none();
        let state_digest = live.then(|| self.state_digest()).transpose()?;
        let sim = self.resident.sim();
        let verdict = match &self.finished {
            Some(r) => Some(VerdictDoc::from_verdict(&r.verdict)),
            None => (sim.deadlock_state()).map(|(t, w)| VerdictDoc::deadlock(t, w.to_vec())),
        };
        Ok(StatusDoc {
            version: self.version,
            now: sim.now(),
            flow_count: self.flows.len(),
            events: sim.events,
            finished: self.finished.is_some(),
            verdict,
            state_digest,
            what_if_static: self.what_if_static,
            what_if_probe: self.what_if_probe,
        })
    }

    /// Static CBD analysis of the current declarative tables.
    pub fn cbd(&self) -> CbdDoc {
        static_cbd(&self.topo, &self.cur_tables, &self.flows, self.now())
    }

    /// FNV-1a digest of the resident checkpoint bytes — the session's
    /// state fingerprint (used to prove rejected pushes touched nothing),
    /// computed once per resident state and remembered until it mutates.
    pub fn state_digest(&mut self) -> Result<u64, Error> {
        self.resident.digest()
    }

    /// State digests computed, not remembered: an exact work counter.
    pub fn digests_computed(&self) -> u64 {
        self.resident.computed
    }

    /// Capture the resident run as a checkpoint (crash-safe handoff).
    pub fn snapshot(&mut self) -> Result<Checkpoint, Error> {
        self.ensure_live()?;
        self.resident.capture()
    }

    /// Where a probe of `window` past now ends: capped at the horizon,
    /// also when `now + window` would leave `SimTime`'s range.
    fn probe_bound(&self, window: SimDuration) -> SimTime {
        (self.now().checked_add(window)).map_or(self.horizon, |t| t.min(self.horizon))
    }

    /// Bounded what-if: would applying `pushes` at the current instant
    /// deadlock the fabric within `window` (capped at the horizon)?
    ///
    /// First the static pre-check (`window_is_deadlock_free`): when no
    /// buffer-dependency cycle can form in the window, the answer is clean
    /// and no probe runs. Otherwise checkpoint the resident, resume the
    /// checkpoint into a throwaway probe, apply `pushes`, and advance the
    /// probe to the bound or its first confirmed deadlock — a confirmed
    /// deadlock is never overwritten, so that is the verdict at the bound.
    /// The resident is untouched either way: the probe owns its
    /// checkpoint, and `state_digest_before/after` read the resident's
    /// memoized digest. The declarative tables hold `pushes` only while
    /// the verdict is taken: they are applied in place and restored, in
    /// reverse order, so two pushes to one entry unwind to its original.
    pub fn what_if(
        &mut self,
        pushes: &[RoutePush],
        window: SimDuration,
    ) -> Result<WhatIfDoc, Error> {
        self.ensure_live()?;
        for p in pushes {
            self.validate_route(p.node, p.dst, &p.ports)?;
        }
        let bound = self.probe_bound(window);
        let state_digest_before = self.resident.digest()?;
        let mut undo = std::mem::take(&mut self.undo);
        for p in pushes {
            let prev = self.cur_tables.replace(p.node, p.dst, p.ports.clone());
            undo.push((p.node, p.dst, prev));
        }
        // Every exit of `vet`, its `?`s included, comes back here.
        let vetted = self.vet(pushes, bound);
        for (node, dst, ports) in undo.drain(..).rev() {
            self.cur_tables.set(node, dst, ports);
        }
        self.undo = undo;
        let (verdict, probe_events, cbd, decided_by) = vetted?;
        let state_digest_after = self.resident.digest()?;
        Ok(WhatIfDoc {
            verdict,
            probed_until: bound,
            probe_events,
            decided_by,
            state_digest_before,
            state_digest_after,
            resident_unchanged: state_digest_before == state_digest_after,
            cbd,
        })
    }

    /// `what_if`'s verdict, probe events, CBD document and deciding layer,
    /// with `pushes` already in the declarative tables.
    fn vet(
        &mut self,
        pushes: &[RoutePush],
        bound: SimTime,
    ) -> Result<(VerdictDoc, u64, CbdDoc, DecidedBy), Error> {
        let now = self.now();
        // A confirmed deadlock stays the verdict, whatever the window.
        let sim = self.resident.sim();
        let window_clean = sim.deadlock_state().is_none()
            && window_is_deadlock_free(
                &mut self.precheck,
                &sim.dp,
                &sim.queue,
                &self.cur_tables,
                true,
            );
        if window_clean {
            self.what_if_static += 1;
            // The flows' own routes are a subgraph of the window's.
            // (`static_cbd` goes first: `what_if_allocs.rs` takes off a
            // debug build's count exactly what it allocates.)
            let cbd = CbdDoc::default();
            debug_assert!(cbd == static_cbd(&self.topo, &self.cur_tables, &self.flows, now));
            return Ok((VerdictDoc::default(), 0, cbd, DecidedBy::Static));
        }
        self.what_if_probe += 1;
        // The probe forgets the occupancy history, so its image goes
        // without: the resident keeps the series, and the image takes a
        // copy of the rest of its stats.
        let img = self.resident.capture_lending(|mut img| {
            let series = (
                std::mem::take(&mut img.stats.occupancy),
                std::mem::take(&mut img.stats.flow_occupancy),
            );
            let mut kept = img.stats.clone();
            (kept.occupancy, kept.flow_occupancy) = series;
            (img, kept)
        })?;
        let mut probe = NetSim::resume(img)?;
        probe.forget_occupancy_history();
        probe.dp.cfg.stop_on_deadlock = true;
        for p in pushes {
            probe.schedule_route_update(now, p.node, p.dst, p.ports.clone());
        }
        let outcome = if bound > now {
            probe.advance_until(bound, self.horizon)
        } else {
            None
        };
        let (verdict, events) = match outcome {
            Some(report) => (VerdictDoc::from_verdict(&report.verdict), report.events),
            None => (verdict_at_pause(&mut probe, bound), probe.events),
        };
        let cbd = static_cbd(&self.topo, &self.cur_tables, &self.flows, now);
        Ok((verdict, events, cbd, DecidedBy::Probe))
    }

    /// The batch oracle for [`Session::what_if`]: rebuild the session's
    /// canonical state from scratch (fresh `NetSim`, full replay), apply
    /// the same pushes, advance the same window, and extract the verdict
    /// the same way. By the checkpoint pause-invariance guarantee this
    /// is byte-identical to the resident probe — the protocol tests and
    /// the CI `serve-smoke` job diff the two documents.
    pub fn oracle_what_if(
        &self,
        pushes: &[RoutePush],
        window: SimDuration,
    ) -> Result<VerdictDoc, Error> {
        self.ensure_live()?;
        for p in pushes {
            self.validate_route(p.node, p.dst, &p.ports)?;
        }
        let now = self.now();
        let bound = self.probe_bound(window);
        let (mut sim, fin) = build_and_replay(
            &self.topo,
            &self.cfg,
            &self.base_tables,
            &self.flows,
            &self.link_log,
            &self.route_log,
            self.horizon,
            now,
        )?;
        if let Some(report) = fin {
            // The live resident can't have finished (ensure_live), so a
            // finished replay means the canonical-state invariant broke.
            return Err(Error::State(format!(
                "oracle replay finished at {} µs while the resident is live at {} µs",
                report.end_time.as_us(),
                now.as_us()
            )));
        }
        for p in pushes {
            sim.schedule_route_update(now, p.node, p.dst, p.ports.clone());
        }
        let outcome = if bound > now {
            sim.advance_until(bound, self.horizon)
        } else {
            None
        };
        Ok(match outcome {
            Some(report) => VerdictDoc::from_verdict(&report.verdict),
            None => verdict_at_pause(&mut sim, bound),
        })
    }
}

/// Deadlock verdict for a probe paused (not finished) at `bound`: prefer
/// the already-confirmed verdict from the periodic scan, else run the
/// fixpoint on the paused state now.
fn verdict_at_pause(probe: &mut NetSim, bound: SimTime) -> VerdictDoc {
    if let Some((t, w)) = probe.deadlock_state() {
        return VerdictDoc::deadlock(t, w.to_vec());
    }
    (probe.analyze_deadlock()).map_or_else(VerdictDoc::default, |w| VerdictDoc::deadlock(bound, w))
}

// ---------------------------------------------------------------------------
// Static CBD analysis (paper §3, necessary condition)
// ---------------------------------------------------------------------------

/// Build the (switch, ingress-port) buffer-dependency graph induced by
/// every active flow's hops under `tables` ([`FlowSpec::hops`], the
/// datapath's own rule), priorities merged, and search it for a cycle —
/// the paper's necessary condition for PFC deadlock. Pinned flows
/// contribute their pinned path; table-routed flows contribute their
/// deterministic ECMP walk (including partial walks of looping or
/// blackholed routes, which is exactly when dependencies turn cyclic),
/// capped at `4·nodes + 8` switch hops.
///
/// For a witness cycle the Eq. 3 boundary threshold `r_d = n·B/TTL` is
/// attached, with `B` the minimum bandwidth of the links the loop's hops
/// take and `TTL` the minimum TTL among flows feeding it (both
/// conservative).
pub fn static_cbd(
    topo: &Topology,
    tables: &ForwardingTables,
    flows: &[FlowSpec],
    now: SimTime,
) -> CbdDoc {
    let mut g = BufferDependencyGraph::new();
    let max_hops = 4 * topo.node_count() + 8;
    for f in flows.iter().filter(|f| f.stop.is_none_or(|s| s > now)) {
        let hops = f.hops(topo, tables, max_hops);
        g.add_route(topo, hops, |_| MERGED, Some(f.ttl));
    }
    let Some(cycle) = g.first_cycle() else {
        return CbdDoc::default();
    };
    let mut distinct: Vec<NodeId> = cycle.iter().map(|q| q.node).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let threshold = g
        .cycle_label(&cycle)
        .filter(|&(_, min_ttl)| min_ttl > 0)
        .map(|(bandwidth, min_ttl)| ThresholdDoc {
            loop_switches: distinct.len(),
            min_ttl,
            bandwidth,
            threshold: deadlock_threshold(distinct.len() as u64, bandwidth, u64::from(min_ttl)),
        });
    CbdDoc {
        cbd: true,
        cycle: cycle
            .iter()
            .map(|q| CbdHop {
                node: q.node,
                port: q.port,
            })
            .collect(),
        threshold,
    }
}

// ---------------------------------------------------------------------------
// JSONL protocol layer
// ---------------------------------------------------------------------------

/// Serving options for [`ServeSession`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Where [`ServeSession::graceful_shutdown`] writes the final
    /// checkpoint (and the default path for `checkpoint` requests).
    pub checkpoint_path: Option<String>,
}

/// What the stream loop should do after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading requests.
    Continue,
    /// A `shutdown` request was served; stop reading.
    Shutdown,
}

/// A request line, decoded and checked against the session.
enum Request {
    Open(Box<SessionSpec>),
    Shutdown,
    /// A mutation acknowledged with [`Applied`].
    Apply(Update),
    /// `route_update`; vetted with a what-if of the window first unless
    /// in `commit` mode.
    RouteUpdate(RoutePush, Option<SimDuration>),
    Query(Query),
    Checkpoint(String),
}

/// The `result` document of a served request.
enum Response {
    Answer(Answer),
    Applied(Applied),
    /// A committed `route_update`, with the probe's answer when vetted.
    Committed(Applied, Option<WhatIfDoc>),
    /// A vetted `route_update` the probe refused: nothing was committed.
    Refused(WhatIfDoc),
    Checkpoint(String, u64),
    Shutdown,
}

impl Serialize for Response {
    fn emit<S: Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            Response::Answer(Answer::Status(d)) => d.emit(sink),
            Response::Answer(Answer::Cbd(d)) => d.emit(sink),
            Response::Answer(Answer::WhatIf(d)) => d.emit(sink),
            Response::Answer(Answer::Oracle(v)) => emit_object!(sink, "verdict" => v),
            Response::Applied(a) => a.emit(sink),
            Response::Committed(applied, None) => {
                emit_object!(sink, "committed" => true, "applied" => applied)
            }
            Response::Committed(applied, Some(what_if)) => emit_object!(sink,
                "committed" => true,
                "applied" => applied,
                "what_if" => what_if,
            ),
            Response::Refused(what_if) => emit_object!(sink,
                "committed" => false,
                "reason" => "what-if probe predicts deadlock",
                "what_if" => what_if,
            ),
            Response::Checkpoint(path, digest) => {
                emit_object!(sink, "path" => path, "state_digest" => digest)
            }
            Response::Shutdown => emit_object!(sink, "shutting_down" => true),
        }
    }
}

/// A [`Session`] behind the versioned JSONL wire protocol
/// ([`SERVE_SCHEMA`]): one request object per line in, one response
/// object per line out. Blank lines and `#` comment lines are ignored.
/// Malformed or rejected requests produce an error response and mutate
/// nothing — the protocol tests pin this with checkpoint digests.
#[derive(Default)]
pub struct ServeSession {
    cfg: ServeConfig,
    session: Option<Session>,
}

fn no_session() -> Error {
    Error::State("no open session (send an \"open\" request first)".into())
}

impl ServeSession {
    /// A protocol handler with no session yet (the first request is
    /// usually `open`).
    pub fn new(cfg: ServeConfig) -> Self {
        ServeSession { cfg, session: None }
    }

    /// The underlying session, once opened.
    pub fn session(&self) -> Option<&Session> {
        self.session.as_ref()
    }

    /// Mutable access to the underlying session (tests, embedders).
    pub fn session_mut(&mut self) -> Option<&mut Session> {
        self.session.as_mut()
    }

    /// Serve one request line. Returns the response line (without
    /// trailing newline; `None` for blanks/comments) and whether the
    /// stream should continue.
    ///
    /// The whole line is checked as JSON before any member is looked
    /// at; then the envelope (`schema`, `id`, `op`), then the typed
    /// request (`decode`).
    pub fn handle_line(&mut self, line: &str) -> (Option<String>, Control) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return (None, Control::Continue);
        }
        let (id, op, result) = match RawValue::parse(line) {
            Err(e) => {
                let why = format!("malformed JSON: {e}");
                (None, "?".into(), Err(protocol(why)))
            }
            Ok(raw) => {
                let req = Object::of(raw);
                let id = req.get("id").and_then(|f| f.raw.as_u64());
                let schema = req.get("schema").map(|f| f.raw.as_str());
                match req.get("op").and_then(|f| f.raw.as_str()) {
                    _ if schema.is_some_and(|s| s.as_deref() != Some(SERVE_SCHEMA)) => {
                        let why = format!("unsupported schema (this build speaks {SERVE_SCHEMA})");
                        (id, "?".into(), Err(protocol(why)))
                    }
                    None => (id, "?".into(), Err(protocol("request has no \"op\" field"))),
                    Some(op) => {
                        let result = (self.decode(&op, raw, &req)).and_then(|r| self.dispatch(r));
                        (id, op, result)
                    }
                }
            }
        };
        let ctl = if op == "shutdown" {
            Control::Shutdown
        } else {
            Control::Continue
        };
        (Some(render_response(id, &op, result)), ctl)
    }

    /// The typed request `op` names, read from the request's members and
    /// checked against the session. Fields are checked in a fixed order
    /// per op, so the first wrong one names the error; a present field
    /// of the wrong type is a `protocol` error, never a silent default.
    fn decode(&self, op: &str, raw: RawValue<'_>, req: &Object<'_>) -> Result<Request, Error> {
        match op {
            "open" => return decode_open(req).map(|spec| Request::Open(Box::new(spec))),
            "shutdown" => return Ok(Request::Shutdown),
            _ => {}
        }
        let topo = self.session.as_ref().ok_or_else(no_session)?.topo();
        let window = || {
            let us = req.get("window_us").map(Field::us).transpose()?;
            Ok::<_, Error>(us.map_or(DEFAULT_WHAT_IF_WINDOW, SimDuration::from_us))
        };
        Ok(match op {
            "route_update" => {
                let push = req.push(topo)?;
                let window = window()?;
                match req.get("mode").map(Field::str).transpose()?.as_deref() {
                    Some("vet") | None => Request::RouteUpdate(push, Some(window)),
                    Some("commit") => Request::RouteUpdate(push, None),
                    Some(other) => {
                        let why = format!("unknown route_update mode \"{other}\" (vet|commit)");
                        return Err(protocol(why));
                    }
                }
            }
            "link_down" | "link_up" => {
                let a = req.node("a", topo)?;
                let b = req.node("b", topo)?;
                Request::Apply(if op == "link_down" {
                    Update::LinkDown { a, b }
                } else {
                    Update::LinkUp { a, b }
                })
            }
            "flow_add" => Request::Apply(Update::FlowAdd(decode_flow(topo, raw, req)?)),
            "flow_remove" => {
                let id = (req.get("flow").and_then(|f| f.raw.as_u64()))
                    .ok_or_else(|| protocol("flow_remove needs \"flow\""))?;
                Request::Apply(Update::FlowRemove(FlowId(id32(id, "flow")?)))
            }
            "advance" => {
                let to = (req.get("to_us").map(Field::us).transpose()?)
                    .ok_or_else(|| protocol("advance needs \"to_us\""))?;
                Request::Apply(Update::AdvanceTo(SimTime::from_us(to)))
            }
            "query" => {
                let kind = (req.get("kind").map(Field::str).transpose()?)
                    .ok_or_else(|| protocol("query needs \"kind\""))?;
                Request::Query(match &*kind {
                    "status" => Query::Status,
                    "cbd" => Query::Cbd,
                    "what_if" | "what_if_oracle" => {
                        let updates = match req.get("updates") {
                            Some(f) => (f.elements("updates[]")?)
                                .map(|u| Object::of(u.raw).push(topo))
                                .collect::<Result<_, _>>()?,
                            None => Vec::new(),
                        };
                        let window = window()?;
                        if kind == "what_if" {
                            Query::WhatIf { updates, window }
                        } else {
                            Query::Oracle { updates, window }
                        }
                    }
                    other => {
                        return Err(protocol(format!(
                            "unknown query kind \"{other}\" (status|cbd|what_if|what_if_oracle)"
                        )))
                    }
                })
            }
            "checkpoint" => {
                let path = (req.get("path").map(Field::str).transpose()?)
                    .map(Cow::into_owned)
                    .or_else(|| self.cfg.checkpoint_path.clone())
                    .ok_or_else(|| protocol("checkpoint needs \"path\" (no default configured)"))?;
                Request::Checkpoint(path)
            }
            other => return Err(protocol(format!("unknown op \"{other}\""))),
        })
    }

    fn dispatch(&mut self, req: Request) -> Result<Response, Error> {
        let session = match req {
            Request::Open(spec) => {
                let mut session = Session::open(*spec)?;
                let status = session.status()?;
                self.session = Some(session);
                return Ok(Response::Answer(Answer::Status(status)));
            }
            Request::Shutdown => return Ok(Response::Shutdown),
            _ => self.session.as_mut().ok_or_else(no_session)?,
        };
        Ok(match req {
            Request::Apply(update) => Response::Applied(session.apply(update)?),
            // A vetoed push commits nothing; the response carries the
            // digest pair proving it.
            Request::RouteUpdate(push, vet) => {
                let vet = vet.map(|window| session.what_if(std::slice::from_ref(&push), window));
                match vet.transpose()? {
                    Some(what_if) if what_if.verdict.deadlock => Response::Refused(what_if),
                    what_if => {
                        Response::Committed(session.apply(Update::RouteUpdate(push))?, what_if)
                    }
                }
            }
            Request::Query(q) => Response::Answer(session.query(q)?),
            // One encode serves both the file and the digest.
            Request::Checkpoint(path) => {
                let digest = session.snapshot()?.save_digest(&path)?;
                Response::Checkpoint(path, digest)
            }
            Request::Open(_) | Request::Shutdown => unreachable!("answered above"),
        })
    }

    /// Drain a request stream: serve every line of `reader`, writing one
    /// response line per request to `out`, until the stream ends or a
    /// `shutdown` request is served.
    pub fn serve_lines<R: std::io::BufRead, W: std::io::Write>(
        &mut self,
        reader: R,
        out: &mut W,
    ) -> std::io::Result<Control> {
        for line in reader.lines() {
            let (resp, ctl) = self.handle_line(&line?);
            if let Some(resp) = resp {
                writeln!(out, "{resp}")?;
                out.flush()?;
            }
            if ctl == Control::Shutdown {
                return Ok(Control::Shutdown);
            }
        }
        Ok(Control::Continue)
    }

    /// Write the final checkpoint (if a path is configured and the
    /// session is live) — the SIGTERM path of `repro serve`. Returns the
    /// path written.
    pub fn graceful_shutdown(&mut self) -> Result<Option<String>, Error> {
        let Some(path) = self.cfg.checkpoint_path.clone() else {
            return Ok(None);
        };
        let Some(session) = self.session.as_mut() else {
            return Ok(None);
        };
        if session.is_finished() {
            return Ok(None);
        }
        session.snapshot()?.save(&path)?;
        Ok(Some(path))
    }
}

/// The response line: the envelope and the result (or the error)
/// written straight into one buffer.
fn render_response(id: Option<u64>, op: &str, result: Result<Response, Error>) -> String {
    let mut out = String::with_capacity(512);
    let w = &mut Writer::new(&mut out);
    w.object(4 + usize::from(id.is_some()));
    w.key("schema");
    w.str(SERVE_SCHEMA);
    if let Some(id) = id {
        w.key("id");
        w.pos_int(id);
    }
    w.key("op");
    w.str(op);
    w.key("ok");
    w.bool(result.is_ok());
    match result {
        Ok(r) => {
            w.key("result");
            r.emit(w);
        }
        Err(e) => {
            w.key("error");
            emit_object!(w, "kind" => error_kind(&e), "message" => e.to_string());
        }
    }
    out
}

fn error_kind(e: &Error) -> &'static str {
    match e {
        Error::Config(_) => "config",
        Error::Io(_) => "io",
        Error::Corrupt(_) => "corrupt",
        Error::Decode(_) => "decode",
        Error::ConfigDigestMismatch { .. } => "config_digest_mismatch",
        Error::Unsupported(_) => "unsupported",
        Error::Protocol(_) => "protocol",
        Error::State(_) => "state",
    }
}

// ---------------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------------

fn protocol(why: impl Into<String>) -> Error {
    Error::Protocol(why.into())
}

/// A request member: its wire name and its (checked) JSON value.
#[derive(Clone, Copy)]
struct Field<'a> {
    name: &'static str,
    raw: RawValue<'a>,
}

impl<'a> Field<'a> {
    /// A non-negative integer.
    fn u64(self) -> Result<u64, Error> {
        (self.raw.as_u64())
            .ok_or_else(|| protocol(format!("\"{}\" must be a non-negative integer", self.name)))
    }

    /// A `*_us` field: a [`u64`](Self::u64) that also fits `SimTime`'s
    /// picoseconds, which `from_us` multiplies into unchecked.
    fn us(self) -> Result<u64, Error> {
        let us = self.u64()?;
        if us.checked_mul(PS_PER_US).is_none() {
            let max = u64::MAX / PS_PER_US;
            return Err(protocol(format!(
                "\"{}\" is out of range (at most {max} µs)",
                self.name
            )));
        }
        Ok(us)
    }

    /// A field that must fit a `u8` (`priority`, `ttl`).
    fn u8(self) -> Result<u8, Error> {
        u8::try_from(self.u64()?)
            .map_err(|_| protocol(format!("\"{}\" must be at most 255", self.name)))
    }

    fn str(self) -> Result<Cow<'a, str>, Error> {
        (self.raw.as_str()).ok_or_else(|| protocol(format!("\"{}\" must be a string", self.name)))
    }

    /// The elements of an array, each named `item`.
    fn elements(self, item: &'static str) -> Result<impl Iterator<Item = Field<'a>>, Error> {
        let items = (self.raw.elements())
            .ok_or_else(|| protocol(format!("\"{}\" must be an array", self.name)))?;
        Ok(items.map(move |raw| Field { name: item, raw }))
    }

    /// A node reference: a name string or a numeric id.
    fn node(self, topo: &Topology) -> Result<NodeId, Error> {
        if let Some(name) = self.raw.as_str() {
            return (topo.find(&name))
                .ok_or_else(|| Error::Config(format!("unknown node \"{name}\"")));
        }
        let Some(id) = self.raw.as_u64() else {
            return Err(protocol(format!(
                "\"{}\" must be a node name or id",
                self.name
            )));
        };
        let id = id32(id, self.name)?;
        if (id as usize) < topo.node_count() {
            return Ok(NodeId(id));
        }
        Err(Error::Config(format!("unknown node {id}")))
    }
}

/// An object's members, in order (none for a value of another type).
/// A name's first occurrence is the one read.
struct Object<'a>(Vec<(Cow<'a, str>, RawValue<'a>)>);

impl<'a> Object<'a> {
    fn of(raw: RawValue<'a>) -> Self {
        // Room for a query's or a route push's members in one allocation.
        let mut members = Vec::with_capacity(8);
        members.extend(raw.members().into_iter().flatten());
        Object(members)
    }

    fn get(&self, name: &'static str) -> Option<Field<'a>> {
        let (_, raw) = self.0.iter().find(|(k, _)| k == name)?;
        Some(Field { name, raw: *raw })
    }

    /// A required node reference.
    fn node(&self, name: &'static str, topo: &Topology) -> Result<NodeId, Error> {
        let missing = || protocol(format!("missing \"{name}\""));
        self.get(name).ok_or_else(missing)?.node(topo)
    }

    /// A route push: `node`, `dst`, then `ports` (port numbers, or peer
    /// nodes resolved through the topology).
    fn push(&self, topo: &Topology) -> Result<RoutePush, Error> {
        let node = self.node("node", topo)?;
        let dst = self.node("dst", topo)?;
        let ports = (self.get("ports"))
            .ok_or_else(|| protocol("missing \"ports\" array"))?
            .elements("ports[]")?
            .map(|v| {
                if let Some(p) = v.raw.as_u64() {
                    return (u16::try_from(p).map(PortNo))
                        .map_err(|_| protocol(format!("port {p} is out of range")));
                }
                let peer = v.node(topo)?;
                (topo.port_towards(node, peer).map(|p| p.port)).ok_or_else(|| {
                    let (node, peer) = (&topo.node(node).name, &topo.node(peer).name);
                    Error::Config(format!("node {node} has no port toward {peer}"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(RoutePush { node, dst, ports })
    }
}

/// Narrow a wire integer to a 32-bit flow or node id. An `as u32` here
/// would silently address a different object (2³² + 1 → 1).
fn id32(v: u64, field: &str) -> Result<u32, Error> {
    u32::try_from(v).map_err(|_| protocol(format!("\"{field}\" {v} is out of range")))
}

/// A flow: the full serde [`FlowSpec`] document `raw` when it has a
/// `demand` member, else the shorthand form `{id, src, dst,
/// gbps?|poisson_gbps?, priority?, ttl?, start_us?, stop_us?, path?}`
/// (no rate ⇒ infinite demand).
fn decode_flow(topo: &Topology, raw: RawValue<'_>, f: &Object<'_>) -> Result<FlowSpec, Error> {
    let flow = if f.get("demand").is_some() {
        FlowSpec::from_owned_value(raw.to_value())
            .map_err(|e| Error::Decode(format!("bad flow document: {e}")))?
    } else {
        decode_flow_shorthand(topo, f)?
    };
    check_flow(topo, &flow)?;
    Ok(flow)
}

fn decode_flow_shorthand(topo: &Topology, f: &Object<'_>) -> Result<FlowSpec, Error> {
    let id =
        (f.get("id").and_then(|f| f.raw.as_u64())).ok_or_else(|| protocol("flow needs \"id\""))?;
    let id = id32(id, "id")?;
    let src = f.node("src", topo)?;
    let dst = f.node("dst", topo)?;
    let gbps_rate = |v: Field| -> Result<BitRate, Error> {
        let g = (v.raw.as_number().map(Number::as_f64))
            .ok_or_else(|| protocol("rate must be a number (Gbps)"))?;
        if !g.is_finite() || g <= 0.0 {
            return Err(Error::Config(format!(
                "flow rate must be positive, got {g}"
            )));
        }
        Ok(BitRate::from_bps((g * 1e9) as u64))
    };
    let mut flow = if let Some(v) = f.get("gbps") {
        FlowSpec::cbr(id, src, dst, gbps_rate(v)?)
    } else if let Some(v) = f.get("poisson_gbps") {
        FlowSpec::poisson(id, src, dst, gbps_rate(v)?)
    } else {
        FlowSpec::infinite(id, src, dst)
    };
    if let Some(p) = f.get("priority").map(Field::u8).transpose()? {
        flow = flow.with_priority(Priority(p));
    }
    if let Some(t) = f.get("ttl").map(Field::u8).transpose()? {
        flow.ttl = t;
    }
    if let Some(t) = f.get("start_us").map(Field::us).transpose()? {
        flow = flow.starting_at(SimTime::from_us(t));
    }
    if let Some(t) = f.get("stop_us").map(Field::us).transpose()? {
        flow = flow.stopping_at(SimTime::from_us(t));
    }
    if let Some(path) = f.get("path") {
        let nodes = (path.elements("path[]")?)
            .map(|v| v.node(topo))
            .collect::<Result<Vec<_>, _>>()?;
        flow = flow.pinned(nodes);
    }
    Ok(flow)
}

/// Largest flow id a request may name: the simulator maps raw flow ids
/// through dense per-id tables, so an id costs memory up to its value.
const MAX_FLOW_ID: u32 = (1 << 20) - 1;

/// Largest packet a flow document may ask for (a jumbo frame is 9 KB);
/// far larger ones overflow the serialization-time arithmetic.
const MAX_PACKET: u64 = 1 << 20;

/// Refuse a flow the simulator would panic or stall on instead of
/// refusing: an id it sizes dense tables by, a node it indexes by, a TTL
/// of zero (it `assert!`s), a priority past its class arrays, a DCQCN or
/// TIMELY model a session never configures, and pacing whose zero — a
/// rate, a packet size, an on/off period — divides by zero or fires a
/// tick at the same instant forever, or whose excess overflows it.
fn check_flow(topo: &Topology, f: &FlowSpec) -> Result<(), Error> {
    if f.id.0 > MAX_FLOW_ID {
        return Err(Error::Protocol(format!(
            "flow \"id\" {} is out of range (at most {MAX_FLOW_ID})",
            f.id.0
        )));
    }
    let pinned: &[NodeId] = match &f.route {
        RouteKind::Pinned(p) => &p.nodes,
        RouteKind::Tables => &[],
    };
    if let Some(n) = [f.src, f.dst]
        .iter()
        .chain(pinned)
        .find(|n| n.0 as usize >= topo.node_count())
    {
        return Err(Error::Config(format!("unknown node {}", n.0)));
    }
    if f.priority.index() >= Priority::COUNT {
        return Err(Error::Protocol(format!(
            "\"priority\" must be below {}",
            Priority::COUNT
        )));
    }
    if f.ttl == 0 {
        return Err(Error::Protocol("\"ttl\" must be at least 1".into()));
    }
    let paced = f
        .packet_size
        .is_none_or(|s| (1..=MAX_PACKET).contains(&s.get()))
        && match f.demand {
            Demand::Cbr(r) | Demand::CbrFinite { rate: r, .. } | Demand::Poisson(r) => !r.is_zero(),
            Demand::OnOff {
                peak,
                mean_on,
                mean_off,
            } => !peak.is_zero() && !mean_on.is_zero() && !mean_off.is_zero(),
            Demand::Infinite => true,
            Demand::Dcqcn | Demand::Timely => {
                return Err(Error::Unsupported(
                    "a session runs no DCQCN or TIMELY flows".into(),
                ))
            }
        };
    if !paced {
        return Err(Error::Config(
            "a flow needs a rate of at least 1 bps, a packet size of 1 B to 1 MiB \
             and positive on/off periods"
                .into(),
        ));
    }
    Ok(())
}

/// Decode an `open` request into a [`SessionSpec`]. The topology is
/// either a builder shorthand (`{"builder": "square", "gbps": 40,
/// "delay_us": 1, ...}`) or an inline serde [`Topology`] document.
fn decode_open(req: &Object<'_>) -> Result<SessionSpec, Error> {
    use pfcsim_topo::builders::{
        bcube, fat_tree, leaf_spine, line, mesh2d, ring, square, torus2d, two_switch_loop, LinkSpec,
    };

    let tv = req
        .get("topo")
        .ok_or_else(|| protocol("open needs \"topo\""))?;
    let t = Object::of(tv.raw);
    let topo: Topology = if let Some(builder) = t.get("builder").map(Field::str).transpose()? {
        let mut spec = LinkSpec::default();
        if let Some(g) = t.get("gbps").map(Field::u64).transpose()? {
            // `from_gbps` multiplies unchecked, and a zero-rate link has
            // no serialization time.
            if g == 0 || g.checked_mul(1_000_000_000).is_none() {
                return Err(Error::Protocol(format!(
                    "\"gbps\" must be between 1 and {}",
                    u64::MAX / 1_000_000_000
                )));
            }
            spec.rate = BitRate::from_gbps(g);
        }
        if let Some(d) = t.get("delay_us").map(Field::us).transpose()? {
            spec.delay = SimDuration::from_us(d);
        }
        // Largest value of a builder dimension. Forwarding tables are
        // dense node × node and `fat_tree` grows as k³, so the cap is the
        // largest fabric this repository measures: k = 16 (1 024 hosts,
        // 320 switches, ≈1.8 M table rows).
        const MAX: u64 = 16;
        // A builder dimension: absent → `default`; outside `min..=max`
        // (the builder `assert!`s its minimum) → a config error.
        let dim = |field: &'static str, default: u64, min: u64, max: u64| -> Result<usize, Error> {
            let v = t.get(field).map(Field::u64).transpose()?.unwrap_or(default);
            if v < min || v > max {
                return Err(Error::Config(format!(
                    "{builder} \"{field}\" = {v} is out of range ({min} to {max})"
                )));
            }
            Ok(v as usize)
        };
        match &*builder {
            "two_switch_loop" => two_switch_loop(spec).topo,
            "line" => line(dim("n", 2, 1, MAX)?, spec).topo,
            "ring" => ring(dim("n", 3, 2, MAX)?, spec).topo,
            "square" => square(spec).topo,
            "leaf_spine" => {
                leaf_spine(
                    dim("leaves", 4, 1, MAX)?,
                    dim("spines", 2, 1, MAX)?,
                    dim("hosts", 4, 0, MAX)?,
                    spec,
                )
                .topo
            }
            "fat_tree" => {
                let k = dim("k", 4, 2, MAX)?;
                if k % 2 != 0 {
                    return Err(Error::Config(format!("fat_tree \"k\" = {k} must be even")));
                }
                fat_tree(k, spec).topo
            }
            // n^(k+1) servers, each a switch and a host: 8³ = 512 keeps
            // BCube under the fat-tree cap's node count.
            "bcube" => bcube(dim("n", 4, 2, 8)?, dim("k", 1, 0, 2)?, spec).topo,
            "torus2d" => torus2d(dim("rows", 3, 2, MAX)?, dim("cols", 3, 2, MAX)?, spec).topo,
            "mesh2d" => mesh2d(dim("rows", 3, 2, MAX)?, dim("cols", 3, 2, MAX)?, spec).topo,
            other => {
                return Err(Error::Config(format!(
                    "unknown topology builder \"{other}\""
                )))
            }
        }
    } else {
        let topo = Topology::from_owned_value(tv.raw.to_value())
            .map_err(|e| Error::Decode(format!("bad topology: {e}")))?;
        // Flow and route decoding below already index by this document.
        topo.validate()
            .map_err(|why| Error::Config(format!("bad topology: {why}")))?;
        topo
    };

    let mut config = match req.get("config") {
        Some(cv) => SimConfig::from_owned_value(cv.raw.to_value())
            .map_err(|e| Error::Decode(format!("bad config: {e}")))?,
        None => SimConfig::default(),
    };
    if let Some(seed) = req.get("seed").map(Field::u64).transpose()? {
        config.seed = seed;
    }
    if let Some(sched) = req.get("scheduler").map(Field::str).transpose()? {
        config.scheduler = Some(match &*sched {
            "wheel" => crate::config::SchedulerBackend::Wheel,
            "heap" => crate::config::SchedulerBackend::Heap,
            other => {
                return Err(Error::Config(format!(
                    "unknown scheduler \"{other}\" (wheel|heap)"
                )))
            }
        });
    }

    let flows = match req.get("flows") {
        Some(f) => (f.elements("flows[]")?)
            .map(|v| decode_flow(&topo, v.raw, &Object::of(v.raw)))
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };

    let mut tables = None;
    if let Some(routes) = req
        .get("routes")
        .map(|r| r.elements("routes[]"))
        .transpose()?
    {
        let mut ft = shortest_path_tables(&topo);
        for rv in routes {
            let push = Object::of(rv.raw).push(&topo)?;
            ft.set(push.node, push.dst, push.ports);
        }
        tables = Some(ft);
    }

    let horizon = (req.get("horizon_us").map(Field::us).transpose()?)
        .map_or(DEFAULT_HORIZON, SimTime::from_us);

    Ok(SessionSpec {
        topo,
        config,
        flows,
        tables,
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Demand;
    use pfcsim_topo::builders::{ring, square, LinkSpec};
    use serde_json::Value;

    /// Four flows around the square, each pinned two switch hops ahead:
    /// their ingress-buffer dependencies close the classic 4-cycle.
    fn square_cycle_flows(built: &pfcsim_topo::builders::Built) -> Vec<FlowSpec> {
        let (s, h) = (&built.switches, &built.hosts);
        (0..4u32)
            .map(|i| {
                let j = i as usize;
                FlowSpec::infinite(i, h[j], h[(j + 2) % 4])
                    .pinned(vec![
                        h[j],
                        s[j],
                        s[(j + 1) % 4],
                        s[(j + 2) % 4],
                        h[(j + 2) % 4],
                    ])
                    .with_ttl(16)
            })
            .collect()
    }

    #[test]
    fn static_cbd_finds_square_cycle_and_eq3_threshold() {
        let built = square(LinkSpec::default());
        let flows = square_cycle_flows(&built);
        let tables = shortest_path_tables(&built.topo);
        let doc = static_cbd(&built.topo, &tables, &flows, SimTime::ZERO);
        assert!(doc.cbd, "pinned square cycle must form a CBD");
        let th = doc.threshold.expect("cycle has a threshold");
        assert_eq!(th.loop_switches, 4);
        assert_eq!(th.min_ttl, 16);
        // Eq. 3 on the paper's defaults: 40 Gbps · 4 / 16 = 10 Gbps.
        assert_eq!(th.bandwidth, BitRate::from_gbps(40));
        assert_eq!(th.threshold, BitRate::from_gbps(10));
    }

    /// A cycle fed only by TTL-255 flows still gets its Eq. 3 threshold.
    #[test]
    fn static_cbd_threshold_holds_at_ttl_255() {
        let built = square(LinkSpec::default());
        let (s, h) = (&built.switches, &built.hosts);
        let flows = [
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        ]
        .map(|f| f.with_ttl(255));
        let tables = shortest_path_tables(&built.topo);
        let doc = static_cbd(&built.topo, &tables, &flows, SimTime::ZERO);
        assert!(doc.cbd);
        let th = doc.threshold.expect("a cycle always has a threshold");
        assert_eq!((th.loop_switches, th.min_ttl), (4, 255));
        assert_eq!(th.threshold, BitRate::from_gbps(40).scale(4, 255));
    }

    /// Two switches joined by a 40 G and a 10 G link, with a loop on the
    /// 10 G one: the cycle names the 10 G ports, and Eq. 3 reads its
    /// bandwidth, 2 · 10 G / 16 = 1.25 G.
    #[test]
    fn static_cbd_takes_eq3_from_the_parallel_link_the_loop_uses() {
        let mut topo = Topology::new();
        let (a, b) = (topo.add_switch("A"), topo.add_switch("B"));
        let (ha, hb) = (topo.add_host("hA"), topo.add_host("hB"));
        let delay = SimDuration::from_us(1);
        topo.connect(a, b, BitRate::from_gbps(40), delay);
        topo.connect(a, b, BitRate::from_gbps(10), delay);
        topo.connect(ha, a, BitRate::from_gbps(40), delay);
        topo.connect(hb, b, BitRate::from_gbps(40), delay);
        let mut tables = shortest_path_tables(&topo);
        tables.set(a, hb, vec![PortNo(1)]);
        tables.set(b, hb, vec![PortNo(1)]);
        let flows = [FlowSpec::cbr(0, ha, hb, BitRate::from_gbps(3)).with_ttl(16)];
        let doc = static_cbd(&topo, &tables, &flows, SimTime::ZERO);
        assert!(doc.cbd);
        let ports: Vec<(NodeId, PortNo)> = doc.cycle.iter().map(|h| (h.node, h.port)).collect();
        assert_eq!(ports, [(b, PortNo(1)), (a, PortNo(1))]);
        let th = doc.threshold.expect("a cycle has a threshold");
        assert_eq!(th.bandwidth, BitRate::from_gbps(10));
        assert_eq!(th.threshold, BitRate::from_mbps(1_250));
    }

    #[test]
    fn static_cbd_negative_on_shortest_paths() {
        let built = square(LinkSpec::default());
        let flows: Vec<FlowSpec> = (0..4u32)
            .map(|i| {
                FlowSpec::infinite(
                    i,
                    built.hosts[i as usize],
                    built.hosts[(i as usize + 1) % 4],
                )
            })
            .collect();
        let tables = shortest_path_tables(&built.topo);
        let doc = static_cbd(&built.topo, &tables, &flows, SimTime::ZERO);
        assert!(!doc.cbd, "1-hop shortest paths cannot close a cycle");
        assert!(doc.cycle.is_empty());
        assert!(doc.threshold.is_none());
    }

    #[test]
    fn stopped_flows_do_not_contribute_dependencies() {
        let built = square(LinkSpec::default());
        let flows: Vec<FlowSpec> = square_cycle_flows(&built)
            .into_iter()
            .map(|f| f.stopping_at(SimTime::from_us(5)))
            .collect();
        let tables = shortest_path_tables(&built.topo);
        assert!(static_cbd(&built.topo, &tables, &flows, SimTime::ZERO).cbd);
        assert!(!static_cbd(&built.topo, &tables, &flows, SimTime::from_us(10)).cbd);
    }

    fn small_session() -> Session {
        let built = ring(3, LinkSpec::default());
        let mut spec = SessionSpec::new(
            built.topo.clone(),
            vec![
                FlowSpec::cbr(0, built.hosts[0], built.hosts[1], BitRate::from_gbps(10)),
                FlowSpec::cbr(1, built.hosts[1], built.hosts[2], BitRate::from_gbps(10)),
            ],
        );
        spec.horizon = SimTime::from_us(5_000);
        Session::open(spec).expect("open")
    }

    #[test]
    fn what_if_leaves_resident_untouched_and_matches_oracle() {
        let mut s = small_session();
        s.apply(Update::AdvanceTo(SimTime::from_us(100))).unwrap();
        let before = s.state_digest().unwrap();
        let push = RoutePush {
            node: NodeId(0),
            dst: NodeId(s.topo().node_count() as u32 - 1),
            ports: vec![PortNo(0)],
        };
        let window = SimDuration::from_us(500);
        let doc = s.what_if(std::slice::from_ref(&push), window).unwrap();
        assert!(doc.resident_unchanged);
        assert_eq!(doc.state_digest_before, before);
        assert_eq!(s.state_digest().unwrap(), before);
        let oracle = s
            .oracle_what_if(std::slice::from_ref(&push), window)
            .unwrap();
        assert_eq!(doc.verdict, oracle, "resident probe and batch oracle agree");
    }

    /// `what_if` drops the probe's occupancy history; nothing it reports
    /// may notice. The square one push (`S3 → h1 via S0`) away from the
    /// paper's Fig. 3 deadlock, a clean and the closing push, each against
    /// the same probe with its history kept, driven by hand to its first
    /// confirmed deadlock. The clean push needs no probe at all.
    #[test]
    fn what_if_is_blind_to_the_probes_occupancy_history() {
        let built = square(LinkSpec::default());
        let (sw, h) = (&built.switches, &built.hosts);
        let via = |node: usize, dst: usize, next: usize| RoutePush {
            node: sw[node],
            dst: h[dst],
            ports: vec![
                built
                    .topo
                    .port_towards(sw[node], sw[next])
                    .expect("adjacent")
                    .port,
            ],
        };
        let mut tables = shortest_path_tables(&built.topo);
        for p in [via(0, 2, 1), via(1, 3, 2), via(2, 0, 3), via(3, 1, 2)] {
            tables.set(p.node, p.dst, p.ports);
        }
        let flows = (0..4u32)
            .map(|i| FlowSpec::infinite(i, h[i as usize], h[(i as usize + 2) % 4]).with_ttl(16))
            .collect();
        let mut spec = SessionSpec::new(built.topo.clone(), flows);
        spec.tables = Some(tables);
        spec.horizon = SimTime::from_us(50_000);
        let mut s = Session::open(spec).expect("open");
        s.apply(Update::AdvanceTo(SimTime::from_us(50))).unwrap();

        for (push, window_us, decided_by) in [
            (via(0, 1, 3), 50, DecidedBy::Static),
            (via(3, 1, 0), 400, DecidedBy::Probe),
        ] {
            let window = SimDuration::from_us(window_us);
            let doc = s.what_if(std::slice::from_ref(&push), window).unwrap();
            assert_eq!(doc.decided_by, decided_by, "{push:?}");
            assert_eq!(doc.verdict.deadlock, decided_by == DecidedBy::Probe);

            let (now, bound) = (s.now(), s.probe_bound(window));
            let mut probe = NetSim::resume(s.snapshot().unwrap()).unwrap();
            let samples = |stats: &crate::stats::NetStats| -> usize {
                stats.occupancy.values().map(|series| series.len()).sum()
            };
            let carried = samples(&probe.stats);
            assert!(carried > 0, "the resident has a history to carry");
            probe.dp.cfg.stop_on_deadlock = true;
            probe.schedule_route_update(now, push.node, push.dst, push.ports.clone());
            // (A wedged fabric runs out of events, which ends the run.)
            let (verdict, probe_events, recorded) = match probe.advance_until(bound, s.horizon) {
                Some(report) => (
                    VerdictDoc::from_verdict(&report.verdict),
                    report.events,
                    samples(&report.stats),
                ),
                None => (
                    verdict_at_pause(&mut probe, bound),
                    probe.events,
                    samples(&probe.stats),
                ),
            };
            assert!(recorded > carried, "the reference kept recording");
            let digest = s.state_digest().unwrap();
            let mut pushed = s.tables().clone();
            pushed.set(push.node, push.dst, push.ports.clone());
            let want = WhatIfDoc {
                verdict,
                probed_until: bound,
                probe_events: match decided_by {
                    DecidedBy::Static => 0,
                    DecidedBy::Probe => probe_events,
                },
                decided_by,
                state_digest_before: digest,
                state_digest_after: digest,
                resident_unchanged: true,
                cbd: static_cbd(s.topo(), &pushed, s.flows(), now),
            };
            assert_eq!(doc, want, "{push:?}");
        }
    }

    #[test]
    fn rejected_mutations_mutate_nothing() {
        let mut s = small_session();
        let before = s.state_digest().unwrap();
        let v = s.version();
        // Host as route target.
        let host = s.topo().hosts().next().unwrap();
        let err = s.apply(Update::RouteUpdate(RoutePush {
            node: host,
            dst: NodeId(0),
            ports: vec![PortNo(0)],
        }));
        assert!(matches!(err, Err(Error::Config(_))));
        // Duplicate flow id (fails inside the rebuild).
        let dup = FlowSpec::infinite(0, host, host);
        assert!(s.apply(Update::FlowAdd(dup)).is_err());
        // Backwards advance.
        s.apply(Update::AdvanceTo(SimTime::from_us(50))).unwrap();
        assert!(s.apply(Update::AdvanceTo(SimTime::from_us(10))).is_err());
        // Version only moved for the successful advance; digest changed
        // only through that advance.
        assert_eq!(s.version(), v + 1);
        let _ = before;
    }

    #[test]
    fn protocol_round_trip_over_two_switch_loop() {
        let mut serve = ServeSession::new(ServeConfig::default());
        let (resp, ctl) = serve.handle_line(
            r#"{"schema":"pfcsim-serve/1","id":1,"op":"open","topo":{"builder":"two_switch_loop"},"flows":[{"id":0,"src":"hA","dst":"hB","gbps":10}],"horizon_us":5000}"#,
        );
        assert_eq!(ctl, Control::Continue);
        let resp: Value = serde_json::from_str(&resp.unwrap()).unwrap();
        assert_eq!(resp["ok"], true, "open failed: {resp:?}");
        assert_eq!(resp["id"], 1u64);
        assert_eq!(resp["schema"], SERVE_SCHEMA);

        let (resp, _) = serve.handle_line(r#"{"id":2,"op":"query","kind":"status"}"#);
        let resp: Value = serde_json::from_str(&resp.unwrap()).unwrap();
        assert_eq!(resp["ok"], true);
        assert_eq!(resp["result"]["finished"], false);

        let (resp, ctl) = serve.handle_line(r#"{"id":3,"op":"shutdown"}"#);
        assert_eq!(ctl, Control::Shutdown);
        let resp: Value = serde_json::from_str(&resp.unwrap()).unwrap();
        assert_eq!(resp["ok"], true);
    }

    #[test]
    fn malformed_requests_error_without_state_change() {
        let mut serve = ServeSession::new(ServeConfig::default());
        let (resp, _) = serve.handle_line(r#"{"id":9,"op":"query","kind":"status"}"#);
        let resp: Value = serde_json::from_str(&resp.unwrap()).unwrap();
        assert_eq!(resp["ok"], false);
        assert_eq!(resp["error"]["kind"], "state");

        serve
            .handle_line(
                r#"{"op":"open","topo":{"builder":"ring","n":3},"flows":[{"id":0,"src":"h0","dst":"h1","gbps":1}],"horizon_us":1000}"#,
            )
            .0
            .unwrap();
        let before = serve.session_mut().unwrap().state_digest().unwrap();
        for bad in [
            "this is not json",
            r#"{"op":"route_update","node":"S0","dst":"nope","ports":[0]}"#,
            r#"{"op":"route_update","node":"S0"}"#,
            r#"{"op":"flow_add","id":0,"src":"h0","dst":"h1","gbps":-3}"#,
            r#"{"op":"no_such_op"}"#,
            r#"{"schema":"pfcsim-serve/999","op":"query","kind":"status"}"#,
        ] {
            let (resp, ctl) = serve.handle_line(bad);
            assert_eq!(ctl, Control::Continue);
            let resp: Value = serde_json::from_str(&resp.unwrap()).unwrap();
            assert_eq!(resp["ok"], false, "{bad} should be rejected");
        }
        assert_eq!(
            serve.session_mut().unwrap().state_digest().unwrap(),
            before,
            "rejected requests must not move the resident state"
        );
    }

    /// A wrong-typed checkpoint `path` is an error, not the configured
    /// default path.
    #[test]
    fn a_wrong_typed_checkpoint_path_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("pfcsim_serve_path_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let default = dir.join("default.ck");
        let mut serve = ServeSession::new(ServeConfig {
            checkpoint_path: Some(default.to_str().unwrap().to_string()),
        });
        serve.handle_line(r#"{"op":"open","topo":{"builder":"ring","n":3},"horizon_us":1000}"#);
        let (resp, _) = serve.handle_line(r#"{"op":"checkpoint","path":7}"#);
        let resp: Value = serde_json::from_str(&resp.unwrap()).unwrap();
        let written = default.exists();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(resp["error"]["kind"], "protocol", "{resp:?}");
        assert!(!written);
    }

    #[test]
    fn demand_field_selects_full_flow_document() {
        let built = ring(3, LinkSpec::default());
        let full = FlowSpec::cbr(7, built.hosts[0], built.hosts[1], BitRate::from_gbps(3));
        let text = serde_json::to_string(&full).unwrap();
        let doc = RawValue::parse(&text).unwrap();
        let parsed = decode_flow(&built.topo, doc, &Object::of(doc)).expect("full document parses");
        assert_eq!(parsed.id, full.id);
        assert!(matches!(parsed.demand, Demand::Cbr(r) if r == BitRate::from_gbps(3)));
    }
}

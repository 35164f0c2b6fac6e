//! The packet-level lossless-Ethernet simulator.
//!
//! [`NetSim`] instantiates one [`crate::switch::Switch`] per switch
//! node and one [`crate::host::Host`] per host node of a
//! [`Topology`], then processes a deterministic event stream: packet
//! arrivals, transmissions, PFC PAUSE/RESUME, shaper releases, flow
//! start/stop, occupancy sampling and deadlock scans.
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

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use pfcsim_simcore::error::Error;
use pfcsim_simcore::event::{Backend, EventQueue};
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::series::RingSeries;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::{BitRate, Bytes};
use pfcsim_simcore::wheel::{tick_shift_for_quantum, DEFAULT_TICK_SHIFT};
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, LinkId, NodeId, PortNo, Priority};
use pfcsim_topo::routing::{trace_path, ForwardingTables};

use crate::checkpoint::{Checkpoint, CheckpointError, QueueSnapshot};
use crate::config::{PauseMode, PfcConfig, SimConfig};
use crate::dcqcn::{DcqcnConfig, DcqcnState};
use crate::deadlock::DeadlockTracker;
use crate::faults::{FaultAction, FaultKind, FaultPlan, FaultRecord};
use crate::flow::{Demand, FlowSpec, RouteKind};
use crate::host::{FlowRt, Host};
use crate::packet::{Frame, Packet, PfcFrame, PfcOp, PFC_FRAME_SIZE};
use crate::recovery::{RecoveryConfig, RecoveryStrategy};
use crate::stats::{FlowStats, IngressKey, NetStats, PauseKey};
use crate::switch::{InFlight, Ingress, QPkt, Switch, TxPause};
use crate::telemetry::{MetricId, TelemetryConfig, TelemetryReport, TelemetryState, TraceSink};
use crate::timely::{TimelyConfig, TimelyState};
use crate::trace::{DropReason, TraceEvent};

/// Static per-port link facts, precomputed from the topology.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortInfo {
    pub peer: NodeId,
    pub peer_port: PortNo,
    pub rate: BitRate,
    pub delay: SimDuration,
    pub link: LinkId,
    /// `rate.serialization_time(cfg.default_packet_size)`, cached because
    /// the u128 division behind `serialization_time` is a per-packet cost
    /// on the datapath and almost every frame is default-sized.
    pub ser_default: SimDuration,
}

/// Simulator events.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum Ev {
    Arrive {
        node: NodeId,
        port: PortNo,
        /// Index into the `NetSim::frames` slab. Carrying the payload by
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

/// A timed forwarding-table mutation (transient loops, failures, repairs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RouteUpdate {
    at: SimTime,
    node: NodeId,
    dst: NodeId,
    ports: Vec<PortNo>,
}

/// State saved across a [`FaultKind::SwitchReboot`] for the restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RebootState {
    /// Links this reboot took down (restored together).
    links: Vec<LinkId>,
    /// The wiped forwarding-table rows.
    routes: Vec<(NodeId, Vec<PortNo>)>,
}

/// The `Copy` subset of a [`FlowSpec`], extracted by [`NetSim::lite`] for
/// per-event paths so they never clone the spec (whose `route` owns heap
/// memory).
#[derive(Debug, Clone, Copy)]
struct SpecLite {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    priority: Priority,
    demand: Demand,
    packet_size: Option<Bytes>,
    ttl: u8,
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
    /// Flows that ran fluid for any part of the run.
    pub fluid_flows: u64,
    /// Hybrid fluid→packet region transitions taken.
    pub hybrid_demotions: u64,
    /// Hybrid packet→fluid region transitions taken.
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
    /// Digest of the full `SimConfig` (see
    /// [`crate::checkpoint::config_digest`]); pairs with `seed` to pin
    /// the exact configuration a report came from, and is what a resume
    /// checks a checkpoint against.
    pub config_digest: u64,
}

/// Reusable simulator storage: the event queue (slot arena plus wheel or
/// heap index) and the flow/frame vectors that dominate per-construction
/// allocation.
///
/// A sweep worker keeps one bundle, builds each point with
/// [`SimBuilder::build_in`], and hands the storage back with
/// [`NetSim::recycle`] when the run finishes. Clearing is O(live
/// entries) and capacity is retained, so steady-state iterations stop
/// allocating once the largest point in the sweep has been seen.
/// `sweep::parallel_map_with` in the bench crate wires this up per worker
/// thread automatically.
#[derive(Default)]
pub struct SimArenas {
    queue: Option<EventQueue<Ev>>,
    frames: Vec<Frame>,
    frame_free: Vec<u32>,
    flows: Vec<FlowSpec>,
    rt: Vec<FlowRt>,
    fstats: Vec<FlowStats>,
    fstats_touched: Vec<bool>,
    fmap: Vec<u32>,
    pinned: Vec<Vec<u16>>,
    traced: Vec<bool>,
    sample_keys: Vec<IngressKey>,
    switch_pfc: Vec<Option<PfcConfig>>,
    host_in_flight: Vec<Option<Packet>>,
    link_up: Vec<bool>,
    pfc_loss: Vec<Option<f64>>,
    pfc_delay: Vec<Option<SimDuration>>,
}

impl SimArenas {
    /// A fresh, empty bundle. Capacity accrues as simulators are recycled
    /// into it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand out the cached event queue if it matches the requested
    /// backend and (for the wheel) tick size; otherwise build a new one.
    fn lease_queue(&mut self, backend: Backend, tick_shift: u32) -> EventQueue<Ev> {
        match self.queue.take() {
            Some(mut q)
                if q.backend() == backend && q.tick_shift().is_none_or(|s| s == tick_shift) =>
            {
                q.reset();
                q
            }
            _ => EventQueue::with_backend_and_tick_shift(backend, tick_shift),
        }
    }
}

/// Take a vector out of an arena slot, cleared but with capacity intact.
fn take_cleared<T>(slot: &mut Vec<T>) -> Vec<T> {
    let mut v = std::mem::take(slot);
    v.clear();
    v
}

/// Take a vector out of an arena slot and refill it to `n` copies of
/// `fill`, reusing its allocation.
fn refill<T: Clone>(slot: &mut Vec<T>, n: usize, fill: T) -> Vec<T> {
    let mut v = std::mem::take(slot);
    v.clear();
    v.resize(n, fill);
    v
}

/// Builds a [`NetSim`]: topology (required), then any of config,
/// explicit forwarding tables, telemetry, a custom trace sink, and
/// reusable [`SimArenas`] storage at build time.
///
/// ```ignore
/// let sim = SimBuilder::new(&topo)
///     .config(cfg)
///     .telemetry(TelemetryConfig::on())
///     .build();
/// ```
///
/// This replaced the constructor-era `NetSim::new` / `new_in` /
/// `with_tables` / `with_tables_in` matrix, which has been removed.
/// [`SimBuilder::try_build`] / [`SimBuilder::try_build_in`] are the
/// canonical entry points: they surface invalid configs and topologies
/// as a typed [`Error`](pfcsim_simcore::error::Error) instead of
/// panicking, which is what the resident
/// [`serve`](crate::serve) session requires.
pub struct SimBuilder<'a> {
    topo: &'a Topology,
    cfg: SimConfig,
    tables: Option<ForwardingTables>,
    sink: Option<Box<dyn TraceSink>>,
}

impl<'a> SimBuilder<'a> {
    /// Start building a simulator over `topo` with the default config and
    /// shortest-path forwarding tables.
    pub fn new(topo: &'a Topology) -> Self {
        SimBuilder {
            topo,
            cfg: SimConfig::default(),
            tables: None,
            sink: None,
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

    /// Route filtered trace events into a custom [`TraceSink`] instead of
    /// the built-in one named by `TelemetryConfig::sink`. Implies nothing
    /// about the rest of telemetry: the config's `enabled` flag still
    /// gates everything.
    pub fn trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Build, reporting config/topology/sink problems as `Err`.
    pub fn try_build(self) -> Result<NetSim, Error> {
        self.try_build_in(&mut SimArenas::default())
    }

    /// Build.
    ///
    /// # Panics
    /// Panics on an invalid config or topology, or an unopenable sink.
    pub fn build(self) -> NetSim {
        self.try_build().expect("SimBuilder::build")
    }

    /// Like [`SimBuilder::try_build`], but leasing event-queue and flow
    /// storage from `arenas` (see [`SimArenas`]).
    pub fn try_build_in(self, arenas: &mut SimArenas) -> Result<NetSim, Error> {
        NetSim::construct(self.topo, self.cfg, self.tables, arenas, self.sink)
    }

    /// Like [`SimBuilder::build`], but leasing storage from `arenas`.
    ///
    /// # Panics
    /// Panics on an invalid config or topology, or an unopenable sink.
    pub fn build_in(self, arenas: &mut SimArenas) -> NetSim {
        self.try_build_in(arenas).expect("SimBuilder::build_in")
    }
}

/// The simulator. Build with [`SimBuilder`], add flows, then call a run
/// method exactly once.
pub struct NetSim {
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) tables: ForwardingTables,
    /// Flat struct-of-arrays port table: all ports of node `n` occupy the
    /// contiguous range `port_base[n]..port_base[n + 1]`. One bounds check
    /// and no nested-Vec pointer chase on the per-packet paths.
    pub(crate) port_info: Vec<PortInfo>,
    /// `port_base[n]` = global index of node `n`'s port 0; has
    /// `n_nodes + 1` entries so `port_base[n + 1] - port_base[n]` is the
    /// port count.
    pub(crate) port_base: Vec<u32>,
    /// Struct-of-arrays pause state: transmitter `(node, port, prio)` is
    /// paused when `tx_pause[pid(node, port) * Priority::COUNT + prio]`
    /// says so (set by PFC frames from the downstream receiver). Hosts
    /// use port 0. Lives here rather than in `Egress`/`Host` so the
    /// per-packet eligibility checks walk one dense array.
    pub(crate) tx_pause: Vec<TxPause>,
    /// Per-channel handle of the pending quanta `PauseExpire` timer,
    /// parallel to `tx_pause`. A pause refresh *reschedules* this event
    /// in place instead of piling a new timer per PFC frame onto the
    /// queue. Entries may be stale (the event already fired or was
    /// popped); `EventQueue::reschedule` rejects dead handles, so the
    /// slot self-heals on the next refresh. Not checkpointed — rebuilt
    /// from the restored queue's live `PauseExpire` entries.
    pub(crate) pause_timer: Vec<Option<pfcsim_simcore::event::EventId>>,
    pub(crate) switches: Vec<Option<Switch>>,
    pub(crate) hosts: Vec<Option<Host>>,
    /// Per-switch PFC override, indexed by node id (`None` = global cfg).
    pub(crate) switch_pfc: Vec<Option<PfcConfig>>,
    /// Flow specs in registration order — the dense flow arena. Every
    /// hot-path lookup goes `FlowId` → [`NetSim::fmap`] → index here.
    pub(crate) flows: Vec<FlowSpec>,
    /// Runtime flow state, parallel to `flows`.
    pub(crate) rt: Vec<FlowRt>,
    /// Hot-path per-flow counters, parallel to `flows`; folded into
    /// `stats.flows` when the run finishes (entries only for touched
    /// flows, matching the old `flow_mut` entry semantics).
    pub(crate) fstats: Vec<FlowStats>,
    pub(crate) fstats_touched: Vec<bool>,
    /// Raw `FlowId` value → dense index (`u32::MAX` = unregistered).
    pub(crate) fmap: Vec<u32>,
    /// Pinned egress ports: `pinned[dense_flow][node]` (`u16::MAX` =
    /// none); empty vec for table-routed flows.
    pub(crate) pinned: Vec<Vec<u16>>,
    /// NIC frame mid-serialization, indexed by node id.
    pub(crate) host_in_flight: Vec<Option<Packet>>,
    /// Payloads of in-flight `Ev::Arrive` events, indexed by the event's
    /// `frame` field. Slots recycle through `frame_free` when the arrival
    /// is handled, so the slab's high-water mark is the peak number of
    /// frames on the wire.
    pub(crate) frames: Vec<Frame>,
    pub(crate) frame_free: Vec<u32>,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) meaningful: u64,
    pub(crate) stats: NetStats,
    pub(crate) rng: SimRng,
    pub(crate) next_pkt_id: u64,
    pub(crate) quantum: u64,
    pub(crate) horizon: SimTime,
    route_updates: Vec<RouteUpdate>,
    /// Sampling restriction (sorted, deduped); `None` = sample everything.
    watch_keys: Option<Vec<IngressKey>>,
    /// Bitmask of priorities carrying traffic (flow specs + class remaps).
    used_prios: u8,
    /// Keys `on_sample` walks, precomputed at `start()`.
    sample_keys: Vec<IngressKey>,
    /// Dense channel arena + pause bitset for the incremental deadlock
    /// detector (see [`crate::deadlock`]).
    pub(crate) dl: DeadlockTracker,
    /// Tracker epoch at the last deadlock-free periodic scan; while the
    /// epoch still matches, a rescan is provably redundant.
    last_clean_scan: Option<u64>,
    scans_run: u64,
    scans_skipped: u64,
    /// Debug: run the reference analyzer beside the incremental one and
    /// panic on divergence.
    cross_check_deadlock: bool,
    pub(crate) deadlock: Option<(SimTime, Vec<PauseKey>)>,
    pub(crate) dcqcn_cfg: Option<DcqcnConfig>,
    pub(crate) timely_cfg: Option<TimelyConfig>,
    /// Raw `FlowId` value → packet-lifecycle tracing enabled.
    pub(crate) traced: Vec<bool>,
    trace_cap: usize,
    pub(crate) events: u64,
    pub(crate) started: bool,
    finished: bool,
    // --- fault injection ---
    /// Per-link up/down state, indexed by `LinkId`.
    pub(crate) link_up: Vec<bool>,
    fault_plan: Option<FaultPlan>,
    /// The plan expanded (flaps unrolled) and sorted; `Ev::Fault` indexes it.
    pub(crate) fault_events: Vec<(SimTime, FaultKind)>,
    /// Fault randomness (pause-loss coins, reconvergence jitter): an
    /// independent stream so installing a plan never perturbs traffic RNG.
    pub(crate) fault_rng: SimRng,
    /// Armed per-switch PFC loss probability, indexed by node id.
    pub(crate) pfc_loss: Vec<Option<f64>>,
    /// Armed per-switch PFC delay, indexed by node id.
    pub(crate) pfc_delay: Vec<Option<SimDuration>>,
    /// Lossless headroom above XOFF under an armed pause fault.
    pub(crate) pause_headroom: Bytes,
    /// Switches currently down, with the state their restore needs.
    reboots: BTreeMap<NodeId, RebootState>,
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
}

impl NetSim {
    /// The one true constructor, reached through [`SimBuilder`].
    pub(crate) fn construct(
        topo: &Topology,
        cfg: SimConfig,
        tables: Option<ForwardingTables>,
        arenas: &mut SimArenas,
        sink: Option<Box<dyn TraceSink>>,
    ) -> Result<Self, Error> {
        cfg.validate()?;
        topo.validate()?;
        let tables = tables.unwrap_or_else(|| pfcsim_topo::routing::shortest_path_tables(topo));
        let telem = if cfg.telemetry.enabled {
            Some(Box::new(TelemetryState::new(cfg.telemetry.clone(), sink)?))
        } else {
            None
        };
        let mut port_info: Vec<PortInfo> = Vec::new();
        let mut port_base: Vec<u32> = Vec::with_capacity(topo.node_count() + 1);
        for n in topo.nodes() {
            port_base.push(port_info.len() as u32);
            for p in topo.ports(n.id) {
                let l = topo.link(p.link);
                port_info.push(PortInfo {
                    peer: p.peer,
                    peer_port: p.peer_port,
                    rate: l.rate,
                    delay: l.delay,
                    link: p.link,
                    ser_default: l.rate.serialization_time(cfg.default_packet_size),
                });
            }
        }
        port_base.push(port_info.len() as u32);
        let switches = topo
            .nodes()
            .iter()
            .map(|n| {
                (n.kind == NodeKind::Switch).then(|| Switch::new(n.id, topo.ports(n.id).len()))
            })
            .collect();
        let hosts = topo
            .nodes()
            .iter()
            .map(|n| (n.kind == NodeKind::Host).then(|| Host::new(n.id)))
            .collect();
        let seed = cfg.seed;
        let quantum = cfg.default_packet_size.get();
        let n_nodes = topo.node_count();
        let dl = DeadlockTracker::new(topo, &port_info, &port_base);
        // The wheel tick is sized from the fastest link's serialization
        // time for a default-size packet — the natural spacing of the
        // TxDone/Arrive events that dominate the queue.
        let backend = cfg.scheduler.unwrap_or(Backend::Wheel);
        let tick_shift = port_info
            .iter()
            .map(|p| p.ser_default)
            .min()
            .map(tick_shift_for_quantum)
            .unwrap_or(DEFAULT_TICK_SHIFT);
        Ok(NetSim {
            topo: topo.clone(),
            cfg,
            tables,
            tx_pause: vec![TxPause::Open; port_info.len() * Priority::COUNT],
            pause_timer: vec![None; port_info.len() * Priority::COUNT],
            port_info,
            port_base,
            switches,
            hosts,
            switch_pfc: refill(&mut arenas.switch_pfc, n_nodes, None),
            flows: take_cleared(&mut arenas.flows),
            rt: take_cleared(&mut arenas.rt),
            fstats: take_cleared(&mut arenas.fstats),
            fstats_touched: take_cleared(&mut arenas.fstats_touched),
            fmap: take_cleared(&mut arenas.fmap),
            pinned: take_cleared(&mut arenas.pinned),
            host_in_flight: refill(&mut arenas.host_in_flight, n_nodes, None),
            frames: take_cleared(&mut arenas.frames),
            frame_free: take_cleared(&mut arenas.frame_free),
            queue: arenas.lease_queue(backend, tick_shift),
            meaningful: 0,
            stats: NetStats::default(),
            rng: SimRng::new(seed),
            next_pkt_id: 0,
            quantum,
            horizon: SimTime::MAX,
            route_updates: Vec::new(),
            watch_keys: None,
            used_prios: 0,
            sample_keys: take_cleared(&mut arenas.sample_keys),
            dl,
            last_clean_scan: None,
            scans_run: 0,
            scans_skipped: 0,
            cross_check_deadlock: false,
            deadlock: None,
            dcqcn_cfg: None,
            timely_cfg: None,
            traced: take_cleared(&mut arenas.traced),
            trace_cap: 1_000_000,
            events: 0,
            started: false,
            finished: false,
            link_up: refill(&mut arenas.link_up, topo.link_count(), true),
            fault_plan: None,
            fault_events: Vec::new(),
            fault_rng: SimRng::new(seed ^ 0xFA17_5EED_0DD5_EED5),
            pfc_loss: refill(&mut arenas.pfc_loss, n_nodes, None),
            pfc_delay: refill(&mut arenas.pfc_delay, n_nodes, None),
            pause_headroom: Bytes::from_kb(20),
            reboots: BTreeMap::new(),
            telem,
            hybrid: None,
            drain_stop: None,
        })
    }

    /// Return this simulator's reusable storage to `arenas` so the next
    /// [`SimBuilder::build_in`] construction can lease it back. Everything handed over is cleared in O(live entries)
    /// with capacity retained; the rest of the simulator drops normally.
    pub fn recycle(mut self, arenas: &mut SimArenas) {
        self.queue.reset();
        arenas.queue = Some(self.queue);
        self.frames.clear();
        arenas.frames = self.frames;
        self.frame_free.clear();
        arenas.frame_free = self.frame_free;
        self.flows.clear();
        arenas.flows = self.flows;
        self.rt.clear();
        arenas.rt = self.rt;
        self.fstats.clear();
        arenas.fstats = self.fstats;
        self.fstats_touched.clear();
        arenas.fstats_touched = self.fstats_touched;
        self.fmap.clear();
        arenas.fmap = self.fmap;
        self.pinned.clear();
        arenas.pinned = self.pinned;
        self.traced.clear();
        arenas.traced = self.traced;
        self.sample_keys.clear();
        arenas.sample_keys = self.sample_keys;
        arenas.switch_pfc = take_cleared(&mut self.switch_pfc);
        arenas.host_in_flight = take_cleared(&mut self.host_in_flight);
        arenas.link_up = take_cleared(&mut self.link_up);
        arenas.pfc_loss = take_cleared(&mut self.pfc_loss);
        arenas.pfc_delay = take_cleared(&mut self.pfc_delay);
    }

    /// Allocate a slot in the frame slab for an in-flight `Ev::Arrive`.
    pub(crate) fn frame_alloc(&mut self, frame: Frame) -> u32 {
        match self.frame_free.pop() {
            Some(ix) => {
                self.frames[ix as usize] = frame;
                ix
            }
            None => {
                self.frames.push(frame);
                (self.frames.len() - 1) as u32
            }
        }
    }

    /// Take a frame out of the slab, releasing its slot.
    #[inline]
    pub(crate) fn frame_take(&mut self, ix: u32) -> Frame {
        self.frame_free.push(ix);
        self.frames[ix as usize]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The simulator's effective configuration (after builder defaults and
    /// recovery/fault installation). Useful for pairing a live run against
    /// a checkpoint via [`crate::checkpoint::Checkpoint::verify_config`].
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The live forwarding tables (reflecting every route update applied
    /// so far). Read-only; mutate via [`NetSim::tables_mut`] before the
    /// run or [`NetSim::schedule_route_update`] mid-run.
    pub fn tables(&self) -> &ForwardingTables {
        &self.tables
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
        self.deadlock.as_ref().map(|(t, w)| (*t, w.as_slice()))
    }

    /// Register a flow, reporting invalid specs as `Err`.
    ///
    /// The canonical, `Result`-returning form of [`NetSim::add_flow`]:
    /// duplicate ids, non-host endpoints, and invalid pinned paths
    /// (pinned paths must also be simple — loops are expressed through
    /// tables, as in real networks) come back as a typed
    /// [`Error`] instead of a panic, and leave the simulator unchanged.
    pub fn try_add_flow(&mut self, spec: FlowSpec) -> Result<(), Error> {
        if self.started {
            return Err(Error::State(
                "cannot add flows after the run started".into(),
            ));
        }
        let raw = spec.id.0 as usize;
        if self.fmap.get(raw).is_some_and(|&slot| slot != u32::MAX) {
            return Err(Error::Config(format!("duplicate flow id {}", spec.id)));
        }
        if self.topo.node(spec.src).kind != NodeKind::Host {
            return Err(Error::Config(format!(
                "flow source must be a host, got {}",
                spec.src
            )));
        }
        if self.topo.node(spec.dst).kind != NodeKind::Host {
            return Err(Error::Config(format!(
                "flow destination must be a host, got {}",
                spec.dst
            )));
        }
        let mut pin: Vec<u16> = Vec::new();
        if let RouteKind::Pinned(path) = &spec.route {
            path.validate(&self.topo)
                .map_err(|e| Error::Config(format!("invalid pinned path: {e}")))?;
            if *path.nodes.first().unwrap() != spec.src {
                return Err(Error::Config("pinned path must start at src".into()));
            }
            if *path.nodes.last().unwrap() != spec.dst {
                return Err(Error::Config("pinned path must end at dst".into()));
            }
            let mut seen = BTreeSet::new();
            for &n in &path.nodes {
                if !seen.insert(n) {
                    return Err(Error::Config(format!(
                        "pinned path revisits {n}; use tables for loops"
                    )));
                }
            }
            pin = vec![u16::MAX; self.topo.node_count()];
            for w in path.nodes.windows(2) {
                if self.topo.node(w[0]).kind == NodeKind::Switch {
                    let port = self.topo.port_towards(w[0], w[1]).expect("validated").port;
                    pin[w[0].0 as usize] = port.0;
                }
            }
        }
        if self.fmap.len() <= raw {
            self.fmap.resize(raw + 1, u32::MAX);
        }
        self.quantum = self.quantum.max(
            spec.packet_size
                .unwrap_or(self.cfg.default_packet_size)
                .get(),
        );
        self.used_prios |= 1 << spec.priority.0;
        self.hosts[spec.src.0 as usize]
            .as_mut()
            .expect("source is a host")
            .add_flow(spec.id);
        self.fmap[raw] = self.flows.len() as u32;
        self.pinned.push(pin);
        self.rt.push(FlowRt::default());
        self.fstats.push(FlowStats::default());
        self.fstats_touched.push(false);
        self.flows.push(spec);
        Ok(())
    }

    /// Panicking convenience shim over [`NetSim::try_add_flow`] (the
    /// canonical, `Result`-returning form).
    ///
    /// # Panics
    /// Panics on duplicate ids, non-host endpoints, or an invalid pinned
    /// path.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        self.try_add_flow(spec).expect("add_flow");
    }

    /// Dense arena index of a registered flow.
    #[inline]
    pub(crate) fn fidx(&self, f: FlowId) -> usize {
        self.fmap[f.0 as usize] as usize
    }

    /// Hot-path per-flow counters (arena-backed; folded into
    /// `stats.flows` at run end).
    #[inline]
    fn fstat_mut(&mut self, f: FlowId) -> &mut FlowStats {
        let i = self.fidx(f);
        self.fstats_touched[i] = true;
        &mut self.fstats[i]
    }

    /// Pinned egress port of `f` at `node`, if the flow pins one.
    #[inline]
    pub(crate) fn pinned_port(&self, f: FlowId, node: NodeId) -> Option<PortNo> {
        match self.pinned[self.fidx(f)].get(node.0 as usize) {
            Some(&p) if p != u16::MAX => Some(PortNo(p)),
            _ => None,
        }
    }

    /// The datapath's one route rule: the egress `node` gives `flow`'s
    /// packets for `dst` — the flow's pinned port, else the ECMP pick from
    /// `tables`. `serve`'s static pre-check walks packets with it too, over
    /// tables the run has not installed yet, so the two cannot drift.
    #[inline]
    pub(crate) fn next_hop(
        &self,
        tables: &ForwardingTables,
        flow: FlowId,
        node: NodeId,
        dst: NodeId,
    ) -> Option<PortNo> {
        self.pinned_port(flow, node)
            .or_else(|| tables.select(node, dst, flow))
    }

    /// The `Copy` subset of a flow's spec (everything per-event code
    /// needs); reading one is a memcpy, the heap-backed `route` stays put.
    #[inline]
    fn lite(&self, f: FlowId) -> SpecLite {
        let s = &self.flows[self.fidx(f)];
        SpecLite {
            id: s.id,
            src: s.src,
            dst: s.dst,
            priority: s.priority,
            demand: s.demand,
            packet_size: s.packet_size,
            ttl: s.ttl,
        }
    }

    /// Look up a switch's ingress record, with a diagnosable error for
    /// non-switch nodes and out-of-range ports.
    fn ingress_mut(&mut self, node: NodeId, port: PortNo) -> Result<&mut Ingress, Error> {
        let sw = self
            .switches
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| Error::Config(format!("{node} is not a switch")))?;
        sw.ingress
            .get_mut(port.0 as usize)
            .ok_or_else(|| Error::Config(format!("{node} has no port {}", port.0)))
    }

    /// Override PFC settings for one switch (threshold tiering).
    ///
    /// Returns an error for an invalid config or a non-switch node.
    pub fn try_set_switch_pfc(&mut self, node: NodeId, pfc: PfcConfig) -> Result<(), Error> {
        pfc.validate()?;
        if self
            .switches
            .get(node.0 as usize)
            .is_none_or(Option::is_none)
        {
            return Err(Error::Config(format!("{node} is not a switch")));
        }
        self.switch_pfc[node.0 as usize] = Some(pfc);
        Ok(())
    }

    /// Panicking convenience shim over [`NetSim::try_set_switch_pfc`]
    /// (the canonical, `Result`-returning form).
    ///
    /// # Panics
    /// Panics on an invalid config or a non-switch node.
    pub fn set_switch_pfc(&mut self, node: NodeId, pfc: PfcConfig) {
        self.try_set_switch_pfc(node, pfc).expect("set_switch_pfc");
    }

    /// Override the XOFF/XON thresholds of a single ingress port.
    ///
    /// Returns an error for inverted thresholds, a non-switch node, or an
    /// out-of-range port.
    pub fn try_set_port_thresholds(
        &mut self,
        node: NodeId,
        port: PortNo,
        xoff: Bytes,
        xon: Bytes,
    ) -> Result<(), Error> {
        if xon > xoff {
            return Err(Error::Config(format!(
                "xon ({xon}) must not exceed xoff ({xoff})"
            )));
        }
        let ing = self.ingress_mut(node, port)?;
        ing.xoff_override = Some(xoff);
        ing.xon_override = Some(xon);
        Ok(())
    }

    /// Panicking convenience shim over
    /// [`NetSim::try_set_port_thresholds`] (the canonical,
    /// `Result`-returning form).
    ///
    /// # Panics
    /// Panics on inverted thresholds, a non-switch node, or an
    /// out-of-range port.
    pub fn set_port_thresholds(&mut self, node: NodeId, port: PortNo, xoff: Bytes, xon: Bytes) {
        self.try_set_port_thresholds(node, port, xoff, xon)
            .expect("set_port_thresholds");
    }

    /// Attach an ingress token-bucket shaper (the paper's Case-3 rate
    /// limiter on switch B's ingress RX2).
    ///
    /// Returns an error for a non-switch node, an out-of-range port, or a
    /// zero rate.
    pub fn try_set_ingress_shaper(
        &mut self,
        node: NodeId,
        port: PortNo,
        rate: BitRate,
        burst: Bytes,
    ) -> Result<(), Error> {
        if rate.is_zero() {
            return Err("shaper rate must be positive".into());
        }
        let ing = self.ingress_mut(node, port)?;
        ing.shaper = Some(crate::shaper::TokenBucket::new(rate, burst));
        Ok(())
    }

    /// Panicking convenience shim over
    /// [`NetSim::try_set_ingress_shaper`] (the canonical,
    /// `Result`-returning form).
    ///
    /// # Panics
    /// Panics on a non-switch node, an out-of-range port, or a zero rate.
    pub fn set_ingress_shaper(&mut self, node: NodeId, port: PortNo, rate: BitRate, burst: Bytes) {
        self.try_set_ingress_shaper(node, port, rate, burst)
            .expect("set_ingress_shaper");
    }

    /// Schedule a forwarding-table change at `at` (fault injection:
    /// transient loops, reroutes, repairs). Works both before the run and
    /// mid-run (route reconvergence schedules these as it fires); a
    /// mid-run update must not be in the past.
    pub fn schedule_route_update(
        &mut self,
        at: SimTime,
        node: NodeId,
        dst: NodeId,
        ports: Vec<PortNo>,
    ) {
        let idx = self.route_updates.len();
        self.route_updates.push(RouteUpdate {
            at,
            node,
            dst,
            ports,
        });
        if self.started {
            assert!(at >= self.now(), "route update scheduled in the past");
            self.sched(at, Ev::RouteUpdate { idx });
        }
    }

    /// Install a fault schedule (see [`crate::faults`]). Must be called
    /// before the run starts; the plan is validated against the topology.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error> {
        assert!(!self.started, "install the fault plan before running");
        plan.validate(&self.topo)?;
        self.pause_headroom = plan.pause_headroom;
        self.fault_plan = Some(plan);
        Ok(())
    }

    /// Mutable access to the forwarding tables (before the run starts).
    pub fn tables_mut(&mut self) -> &mut ForwardingTables {
        assert!(!self.started, "mutate tables before running");
        &mut self.tables
    }

    /// Restrict occupancy sampling to the given ingress queues
    /// (default: every switch ingress × every priority in use).
    pub fn watch_only(&mut self, keys: impl IntoIterator<Item = IngressKey>) {
        let mut v: Vec<IngressKey> = keys.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        if self.started {
            self.sample_keys = v.clone();
        }
        self.watch_keys = Some(v);
    }

    /// Drop the occupancy series recorded so far and record no more. For
    /// a what-if probe: no verdict reads them, and `Ev::Sample` keeps
    /// firing over the empty key set, so event order and counts are
    /// those of a run that kept recording.
    pub(crate) fn forget_occupancy_history(&mut self) {
        self.sample_keys.clear();
        self.stats.occupancy.clear();
        self.stats.flow_occupancy.clear();
    }

    /// Enable DCQCN with the given parameters (required if any flow has
    /// `Demand::Dcqcn`; also requires `SimConfig::ecn`).
    pub fn set_dcqcn(&mut self, cfg: DcqcnConfig) {
        self.dcqcn_cfg = Some(cfg);
    }

    /// Record per-packet lifecycle events for the given flows (see
    /// [`crate::trace`]). Recording stops at the trace cap.
    pub fn trace_flows(&mut self, flows: impl IntoIterator<Item = FlowId>) {
        for f in flows {
            let raw = f.0 as usize;
            if self.traced.len() <= raw {
                self.traced.resize(raw + 1, false);
            }
            self.traced[raw] = true;
        }
    }

    /// Cap the number of recorded trace events (default 1,000,000).
    pub fn set_trace_cap(&mut self, cap: usize) {
        self.trace_cap = cap;
    }

    fn trace(&mut self, flow: FlowId, prio: Priority, ev: TraceEvent) {
        if self.traced.get(flow.0 as usize).copied().unwrap_or(false)
            && self.stats.trace.len() < self.trace_cap
        {
            self.stats.trace.push(ev);
        }
        if let Some(t) = self.telem.as_mut() {
            t.trace(flow, prio, &ev);
        }
    }

    /// Enable TIMELY with the given parameters (required if any flow has
    /// `Demand::Timely`). Needs no switch (ECN) support.
    pub fn set_timely(&mut self, cfg: TimelyConfig) {
        self.timely_cfg = Some(cfg);
    }

    /// Arm the reactive deadlock-recovery watchdog (see
    /// [`crate::recovery`]). Implies `stop_on_deadlock = false`: the point
    /// is to keep running through detections and measure the damage.
    ///
    /// Returns an error for an invalid recovery config or a simulator
    /// that already started running.
    pub fn try_enable_recovery(&mut self, rc: RecoveryConfig) -> Result<(), Error> {
        if self.started {
            return Err("arm recovery before running".into());
        }
        rc.validate()?;
        self.cfg.stop_on_deadlock = false;
        self.cfg.recovery = Some(rc);
        Ok(())
    }

    /// Panicking convenience shim over [`NetSim::try_enable_recovery`]
    /// (the canonical, `Result`-returning form).
    ///
    /// # Panics
    /// Panics on an invalid recovery config or a simulator that already
    /// started running.
    pub fn enable_recovery(&mut self, rc: RecoveryConfig) {
        self.try_enable_recovery(rc).expect("enable_recovery");
    }

    // ------------------------------------------------------------------
    // Threshold helpers
    // ------------------------------------------------------------------

    pub(crate) fn pfc_of(&self, node: NodeId) -> &PfcConfig {
        self.switch_pfc[node.0 as usize]
            .as_ref()
            .unwrap_or(&self.cfg.pfc)
    }

    #[inline]
    pub(crate) fn xoff_of(&self, node: NodeId, port: PortNo) -> Bytes {
        let sw = self.switches[node.0 as usize].as_ref().expect("switch");
        let base = sw.ingress[port.0 as usize]
            .xoff_override
            .unwrap_or(self.pfc_of(node).xoff);
        match self.pfc_of(node).dynamic_alpha {
            None => base,
            Some((num, den)) => {
                let free = self.cfg.switch_buffer.saturating_sub(sw.buffered);
                let dyn_thr = Bytes::new(
                    u64::try_from(free.get() as u128 * num as u128 / den as u128)
                        .expect("dynamic threshold fits"),
                );
                base.min(dyn_thr)
            }
        }
    }

    #[inline]
    pub(crate) fn xon_of(&self, node: NodeId, port: PortNo) -> Bytes {
        let sw = self.switches[node.0 as usize].as_ref().expect("switch");
        let pfc = self.pfc_of(node);
        let base_xon = sw.ingress[port.0 as usize].xon_override.unwrap_or(pfc.xon);
        match pfc.dynamic_alpha {
            None => base_xon,
            Some(_) => {
                // Track the dynamic XOFF at the configured xon:xoff ratio.
                let xoff = self.xoff_of(node, port);
                let base_xoff = sw.ingress[port.0 as usize]
                    .xoff_override
                    .unwrap_or(pfc.xoff)
                    .get()
                    .max(1);
                Bytes::new(xoff.get() * base_xon.get() / base_xoff)
            }
        }
    }

    fn pause_mode_of(&self, node: NodeId) -> PauseMode {
        self.pfc_of(node).mode
    }

    fn packet_size_of(&self, packet_size: Option<Bytes>) -> Bytes {
        packet_size.unwrap_or(self.cfg.default_packet_size)
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

    /// Schedule a force-stop of every registered flow at `stop_at` (the
    /// first half of [`NetSim::run_with_drain`], split out so a
    /// checkpointable run can pair it with [`NetSim::advance_until`]).
    pub fn schedule_flow_stops(&mut self, stop_at: SimTime) {
        assert!(!self.started, "run methods may be called once");
        // A FlowStop at stop_at for every flow; stopping a flow twice is
        // harmless (the handler is idempotent).
        // Sorted by id to preserve the scheduling order (and hence the
        // event tie-breaking) of the original id-keyed map.
        let mut ids: Vec<FlowId> = self.flows.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        for id in ids {
            self.sched(stop_at, Ev::FlowStop { flow: id });
        }
        self.drain_stop = Some(match self.drain_stop {
            Some(prev) => prev.min(stop_at),
            None => stop_at,
        });
    }

    fn start(&mut self) {
        assert!(!self.started, "a NetSim can only run once");
        self.started = true;
        // Sorted by id: scheduling order fixes event tie-breaking, and the
        // original id-keyed map iterated in id order.
        let mut flow_ids: Vec<FlowId> = self.flows.iter().map(|s| s.id).collect();
        flow_ids.sort_unstable();
        for id in flow_ids {
            let i = self.fidx(id);
            let (start, stop, demand) = {
                let spec = &self.flows[i];
                (spec.start, spec.stop, spec.demand)
            };
            if matches!(demand, Demand::Dcqcn) {
                assert!(
                    self.dcqcn_cfg.is_some(),
                    "flow {id} uses Demand::Dcqcn but set_dcqcn was not called"
                );
                assert!(
                    self.cfg.ecn.is_some(),
                    "DCQCN requires SimConfig::ecn marking"
                );
                let fb = self.compute_feedback_delay(id);
                self.rt[i].feedback_delay = fb;
            }
            if matches!(demand, Demand::Timely) {
                assert!(
                    self.timely_cfg.is_some(),
                    "flow {id} uses Demand::Timely but set_timely was not called"
                );
                let fb = self.compute_feedback_delay(id);
                self.rt[i].feedback_delay = fb;
            }
            self.sched(start, Ev::FlowStart { flow: id });
            if let Some(stop) = stop {
                self.sched(stop, Ev::FlowStop { flow: id });
            }
        }
        let updates: Vec<(SimTime, usize)> = self
            .route_updates
            .iter()
            .enumerate()
            .map(|(i, u)| (u.at, i))
            .collect();
        for (at, idx) in updates {
            self.sched(at, Ev::RouteUpdate { idx });
        }
        // Class remapping introduces priorities beyond the flow specs';
        // include them in the sampled set.
        if let Some(n) = self.cfg.hop_class_mode {
            for p in 0..n {
                self.used_prios |= 1 << p;
            }
        }
        if let Some(tc) = self.cfg.ttl_class_mode {
            for p in tc.base_class..tc.base_class + tc.classes {
                self.used_prios |= 1 << p;
            }
        }
        // Freeze the sampled key set: rebuilding it per sample was a
        // measurable cost on dense fabrics. Ascending (node, port, prio)
        // order matches the old sorted-set iteration exactly.
        self.sample_keys = match &self.watch_keys {
            Some(v) => v.clone(),
            None => {
                let mut v = Vec::new();
                for sw in self.switches.iter().flatten() {
                    for (pi, _) in sw.ingress.iter().enumerate() {
                        for prio in 0..Priority::COUNT as u8 {
                            if self.used_prios & (1 << prio) != 0 {
                                v.push(IngressKey {
                                    node: sw.node,
                                    port: PortNo(pi as u16),
                                    priority: Priority(prio),
                                });
                            }
                        }
                    }
                }
                v
            }
        };
        if self.cfg.sample_interval.is_some() {
            self.sched(SimTime::ZERO, Ev::Sample);
        }
        if self.cfg.deadlock_scan_interval.is_some() {
            self.sched(SimTime::ZERO, Ev::DeadlockScan);
        }
        if self.telem.is_some() {
            self.sched(SimTime::ZERO, Ev::TelemetrySample);
        }
        if let Some(rc) = self.cfg.recovery {
            self.sched(SimTime::ZERO + rc.check_interval, Ev::RecoveryScan);
        }
        // Expand the fault plan into concrete timed events. Flaps unroll
        // into their individual down/up edges here so the runtime only ever
        // sees instantaneous faults.
        if let Some(plan) = self.fault_plan.take() {
            let mut evs: Vec<(SimTime, FaultKind)> = Vec::new();
            for ev in plan.events {
                match ev.kind {
                    FaultKind::LinkFlap {
                        a,
                        b,
                        down_for,
                        period,
                        cycles,
                    } => {
                        for c in 0..cycles {
                            let down_at = ev.at + period.saturating_mul(c as u64);
                            evs.push((down_at, FaultKind::LinkDown { a, b }));
                            evs.push((down_at + down_for, FaultKind::LinkUp { a, b }));
                        }
                    }
                    kind => evs.push((ev.at, kind)),
                }
            }
            evs.sort_by_key(|(t, _)| *t);
            for (i, (at, _)) in evs.iter().enumerate() {
                self.sched(*at, Ev::Fault { idx: i });
            }
            self.fault_events = evs;
        }
        // Last: classify flows for the hybrid fluid/packet backend, now
        // that stops, faults, and route updates are all on the books.
        self.hybrid_classify();
    }

    /// Whether any mid-run forwarding-table updates are scheduled
    /// (forces full-packet execution: fluid paths must stay frozen).
    pub(crate) fn has_route_updates(&self) -> bool {
        !self.route_updates.is_empty()
    }

    fn run_inner(&mut self, horizon: SimTime) -> RunReport {
        self.horizon = horizon;
        if !self.started {
            self.start();
        }
        assert!(!self.finished, "run methods may be called once");
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
            if self.cfg.max_events > 0 && self.events >= self.cfg.max_events {
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
            if self.cfg.stop_on_deadlock && self.deadlock.is_some() {
                return StepOutcome::DeadlockStop;
            }
        }
    }

    /// Close out the run and build the report (shared tail of every run
    /// protocol).
    fn finalize(&mut self, quiesced: bool) -> RunReport {
        // Fluid flows fold against the boundary the *run* actually
        // stopped at — computed before the final scan below so a
        // deadlock first confirmed here (at the end instant) keeps
        // horizon-inclusive boundary semantics.
        let hybrid_folds = self.hybrid_compute_folds();
        // Final scan: catches deadlocks formed after the last periodic scan
        // (or with scanning disabled).
        if self.deadlock.is_none() {
            if let Some(witness) = self.scan_deadlock() {
                self.deadlock = Some((self.now(), witness));
            }
        }
        // Fold the hot-path per-flow counters into the reported map. An
        // entry appears iff the flow's stats were ever touched, preserving
        // the old lazily-populated `flow_mut` entry semantics.
        for i in 0..self.flows.len() {
            if self.fstats_touched[i] {
                let merged = std::mem::take(&mut self.fstats[i]);
                self.stats.flows.insert(self.flows[i].id, merged);
            }
        }
        // Account packets still waiting in source backlogs so per-flow
        // conservation (injected = delivered + dropped + unsent) holds at
        // every run end.
        let leftover: Vec<(FlowId, u64, Bytes)> = self
            .flows
            .iter()
            .zip(self.rt.iter())
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
            for sw in self.switches.iter().flatten() {
                for eg in &sw.egress {
                    for q in &eg.queues {
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
            for pkt in self.host_in_flight.iter().flatten() {
                add(pkt);
            }
        }
        for (f, (pkts, bytes)) in stuck {
            let fs = self.stats.flow_mut(f);
            fs.stuck_packets = pkts;
            fs.stuck_bytes = bytes;
        }
        let mut buffered: Bytes = self.switches.iter().flatten().map(|s| s.buffered).sum();
        // Quiescence with buffered bytes is a deadlock even if the fixpoint
        // was inconclusive (it cannot be: nothing can move at quiescence).
        if self.deadlock.is_none() && quiesced && !buffered.is_zero() {
            self.deadlock = Some((self.now(), self.stats.permanently_paused()));
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
        let verdict = match &self.deadlock {
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
            hybrid_demotions: hybrid_totals.as_ref().map_or(0, |t| t.demotions),
            hybrid_promotions: hybrid_totals.as_ref().map_or(0, |t| t.promotions),
            deadlock_scans_run: self.scans_run,
            deadlock_scans_skipped: self.scans_skipped,
            stats: std::mem::take(&mut self.stats),
            telemetry,
            seed: self.cfg.seed,
            config_digest: crate::checkpoint::config_digest(&self.cfg),
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

    /// The event queue's storage: arena slots and delay-lane capacity.
    /// Neither shrinks, so a run that leaves both as it leased them
    /// allocated no queue storage; tests assert on this.
    #[doc(hidden)]
    pub fn queue_capacity(&self) -> (usize, usize) {
        (self.queue.arena_len(), self.queue.lane_capacity())
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume (see `crate::checkpoint` for the format)
    // ------------------------------------------------------------------

    /// Capture a complete mid-run image. Pair with
    /// [`NetSim::advance_until`] to pause at a checkpoint cadence, and
    /// [`NetSim::resume`] to restore; the resumed run's report is
    /// bit-identical to the uninterrupted run's.
    ///
    /// Errors when the run has not started (nothing to capture), has
    /// already finished, or uses a trace sink that cannot be
    /// checkpointed (custom sink objects, writer-backed JSONL sinks).
    pub fn checkpoint(&mut self) -> Result<Checkpoint, CheckpointError> {
        if !self.started || self.finished {
            return Err(CheckpointError::Unsupported(
                "only a started, unfinished run can be checkpointed".into(),
            ));
        }
        let telemetry = match self.telem.as_mut() {
            Some(t) => Some(t.snapshot().map_err(CheckpointError::Unsupported)?),
            None => None,
        };
        Ok(Checkpoint {
            topo: self.topo.clone(),
            cfg: self.cfg.clone(),
            tables: self.tables.clone(),
            dcqcn_cfg: self.dcqcn_cfg,
            timely_cfg: self.timely_cfg,
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
            switches: self.switches.clone(),
            hosts: self.hosts.clone(),
            tx_pause: self.tx_pause.clone(),
            switch_pfc: self.switch_pfc.clone(),
            host_in_flight: self.host_in_flight.clone(),
            frames: self.frames.clone(),
            frame_free: self.frame_free.clone(),
            link_up: self.link_up.clone(),
            flows: self.flows.clone(),
            rt: self.rt.clone(),
            fstats: self.fstats.clone(),
            fstats_touched: self.fstats_touched.clone(),
            fmap: self.fmap.clone(),
            pinned: self.pinned.clone(),
            traced: self.traced.clone(),
            next_pkt_id: self.next_pkt_id,
            rng: self.rng.clone(),
            fault_rng: self.fault_rng.clone(),
            dl_paused: self.dl.paused_channels(),
            dl_epoch: self.dl.epoch(),
            last_clean_scan: self.last_clean_scan,
            scans_run: self.scans_run,
            scans_skipped: self.scans_skipped,
            deadlock: self.deadlock.clone(),
            fault_events: self.fault_events.clone(),
            route_updates: self.route_updates.clone(),
            pfc_loss: self.pfc_loss.clone(),
            pfc_delay: self.pfc_delay.clone(),
            pause_headroom: self.pause_headroom,
            reboots: self.reboots.clone(),
            hybrid: self.hybrid.clone(),
            stats: self.stats.clone(),
            watch_keys: self.watch_keys.clone(),
            used_prios: self.used_prios,
            sample_keys: self.sample_keys.clone(),
            telemetry,
            trace_cap: self.trace_cap as u64,
        })
    }

    /// Rebuild a running simulator from a checkpoint image (the engine
    /// behind [`NetSim::resume`]).
    pub(crate) fn restore_from(ckpt: Checkpoint) -> Result<NetSim, CheckpointError> {
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
            used_prios,
            sample_keys,
            telemetry,
            trace_cap,
        } = ckpt;
        // Cheap structural sanity: a checksum-valid frame whose payload
        // disagrees with its own embedded topology is version skew or
        // tampering — reject it before any index can go out of bounds.
        let n_nodes = topo.node_count();
        if switches.len() != n_nodes || hosts.len() != n_nodes {
            return Err(CheckpointError::Decode(format!(
                "node tables sized {}/{} but topology has {n_nodes} nodes",
                switches.len(),
                hosts.len()
            )));
        }
        if link_up.len() != topo.link_count() {
            return Err(CheckpointError::Decode(format!(
                "link table sized {} but topology has {} links",
                link_up.len(),
                topo.link_count()
            )));
        }
        let n_flows = flows.len();
        if rt.len() != n_flows || fstats.len() != n_flows || fstats_touched.len() != n_flows {
            return Err(CheckpointError::Decode(
                "flow runtime tables disagree with the flow arena".into(),
            ));
        }
        queue.validate()?;
        // Build the static scaffolding (port info, deadlock-tracker
        // topology arrays, forwarding) with telemetry disabled so no sink
        // is instantiated — a fresh JSONL sink would truncate the file the
        // pre-checkpoint run was appending to. The live telemetry state is
        // restored from its snapshot below, reopening files in append
        // mode.
        let mut build_cfg = cfg.clone();
        build_cfg.telemetry.enabled = false;
        let mut arenas = SimArenas::default();
        let mut sim = NetSim::construct(&topo, build_cfg, Some(tables), &mut arenas, None)
            .map_err(|e| CheckpointError::Decode(e.to_string()))?;
        sim.cfg = cfg;
        // The scheduler: rebuild the exact backend/tick geometry the
        // snapshot was taken under, then reinsert every live entry with
        // its original (time, seq) key.
        let QueueSnapshot {
            backend,
            tick_shift,
            now,
            next_seq,
            entries,
        } = queue;
        let mut q = EventQueue::with_backend_and_tick_shift(
            backend,
            tick_shift.unwrap_or(DEFAULT_TICK_SHIFT),
        );
        q.restore_state(now, next_seq, entries);
        sim.queue = q;
        sim.meaningful = meaningful;
        sim.horizon = horizon;
        sim.events = events;
        sim.switches = switches;
        sim.hosts = hosts;
        if tx_pause.len() != sim.tx_pause.len() {
            return Err(CheckpointError::Decode(format!(
                "pause table sized {} but topology has {} channels",
                tx_pause.len(),
                sim.tx_pause.len()
            )));
        }
        sim.tx_pause = tx_pause;
        // Event handles do not survive serialization; re-key the quanta
        // timer slots from the restored queue's live `PauseExpire`
        // entries (coalescing keeps at most one pending per channel). A
        // restored queue holds every entry in a slot, so each has a handle.
        let mut timers = std::mem::take(&mut sim.pause_timer);
        sim.queue.for_each_live(|id, _, ev| {
            if let Ev::PauseExpire { node, port, prio } = *ev {
                timers[sim.chan(node, port, prio as usize)] = id;
            }
        });
        sim.pause_timer = timers;
        sim.switch_pfc = switch_pfc;
        sim.host_in_flight = host_in_flight;
        sim.frames = frames;
        sim.frame_free = frame_free;
        sim.link_up = link_up;
        sim.flows = flows;
        sim.rt = rt;
        sim.fstats = fstats;
        sim.fstats_touched = fstats_touched;
        sim.fmap = fmap;
        sim.pinned = pinned;
        sim.traced = traced;
        sim.next_pkt_id = next_pkt_id;
        sim.rng = rng;
        sim.fault_rng = fault_rng;
        sim.dl.restore_paused(&dl_paused, dl_epoch);
        sim.last_clean_scan = last_clean_scan;
        sim.scans_run = scans_run;
        sim.scans_skipped = scans_skipped;
        sim.deadlock = deadlock;
        sim.fault_events = fault_events;
        sim.route_updates = route_updates;
        sim.pfc_loss = pfc_loss;
        sim.pfc_delay = pfc_delay;
        sim.pause_headroom = pause_headroom;
        sim.reboots = reboots;
        sim.hybrid = hybrid;
        sim.stats = stats;
        sim.watch_keys = watch_keys;
        sim.used_prios = used_prios;
        sim.sample_keys = sample_keys;
        sim.dcqcn_cfg = dcqcn_cfg;
        sim.timely_cfg = timely_cfg;
        sim.trace_cap = trace_cap as usize;
        sim.telem = match telemetry {
            Some(snap) => Some(Box::new(
                TelemetryState::restore(sim.cfg.telemetry.clone(), snap)
                    .map_err(CheckpointError::Unsupported)?,
            )),
            None => None,
        };
        sim.started = true;
        Ok(sim)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive { node, port, frame } => {
                let frame = self.frame_take(frame);
                self.on_arrive(node, port, frame)
            }
            Ev::TxDone { node, port } => self.on_tx_done(node, port),
            Ev::HostTxDone { host } => self.on_host_tx_done(host),
            Ev::HostWake { host } => {
                let now = self.now();
                if let Some(h) = self.hosts[host.0 as usize].as_mut() {
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
                let u = self.route_updates[idx].clone();
                self.tables.set(u.node, u.dst, u.ports);
            }
            Ev::Fault { idx } => self.on_fault(idx),
            Ev::SwitchRestore { node } => self.on_switch_restore(node),
            Ev::Sample => self.on_sample(),
            Ev::DeadlockScan => self.on_deadlock_scan(),
            Ev::RecoveryScan => self.on_recovery_scan(),
            Ev::TelemetrySample => self.on_telemetry_sample(),
        }
    }

    // ------------------------------------------------------------------
    // Flow lifecycle & host sending
    // ------------------------------------------------------------------

    fn on_flow_start(&mut self, flow: FlowId) {
        let i = self.fidx(flow);
        let spec = self.lite(flow);
        {
            let now = self.queue.now();
            let rt = &mut self.rt[i];
            rt.active = true;
            if matches!(spec.demand, Demand::Dcqcn) {
                let cfg = self.dcqcn_cfg.expect("checked at start");
                rt.dcqcn = Some(DcqcnState::new(&cfg));
                rt.next_send = now;
            }
            if matches!(spec.demand, Demand::Timely) {
                let cfg = self.timely_cfg.expect("checked at start");
                rt.timely = Some(TimelyState::new(&cfg));
                rt.next_send = now;
            }
        }
        match spec.demand {
            Demand::Cbr(_) | Demand::CbrFinite { .. } => {
                // Hybrid: a fluid flow's tick chain is never scheduled —
                // its lattice is folded in closed form at finalize.
                if !self.hybrid_elides_ticks(flow) {
                    self.sched(self.now(), Ev::FlowTick { flow });
                }
            }
            Demand::Poisson(_) => {
                let child = self.rng.fork(0x50_1550 ^ flow.0 as u64);
                self.rt[i].rng = Some(child);
                self.sched(self.now(), Ev::FlowTick { flow });
            }
            Demand::OnOff { mean_on, .. } => {
                let mut child = self.rng.fork(0x0F0F ^ flow.0 as u64);
                let first_on = exp_duration(&mut child, mean_on);
                let rt = &mut self.rt[i];
                rt.rng = Some(child);
                rt.on = true;
                self.sched(self.now(), Ev::FlowTick { flow });
                self.sched(self.now() + first_on, Ev::OnOffToggle { flow });
            }
            Demand::Infinite => self.host_try_send(spec.src),
            Demand::Dcqcn => {
                let cfg = self.dcqcn_cfg.expect("checked");
                self.sched(self.now() + cfg.alpha_timer, Ev::DcqcnAlpha { flow });
                self.sched(self.now() + cfg.rate_timer, Ev::DcqcnRate { flow });
                self.host_try_send(spec.src);
            }
            Demand::Timely => self.host_try_send(spec.src),
        }
    }

    fn on_flow_stop(&mut self, flow: FlowId) {
        let i = self.fidx(flow);
        let rt = &mut self.rt[i];
        rt.active = false;
        let (pkts, bytes) = (
            rt.backlog.len() as u64,
            rt.backlog.iter().map(|p| p.size).sum::<Bytes>(),
        );
        rt.backlog.clear();
        if pkts > 0 {
            let fs = self.fstat_mut(flow);
            fs.unsent_packets += pkts;
            fs.unsent_bytes += bytes;
        }
    }

    fn on_flow_tick(&mut self, flow: FlowId) {
        let i = self.fidx(flow);
        let spec = self.lite(flow);
        let size = self.packet_size_of(spec.packet_size);
        {
            let rt = &mut self.rt[i];
            if !rt.active {
                return;
            }
            if let Demand::CbrFinite { total, .. } = spec.demand {
                if rt.injected >= total {
                    rt.active = false;
                    return;
                }
            }
        }
        // Hybrid intercept: swallow stray ticks of open fluid flows and
        // promote a demoted flow whose hysteresis window has expired.
        if self.hybrid.is_some() && self.hybrid_on_flow_tick(flow) {
            return;
        }
        // On-off sources skip generation while OFF; the toggle re-arms the
        // tick chain.
        if let Demand::OnOff { .. } = spec.demand {
            if !self.rt[i].on {
                return;
            }
        }
        let pkt = self.make_packet(spec, size);
        let rt = &mut self.rt[i];
        rt.backlog.push_back(pkt);
        let interval = match spec.demand {
            Demand::Cbr(rate) | Demand::CbrFinite { rate, .. } => rate.serialization_time(size),
            Demand::Poisson(rate) => {
                let mean = rate.serialization_time(size);
                let rng = rt.rng.as_mut().expect("poisson flows have rng");
                exp_duration(rng, mean)
            }
            Demand::OnOff { peak, .. } => peak.serialization_time(size),
            Demand::Infinite | Demand::Dcqcn | Demand::Timely => {
                unreachable!("not tick-driven")
            }
        };
        self.sched(self.now() + interval, Ev::FlowTick { flow });
        self.host_try_send(spec.src);
    }

    fn on_onoff_toggle(&mut self, flow: FlowId) {
        let i = self.fidx(flow);
        let spec = self.lite(flow);
        let Demand::OnOff {
            mean_on, mean_off, ..
        } = spec.demand
        else {
            unreachable!("toggle only scheduled for on-off flows");
        };
        let (now_on, next_after) = {
            let rt = &mut self.rt[i];
            if !rt.active {
                return;
            }
            rt.on = !rt.on;
            let mean = if rt.on { mean_on } else { mean_off };
            let rng = rt.rng.as_mut().expect("on-off flows have rng");
            (rt.on, exp_duration(rng, mean))
        };
        self.sched(self.now() + next_after, Ev::OnOffToggle { flow });
        if now_on {
            // Restart the generation chain.
            self.sched(self.now(), Ev::FlowTick { flow });
        }
    }

    fn make_packet(&mut self, spec: SpecLite, size: Bytes) -> Packet {
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let i = self.fidx(spec.id);
        let rt = &mut self.rt[i];
        let seq = rt.next_seq;
        rt.next_seq += 1;
        rt.injected += size;
        self.fstats_touched[i] = true;
        let fs = &mut self.fstats[i];
        fs.injected_packets += 1;
        fs.injected_bytes += size;
        self.trace(
            spec.id,
            spec.priority,
            TraceEvent::Injected {
                t: self.queue.now(),
                flow: spec.id,
                pkt: id,
                src: spec.src,
            },
        );
        Packet {
            id,
            flow: spec.id,
            src: spec.src,
            dst: spec.dst,
            size,
            ttl: spec.ttl,
            priority: spec.priority,
            seq,
            injected_at: self.queue.now(),
            ecn_marked: false,
        }
    }

    /// Attempt to start a transmission at `host`'s NIC.
    fn host_try_send(&mut self, host: NodeId) {
        let now = self.now();
        let h = self.hosts[host.0 as usize].as_ref().expect("host");
        if h.busy || h.rr.is_empty() {
            return;
        }
        if !self.link_ok(host, PortNo(0)) {
            return; // NIC link down; LinkUp revives the sender
        }
        let n = h.rr.len();
        let mut chosen: Option<FlowId> = None;
        let mut earliest_wake: Option<SimTime> = None;
        for i in 0..n {
            let h = self.hosts[host.0 as usize].as_ref().expect("host");
            let f = h.rr[i];
            let fi = self.fidx(f);
            let spec = &self.flows[fi];
            let rt = &self.rt[fi];
            if self.cfg.host_respects_pfc
                && self.tx_pause[self.chan(host, PortNo(0), spec.priority.index())].is_paused(now)
            {
                continue;
            }
            let ready = match spec.demand {
                Demand::Infinite => rt.active,
                // Tick-driven sources: the NIC drains whatever the
                // generator produced, even after generation finished
                // (a completed finite burst must still leave the host).
                Demand::Cbr(_)
                | Demand::CbrFinite { .. }
                | Demand::Poisson(_)
                | Demand::OnOff { .. } => !rt.backlog.is_empty(),
                Demand::Dcqcn | Demand::Timely => {
                    if !rt.active {
                        false
                    } else if rt.next_send <= now {
                        true
                    } else {
                        earliest_wake = Some(match earliest_wake {
                            Some(t) => t.min(rt.next_send),
                            None => rt.next_send,
                        });
                        false
                    }
                }
            };
            if ready {
                chosen = Some(f);
                // Rotate so the flow after the chosen one is served next.
                let h = self.hosts[host.0 as usize].as_mut().expect("host");
                for _ in 0..=i {
                    h.rotate();
                }
                break;
            }
        }
        let Some(f) = chosen else {
            if let Some(wake) = earliest_wake {
                let h = self.hosts[host.0 as usize].as_mut().expect("host");
                let need = match h.wake_at {
                    Some(t) => wake < t,
                    None => true,
                };
                if need {
                    h.wake_at = Some(wake);
                    self.sched(wake, Ev::HostWake { host });
                }
            }
            return;
        };
        let fi = self.fidx(f);
        let spec = self.lite(f);
        let size = self.packet_size_of(spec.packet_size);
        let pkt = match spec.demand {
            Demand::Infinite => self.make_packet(spec, size),
            Demand::Dcqcn => {
                let p = self.make_packet(spec, size);
                let cfg = self.dcqcn_cfg.expect("dcqcn flows have config");
                let rt = &mut self.rt[fi];
                let st = rt.dcqcn.as_mut().expect("dcqcn state");
                st.on_bytes_sent(size, &cfg);
                let rate = st.rate.min(cfg.line_rate);
                rt.next_send = now + rate.serialization_time(size);
                p
            }
            Demand::Timely => {
                let p = self.make_packet(spec, size);
                let cfg = self.timely_cfg.expect("timely flows have config");
                let rt = &mut self.rt[fi];
                let st = rt.timely.as_ref().expect("timely state");
                let rate = st.rate.min(cfg.line_rate);
                rt.next_send = now + rate.serialization_time(size);
                p
            }
            _ => self.rt[fi]
                .backlog
                .pop_front()
                .expect("ready tick-driven flow has backlog"),
        };
        let info = self.pinfo(host, PortNo(0));
        let ser = Self::ser_time(info, pkt.size, self.cfg.default_packet_size);
        let h = self.hosts[host.0 as usize].as_mut().expect("host");
        h.busy = true;
        self.host_in_flight[host.0 as usize] = Some(pkt);
        self.sched(now + ser, Ev::HostTxDone { host });
    }

    fn on_host_tx_done(&mut self, host: NodeId) {
        let Some(pkt) = self.host_in_flight[host.0 as usize].take() else {
            return; // destroyed by a fault mid-serialization
        };
        let info = *self.pinfo(host, PortNo(0));
        if self.link_ok(host, PortNo(0)) {
            let frame = self.frame_alloc(Frame::Data(pkt));
            self.sched(
                self.now() + info.delay,
                Ev::Arrive {
                    node: info.peer,
                    port: info.peer_port,
                    frame,
                },
            );
        } else {
            // The NIC finished serializing onto a dead link.
            self.drop_link_down(host, &pkt);
        }
        let h = self.hosts[host.0 as usize].as_mut().expect("host");
        h.busy = false;
        self.host_try_send(host);
    }

    // ------------------------------------------------------------------
    // Arrivals
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, node: NodeId, port: PortNo, frame: Frame) {
        if !self.link_ok(node, port) {
            // The frame was on the wire when the link died.
            if let Frame::Data(pkt) = frame {
                self.drop_link_down(node, &pkt);
            }
            return;
        }
        match (self.topo.node(node).kind, frame) {
            (NodeKind::Host, Frame::Data(pkt)) => self.host_deliver(node, pkt),
            (NodeKind::Host, Frame::Pfc(f)) => self.host_pfc(node, f),
            (NodeKind::Switch, Frame::Data(pkt)) => self.switch_rx(node, port, pkt),
            (NodeKind::Switch, Frame::Pfc(f)) => self.switch_pfc_rx(node, port, f),
        }
    }

    fn host_deliver(&mut self, host: NodeId, pkt: Packet) {
        let now = self.now();
        if pkt.dst != host {
            // A flood copy that washed up at the wrong NIC: discard.
            self.stats.misdelivered += 1;
            self.trace(
                pkt.flow,
                pkt.priority,
                TraceEvent::Dropped {
                    t: now,
                    pkt: pkt.id,
                    node: host,
                    reason: DropReason::Misdelivered,
                },
            );
            return;
        }
        self.trace(
            pkt.flow,
            pkt.priority,
            TraceEvent::Delivered {
                t: now,
                pkt: pkt.id,
                host,
            },
        );
        let h = self.hosts[host.0 as usize].as_mut().expect("host");
        h.received += pkt.size;
        let fi = self.fidx(pkt.flow);
        self.fstats_touched[fi] = true;
        let fs = &mut self.fstats[fi];
        fs.delivered_packets += 1;
        fs.delivered_bytes += pkt.size;
        fs.meter.record(now, pkt.size);
        if matches!(self.flows[fi].demand, Demand::Timely) {
            let rtt = now.saturating_since(pkt.injected_at);
            let delay = self.rt[fi].feedback_delay;
            self.sched(
                now + delay,
                Ev::RttSample {
                    flow: pkt.flow,
                    rtt_ps: rtt.as_ps(),
                },
            );
        }
        let fs = &mut self.fstats[fi];
        if pkt.ecn_marked {
            fs.ecn_marked += 1;
            // Receiver-side CNP generation for DCQCN flows.
            let is_dcqcn = matches!(self.flows[fi].demand, Demand::Dcqcn);
            if is_dcqcn {
                let cfg = self.dcqcn_cfg.expect("dcqcn cfg");
                let rt = &mut self.rt[fi];
                let due = match rt.last_cnp {
                    Some(last) => now.saturating_since(last) >= cfg.cnp_interval,
                    None => true,
                };
                if due {
                    rt.last_cnp = Some(now);
                    let delay = rt.feedback_delay;
                    self.stats.cnps += 1;
                    self.sched(now + delay, Ev::Cnp { flow: pkt.flow });
                }
            }
        }
    }

    /// Arm (or refresh) the quanta `PauseExpire` timer for channel
    /// `(node, port, prio)`. A still-pending timer is *rescheduled in
    /// place* — every pause refresh used to pile a fresh event onto the
    /// queue and let the stale ones fire as no-ops; a paused channel now
    /// carries exactly one pending timer. A dead handle (the event
    /// already fired) is replaced by a fresh schedule.
    fn arm_pause_timer(&mut self, node: NodeId, port: PortNo, prio: u8, until: SimTime) {
        let c = self.chan(node, port, prio as usize);
        if let Some(id) = self.pause_timer[c] {
            if self.queue.reschedule(id, until) {
                return;
            }
        }
        let ev = Ev::PauseExpire { node, port, prio };
        debug_assert!(is_meaningful(&ev));
        self.meaningful += 1;
        self.pause_timer[c] = Some(self.queue.schedule(until, ev));
    }

    fn host_pfc(&mut self, host: NodeId, f: PfcFrame) {
        let now = self.now();
        let rate = self.pinfo(host, PortNo(0)).rate;
        match f.op {
            PfcOp::Pause { quanta } => {
                let state = if quanta == u16::MAX {
                    TxPause::UntilResume
                } else {
                    TxPause::Until(now + quanta_duration(quanta, rate))
                };
                let c = self.chan(host, PortNo(0), f.priority.index());
                self.tx_pause[c] = state;
                if let TxPause::Until(until) = state {
                    self.arm_pause_timer(host, PortNo(0), f.priority.0, until);
                }
            }
            PfcOp::Resume => {
                let c = self.chan(host, PortNo(0), f.priority.index());
                self.tx_pause[c] = TxPause::Open;
                self.host_try_send(host);
            }
        }
    }

    fn switch_pfc_rx(&mut self, node: NodeId, port: PortNo, f: PfcFrame) {
        let now = self.now();
        let rate = self.pinfo(node, port).rate;
        match f.op {
            PfcOp::Pause { quanta } => {
                let state = if quanta == u16::MAX {
                    TxPause::UntilResume
                } else {
                    TxPause::Until(now + quanta_duration(quanta, rate))
                };
                let c = self.chan(node, port, f.priority.index());
                self.tx_pause[c] = state;
                if let TxPause::Until(until) = state {
                    self.arm_pause_timer(node, port, f.priority.0, until);
                }
            }
            PfcOp::Resume => {
                let c = self.chan(node, port, f.priority.index());
                self.tx_pause[c] = TxPause::Open;
                self.try_tx(node, port);
            }
        }
    }

    fn on_pause_expire(&mut self, node: NodeId, port: PortNo, prio: u8) {
        let now = self.now();
        let c = self.chan(node, port, prio as usize);
        // The fired event is the slot's resident (or a pre-coalescing
        // stale duplicate); either way the handle is dead now.
        self.pause_timer[c] = None;
        let expired = match self.tx_pause[c] {
            TxPause::Until(t) if now >= t => {
                self.tx_pause[c] = TxPause::Open;
                true
            }
            _ => false,
        };
        if expired {
            match self.topo.node(node).kind {
                NodeKind::Host => self.host_try_send(node),
                NodeKind::Switch => self.try_tx(node, port),
            }
        }
    }

    // ------------------------------------------------------------------
    // Switch datapath
    // ------------------------------------------------------------------

    fn switch_rx(&mut self, node: NodeId, port: PortNo, mut pkt: Packet) {
        // TTL processing (the paper's drain mechanism, Eq. 1).
        if pkt.ttl == 0 {
            // Defensive: should have been dropped at the previous hop.
            self.drop_ttl(node, &pkt);
            return;
        }
        pkt.ttl -= 1;
        if pkt.ttl == 0 {
            self.drop_ttl(node, &pkt);
            return;
        }
        // Structured-buffer-pool class laddering.
        if let Some(n_classes) = self.cfg.hop_class_mode {
            let spec_ttl = self.flows[self.fidx(pkt.flow)].ttl;
            let hops = spec_ttl.saturating_sub(pkt.ttl).saturating_sub(1);
            pkt.priority = Priority(hops.min(n_classes - 1));
        }
        // §4 TTL-class mitigation: class follows the remaining-TTL band.
        if let Some(tc) = self.cfg.ttl_class_mode {
            pkt.priority = Priority(tc.class_for(pkt.ttl));
        }
        let prio = pkt.priority;
        // Route lookup.
        let egress = self.next_hop(&self.tables, pkt.flow, node, pkt.dst);
        let Some(egress) = egress else {
            if self.cfg.flood_on_miss {
                self.flood(node, port, pkt);
            } else {
                self.stats.drops_no_route += 1;
                self.fstat_mut(pkt.flow).dropped_no_route += 1;
                self.trace(
                    pkt.flow,
                    pkt.priority,
                    TraceEvent::Dropped {
                        t: self.queue.now(),
                        pkt: pkt.id,
                        node,
                        reason: DropReason::NoRoute,
                    },
                );
            }
            return;
        };
        // Stale forwarding state pointing at a dead link black-holes the
        // packet until reconvergence repairs the tables.
        if !self.link_ok(node, egress) {
            self.drop_link_down(node, &pkt);
            return;
        }
        // Buffer admission.
        let (buffered_now, ing_count) = {
            let sw = self.switches[node.0 as usize].as_ref().expect("switch");
            (sw.buffered, sw.ingress[port.0 as usize].count[prio.index()])
        };
        let lossless = self.pfc_of(node).is_lossless(prio.0);
        let over_shared = buffered_now + pkt.size > self.cfg.switch_buffer;
        let lossy_tail_drop = !lossless && ing_count + pkt.size > self.xoff_of(node, port);
        if over_shared || lossy_tail_drop {
            self.stats.drops_overflow += 1;
            self.fstat_mut(pkt.flow).dropped_overflow += 1;
            self.trace(
                pkt.flow,
                pkt.priority,
                TraceEvent::Dropped {
                    t: self.queue.now(),
                    pkt: pkt.id,
                    node,
                    reason: DropReason::Overflow,
                },
            );
            return;
        }
        // With PFC signalling faulty at this hop, backpressure may never
        // arrive upstream; past XOFF plus the headroom the lossless
        // guarantee breaks and the port tail-drops.
        let pause_faulty =
            self.pfc_loss[node.0 as usize].is_some() || self.pfc_delay[node.0 as usize].is_some();
        if lossless
            && pause_faulty
            && ing_count + pkt.size > self.xoff_of(node, port) + self.pause_headroom
        {
            self.stats.drops_pause_loss += 1;
            self.fstat_mut(pkt.flow).dropped_pause_loss += 1;
            self.trace(
                pkt.flow,
                pkt.priority,
                TraceEvent::Dropped {
                    t: self.queue.now(),
                    pkt: pkt.id,
                    node,
                    reason: DropReason::PauseLoss,
                },
            );
            return;
        }
        // Ingress accounting.
        let track = self.cfg.track_per_flow_occupancy;
        let xoff = self.xoff_of(node, port);
        let now = self.now();
        let pause_needed;
        let occ_now;
        {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            sw.buffered += pkt.size;
            let ing = &mut sw.ingress[port.0 as usize];
            ing.count[prio.index()] += pkt.size;
            occ_now = ing.count[prio.index()];
            if track {
                ing.per_flow.add(prio.0, pkt.flow, pkt.size);
            }
            pause_needed =
                lossless && !ing.pause_sent[prio.index()] && ing.count[prio.index()] >= xoff;
        }
        if pause_needed {
            self.send_pause(node, port, prio);
        }
        // Hybrid demotion: a watched switch whose ingress crosses the
        // demote fraction of XOFF sends its fluid flows back to the
        // packet regime before PFC can engage (an actual pause demotes
        // too, inside `send_pause`).
        if let Some(h) = self.hybrid.as_deref() {
            if h.watched.get(node.0 as usize).copied().unwrap_or(false)
                && occ_now.get() as f64 >= h.cfg.demote_fraction * xoff.get() as f64
            {
                self.hybrid_demote_node(node);
            }
        }
        self.trace(
            pkt.flow,
            pkt.priority,
            TraceEvent::Hop {
                t: self.queue.now(),
                pkt: pkt.id,
                node,
                ttl: pkt.ttl,
            },
        );
        // Shaping or direct enqueue.
        enum Disposition {
            Enqueue(Packet),
            ScheduleRelease(SimTime),
            Held,
        }
        let disposition = {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            let ing = &mut sw.ingress[port.0 as usize];
            match ing.shaper.as_mut() {
                None => Disposition::Enqueue(pkt),
                Some(shaper) if ing.shaper_q.is_empty() => {
                    match shaper.try_consume(now, pkt.size) {
                        Ok(()) => Disposition::Enqueue(pkt),
                        Err(ready) => {
                            ing.shaper_q.push_back(pkt);
                            if ing.shaper_scheduled {
                                Disposition::Held
                            } else {
                                ing.shaper_scheduled = true;
                                Disposition::ScheduleRelease(ready)
                            }
                        }
                    }
                }
                Some(_) => {
                    debug_assert!(ing.shaper_scheduled, "non-empty shaper queue has a release");
                    ing.shaper_q.push_back(pkt);
                    Disposition::Held
                }
            }
        };
        match disposition {
            Disposition::Enqueue(pkt) => {
                self.enqueue_egress(node, egress, QPkt { pkt, ingress: port })
            }
            Disposition::ScheduleRelease(at) => self.sched(at, Ev::ShaperRelease { node, port }),
            Disposition::Held => {}
        }
    }

    /// Replicate `pkt` out of every port except its ingress — L2 flooding
    /// for an unlearned destination. Each copy is admitted and accounted
    /// like a normal packet (and may flood again downstream), so a
    /// sustained miss amplifies into a storm bounded only by TTL decay.
    fn flood(&mut self, node: NodeId, ingress: PortNo, pkt: Packet) {
        let n_ports =
            (self.port_base[node.0 as usize + 1] - self.port_base[node.0 as usize]) as usize;
        let lossless = self.pfc_of(node).is_lossless(pkt.priority.0);
        for e in 0..n_ports {
            if e == ingress.0 as usize {
                continue;
            }
            if !self.link_ok(node, PortNo(e as u16)) {
                continue; // no replica onto a dead link
            }
            let copy = pkt;
            let over = {
                let sw = self.switches[node.0 as usize].as_ref().expect("switch");
                sw.buffered + copy.size > self.cfg.switch_buffer
            };
            if over {
                self.stats.drops_overflow += 1;
                self.fstat_mut(copy.flow).dropped_overflow += 1;
                continue;
            }
            // Account the copy against the original ingress.
            let xoff = self.xoff_of(node, ingress);
            let track = self.cfg.track_per_flow_occupancy;
            let pause_needed;
            {
                let sw = self.switches[node.0 as usize].as_mut().expect("switch");
                sw.buffered += copy.size;
                let ing = &mut sw.ingress[ingress.0 as usize];
                ing.count[copy.priority.index()] += copy.size;
                if track {
                    ing.per_flow.add(copy.priority.0, copy.flow, copy.size);
                }
                pause_needed = lossless
                    && !ing.pause_sent[copy.priority.index()]
                    && ing.count[copy.priority.index()] >= xoff;
            }
            if pause_needed {
                self.send_pause(node, ingress, copy.priority);
            }
            self.stats.flood_replicas += 1;
            self.enqueue_egress(node, PortNo(e as u16), QPkt { pkt: copy, ingress });
        }
    }

    fn drop_ttl(&mut self, node: NodeId, pkt: &Packet) {
        self.stats.drops_ttl += 1;
        self.fstat_mut(pkt.flow).dropped_ttl += 1;
        self.trace(
            pkt.flow,
            pkt.priority,
            TraceEvent::Dropped {
                t: self.queue.now(),
                pkt: pkt.id,
                node,
                reason: DropReason::TtlExpired,
            },
        );
    }

    fn on_shaper_release(&mut self, node: NodeId, port: PortNo) {
        let now = self.now();
        loop {
            enum Step {
                Done,
                Wait(SimTime),
                Release(Packet),
            }
            let step = {
                let sw = self.switches[node.0 as usize].as_mut().expect("switch");
                let ing = &mut sw.ingress[port.0 as usize];
                match ing.shaper_q.front() {
                    None => {
                        ing.shaper_scheduled = false;
                        Step::Done
                    }
                    Some(head) => {
                        let size = head.size;
                        let shaper = ing.shaper.as_mut().expect("shaper exists");
                        match shaper.try_consume(now, size) {
                            Ok(()) => Step::Release(ing.shaper_q.pop_front().expect("nonempty")),
                            Err(ready) => {
                                ing.shaper_scheduled = true;
                                Step::Wait(ready)
                            }
                        }
                    }
                }
            };
            match step {
                Step::Done => return,
                Step::Wait(ready) => {
                    self.sched(ready, Ev::ShaperRelease { node, port });
                    return;
                }
                Step::Release(pkt) => {
                    // Re-resolve the route at release time (tables may have
                    // changed while the packet was held).
                    let egress = self.next_hop(&self.tables, pkt.flow, node, pkt.dst);
                    match egress {
                        Some(e) if !self.link_ok(node, e) => {
                            // Released onto a route that died while held.
                            self.drop_link_down(node, &pkt);
                            self.release_ingress(node, port, &pkt);
                        }
                        Some(e) => self.enqueue_egress(node, e, QPkt { pkt, ingress: port }),
                        None => {
                            // Route vanished: count and release the buffer.
                            self.stats.drops_no_route += 1;
                            self.fstat_mut(pkt.flow).dropped_no_route += 1;
                            self.release_ingress(node, port, &pkt);
                        }
                    }
                }
            }
        }
    }

    /// ECN marking then enqueue at the egress and kick the transmitter.
    fn enqueue_egress(&mut self, node: NodeId, egress: PortNo, mut qp: QPkt) {
        let now = self.now();
        if let Some(ecn) = self.cfg.ecn {
            let prio = qp.pkt.priority.index();
            let rate = self.pinfo(node, egress).rate;
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            let eg = &mut sw.egress[egress.0 as usize];
            let qlen = if let Some(permille) = ecn.phantom_drain_permille {
                // Phantom queue: drains at a fraction of line rate.
                let (vq, last) = eg.phantom[prio];
                let drain = rate
                    .scale(permille as u64, 1000)
                    .bytes_in(now.saturating_since(last));
                let vq = vq.saturating_sub(drain) + qp.pkt.size;
                eg.phantom[prio] = (vq, now);
                vq
            } else {
                eg.queues[prio].bytes() + qp.pkt.size
            };
            let p = if qlen <= ecn.kmin {
                0.0
            } else if qlen >= ecn.kmax {
                1.0
            } else {
                let span = (ecn.kmax - ecn.kmin).get() as f64;
                ecn.pmax * (qlen - ecn.kmin).get() as f64 / span
            };
            if p > 0.0 && self.rng.gen_bool(p) {
                qp.pkt.ecn_marked = true;
            }
        }
        let arb = self.cfg.arbitration;
        let prio = qp.pkt.priority.index();
        let sw = self.switches[node.0 as usize].as_mut().expect("switch");
        sw.egress[egress.0 as usize].queues[prio].push(qp, arb);
        self.dl.note_bytes_moved();
        self.try_tx(node, egress);
    }

    /// Start a transmission on (node, egress port) if possible.
    fn try_tx(&mut self, node: NodeId, port: PortNo) {
        // A busy transmitter is the common case under saturation (every
        // enqueue behind an in-flight frame lands here): check it before
        // touching link state or port info.
        {
            let sw = self.switches[node.0 as usize].as_ref().expect("switch");
            if sw.egress[port.0 as usize].busy() {
                return;
            }
        }
        if !self.link_ok(node, port) {
            return; // dead transmitter; LinkUp revives it
        }
        let now = self.now();
        let info = *self.pinfo(node, port);
        let arb = self.cfg.arbitration;
        let quantum = self.quantum;
        let pause_base = self.pid(node, port) * Priority::COUNT;
        let size = {
            let paused = &self.tx_pause[pause_base..pause_base + Priority::COUNT];
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            let eg = &mut sw.egress[port.0 as usize];
            // Control frames jump the data queues.
            if let Some(f) = eg.ctrl.pop_front() {
                eg.in_flight = Some(InFlight::Pfc(f));
                PFC_FRAME_SIZE
            } else if let Some(p) = eg.pick_class(now, self.cfg.class_scheduling, paused) {
                let qp = eg.queues[p]
                    .pop(arb, quantum)
                    .expect("eligible queue non-empty");
                let size = qp.pkt.size;
                eg.in_flight = Some(InFlight::Data(qp));
                self.dl.note_bytes_moved();
                size
            } else {
                return;
            }
        };
        let ser = Self::ser_time(&info, size, self.cfg.default_packet_size);
        self.sched(now + ser, Ev::TxDone { node, port });
    }

    fn on_tx_done(&mut self, node: NodeId, port: PortNo) {
        let info = *self.pinfo(node, port);
        let in_flight = {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            match sw.egress[port.0 as usize].in_flight.take() {
                Some(f) => f,
                // A reboot wiped this port while the frame serialized.
                None => return,
            }
        };
        let up = self.link_ok(node, port);
        match in_flight {
            InFlight::Pfc(f) => {
                if !up {
                    // PFC dies silently with the link.
                } else if self.pfc_lost(node) {
                    let resume = matches!(f.op, PfcOp::Resume);
                    self.stats.pause_frames_lost += 1;
                    self.record_fault(FaultAction::PauseFrameLost {
                        from: node,
                        to: info.peer,
                        priority: f.priority,
                        resume,
                    });
                    // Keep the pause log truthful about the upstream's
                    // view: a lost PAUSE never takes effect, a lost
                    // RESUME leaves the transmitter paused.
                    let now = self.now();
                    let log = self
                        .stats
                        .pause
                        .entry(PauseKey {
                            from: info.peer,
                            to: node,
                            priority: f.priority,
                        })
                        .or_default();
                    if resume {
                        if !log.intervals.is_open() {
                            log.intervals.open(now);
                        }
                    } else if log.intervals.is_open() {
                        log.intervals.close(now);
                    }
                } else {
                    let extra = self.pfc_delay[node.0 as usize].unwrap_or(SimDuration::ZERO);
                    let frame = self.frame_alloc(Frame::Pfc(f));
                    self.sched(
                        self.now() + info.delay + extra,
                        Ev::Arrive {
                            node: info.peer,
                            port: info.peer_port,
                            frame,
                        },
                    );
                }
            }
            InFlight::Data(qp) => {
                if up {
                    let frame = self.frame_alloc(Frame::Data(qp.pkt));
                    self.sched(
                        self.now() + info.delay,
                        Ev::Arrive {
                            node: info.peer,
                            port: info.peer_port,
                            frame,
                        },
                    );
                } else {
                    // Finished serializing onto a dead link.
                    self.drop_link_down(node, &qp.pkt);
                }
                self.release_ingress(node, qp.ingress, &qp.pkt);
            }
        }
        self.try_tx(node, port);
    }

    /// Release ingress accounting for a packet leaving the switch and send
    /// RESUME if occupancy fell below XON.
    fn release_ingress(&mut self, node: NodeId, ingress: PortNo, pkt: &Packet) {
        let track = self.cfg.track_per_flow_occupancy;
        let prio = pkt.priority;
        let xon = self.xon_of(node, ingress);
        let sw = self.switches[node.0 as usize].as_mut().expect("switch");
        sw.buffered -= pkt.size;
        let ing = &mut sw.ingress[ingress.0 as usize];
        ing.count[prio.index()] -= pkt.size;
        if track {
            ing.per_flow.sub(prio.0, pkt.flow, pkt.size);
        }
        if ing.pause_sent[prio.index()] && ing.count[prio.index()] < xon {
            ing.pause_sent[prio.index()] = false;
            self.dl.note_pause(node, ingress, prio.index(), false);
            self.send_resume(node, ingress, prio);
        }
    }

    fn send_pause(&mut self, node: NodeId, port: PortNo, prio: Priority) {
        if !self.link_ok(node, port) {
            return; // nothing to protect across a dead link
        }
        // A pausing switch enters the deadlock tracker's watch set:
        // any fluid flow routed through it demotes to packets first.
        if self.hybrid.is_some() {
            self.hybrid_demote_node(node);
        }
        let now = self.now();
        let mode = self.pause_mode_of(node);
        let info = *self.pinfo(node, port);
        let quanta = match mode {
            PauseMode::XonXoff => u16::MAX,
            PauseMode::Quanta { quanta } => quanta,
        };
        self.dl.note_pause(node, port, prio.index(), true);
        let sw = self.switches[node.0 as usize].as_mut().expect("switch");
        sw.ingress[port.0 as usize].pause_sent[prio.index()] = true;
        sw.egress[port.0 as usize].ctrl.push_back(PfcFrame {
            priority: prio,
            op: PfcOp::Pause { quanta },
        });
        self.stats.pause_frames += 1;
        let key = PauseKey {
            from: info.peer,
            to: node,
            priority: prio,
        };
        let log = self.stats.pause.entry(key).or_default();
        log.events.record(now);
        if !log.intervals.is_open() {
            log.intervals.open(now);
        }
        if let PauseMode::Quanta { quanta } = mode {
            // Refresh at half the pause horizon while still congested.
            let dur = quanta_duration(quanta, info.rate);
            let refresh = SimDuration::from_ps((dur.as_ps() / 2).max(1));
            self.sched(
                now + refresh,
                Ev::PauseRefresh {
                    node,
                    port,
                    prio: prio.0,
                },
            );
        }
        self.try_tx(node, port);
    }

    fn on_pause_refresh(&mut self, node: NodeId, port: PortNo, prio: u8) {
        let p = Priority(prio);
        let sw = self.switches[node.0 as usize].as_ref().expect("switch");
        if !sw.ingress[port.0 as usize].pause_sent[p.index()] {
            return; // resumed in the meantime
        }
        // Still congested: re-assert the pause.
        let xon = self.xon_of(node, port);
        let count = sw.ingress[port.0 as usize].count[p.index()];
        if count >= xon {
            self.send_pause(node, port, p);
        }
        // Below xon: the next release_ingress will send the resume (or the
        // pause simply expires downstream).
    }

    fn send_resume(&mut self, node: NodeId, port: PortNo, prio: Priority) {
        let now = self.now();
        let info = *self.pinfo(node, port);
        if !self.link_ok(node, port) {
            // No frame can cross a dead link, but the channel is no
            // longer pausing anyone: close the span so the log stays
            // truthful.
            let log = self
                .stats
                .pause
                .entry(PauseKey {
                    from: info.peer,
                    to: node,
                    priority: prio,
                })
                .or_default();
            if log.intervals.is_open() {
                log.intervals.close(now);
            }
            return;
        }
        let sw = self.switches[node.0 as usize].as_mut().expect("switch");
        sw.egress[port.0 as usize].ctrl.push_back(PfcFrame {
            priority: prio,
            op: PfcOp::Resume,
        });
        self.stats.resume_frames += 1;
        let key = PauseKey {
            from: info.peer,
            to: node,
            priority: prio,
        };
        let log = self.stats.pause.entry(key).or_default();
        if log.intervals.is_open() {
            log.intervals.close(now);
        }
        self.try_tx(node, port);
    }

    // ------------------------------------------------------------------
    // DCQCN plumbing
    // ------------------------------------------------------------------

    fn on_cnp(&mut self, flow: FlowId) {
        let cfg = self.dcqcn_cfg.expect("dcqcn cfg");
        let i = self.fidx(flow);
        let rt = &mut self.rt[i];
        if let Some(st) = rt.dcqcn.as_mut() {
            st.on_cnp(&cfg);
        }
    }

    fn on_rtt_sample(&mut self, flow: FlowId, rtt_ps: u64) {
        let cfg = self.timely_cfg.expect("timely cfg");
        let i = self.fidx(flow);
        let src = self.flows[i].src;
        let rt = &mut self.rt[i];
        if let Some(st) = rt.timely.as_mut() {
            st.on_rtt(SimDuration::from_ps(rtt_ps), &cfg);
        }
        self.host_try_send(src);
    }

    fn on_dcqcn_alpha(&mut self, flow: FlowId) {
        let cfg = self.dcqcn_cfg.expect("dcqcn cfg");
        let i = self.fidx(flow);
        let rt = &mut self.rt[i];
        if !rt.active {
            return;
        }
        if let Some(st) = rt.dcqcn.as_mut() {
            st.on_alpha_tick(&cfg);
        }
        self.sched(self.now() + cfg.alpha_timer, Ev::DcqcnAlpha { flow });
    }

    fn on_dcqcn_rate(&mut self, flow: FlowId) {
        let cfg = self.dcqcn_cfg.expect("dcqcn cfg");
        let i = self.fidx(flow);
        let src = self.flows[i].src;
        let rt = &mut self.rt[i];
        if !rt.active {
            return;
        }
        if let Some(st) = rt.dcqcn.as_mut() {
            st.on_rate_tick(&cfg);
        }
        self.sched(self.now() + cfg.rate_timer, Ev::DcqcnRate { flow });
        self.host_try_send(src);
    }

    fn compute_feedback_delay(&self, flow: FlowId) -> SimDuration {
        let spec = &self.flows[self.fidx(flow)];
        let mut total = SimDuration::ZERO;
        match &spec.route {
            RouteKind::Pinned(path) => {
                for w in path.nodes.windows(2) {
                    if let Some(p) = self.topo.port_towards(w[0], w[1]) {
                        total += self.topo.link(p.link).delay;
                    }
                }
            }
            RouteKind::Tables => {
                let trace = trace_path(&self.topo, &self.tables, flow, spec.src, spec.dst, 64);
                for w in trace.nodes().windows(2) {
                    if let Some(p) = self.topo.port_towards(w[0], w[1]) {
                        total += self.topo.link(p.link).delay;
                    }
                }
            }
        }
        total
    }

    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    fn on_sample(&mut self) {
        let now = self.now();
        let track_flows = self.cfg.track_per_flow_occupancy;
        // Sample the precomputed key set (taken out so `self.stats` can be
        // borrowed mutably in the loop, then put back — no per-sample
        // allocation).
        let keys = std::mem::take(&mut self.sample_keys);
        for &key in &keys {
            let Some(sw) = self.switches[key.node.0 as usize].as_ref() else {
                continue;
            };
            let Some(ing) = sw.ingress.get(key.port.0 as usize) else {
                continue;
            };
            let count = ing.count[key.priority.index()];
            self.stats
                .occupancy
                .entry(key)
                .or_default()
                .push(now, count.get());
            if track_flows {
                // `ing` borrows `self.switches`, `flow_occupancy` lives in
                // `self.stats` — disjoint fields, so no temporary needed.
                for (&(p, f), &b) in ing.per_flow.iter() {
                    if p != key.priority.0 {
                        continue;
                    }
                    self.stats
                        .flow_occupancy
                        .entry((key, f))
                        .or_default()
                        .push(now, b.get());
                }
            }
        }
        self.sample_keys = keys;
        if let Some(iv) = self.cfg.sample_interval {
            let next = now + iv;
            if next <= self.horizon {
                self.sched(next, Ev::Sample);
            }
        }
    }

    fn on_telemetry_sample(&mut self) {
        let now = self.now();
        // Take the box out so the snapshot can read `&self` while
        // writing the telemetry state — disjoint borrows, no clone.
        let Some(mut t) = self.telem.take() else {
            return;
        };
        self.telemetry_snapshot(&mut t, now);
        t.report.samples_taken += 1;
        t.last_sample_at = now;
        let interval = t.cfg.sample_interval;
        self.telem = Some(t);
        let next = now + interval;
        if next <= self.horizon {
            self.sched(next, Ev::TelemetrySample);
        }
    }

    /// One telemetry tick: snapshot every registered metric and run the
    /// enabled keyed probes. Rate-style probes (pause ratio, goodput)
    /// need a non-empty window, so they skip the tick at time zero.
    fn telemetry_snapshot(&self, t: &mut TelemetryState, now: SimTime) {
        let window = now - t.last_sample_at;
        t.report
            .registry
            .record_all(now, |id| self.metric_value(id));
        if t.cfg.pause_probe {
            for (key, log) in &self.stats.pause {
                // Pause ratio: fraction of the window this channel spent
                // inside an XOFF span (an open span counts up to `now`).
                let dur = log.intervals.total_duration(now);
                let prev = t
                    .last_pause_dur
                    .insert(*key, dur)
                    .unwrap_or(SimDuration::ZERO);
                if !window.is_zero() {
                    let ratio = (dur - prev).as_ps() as f64 / window.as_ps() as f64;
                    t.report
                        .pause_ratio
                        .entry(*key)
                        .or_insert_with(|| RingSeries::with_capacity(t.cfg.ring_capacity))
                        .push(now, ratio);
                }
                // Resume latency: mean length of the XOFF→XON spans that
                // closed since the previous tick. Only the last interval
                // can still be open, so the closed prefix is stable.
                let spans = log.intervals.intervals();
                let closed = spans.len() - usize::from(log.intervals.is_open());
                let prev_closed = t.last_closed.insert(*key, closed).unwrap_or(0);
                if closed > prev_closed {
                    let total = spans[prev_closed..closed]
                        .iter()
                        .map(|(s, e)| e.expect("closed span") - *s)
                        .fold(SimDuration::ZERO, |a, d| a + d);
                    let mean_us = total.as_ps() as f64 / (closed - prev_closed) as f64 / 1e6;
                    t.report
                        .resume_latency_us
                        .entry(*key)
                        .or_insert_with(|| RingSeries::with_capacity(t.cfg.ring_capacity))
                        .push(now, mean_us);
                }
            }
        }
        if t.cfg.occupancy_probe {
            for &key in &self.sample_keys {
                let Some(sw) = self.switches[key.node.0 as usize].as_ref() else {
                    continue;
                };
                let Some(ing) = sw.ingress.get(key.port.0 as usize) else {
                    continue;
                };
                let count = ing.count[key.priority.index()];
                let cap = t.cfg.ring_capacity;
                t.report
                    .occupancy
                    .entry(key)
                    .or_insert_with(|| RingSeries::with_capacity(cap))
                    .push(now, count.get() as f64);
                t.report
                    .xoff_threshold
                    .entry(key)
                    .or_insert_with(|| RingSeries::with_capacity(cap))
                    .push(now, self.xoff_of(key.node, key.port).get() as f64);
                t.report
                    .xon_threshold
                    .entry(key)
                    .or_insert_with(|| RingSeries::with_capacity(cap))
                    .push(now, self.xon_of(key.node, key.port).get() as f64);
            }
        }
        if t.cfg.goodput_probe && !window.is_zero() {
            let secs = window.as_ps() as f64 * 1e-12;
            t.last_flow_bytes.resize(self.flows.len(), 0);
            for i in 0..self.flows.len() {
                if !self.fstats_touched[i] {
                    continue;
                }
                let bytes = self.fstats[i].delivered_bytes.get();
                let delta = bytes - t.last_flow_bytes[i];
                t.last_flow_bytes[i] = bytes;
                let bps = delta as f64 * 8.0 / secs;
                t.report
                    .goodput_bps
                    .entry(self.flows[i].id)
                    .or_insert_with(|| RingSeries::with_capacity(t.cfg.ring_capacity))
                    .push(now, bps);
            }
        }
    }

    /// Map a registered [`MetricId`] to its current engine value. All
    /// sources are state the engine maintains anyway, so registering a
    /// metric adds no per-event cost.
    fn metric_value(&self, id: MetricId) -> f64 {
        match id {
            MetricId::PacketsInjected => {
                self.fstats.iter().map(|f| f.injected_packets).sum::<u64>() as f64
            }
            MetricId::PacketsDelivered => {
                self.fstats.iter().map(|f| f.delivered_packets).sum::<u64>() as f64
            }
            MetricId::BytesDelivered => self
                .fstats
                .iter()
                .map(|f| f.delivered_bytes.get())
                .sum::<u64>() as f64,
            MetricId::DropsTotal => {
                (self.stats.drops_ttl
                    + self.stats.drops_no_route
                    + self.stats.drops_overflow
                    + self.stats.drops_recovery
                    + self.stats.drops_link_down
                    + self.stats.drops_pause_loss
                    + self.stats.misdelivered) as f64
            }
            MetricId::PauseFrames => self.stats.pause_frames as f64,
            MetricId::ResumeFrames => self.stats.resume_frames as f64,
            MetricId::ChannelsPaused => self
                .stats
                .pause
                .values()
                .filter(|l| l.intervals.is_open())
                .count() as f64,
            MetricId::DeadlockScansRun => self.scans_run as f64,
            MetricId::DeadlockScansSkipped => self.scans_skipped as f64,
            MetricId::FaultsApplied => self.stats.faults.len() as f64,
            MetricId::PauseFramesLost => self.stats.pause_frames_lost as f64,
            MetricId::EventsProcessed => self.events as f64,
            MetricId::EventsPending => self.meaningful as f64,
        }
    }

    /// Run the incremental analyzer, optionally shadowed by the reference
    /// implementation (see [`NetSim::debug_cross_check_deadlock`]).
    fn scan_deadlock(&mut self) -> Option<Vec<PauseKey>> {
        let verdict = self.analyze_deadlock();
        if self.cross_check_deadlock {
            let reference = self.analyze_deadlock_reference();
            assert_eq!(
                verdict,
                reference,
                "incremental and reference deadlock analyzers diverged at {}",
                self.now()
            );
        }
        verdict
    }

    /// Test hook: run the reference analyzer beside the incremental one at
    /// every scan and panic on any verdict-or-witness divergence.
    pub fn debug_cross_check_deadlock(&mut self, on: bool) {
        self.cross_check_deadlock = on;
    }

    fn on_deadlock_scan(&mut self) {
        if self.deadlock.is_none() {
            let epoch = self.dl.epoch();
            if self.last_clean_scan == Some(epoch) {
                // No pause flipped and no byte moved since the last clean
                // scan: the verdict cannot have changed.
                self.scans_skipped += 1;
                if self.cross_check_deadlock {
                    assert!(
                        self.analyze_deadlock_reference().is_none(),
                        "skip heuristic unsound at {}",
                        self.now()
                    );
                }
            } else {
                self.scans_run += 1;
                if let Some(witness) = self.scan_deadlock() {
                    self.deadlock = Some((self.now(), witness));
                } else {
                    self.last_clean_scan = Some(epoch);
                }
            }
        }
        if let Some(iv) = self.cfg.deadlock_scan_interval {
            let next = self.now() + iv;
            if next <= self.horizon && self.deadlock.is_none() {
                self.sched(next, Ev::DeadlockScan);
            }
        }
    }

    fn on_recovery_scan(&mut self) {
        let rc = self
            .cfg
            .recovery
            .expect("RecoveryScan only fires when armed");
        if let Some(witness) = self.scan_deadlock() {
            if self.deadlock.is_none() {
                self.deadlock = Some((self.now(), witness.clone()));
            }
            let targets: Vec<PauseKey> = match rc.strategy {
                RecoveryStrategy::DrainWitness => witness,
                RecoveryStrategy::DrainOneQueue => {
                    // The frozen queue holding the most bytes.
                    let mut best: Option<(Bytes, PauseKey)> = None;
                    for key in witness {
                        let port = self
                            .topo
                            .port_towards(key.to, key.from)
                            .expect("witness channels are adjacent")
                            .port;
                        let sw = self.switches[key.to.0 as usize].as_ref().expect("switch");
                        let count = sw.ingress[port.0 as usize].count[key.priority.index()];
                        if best.as_ref().is_none_or(|(b, _)| count > *b) {
                            best = Some((count, key));
                        }
                    }
                    best.map(|(_, k)| vec![k]).unwrap_or_default()
                }
            };
            for key in targets {
                self.force_drain(key);
            }
            self.stats.recovery_actions += 1;
        }
        let next = self.now() + rc.check_interval;
        if next <= self.horizon {
            self.sched(next, Ev::RecoveryScan);
        }
    }

    /// Destroy every packet of `key.priority` buffered at `key.to` that
    /// arrived from `key.from` — the simulation analogue of resetting the
    /// port. Releases PFC accounting so the upstream resumes.
    fn force_drain(&mut self, key: PauseKey) {
        let node = key.to;
        let prio = key.priority;
        let port = self
            .topo
            .port_towards(node, key.from)
            .expect("witness channels are adjacent")
            .port;
        let n_egress = self.switches[node.0 as usize]
            .as_ref()
            .expect("switch")
            .egress
            .len();
        let mut victims: Vec<Packet> = Vec::new();
        {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            for e in 0..n_egress {
                for qp in sw.egress[e].queues[prio.index()].drain_from_ingress(port) {
                    victims.push(qp.pkt);
                }
            }
            // Shaper-held packets of this class are wedged too.
            let ing = &mut sw.ingress[port.0 as usize];
            let mut keep = std::collections::VecDeque::new();
            for p in ing.shaper_q.drain(..) {
                if p.priority == prio {
                    victims.push(p);
                } else {
                    keep.push_back(p);
                }
            }
            ing.shaper_q = keep;
        }
        self.dl.note_bytes_moved();
        for pkt in victims {
            self.stats.drops_recovery += 1;
            self.fstat_mut(pkt.flow).dropped_recovery += 1;
            self.trace(
                pkt.flow,
                pkt.priority,
                TraceEvent::Dropped {
                    t: self.queue.now(),
                    pkt: pkt.id,
                    node,
                    reason: DropReason::Recovery,
                },
            );
            self.release_ingress(node, port, &pkt);
        }
        // Freed buffer may unblock local transmitters.
        for e in 0..n_egress {
            self.try_tx(node, PortNo(e as u16));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Global index of `(node, port)` into the flat [`NetSim::port_info`].
    #[inline(always)]
    pub(crate) fn pid(&self, node: NodeId, port: PortNo) -> usize {
        self.port_base[node.0 as usize] as usize + port.0 as usize
    }

    /// Link facts for `(node, port)`.
    #[inline(always)]
    pub(crate) fn pinfo(&self, node: NodeId, port: PortNo) -> &PortInfo {
        &self.port_info[self.pid(node, port)]
    }

    /// Index of `(node, port, prio)` into the dense per-channel arrays
    /// ([`NetSim::tx_pause`], `pause_timer`).
    #[inline(always)]
    pub(crate) fn chan(&self, node: NodeId, port: PortNo, prio: usize) -> usize {
        self.pid(node, port) * Priority::COUNT + prio
    }

    /// Reopen every class of `(node, port)` — link-down / reboot paths.
    /// Pending quanta timers are left to fire as no-ops (their handles
    /// in `pause_timer` self-heal on the next refresh).
    fn clear_pause_state(&mut self, node: NodeId, port: PortNo) {
        let base = self.pid(node, port) * Priority::COUNT;
        self.tx_pause[base..base + Priority::COUNT].fill(TxPause::Open);
    }

    /// Serialization time of a `size`-byte frame on `(node, port)` —
    /// cached for the (overwhelmingly common) default packet size.
    #[inline(always)]
    fn ser_time(info: &PortInfo, size: Bytes, default_size: Bytes) -> SimDuration {
        if size == default_size {
            info.ser_default
        } else {
            info.rate.serialization_time(size)
        }
    }

    fn link_of(&self, node: NodeId, port: PortNo) -> LinkId {
        self.pinfo(node, port).link
    }

    /// Whether the link behind (node, port) is currently up.
    fn link_ok(&self, node: NodeId, port: PortNo) -> bool {
        self.link_up[self.link_of(node, port).0 as usize]
    }

    fn record_fault(&mut self, action: FaultAction) {
        let at = self.now();
        self.stats.faults.push(FaultRecord { at, action });
    }

    /// Account a packet destroyed by a dead link or a reboot.
    fn drop_link_down(&mut self, node: NodeId, pkt: &Packet) {
        self.stats.drops_link_down += 1;
        self.fstat_mut(pkt.flow).dropped_link_down += 1;
        self.trace(
            pkt.flow,
            pkt.priority,
            TraceEvent::Dropped {
                t: self.queue.now(),
                pkt: pkt.id,
                node,
                reason: DropReason::LinkDown,
            },
        );
    }

    /// Draw from the PFC-loss process armed at `node`, if any.
    fn pfc_lost(&mut self, node: NodeId) -> bool {
        match self.pfc_loss[node.0 as usize] {
            Some(p) => self.fault_rng.gen_bool(p),
            None => false,
        }
    }

    fn on_fault(&mut self, idx: usize) {
        let kind = self.fault_events[idx].1.clone();
        // A fault touching a watched switch is a demotion trigger: the
        // fluid flows routed through it return to the packet regime
        // before the fault's effects land. (Classification already
        // refuses flows whose own path links are scripted; this covers
        // node-scoped faults defensively.)
        if self.hybrid.is_some() {
            match &kind {
                FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                    let (a, b) = (*a, *b);
                    self.hybrid_demote_node(a);
                    self.hybrid_demote_node(b);
                }
                FaultKind::PauseLoss { node, .. }
                | FaultKind::PauseDelay { node, .. }
                | FaultKind::SwitchReboot { node, .. } => {
                    let node = *node;
                    self.hybrid_demote_node(node);
                }
                _ => {}
            }
        }
        match kind {
            FaultKind::LinkDown { a, b } => self.fault_link_down(a, b),
            FaultKind::LinkUp { a, b } => self.fault_link_up(a, b),
            FaultKind::LinkFlap { .. } => unreachable!("flaps are unrolled at start()"),
            FaultKind::PauseLoss { node, probability } => {
                self.pfc_loss[node.0 as usize] = if probability > 0.0 {
                    Some(probability)
                } else {
                    None
                };
                self.record_fault(FaultAction::PauseLossArmed { node, probability });
            }
            FaultKind::PauseDelay { node, extra } => {
                self.pfc_delay[node.0 as usize] = if extra.is_zero() { None } else { Some(extra) };
                self.record_fault(FaultAction::PauseDelayArmed { node, extra });
            }
            FaultKind::SwitchReboot { node, downtime } => self.fault_switch_reboot(node, downtime),
            FaultKind::RouteReconverge { base_lag, jitter } => {
                self.fault_route_reconverge(base_lag, jitter)
            }
            FaultKind::RouteSet { node, dst, ports } => {
                self.tables.set(node, dst, ports);
                self.record_fault(FaultAction::RouteChanged { node, dst });
            }
        }
    }

    fn fault_link_down(&mut self, a: NodeId, b: NodeId) {
        let p = self.topo.port_towards(a, b).expect("validated adjacency");
        if !self.link_up[p.link.0 as usize] {
            return; // already down (overlapping faults)
        }
        self.link_up[p.link.0 as usize] = false;
        let dropped = self.take_down_endpoint(a, p.port) + self.take_down_endpoint(b, p.peer_port);
        self.record_fault(FaultAction::LinkDown { a, b, dropped });
    }

    /// Clear one endpoint of a failing link: destroy every frame already
    /// committed to the dead port, silence its PFC state, and release
    /// buffer accounting so the rest of the switch keeps moving. Returns
    /// the number of packets destroyed.
    fn take_down_endpoint(&mut self, node: NodeId, port: PortNo) -> u64 {
        if self.topo.node(node).kind == NodeKind::Host {
            // NIC pause state dies with the link.
            self.clear_pause_state(node, port);
            return 0;
        }
        let mut victims: Vec<QPkt> = Vec::new();
        {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            let eg = &mut sw.egress[port.0 as usize];
            for q in eg.queues.iter_mut() {
                victims.extend(q.drain_all());
            }
            eg.ctrl.clear();
        }
        self.clear_pause_state(node, port);
        let dropped = victims.len() as u64;
        if dropped > 0 {
            self.dl.note_bytes_moved();
        }
        for qp in victims {
            self.drop_link_down(node, &qp.pkt);
            self.release_ingress(node, qp.ingress, &qp.pkt);
        }
        // Silence PFC issued *by* this endpoint: the dead channel pauses
        // no one any more, so its open spans close.
        let info = *self.pinfo(node, port);
        let now = self.now();
        let mut silenced: Vec<Priority> = Vec::new();
        {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            let ing = &mut sw.ingress[port.0 as usize];
            for pr in 0..Priority::COUNT {
                if ing.pause_sent[pr] {
                    ing.pause_sent[pr] = false;
                    silenced.push(Priority(pr as u8));
                }
            }
        }
        for prio in silenced {
            self.dl.note_pause(node, port, prio.index(), false);
            let key = PauseKey {
                from: info.peer,
                to: node,
                priority: prio,
            };
            if let Some(log) = self.stats.pause.get_mut(&key) {
                if log.intervals.is_open() {
                    log.intervals.close(now);
                }
            }
        }
        dropped
    }

    fn fault_link_up(&mut self, a: NodeId, b: NodeId) {
        let p = self.topo.port_towards(a, b).expect("validated adjacency");
        if self.link_up[p.link.0 as usize] {
            return; // already up
        }
        self.link_up[p.link.0 as usize] = true;
        self.record_fault(FaultAction::LinkUp { a, b });
        self.revive_endpoint(a, p.port);
        self.revive_endpoint(b, p.peer_port);
    }

    /// Kick the transmitter behind a freshly repaired link.
    fn revive_endpoint(&mut self, node: NodeId, port: PortNo) {
        match self.topo.node(node).kind {
            NodeKind::Host => self.host_try_send(node),
            NodeKind::Switch => self.try_tx(node, port),
        }
    }

    fn fault_switch_reboot(&mut self, node: NodeId, downtime: SimDuration) {
        if self.reboots.contains_key(&node) {
            return; // already mid-reboot
        }
        let ports: Vec<pfcsim_topo::graph::PortRef> = self.topo.ports(node).to_vec();
        let mut downed: Vec<LinkId> = Vec::new();
        let mut dropped = 0u64;
        for p in &ports {
            if !self.link_up[p.link.0 as usize] {
                continue; // already down; not this reboot's to restore
            }
            self.link_up[p.link.0 as usize] = false;
            downed.push(p.link);
            dropped += self.take_down_endpoint(node, p.port);
            dropped += self.take_down_endpoint(p.peer, p.peer_port);
        }
        // Wipe what take_down_endpoint leaves behind on the rebooting
        // switch itself: shaper holds and frames mid-serialization.
        for p in &ports {
            let held: Vec<Packet> = {
                let sw = self.switches[node.0 as usize].as_mut().expect("switch");
                let ing = &mut sw.ingress[p.port.0 as usize];
                ing.shaper_scheduled = false;
                ing.shaper_q.drain(..).collect()
            };
            for pkt in held {
                dropped += 1;
                self.drop_link_down(node, &pkt);
                self.release_ingress(node, p.port, &pkt);
            }
            let in_flight = {
                let sw = self.switches[node.0 as usize].as_mut().expect("switch");
                sw.egress[p.port.0 as usize].in_flight.take()
            };
            if let Some(InFlight::Data(qp)) = in_flight {
                dropped += 1;
                self.drop_link_down(node, &qp.pkt);
                self.release_ingress(node, qp.ingress, &qp.pkt);
            }
        }
        // Hard power-cycle: every counter back to zero (the queues are
        // all empty now; this clears any residual accounting).
        {
            let sw = self.switches[node.0 as usize].as_mut().expect("switch");
            sw.buffered = Bytes::ZERO;
            for (pi, ing) in sw.ingress.iter_mut().enumerate() {
                ing.count = [Bytes::ZERO; Priority::COUNT];
                for pr in 0..Priority::COUNT {
                    if ing.pause_sent[pr] {
                        ing.pause_sent[pr] = false;
                        self.dl.note_pause(node, PortNo(pi as u16), pr, false);
                    }
                }
                ing.per_flow.clear();
            }
        }
        self.dl.note_bytes_moved();
        // Forget the forwarding state until the restore.
        let routes: Vec<(NodeId, Vec<PortNo>)> = self
            .tables
            .entries(node)
            .map(|(d, p)| (d, p.to_vec()))
            .collect();
        for (d, _) in &routes {
            self.tables.remove(node, *d);
        }
        self.reboots.insert(
            node,
            RebootState {
                links: downed,
                routes,
            },
        );
        let at = self.now() + downtime;
        self.sched(at, Ev::SwitchRestore { node });
        self.record_fault(FaultAction::SwitchRebooted { node, dropped });
    }

    fn on_switch_restore(&mut self, node: NodeId) {
        let Some(st) = self.reboots.remove(&node) else {
            return;
        };
        for (dst, ports) in st.routes {
            self.tables.set(node, dst, ports);
        }
        for l in st.links {
            if self.link_up[l.0 as usize] {
                continue; // repaired early by an explicit LinkUp
            }
            self.link_up[l.0 as usize] = true;
            let link = self.topo.link(l).clone();
            self.revive_endpoint(link.a, link.a_port);
            self.revive_endpoint(link.b, link.b_port);
        }
        self.record_fault(FaultAction::SwitchRestored { node });
    }

    /// Every switch independently recomputes shortest paths over the
    /// currently-up links and applies the result after its own lag — the
    /// paper's Case 1 mechanism: while lags disagree, neighbouring
    /// switches forward on inconsistent trees and transient loops form.
    fn fault_route_reconverge(&mut self, base_lag: SimDuration, jitter: SimDuration) {
        let now = self.now();
        let switch_list: Vec<NodeId> = self.topo.switches().collect();
        let host_list: Vec<NodeId> = self.topo.hosts().collect();
        // Per-switch application lag, drawn once per switch.
        let mut lags: BTreeMap<NodeId, SimDuration> = BTreeMap::new();
        for &s in &switch_list {
            let j = if jitter.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_ps(self.fault_rng.gen_range(jitter.as_ps() + 1))
            };
            lags.insert(s, base_lag + j);
        }
        let n = self.topo.node_count();
        for &dst in &host_list {
            // BFS from the destination over up links only.
            let mut dist = vec![u32::MAX; n];
            dist[dst.0 as usize] = 0;
            let mut q = std::collections::VecDeque::new();
            q.push_back(dst);
            while let Some(u) = q.pop_front() {
                if u != dst && self.topo.node(u).kind == NodeKind::Host {
                    continue; // hosts do not forward
                }
                let du = dist[u.0 as usize];
                for p in self.topo.ports(u) {
                    if !self.link_up[p.link.0 as usize] {
                        continue;
                    }
                    let v = p.peer;
                    if dist[v.0 as usize] == u32::MAX {
                        dist[v.0 as usize] = du + 1;
                        q.push_back(v);
                    }
                }
            }
            for &s in &switch_list {
                if self.reboots.contains_key(&s) {
                    continue; // a rebooting switch has no control plane
                }
                let ds = dist[s.0 as usize];
                let ports: Vec<PortNo> = if ds == u32::MAX {
                    Vec::new() // unreachable: the row black-holes
                } else {
                    self.topo
                        .ports(s)
                        .iter()
                        .filter(|p| {
                            self.link_up[p.link.0 as usize]
                                && dist[p.peer.0 as usize].saturating_add(1) == ds
                        })
                        .map(|p| p.port)
                        .collect()
                };
                self.schedule_route_update(now + lags[&s], s, dst, ports);
            }
        }
        for (s, lag) in lags {
            self.record_fault(FaultAction::RoutesReconverged { node: s, lag });
        }
    }

    /// Total bytes currently buffered in all switches.
    pub fn buffered_bytes(&self) -> Bytes {
        self.switches.iter().flatten().map(|s| s.buffered).sum()
    }
}

/// Duration of `quanta` × 512 bit-times at `rate`.
fn quanta_duration(quanta: u16, rate: BitRate) -> SimDuration {
    rate.serialization_time(Bytes::new(quanta as u64 * 512 / 8))
}

/// Exponentially-distributed duration with the given mean (≥ 1 ps).
fn exp_duration(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    let ps = rng.gen_exp(mean.as_ps() as f64).round().max(1.0);
    SimDuration::from_ps(ps as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
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
        let s1_from_s0 = IngressKey {
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
}

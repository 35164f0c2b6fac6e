//! Crash-safe checkpoint/resume for a running simulation.
//!
//! A [`Checkpoint`] is a complete, versioned image of a
//! [`NetSim`](crate::sim::NetSim) mid-run: the event queue's live
//! entries, every switch/host/flow runtime structure, per-ingress PFC
//! accounting, the deadlock tracker's pause state and epoch, accumulated
//! statistics, telemetry state, and both RNG streams. Restoring it with
//! [`NetSim::resume`](crate::sim::NetSim::resume) and continuing with
//! [`NetSim::resume_run`](crate::sim::NetSim::resume_run) produces a
//! final [`RunReport`](crate::sim::RunReport) *bit-identical* to the
//! uninterrupted run — the property the `determinism_golden` test pins
//! against the golden digest.
//!
//! ## On-disk format
//!
//! `pfcsim-checkpoint/1` frames (see [`pfcsim_simcore::snap`]): a magic
//! string, the config digest, a length-prefixed binary value tree, and an
//! FNV-1a-64 checksum over everything before it. Every load validates the
//! checksum *and* re-derives the config digest from the embedded
//! `SimConfig`; a truncated, bit-flipped, or foreign file is a typed
//! [`CheckpointError`], never a panic or a silently wrong resume.
//! [`Checkpoint::save`] writes to a temp file and renames it into place,
//! so a crash mid-write leaves the previous checkpoint intact.
//!
//! ## Typical round trip
//!
//! ```ignore
//! // Producer: pause mid-run, snapshot, keep going (or exit).
//! if sim.advance_until(pause_at, horizon).is_none() {
//!     sim.checkpoint()?.save(path)?;
//! }
//! // Consumer (same or different process):
//! let ckpt = Checkpoint::load(path)?;
//! let mut sim = NetSim::resume(ckpt)?;
//! let report = sim.resume_run();
//! ```

use pfcsim_simcore::event::Backend;
use pfcsim_simcore::rng::SimRng;
use pfcsim_simcore::snap;
use pfcsim_simcore::time::{SimDuration, SimTime};
use pfcsim_simcore::units::Bytes;
use pfcsim_simcore::wheel::{tick_shift_for_quantum, DEFAULT_TICK_SHIFT};
use pfcsim_topo::graph::{NodeKind, Topology};
use pfcsim_topo::ids::{FlowId, NodeId, PortNo, Priority};
use pfcsim_topo::routing::ForwardingTables;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::bdg::RxQueue;
use crate::config::{PfcConfig, SimConfig};
use crate::dcqcn::DcqcnConfig;
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::flow::FlowSpec;
use crate::host::{FlowRt, Host};
use crate::packet::{Frame, Packet};
use crate::sim::{Ev, Mark, RebootState, RouteUpdate};
use crate::stats::{extend_bytes, extend_count, FlowStats, NetStats, PauseKey};
use crate::switch::{InFlight, Switch, TxPause};
use crate::telemetry::TelemetryRecord;
use crate::timely::TimelyConfig;

/// Digest of a full [`SimConfig`]: FNV-1a-64 over its canonical binary
/// value encoding. Recorded in every
/// [`RunReport`](crate::sim::RunReport) and in every checkpoint frame
/// header; a resume refuses a checkpoint whose digest does not match the
/// live configuration.
pub fn config_digest(cfg: &SimConfig) -> u64 {
    snap::value_digest(cfg)
}

/// Why a checkpoint could not be produced, written, read, or restored.
///
/// Since the serve-API redesign this is an alias for the unified
/// workspace [`Error`](pfcsim_simcore::error::Error); the variant names
/// used by checkpoint code (`Io`, `Corrupt`, `Decode`,
/// `ConfigDigestMismatch`, `Unsupported`) are unchanged, so existing
/// matches keep compiling.
pub type CheckpointError = pfcsim_simcore::error::Error;

/// Image of the event queue: enough to rebuild pop-for-pop identical
/// behaviour on a fresh queue of the same backend.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct QueueSnapshot {
    /// The backend the run was using, so a resume continues on the
    /// same index structure.
    pub(crate) backend: Backend,
    /// Wheel tick shift (`None` for the heap).
    pub(crate) tick_shift: Option<u32>,
    pub(crate) now: SimTime,
    pub(crate) next_seq: u64,
    /// Live entries as `(time, seq, payload)`, ascending.
    pub(crate) entries: Vec<(SimTime, u64, Ev)>,
}

impl QueueSnapshot {
    /// Reject an image no queue can have produced before it reaches
    /// [`EventQueue::restore_state`](pfcsim_simcore::event::EventQueue::restore_state),
    /// which asserts some of this and silently trusts the rest. The frame
    /// checksum is FNV, not a MAC, so a checksum-valid frame can still
    /// carry entries before `now`, a reused sequence number (breaking the
    /// `(time, seq)` total order) or a tick geometry the backend never
    /// runs. The error names the offending field.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let bad = |field: &str, why: String| {
            Err(CheckpointError::Decode(format!("queue.{field}: {why}")))
        };
        // `Wheel` ticks come from `tick_shift_for_quantum`, clamped to
        // [6, 16]; the heap has none.
        match (self.backend, self.tick_shift) {
            (Backend::Wheel, Some(6..=16)) | (Backend::Heap, None) => {}
            (backend, shift) => {
                return bad(
                    "tick_shift",
                    format!("{shift:?} on the {backend:?} backend"),
                );
            }
        }
        let key = |e: &(SimTime, u64, Ev)| (e.0, e.1);
        if let Some(w) = self.entries.windows(2).find(|w| key(&w[0]) >= key(&w[1])) {
            return bad(
                "entries",
                format!("{:?} does not follow {:?}", key(&w[1]), key(&w[0])),
            );
        }
        if let Some(&(first, _, _)) = self.entries.first() {
            if first < self.now {
                return bad(
                    "entries",
                    format!("first entry at {first} predates now {}", self.now),
                );
            }
        }
        if let Some(seq) = self.entries.iter().map(|e| e.1).max() {
            if seq >= self.next_seq {
                return bad(
                    "next_seq",
                    format!("{} but seq {seq} is live", self.next_seq),
                );
            }
        }
        Ok(())
    }
}

/// A complete mid-run image of a [`NetSim`](crate::sim::NetSim). Produce
/// with [`NetSim::checkpoint`](crate::sim::NetSim::checkpoint), persist
/// with [`Checkpoint::save`], and turn back into a running simulator with
/// [`NetSim::resume`](crate::sim::NetSim::resume).
///
/// The image is self-contained: it embeds the topology, configuration,
/// and forwarding tables, so resuming needs nothing but the file.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    // --- identity: everything the sim was built from ---
    pub(crate) topo: Topology,
    pub(crate) cfg: SimConfig,
    pub(crate) tables: ForwardingTables,
    pub(crate) dcqcn_cfg: Option<DcqcnConfig>,
    pub(crate) timely_cfg: Option<TimelyConfig>,
    // --- scheduler ---
    pub(crate) queue: QueueSnapshot,
    pub(crate) meaningful: u64,
    pub(crate) horizon: SimTime,
    pub(crate) events: u64,
    // --- network state ---
    pub(crate) switches: Vec<Option<Switch>>,
    pub(crate) hosts: Vec<Option<Host>>,
    /// Dense per-channel transmitter pause state (see `Datapath::tx_pause`).
    pub(crate) tx_pause: Vec<TxPause>,
    pub(crate) switch_pfc: Vec<Option<PfcConfig>>,
    pub(crate) host_in_flight: Vec<Option<Packet>>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) frame_free: Vec<u32>,
    pub(crate) link_up: Vec<bool>,
    // --- flows ---
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) rt: Vec<FlowRt>,
    pub(crate) fstats: Vec<FlowStats>,
    pub(crate) fstats_touched: Vec<bool>,
    pub(crate) fmap: Vec<u32>,
    pub(crate) pinned: Vec<Vec<u16>>,
    pub(crate) traced: Vec<bool>,
    pub(crate) next_pkt_id: u64,
    // --- randomness ---
    pub(crate) rng: SimRng,
    pub(crate) fault_rng: SimRng,
    // --- detector ---
    pub(crate) dl_paused: Vec<u32>,
    pub(crate) dl_epoch: u64,
    pub(crate) last_clean_scan: Option<u64>,
    pub(crate) scans_run: u64,
    pub(crate) scans_skipped: u64,
    pub(crate) deadlock: Option<(SimTime, Vec<PauseKey>)>,
    // --- faults ---
    pub(crate) fault_events: Vec<(SimTime, FaultKind)>,
    pub(crate) route_updates: Vec<RouteUpdate>,
    pub(crate) pfc_loss: Vec<Option<f64>>,
    pub(crate) pfc_delay: Vec<Option<pfcsim_simcore::time::SimDuration>>,
    pub(crate) pause_headroom: Bytes,
    pub(crate) reboots: BTreeMap<NodeId, RebootState>,
    // --- hybrid fluid/packet backend ---
    /// Region state of the hybrid backend (`None` when off or idle).
    pub(crate) hybrid: Option<Box<crate::hybrid::HybridState>>,
    // --- sampling & telemetry ---
    pub(crate) stats: NetStats,
    pub(crate) watch_keys: Option<Vec<RxQueue>>,
    /// Written into every frame and read by nothing (`NetSim::from_image`
    /// derives what it needs from the flows).
    pub(crate) used_prios: u8,
    pub(crate) sample_keys: Vec<RxQueue>,
    pub(crate) telemetry: Option<TelemetryRecord>,
    pub(crate) trace_cap: u64,
}

impl Checkpoint {
    /// The image of a run before its first event: `tables` installed,
    /// idle switches and hosts, every link up, nothing paused, scheduled
    /// or detected, no flow, and an empty telemetry record when telemetry
    /// is on. `NetSim::construct` resumes it, so this and
    /// `NetSim::checkpoint` are the only writers of a frame's fields.
    pub(crate) fn fresh(topo: &Topology, cfg: SimConfig, tables: ForwardingTables) -> Checkpoint {
        let n = topo.node_count();
        let n_ports: usize = topo.nodes().iter().map(|n| topo.ports(n.id).len()).sum();
        // The wheel tick is sized from the fastest link's serialization
        // time for a default-size packet — the natural spacing of the
        // TxDone/Arrive events that dominate the queue.
        let backend = cfg.scheduler.unwrap_or(Backend::Wheel);
        let tick_shift = (topo.links().iter())
            .map(|l| l.rate.serialization_time(cfg.default_packet_size))
            .min()
            .map_or(DEFAULT_TICK_SHIFT, tick_shift_for_quantum);
        Checkpoint {
            topo: topo.clone(),
            tables,
            dcqcn_cfg: None,
            timely_cfg: None,
            queue: QueueSnapshot {
                backend,
                tick_shift: (backend == Backend::Wheel).then_some(tick_shift),
                now: SimTime::ZERO,
                next_seq: 0,
                entries: Vec::new(),
            },
            meaningful: 0,
            horizon: SimTime::MAX,
            events: 0,
            switches: (topo.nodes().iter())
                .map(|n| {
                    (n.kind == NodeKind::Switch).then(|| Switch::new(n.id, topo.ports(n.id).len()))
                })
                .collect(),
            hosts: (topo.nodes().iter())
                .map(|n| (n.kind == NodeKind::Host).then(|| Host::new(n.id)))
                .collect(),
            tx_pause: vec![TxPause::Open; n_ports * Priority::COUNT],
            switch_pfc: vec![None; n],
            host_in_flight: vec![None; n],
            frames: Vec::new(),
            frame_free: Vec::new(),
            link_up: vec![true; topo.link_count()],
            flows: Vec::new(),
            rt: Vec::new(),
            fstats: Vec::new(),
            fstats_touched: Vec::new(),
            fmap: Vec::new(),
            pinned: Vec::new(),
            traced: Vec::new(),
            next_pkt_id: 0,
            rng: SimRng::new(cfg.seed),
            fault_rng: SimRng::new(cfg.seed ^ 0xFA17_5EED_0DD5_EED5),
            dl_paused: Vec::new(),
            dl_epoch: 0,
            last_clean_scan: None,
            scans_run: 0,
            scans_skipped: 0,
            deadlock: None,
            fault_events: Vec::new(),
            route_updates: Vec::new(),
            pfc_loss: vec![None; n],
            pfc_delay: vec![None; n],
            pause_headroom: Bytes::from_kb(20),
            reboots: BTreeMap::new(),
            hybrid: None,
            stats: NetStats::default(),
            watch_keys: None,
            used_prios: 0,
            sample_keys: Vec::new(),
            telemetry: (cfg.telemetry.enabled).then(|| TelemetryRecord::fresh(&cfg.telemetry)),
            trace_cap: 1_000_000,
            cfg,
        }
    }

    /// Simulated time the checkpoint was taken at.
    pub fn sim_time(&self) -> SimTime {
        self.queue.now
    }

    /// The run's final horizon (resume continues to it).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Digest of the embedded configuration — the value written into the
    /// frame header by [`Checkpoint::to_bytes`].
    pub fn config_digest(&self) -> u64 {
        config_digest(&self.cfg)
    }

    /// Refuse to pair this checkpoint with a configuration other than
    /// the one it was produced under. The error names both digests.
    pub fn verify_config(&self, live: &SimConfig) -> Result<(), CheckpointError> {
        let ours = self.config_digest();
        let theirs = config_digest(live);
        if ours == theirs {
            Ok(())
        } else {
            Err(CheckpointError::ConfigDigestMismatch {
                checkpoint: ours,
                live: theirs,
            })
        }
    }

    /// The frame and `fnv1a` of it: the state streamed into one buffer,
    /// one hash pass over it.
    fn frame(&self) -> (Vec<u8>, u64) {
        snap::encode_frame_digest(self.config_digest(), self)
    }

    /// Encode as a `pfcsim-checkpoint/1` frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.frame().0
    }

    /// `fnv1a(&self.to_bytes())` — the state fingerprint a serve session
    /// reports as `state_digest` — without the frame: the state is
    /// streamed once to size the payload and once into the hash, and
    /// nothing is allocated.
    pub fn digest(&self) -> u64 {
        snap::frame_digest(self.config_digest(), self)
    }

    /// Decode a frame, validating magic, checksum, the header/payload
    /// config-digest agreement, that the frame is the one this build
    /// writes for the state it decodes to (the decoder skips members it
    /// does not know; their frame re-encodes to other bytes), and that
    /// the state is one a run can reach (`check_state`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (header_digest, value) = snap::decode_frame(bytes)?;
        let ckpt: Checkpoint = serde::Deserialize::from_value(&value)
            .map_err(|e| CheckpointError::Decode(e.to_string()))?;
        let embedded = ckpt.config_digest();
        if embedded != header_digest {
            // The checksum passed, so the frame is internally consistent
            // — this means the header was written for a different config
            // than the payload carries (a spliced or hand-edited file).
            return Err(CheckpointError::ConfigDigestMismatch {
                checkpoint: header_digest,
                live: embedded,
            });
        }
        if let Some(at) = snap::frame_differs_at(bytes, &ckpt) {
            return Err(CheckpointError::Decode(format!(
                "not the frame this build writes for its state: byte {at} differs \
                 (a member this build does not know, or a non-canonical encoding)"
            )));
        }
        ckpt.check_state()?;
        Ok(ckpt)
    }

    /// Write atomically: serialize to `<path>.tmp`, fsync, then rename
    /// over `path`. A crash mid-write leaves any previous checkpoint at
    /// `path` intact.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        self.save_digest(path).map(drop)
    }

    /// [`Checkpoint::save`], returning [`Checkpoint::digest`] of the
    /// frame written (same encode, same hash pass).
    pub fn save_digest(&self, path: impl AsRef<std::path::Path>) -> Result<u64, CheckpointError> {
        use std::io::Write;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let (bytes, digest) = self.frame();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(digest)
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Reject a checksum-valid frame whose parts contradict each other
    /// before `NetSim::resume` can build a simulator from it: every id an
    /// event, packet, flow, route or reboot names exists in the embedded
    /// topology, every table is sized for it, the event queue is one a run
    /// can produce (`QueueSnapshot::validate`), every switch is a state
    /// its datapath can produce (`Switch::check`), and the telemetry
    /// record is there iff telemetry is on and holds the configured sink
    /// (for JSONL the configured path, which a resume opens). The
    /// checksum is FNV, not a MAC, so a frame can pass it and still carry
    /// any of these; without this they panic the run at some later event
    /// or write where the config does not say. The error names the
    /// offending part.
    pub(crate) fn check_state(&self) -> Result<(), CheckpointError> {
        let bad = |why: String| Err(CheckpointError::Decode(why));
        let topo = &self.topo;
        if let Err(why) = topo.validate() {
            return bad(format!("topology: {why}"));
        }
        self.cfg
            .validate()
            .map_err(|e| CheckpointError::Decode(format!("config: {e}")))?;
        let n = topo.node_count();
        let is =
            |node: NodeId, kind: NodeKind| (node.0 as usize) < n && topo.node(node).kind == kind;
        let port_ok = |node: NodeId, port: PortNo| {
            (node.0 as usize) < n && (port.0 as usize) < topo.ports(node).len()
        };
        let flow_ok = |f: FlowId| {
            self.fmap
                .get(f.0 as usize)
                .is_some_and(|&i| (i as usize) < self.flows.len())
        };
        let route_ok = |node: NodeId, dst: NodeId, ports: &[PortNo]| {
            is(node, NodeKind::Switch)
                && (dst.0 as usize) < n
                && ports.iter().all(|&p| port_ok(node, p))
        };
        let n_chans: usize = (topo.nodes().iter())
            .map(|node| topo.ports(node.id).len() * Priority::COUNT)
            .sum();
        if self.switches.len() != n
            || self.hosts.len() != n
            || self.host_in_flight.len() != n
            || self.switch_pfc.len() != n
            || self.pfc_loss.len() != n
            || self.pfc_delay.len() != n
            || self.link_up.len() != topo.link_count()
            || self.tx_pause.len() != n_chans
        {
            return bad(
                "per-node, per-link or per-channel tables disagree with the topology".into(),
            );
        }
        self.queue.validate()?;
        // A resume opens the record's JSONL path for append: it must be
        // the configured one.
        if self.telemetry.is_some() != self.cfg.telemetry.enabled {
            return bad("telemetry: a record iff telemetry is on".into());
        }
        if let Some(rec) = &self.telemetry {
            if !rec.sink.fits(&self.cfg.telemetry.sink) {
                return bad("telemetry.sink: not the configured sink, or past its cap".into());
            }
        }

        for (at, _, ev) in &self.queue.entries {
            let ok = match *ev {
                Ev::Arrive { node, port, frame } => {
                    port_ok(node, port) && (frame as usize) < self.frames.len()
                }
                Ev::TxDone { node, port } | Ev::ShaperRelease { node, port } => {
                    is(node, NodeKind::Switch) && port_ok(node, port)
                }
                Ev::PauseRefresh { node, port, prio } | Ev::PauseExpire { node, port, prio } => {
                    port_ok(node, port) && (prio as usize) < Priority::COUNT
                }
                Ev::HostTxDone { host } | Ev::HostWake { host } => is(host, NodeKind::Host),
                Ev::FlowTick { flow }
                | Ev::OnOffToggle { flow }
                | Ev::FlowStart { flow }
                | Ev::FlowStop { flow }
                | Ev::Cnp { flow }
                | Ev::RttSample { flow, .. }
                | Ev::DcqcnAlpha { flow }
                | Ev::DcqcnRate { flow } => flow_ok(flow),
                Ev::RouteUpdate { idx } => idx < self.route_updates.len(),
                Ev::Fault { idx } => idx < self.fault_events.len(),
                Ev::SwitchRestore { node } => is(node, NodeKind::Switch),
                Ev::RecoveryScan => self.cfg.recovery.is_some(),
                Ev::TelemetrySample => self.telemetry.is_some(),
                Ev::Sample | Ev::DeadlockScan => true,
            };
            if !ok {
                return bad(format!(
                    "queue.entries: {ev:?} at {at} names nothing that exists"
                ));
            }
        }
        if self
            .frame_free
            .iter()
            .any(|&f| f as usize >= self.frames.len())
        {
            return bad("frame_free: a slot past the frame slab".into());
        }

        for (i, (sw, host)) in self.switches.iter().zip(&self.hosts).enumerate() {
            let node = NodeId(i as u32);
            let kind = topo.node(node).kind;
            if sw.is_some() != (kind == NodeKind::Switch)
                || host.is_some() != (kind == NodeKind::Host)
            {
                return bad(format!("node {node}: state of the wrong node kind"));
            }
            if let Some(sw) = sw {
                let n_ports = topo.ports(node).len();
                sw.check(
                    node,
                    n_ports,
                    self.cfg.arbitration,
                    self.cfg.track_per_flow_occupancy,
                )
                .map_err(CheckpointError::Decode)?;
            }
            if let Some(h) = host {
                if h.node != node || !h.rr.iter().all(|&f| flow_ok(f)) {
                    return bad(format!("host {node}: foreign id or flow"));
                }
            }
            if self.host_in_flight[i].is_some() && kind != NodeKind::Host {
                return bad(format!("node {node}: a NIC packet on a switch"));
            }
        }
        let pkt_ok = |p: &Packet| {
            flow_ok(p.flow) && (p.dst.0 as usize) < n && p.priority.index() < Priority::COUNT
        };
        let mut packets = (self.switches.iter().flatten())
            .flat_map(|sw| {
                let queued = sw.egress.iter().flat_map(|eg| {
                    let serializing = match &eg.in_flight {
                        Some(InFlight::Data(qp)) => Some(&qp.pkt),
                        _ => None,
                    };
                    eg.queues
                        .iter()
                        .flat_map(|q| q.iter().map(|qp| &qp.pkt))
                        .chain(serializing)
                });
                queued.chain(sw.ingress.iter().flat_map(|ing| ing.shaper_q.iter()))
            })
            .chain(self.host_in_flight.iter().flatten())
            .chain(self.rt.iter().flat_map(|rt| rt.backlog.iter()))
            .chain(self.frames.iter().filter_map(|f| match f {
                Frame::Data(p) => Some(p),
                Frame::Pfc(_) => None,
            }));
        if !packets.all(pkt_ok) {
            return bad("a packet of an unknown flow, destination or class".into());
        }

        for (i, f) in self.flows.iter().enumerate() {
            let pinned = self.pinned.get(i);
            let pins_ok = pinned.is_some_and(|pins| {
                pins.len() <= n
                    && (pins.iter().enumerate())
                        .all(|(node, &p)| p == u16::MAX || port_ok(NodeId(node as u32), PortNo(p)))
            });
            if self.fmap.get(f.id.0 as usize) != Some(&(i as u32))
                || !is(f.src, NodeKind::Host)
                || !is(f.dst, NodeKind::Host)
                || f.priority.index() >= Priority::COUNT
                || !pins_ok
            {
                return bad(format!("flow {}: ids or pinned ports out of range", f.id));
            }
        }
        let n_flows = self.flows.len();
        if self.pinned.len() != n_flows
            || self.rt.len() != n_flows
            || self.fstats.len() != n_flows
            || self.fstats_touched.len() != n_flows
        {
            return bad("flow tables: not one row per flow".into());
        }
        if self
            .dl_paused
            .iter()
            .any(|&c| c as usize >= self.tx_pause.len())
        {
            return bad("dl_paused: a channel past the pause table".into());
        }
        if !self.tables.is_sized_for(topo) {
            return bad("tables: not one row per node".into());
        }
        let mut routes =
            (topo.switches()).flat_map(|s| self.tables.entries(s).map(move |(d, p)| (s, d, p)));
        if !routes.all(|(s, d, p)| route_ok(s, d, p))
            || !self
                .route_updates
                .iter()
                .all(|u| route_ok(u.node, u.dst, &u.ports))
        {
            return bad("a route names a port or node that does not exist".into());
        }
        let plan = FaultPlan {
            events: (self.fault_events.iter())
                .map(|(at, kind)| FaultEvent {
                    at: *at,
                    kind: kind.clone(),
                })
                .collect(),
            pause_headroom: self.pause_headroom,
        };
        plan.validate(topo)
            .map_err(|e| CheckpointError::Decode(format!("fault_events: {e}")))?;
        for (node, st) in &self.reboots {
            let links_ok = st.links.iter().all(|l| (l.0 as usize) < topo.link_count());
            if !links_ok || !st.routes.iter().all(|(d, p)| route_ok(*node, *d, p)) {
                return bad(format!(
                    "reboots: {node} names a link or port that does not exist"
                ));
            }
        }
        let mut keys = self
            .sample_keys
            .iter()
            .chain(self.watch_keys.iter().flatten());
        if !keys.all(|k| {
            is(k.node, NodeKind::Switch)
                && port_ok(k.node, k.port)
                && k.priority.index() < Priority::COUNT
        }) {
            return bad("a sampled queue that does not exist".into());
        }
        Ok(())
    }

    /// The image of the same run `k` periods later: the fast-forward
    /// jump (see `crate::sim::period`). The run is back, one `period`
    /// after `mark.at`, in the behavioural state it was in then, so
    /// shifting every time the image holds by `k` periods gives the
    /// state the full run reaches then, and every write-only quantity
    /// grows by `k` times what the last period added. `metrics` are the
    /// telemetry metrics now.
    pub(crate) fn skip_periods(
        &mut self,
        mark: &Mark,
        period: SimDuration,
        metrics: &[f64],
        k: u64,
    ) {
        let d = period.saturating_mul(k);
        let Checkpoint {
            // Fixed for the run.
            topo: _,
            cfg: _,
            tables: _,
            dcqcn_cfg: _,
            timely_cfg: _,
            meaningful: _,
            horizon: _,
            switch_pfc: _,
            fmap,
            pinned: _,
            traced: _,
            pause_headroom: _,
            watch_keys: _,
            used_prios: _,
            sample_keys: _,
            trace_cap: _,
            flows: _,
            fault_events: _,
            route_updates: _,
            reboots: _,
            // Hold no instant and grow with no period.
            link_up: _,
            fstats_touched: _,
            frame_free: _,
            rng: _,
            fault_rng: _,
            dl_paused: _,
            pfc_loss: _,
            pfc_delay: _,
            deadlock: _,
            hybrid: _,
            queue,
            events,
            switches,
            hosts,
            tx_pause,
            host_in_flight,
            frames,
            rt,
            fstats,
            next_pkt_id,
            dl_epoch,
            last_clean_scan,
            scans_run,
            scans_skipped,
            stats,
            telemetry,
        } = self;
        // Packet ids and sequence numbers are write-only; shift them by
        // what the skipped periods would have issued.
        let ids = k * (*next_pkt_id - mark.next_pkt_id);
        let seqs: Vec<u64> = (rt.iter().zip(&mark.flow_rt))
            .map(|(rt, &(seq, _))| k * (rt.next_seq - seq))
            .collect();
        let shift = |p: &mut Packet| {
            p.id += ids;
            p.seq += seqs[fmap[p.flow.0 as usize] as usize];
            p.injected_at += d;
        };
        queue.now += d;
        for (at, _, _) in &mut queue.entries {
            *at += d;
        }
        extend_count(events, mark.events, k);
        for sw in switches.iter_mut().flatten() {
            for ing in &mut sw.ingress {
                if let Some(tb) = &mut ing.shaper {
                    tb.last_update += d;
                }
                ing.shaper_q.iter_mut().for_each(shift);
            }
            for eg in &mut sw.egress {
                for q in eg.queues.iter_mut() {
                    q.subs
                        .iter_mut()
                        .flatten()
                        .for_each(|qp| shift(&mut qp.pkt));
                    q.fifo.iter_mut().for_each(|qp| shift(&mut qp.pkt));
                }
                if let Some(InFlight::Data(qp)) = &mut eg.in_flight {
                    shift(&mut qp.pkt);
                }
                for (_, last) in &mut eg.phantom {
                    *last += d;
                }
            }
        }
        for (h, &then) in hosts.iter_mut().zip(&mark.received) {
            if let Some(h) = h {
                if let Some(t) = &mut h.wake_at {
                    *t += d;
                }
                extend_bytes(&mut h.received, then, k);
            }
        }
        for p in tx_pause.iter_mut() {
            if let TxPause::Until(t) = p {
                *t += d;
            }
        }
        host_in_flight.iter_mut().flatten().for_each(shift);
        for f in frames.iter_mut() {
            if let Frame::Data(p) = f {
                shift(p);
            }
        }
        for (r, &(seq, injected)) in rt.iter_mut().zip(&mark.flow_rt) {
            r.backlog.iter_mut().for_each(shift);
            r.next_send += d;
            if let Some(t) = &mut r.last_cnp {
                *t += d;
            }
            extend_count(&mut r.next_seq, seq, k);
            extend_bytes(&mut r.injected, injected, k);
        }
        for (fs, then) in fstats.iter_mut().zip(&mark.flow_stats) {
            fs.extend_periods(then, k, period);
        }
        extend_count(next_pkt_id, mark.next_pkt_id, k);
        extend_count(dl_epoch, mark.dl_epoch, k);
        if let (Some(now), Some(then)) = (last_clean_scan.as_mut(), mark.last_clean_scan) {
            extend_count(now, then, k);
        }
        extend_count(scans_run, mark.scans_run, k);
        extend_count(scans_skipped, mark.scans_skipped, k);
        stats.extend_periods(&mark.stats, k, period);
        if let (Some(t), Some(then)) = (telemetry.as_mut(), &mark.telemetry) {
            t.extend_periods(then, metrics, k, period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::NetSim;
    use pfcsim_simcore::snap::SnapError;

    #[test]
    fn config_digest_is_stable_and_config_sensitive() {
        let a = SimConfig::default();
        let mut b = SimConfig::default();
        assert_eq!(config_digest(&a), config_digest(&b));
        b.seed = a.seed.wrapping_add(1);
        assert_ne!(config_digest(&a), config_digest(&b));
    }

    /// A real mid-run image (the golden scenario paused at 1 ms): the
    /// single-pass frame is byte-identical to the two-buffer layout it
    /// replaced, and `digest()` is `fnv1a` of exactly those bytes.
    #[test]
    fn mid_run_frame_and_digest_match_the_two_buffer_layout() {
        let mut sim = crate::golden::build_sim(None);
        assert!(sim
            .advance_until(SimTime::from_ms(1), crate::golden::DRAIN_UNTIL)
            .is_none());
        let ckpt = sim.checkpoint().expect("checkpointable");

        let mut body = Vec::new();
        snap::encode_value(&serde::Serialize::to_value(&ckpt), &mut body);
        let mut reference = snap::MAGIC.to_vec();
        reference.extend_from_slice(&ckpt.config_digest().to_le_bytes());
        reference.extend_from_slice(&(body.len() as u64).to_le_bytes());
        reference.extend_from_slice(&body);
        let checksum = snap::fnv1a(&reference);
        reference.extend_from_slice(&checksum.to_le_bytes());

        let bytes = ckpt.to_bytes();
        assert!(bytes.len() > 10_000, "a real image, not a toy");
        assert_eq!(bytes, reference);
        assert_eq!(ckpt.digest(), snap::fnv1a(&bytes));
        assert_eq!(ckpt.digest(), snap::fnv1a(&reference));
    }

    /// A frame written before `hybrid` existed (here: the golden run's,
    /// re-encoded without the key) is refused with a typed `Decode`, as
    /// is one whose `hybrid` is malformed: the field has no default.
    #[test]
    fn a_pre_hybrid_frame_is_refused() {
        use crate::golden::{self, DRAIN_UNTIL, STOP_AT};
        use serde::value::Value;
        let mut sim = golden::build_sim(None);
        sim.schedule_flow_stops(STOP_AT);
        assert!(sim
            .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
            .is_none());
        let frame = sim.checkpoint().expect("checkpointable").to_bytes();

        let (cfg_digest, mut doc) = snap::decode_frame(&frame).expect("own frame");
        let Value::Object(members) = &mut doc else {
            panic!("a checkpoint is an object");
        };
        let before = members.len();
        members.retain(|(k, _)| k != "hybrid");
        assert_eq!(members.len(), before - 1, "the frame had a `hybrid` key");
        let old = snap::encode_frame(cfg_digest, &doc);
        match Checkpoint::from_bytes(&old) {
            Err(CheckpointError::Decode(msg)) => assert!(msg.contains("hybrid"), "{msg}"),
            Err(e) => panic!("a frame without `hybrid`: wrong error {e}"),
            Ok(_) => panic!("a frame without `hybrid` was accepted"),
        }

        let Value::Object(members) = &mut doc else {
            unreachable!()
        };
        members.push(("hybrid".into(), Value::Bool(true)));
        let bad = snap::encode_frame(cfg_digest, &doc);
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::Decode(_))
        ));
    }

    /// A checksum-valid frame whose event queue no run can have produced
    /// — the golden 1 500 µs frame with one queue field edited and the
    /// checksum recomputed — decodes to a typed `Decode` naming that
    /// field, not a panic inside `restore_state` and not a resume that
    /// silently breaks the `(time, seq)` total order.
    #[test]
    fn decode_rejects_an_impossible_event_queue() {
        use crate::golden::{self, DRAIN_UNTIL, STOP_AT};
        let mut sim = golden::build_sim(None);
        sim.schedule_flow_stops(STOP_AT);
        assert!(sim
            .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
            .is_none());
        let frame = sim.checkpoint().expect("checkpointable").to_bytes();

        type Edit = fn(&mut QueueSnapshot);
        let rows: [(&str, Edit, &str); 7] = [
            (
                "two entries swapped",
                |q| q.entries.swap(0, 1),
                "queue.entries",
            ),
            (
                "an entry duplicated",
                |q| q.entries[1] = q.entries[0].clone(),
                "queue.entries",
            ),
            (
                "first entry before now",
                |q| q.entries[0].0 = SimTime::from_ps(q.now.as_ps() - 1),
                "queue.entries",
            ),
            ("next_seq reused", |q| q.next_seq = 0, "queue.next_seq"),
            (
                "wheel tick out of range",
                |q| q.tick_shift = Some(70),
                "queue.tick_shift",
            ),
            (
                "wheel without a tick",
                |q| q.tick_shift = None,
                "queue.tick_shift",
            ),
            (
                "heap with a tick",
                |q| q.backend = Backend::Heap,
                "queue.tick_shift",
            ),
        ];
        for (row, edit, field) in rows {
            let mut ckpt = Checkpoint::from_bytes(&frame).expect("golden frame");
            assert!(ckpt.queue.entries.len() > 2, "a real queue");
            edit(&mut ckpt.queue);
            match Checkpoint::from_bytes(&ckpt.to_bytes()) {
                Err(CheckpointError::Decode(msg)) => {
                    assert!(msg.contains(field), "{row}: {msg}")
                }
                Err(e) => panic!("{row}: wrong error {e}"),
                Ok(_) => panic!("{row}: accepted"),
            }
        }
        // The unedited frame still resumes.
        let ckpt = Checkpoint::from_bytes(&frame).expect("golden frame");
        assert!(NetSim::resume(ckpt).is_ok());
    }

    /// A checksum-valid frame whose telemetry record disagrees with its
    /// config decodes to a typed `Decode`: the record must be there iff
    /// telemetry is on, hold the configured sink (for JSONL the
    /// configured path, which a resume would open for append) and keep
    /// no more events than its cap.
    #[test]
    fn decode_rejects_telemetry_that_disagrees_with_the_config() {
        use crate::telemetry::{Sink, TelemetryConfig, TraceSinkKind};
        use pfcsim_topo::builders::{square, LinkSpec};
        let b = square(LinkSpec::default());
        let mut cfg = SimConfig::default();
        cfg.telemetry = TelemetryConfig::on();
        let mut sim = crate::sim::SimBuilder::new(&b.topo).config(cfg).build();
        sim.add_flow(crate::flow::FlowSpec::infinite(0, b.hosts[0], b.hosts[2]));
        assert!(sim
            .advance_until(SimTime::from_us(20), SimTime::from_us(40))
            .is_none());
        let frame = sim.checkpoint().expect("checkpointable").to_bytes();
        let jsonl = |path: &str| TraceSinkKind::Jsonl { path: path.into() };
        let recorded = |path: &str| Sink::Jsonl {
            path: path.into(),
            recorded: 0,
        };

        type Edit = Box<dyn Fn(&mut Checkpoint)>;
        let rows: [(&str, Edit, &str); 5] = [
            (
                "record missing",
                Box::new(|c| c.telemetry = None),
                "telemetry:",
            ),
            (
                "telemetry off",
                Box::new(|c| c.cfg.telemetry.enabled = false),
                "telemetry:",
            ),
            (
                "another sink",
                Box::new(|c| c.telemetry.as_mut().unwrap().sink = Sink::Null { recorded: 0 }),
                "telemetry.sink",
            ),
            (
                "another JSONL path",
                Box::new(move |c| {
                    c.cfg.telemetry.sink = jsonl("trace.jsonl");
                    c.telemetry.as_mut().unwrap().sink = recorded("elsewhere.jsonl");
                }),
                "telemetry.sink",
            ),
            (
                "more events than the cap",
                Box::new(|c| match &mut c.telemetry.as_mut().unwrap().sink {
                    Sink::Memory { events, cap, .. } => *cap = events.len() as u64 - 1,
                    other => panic!("a memory sink, not {other:?}"),
                }),
                "telemetry.sink",
            ),
        ];
        for (row, edit, field) in rows {
            let mut ckpt = Checkpoint::from_bytes(&frame).expect("own frame");
            edit(&mut ckpt);
            match Checkpoint::from_bytes(&ckpt.to_bytes()) {
                Err(CheckpointError::Decode(msg)) => {
                    assert!(msg.contains(field), "{row}: {msg}")
                }
                Err(e) => panic!("{row}: wrong error {e}"),
                Ok(_) => panic!("{row}: accepted"),
            }
        }
        // The configured JSONL path, and the unedited frame, decode.
        let mut ckpt = Checkpoint::from_bytes(&frame).expect("own frame");
        ckpt.cfg.telemetry.sink = jsonl("trace.jsonl");
        ckpt.telemetry.as_mut().unwrap().sink = recorded("trace.jsonl");
        assert!(Checkpoint::from_bytes(&ckpt.to_bytes()).is_ok());
        let ckpt = Checkpoint::from_bytes(&frame).expect("own frame");
        assert!(NetSim::resume(ckpt).is_ok());
    }

    /// A checksum-valid frame whose fault plan names link 1 of a pair
    /// joined by one link — the golden 1 500 µs frame, each of its link
    /// faults edited in turn — decodes to a typed `Decode`, not the
    /// panic a resume would hit when the fault fires.
    #[test]
    fn decode_rejects_a_fault_on_a_link_that_does_not_exist() {
        use crate::golden::{self, DRAIN_UNTIL, STOP_AT};
        let mut sim = golden::build_sim(None);
        sim.schedule_flow_stops(STOP_AT);
        assert!(sim
            .advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
            .is_none());
        let frame = sim.checkpoint().expect("checkpointable").to_bytes();
        let golden = Checkpoint::from_bytes(&frame).expect("golden frame");
        let mut edited = 0;
        for i in 0..golden.fault_events.len() {
            let mut ckpt = Checkpoint::from_bytes(&frame).expect("golden frame");
            match &mut ckpt.fault_events[i].1 {
                FaultKind::LinkDown { link, .. } | FaultKind::LinkUp { link, .. } => *link = 1,
                _ => continue,
            }
            edited += 1;
            match Checkpoint::from_bytes(&ckpt.to_bytes()) {
                Err(CheckpointError::Decode(msg)) => assert!(
                    msg.starts_with("fault_events: ") && msg.contains("no link 1 between"),
                    "{msg}"
                ),
                Err(e) => panic!("event {i}: wrong error {e}"),
                Ok(_) => panic!("event {i}: accepted"),
            }
        }
        assert!(edited >= 2, "the golden run's link faults");
    }

    #[test]
    fn load_rejects_garbage_and_truncation() {
        assert!(matches!(
            Checkpoint::from_bytes(b"not a checkpoint at all"),
            Err(CheckpointError::Corrupt(SnapError::BadMagic))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&snap::MAGIC[..7]),
            Err(CheckpointError::Corrupt(SnapError::Truncated))
        ));
    }

    #[test]
    fn error_display_names_both_digests() {
        let e = CheckpointError::ConfigDigestMismatch {
            checkpoint: 0xABCD,
            live: 0x1234,
        };
        let msg = e.to_string();
        assert!(msg.contains("0x000000000000abcd"), "{msg}");
        assert!(msg.contains("0x0000000000001234"), "{msg}");
    }
}
